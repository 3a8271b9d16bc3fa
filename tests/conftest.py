import numpy as np
import pytest

from qsdcnet.analysis import QberEstimate, qber_from_counts
from qsdcnet.errors import DomainError
from qsdcnet.photonics import (
    Devices,
    DetectorSpec,
    FiberSpec,
    ModulatorSpec,
    SfgSpec,
    SourceSpec,
)
from qsdcnet.qstate import BELL_ORDER, BellLabel, NoiseParams, TwoQubitState


def random_density_matrix(seed: int) -> TwoQubitState:
    """A random valid two-qubit density matrix (Ginibre construction)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def sfg_bsm(
    state: TwoQubitState, spec: SfgSpec, rng: np.random.Generator
) -> BellLabel | None:
    """Scalar Bell-state measurement through sum-frequency generation.

    The per-pair oracle for the vectorized block path in
    ``protocol.transmit_and_decode_block``. With probability
    conversion_efficiency the pair converts and the outcome is sampled from
    the Bell-basis diagonal of the state, so all four labels are
    distinguishable in a single shot; otherwise the pair is erased and None
    is returned. Misidentification enters only through state noise.
    """
    if rng.random() >= spec.conversion_efficiency:
        return None
    diagonal = state.bell_diagonal()
    weights = np.array([diagonal[label] for label in BELL_ORDER])
    weights = weights / weights.sum()
    draw = rng.random()
    cumulative = np.cumsum(weights)
    index = int(np.searchsorted(cumulative, draw, side="right"))
    return BELL_ORDER[min(index, 3)]


def qber_from_transcript(records) -> QberEstimate:
    """Scalar QBER estimate from detection records, one at a time.

    The per-record oracle for the counts that ``protocol.DetectionBatch``
    takes with array ops. A record is the payload of one
    ``detection_record`` transcript line: a dict with ``basis`` ("Z" or
    "X"), ``alice_outcome`` and ``bob_outcome``.
    """
    n_z = errors_z = n_x = errors_x = 0
    for record in records:
        mismatch = record["alice_outcome"] != record["bob_outcome"]
        if record["basis"] == "Z":
            n_z += 1
            errors_z += mismatch
        elif record["basis"] == "X":
            n_x += 1
            errors_x += mismatch
        else:
            raise DomainError(f"unknown basis {record['basis']!r}")
    return qber_from_counts(n_z, errors_z, n_x, errors_x)


def make_devices(
    fiber_km: float = 0.0,
    attenuation: float = 0.2,
    efficiency: float = 1.0,
    conversion: float = 1.0,
    sfg_max_hz: float = 1e5,
    mod_rate_hz: float = 1e5,
    noise: NoiseParams | None = None,
    dark_hz: float = 0.0,
) -> Devices:
    """Device suite with one knob per common test axis."""
    return Devices(
        alice_fiber=FiberSpec(fiber_km, attenuation),
        bob_fiber=FiberSpec(fiber_km, attenuation),
        detector=DetectorSpec(efficiency, dark_hz),
        sfg=SfgSpec(conversion, sfg_max_hz),
        modulator=ModulatorSpec(mod_rate_hz),
        source=SourceSpec(1e6, noise or NoiseParams()),
    )


@pytest.fixture
def ideal_devices() -> Devices:
    return make_devices()
