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
from qsdcnet.protocol import EveKind, EveModel
from qsdcnet.qstate import (
    BELL_ORDER,
    BellLabel,
    NoiseParams,
    PauliEncoding,
    TwoQubitState,
    apply_noise,
    bell_state,
    fidelity,
)


def random_density_matrix(seed: int) -> TwoQubitState:
    """A random valid two-qubit density matrix (Ginibre construction)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def bell_diagonal(state: TwoQubitState) -> dict[BellLabel, float]:
    """Probabilities of each Bell-basis projection, <b|rho|b>."""
    return {label: fidelity(state, label) for label in BELL_ORDER}


def maximally_mixed() -> TwoQubitState:
    return TwoQubitState(np.eye(4, dtype=complex) / 4.0)


def purity(state: TwoQubitState) -> float:
    return float(np.trace(state.rho @ state.rho).real)


_ID2 = np.eye(2, dtype=complex)
_ENCODING_MATRIX = {
    PauliEncoding.I: _ID2,
    PauliEncoding.SIGMA_Z: np.array([[1, 0], [0, -1]], dtype=complex),
    PauliEncoding.SIGMA_X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliEncoding.MINUS_I_SIGMA_Y: np.array([[0, -1], [1, 0]], dtype=complex),
}


def apply_encoding(state: TwoQubitState, encoding: PauliEncoding) -> TwoQubitState:
    """Apply the encoding unitary to the first (sender's) qubit.

    On bell_state(PHI_PLUS) the four encodings produce phi+, phi-, psi+ and
    psi- respectively, matching the 2-bit code table.
    """
    unitary = np.kron(_ENCODING_MATRIX[encoding], _ID2)
    return TwoQubitState(unitary @ state.rho @ unitary.conj().T)


# Measurement projectors on one time-bin qubit. Z outcomes are (s, l);
# X outcomes are ((s+l)/sqrt2, (s-l)/sqrt2).
_Z_STATES = (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
_X_STATES = (
    np.array([1, 1], dtype=complex) / np.sqrt(2),
    np.array([1, -1], dtype=complex) / np.sqrt(2),
)
_BASIS_STATES = {"Z": _Z_STATES, "X": _X_STATES}


def _projector(vector: np.ndarray) -> np.ndarray:
    return np.outer(vector, vector.conj())


def _nonselective_measure_qubit(rho: np.ndarray, qubit: int, basis: str) -> np.ndarray:
    """Decohere one qubit in a basis: the measure-and-resend channel."""
    out = np.zeros_like(rho)
    for vector in _BASIS_STATES[basis]:
        p = _projector(vector)
        full = np.kron(p, _ID2) if qubit == 0 else np.kron(_ID2, p)
        out += full @ rho @ full
    return out


def detection_branch_cumulative_oracle(noise: NoiseParams) -> np.ndarray:
    """``protocol._detection_branch_cumulative`` from 4x4 density matrices.

    The noisy phi+ pair, Eve's measure-and-resend on Bob's qubit and each
    joint (alice, bob) outcome's projector, traced one at a time.
    """
    rho = apply_noise(bell_state(BellLabel.PHI_PLUS), noise).rho
    states = {0: rho}
    states[1] = _nonselective_measure_qubit(rho, 1, "Z")
    states[2] = _nonselective_measure_qubit(rho, 1, "X")
    table = np.zeros((2, 3, 4))
    for bob_index, basis in enumerate(("Z", "X")):
        vectors = _BASIS_STATES[basis]
        for eve_action, state in states.items():
            joint = []
            for a in (0, 1):
                for b in (0, 1):
                    measurement = np.kron(_projector(vectors[a]), _projector(vectors[b]))
                    joint.append(float(np.trace(measurement @ state).real))
            probs = np.clip(np.array(joint), 0.0, None)
            table[bob_index, eve_action] = np.cumsum(probs / probs.sum())
    table[..., -1] = 1.0
    return table


def encoding_cumulative_oracle(noise: NoiseParams, eve: EveModel) -> np.ndarray:
    """``protocol._encoding_cumulative`` from 4x4 density matrices.

    Each encoding unitary and Eve's Z/X measure-and-resend act on the noisy
    pair's matrix; the row is the result's Bell-basis diagonal.
    """
    base = apply_noise(bell_state(BellLabel.PHI_PLUS), noise)
    table = np.zeros((4, 4))
    for code, encoding in enumerate(PauliEncoding):
        rho = apply_encoding(base, encoding).rho
        if eve.kind is EveKind.INTERCEPT_RESEND and eve.fraction > 0.0:
            dephased = 0.5 * (
                _nonselective_measure_qubit(rho, 0, "Z")
                + _nonselective_measure_qubit(rho, 0, "X")
            )
            rho = (1.0 - eve.fraction) * rho + eve.fraction * dephased
        diag = bell_diagonal(TwoQubitState(rho))
        diagonal = np.array([diag[label] for label in BELL_ORDER])
        table[code] = np.cumsum(diagonal / diagonal.sum())
    table[:, -1] = 1.0
    return table


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
    diagonal = bell_diagonal(state)
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


def bits_to_hex_oracle(bits: str) -> str:
    """Hex of a bitstring through one Python int.

    The reference for ``protocol.bits_to_hex``, which packs with numpy.
    """
    if not bits:
        return ""
    # int() alone would also take a sign, a 0b prefix, underscores and spaces.
    if not bits.isdecimal():
        raise ValueError(f"not a bitstring: {bits[:32]!r}")
    padded = bits + "0" * (-len(bits) % 4)
    return format(int(padded, 2), f"0{len(padded) // 4}x")


def hex_to_bits_oracle(hex_string: str, bit_length: int | None = None) -> str:
    """Bitstring of a hex string through one Python int.

    The reference for ``protocol.hex_to_bits``, which unpacks with numpy.
    """
    bits = ""
    if hex_string:
        # int() alone would also take a 0x prefix, underscores and spaces.
        if not hex_string.isalnum() or "x" in hex_string.lower():
            raise ValueError(f"not a hex string: {hex_string[:32]!r}")
        bits = format(int(hex_string, 16), f"0{4 * len(hex_string)}b")
    if bit_length is not None:
        if bit_length > len(bits):
            raise DomainError(
                f"bit_length {bit_length} exceeds the {len(bits)} bits in the hex string"
            )
        bits = bits[:bit_length]
    return bits


def sample_oracle(table: np.ndarray, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling against whole rows of a cumulative table.

    The reference for ``protocol._sample``, which compares one column at a
    time: per draw, the number of entries of its row that the draw exceeds.
    """
    return (draws[:, None] > table[rows]).sum(axis=1)


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
