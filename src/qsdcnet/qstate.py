"""Exact two-qubit time-bin state algebra.

Density matrices live on the ordered product basis (ss, sl, ls, ll), where
``s`` and ``l`` label the short and long interferometer paths of each photon.
Single-qubit operators use the convention sigma_z = diag(1, -1) in (s, l) and
sigma_x |s> = |l>. Everything here is a pure function over immutable 4x4
complex arrays, safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InsufficientData, InvariantViolation

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = 1e-10


class BellLabel(Enum):
    """The four Bell states and their agreed 2-bit codes."""

    PHI_PLUS = "00"
    PHI_MINUS = "01"
    PSI_PLUS = "10"
    PSI_MINUS = "11"


# The code table: message code i (the 2-bit value 0..3) is sent as
# PauliEncoding member i, which turns phi+ into BELL_ORDER[i], and
# BELL_ORDER[i].value spells i in binary. Sessions index with the code.
BELL_ORDER = tuple(BellLabel)


class PauliEncoding(Enum):
    """Unitaries applied to the sender's qubit; member i encodes code i."""

    I = "I"
    SIGMA_Z = "sigma_z"
    SIGMA_X = "sigma_x"
    MINUS_I_SIGMA_Y = "minus_i_sigma_y"


_ID2 = np.eye(2, dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_SQRT_HALF = 1.0 / np.sqrt(2.0)

# Basis order (ss, sl, ls, ll).
_BELL_VECTOR = {
    BellLabel.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _SQRT_HALF,
    BellLabel.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _SQRT_HALF,
    BellLabel.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _SQRT_HALF,
    BellLabel.PSI_MINUS: np.array([0, -1, 1, 0], dtype=complex) * _SQRT_HALF,
}


@dataclass(frozen=True)
class NoiseParams:
    """Calibration knobs for the source/channel noise model.

    depolarizing_p mixes in the maximally mixed state, dephasing_q applies an
    independent phase flip to each qubit with that probability, and
    phase_offset_rad rotates the ss<->ll coherence by a fixed angle.
    """

    depolarizing_p: float = 0.0
    dephasing_q: float = 0.0
    phase_offset_rad: float = 0.0

    def __post_init__(self):
        for name in ("depolarizing_p", "dephasing_q"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must be in [0, 1], got {value}")


class TwoQubitState:
    """A validated 4x4 density matrix over the (ss, sl, ls, ll) basis."""

    __slots__ = ("rho",)

    def __init__(self, rho: np.ndarray):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise InvariantViolation(f"density matrix must be 4x4, got {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
            raise InvariantViolation("density matrix is not Hermitian")
        trace = np.trace(rho).real
        if abs(trace - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"density matrix trace is {trace}, expected 1")
        eigenvalues = np.linalg.eigvalsh(rho)
        if eigenvalues.min() < -EIGENVALUE_TOL:
            raise InvariantViolation(
                f"density matrix has negative eigenvalue {eigenvalues.min():.3e}"
            )
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    def __setattr__(self, name, value):
        raise AttributeError("TwoQubitState is immutable")


def bell_state(label: BellLabel) -> TwoQubitState:
    """Pure-state density matrix of the requested Bell state."""
    vector = _BELL_VECTOR[label]
    return TwoQubitState(np.outer(vector, vector.conj()))


def _dephase_qubit(rho: np.ndarray, qubit: int, q: float) -> np.ndarray:
    """Phase-flip channel with probability q on one qubit (0 = first)."""
    z = np.kron(_SIGMA_Z, _ID2) if qubit == 0 else np.kron(_ID2, _SIGMA_Z)
    return (1.0 - q) * rho + q * (z @ rho @ z)


def apply_noise(state: TwoQubitState, noise: NoiseParams) -> TwoQubitState:
    """Depolarizing + per-qubit dephasing + coherent phase offset.

    rho' = (1 - p) * D_q(rho) + p * I/4, where D_q phase-flips each qubit
    independently with probability q and then rotates the |ll> amplitude by
    phase_offset_rad (a diagonal unitary, so the ss<->ll coherence picks up
    the offset while populations are untouched).
    """
    rho = state.rho
    if noise.dephasing_q > 0.0:
        rho = _dephase_qubit(rho, 0, noise.dephasing_q)
        rho = _dephase_qubit(rho, 1, noise.dephasing_q)
    if noise.phase_offset_rad != 0.0:
        phase = np.exp(1j * noise.phase_offset_rad)
        unitary = np.diag([1.0, 1.0, 1.0, phase]).astype(complex)
        rho = unitary @ rho @ unitary.conj().T
    p = noise.depolarizing_p
    rho = (1.0 - p) * rho + p * np.eye(4, dtype=complex) / 4.0
    return TwoQubitState(rho)


def fidelity(state: TwoQubitState, target: BellLabel) -> float:
    """F = <b|rho|b> for the target Bell state, clamped to [0, 1]."""
    vector = _BELL_VECTOR[target]
    value = float((vector.conj() @ state.rho @ vector).real)
    return min(max(value, 0.0), 1.0)


def depolarizing_p_for_fidelity(target_fidelity: float) -> float:
    """Depolarizing strength whose Werner state has the given phi+ fidelity.

    Inverts F = 1 - 3p/4; only fidelities in [1/4, 1] are reachable.
    """
    if not 0.25 <= target_fidelity <= 1.0:
        raise DomainError(
            f"Werner fidelity must be in [0.25, 1], got {target_fidelity}"
        )
    return 4.0 * (1.0 - target_fidelity) / 3.0


def _analyzer_vector(phase: float) -> np.ndarray:
    return np.array([1.0, np.exp(1j * phase)], dtype=complex) * _SQRT_HALF


def fringe_coincidence(state: TwoQubitState, phase_a: float, phase_b: float) -> float:
    """Joint projection probability onto the two phase analyzers.

    Each analyzer projects its photon onto (|s> + e^{i phi}|l>)/sqrt(2); for
    a pure phi+ state the result is (1 + cos(phase_a + phase_b))/4.
    """
    analyzer = np.kron(_analyzer_vector(phase_a), _analyzer_vector(phase_b))
    value = float((analyzer.conj() @ state.rho @ analyzer).real)
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class FringeFit:
    """Least-squares fit of samples to offset + amplitude*cos(phase + theta)."""

    offset: float
    amplitude: float
    theta_rad: float


def fit_fringe(samples: Iterable[tuple[float, float]]) -> FringeFit:
    """Fit a + b*cos(phase + theta) to (phase, value) samples.

    Requires at least 8 samples covering most of a full 2*pi period so the
    three fit parameters are well conditioned.
    """
    points = list(samples)
    if len(points) < 8:
        raise InsufficientData(f"need at least 8 fringe samples, got {len(points)}")
    phases = np.array([p for p, _ in points], dtype=float)
    values = np.array([v for _, v in points], dtype=float)
    span = phases.max() - phases.min()
    if span < 1.5 * np.pi:
        raise InsufficientData(
            f"fringe samples span only {span:.3f} rad; need most of a 2*pi period"
        )
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < 3:
        raise InsufficientData("degenerate fringe fit (rank-deficient phase grid)")
    a, c, d = coeffs
    amplitude = float(np.hypot(c, d))
    theta = float(np.arctan2(-d, c))
    return FringeFit(offset=float(a), amplitude=amplitude, theta_rad=theta)


def visibility(samples: Sequence[tuple[float, float]]) -> float:
    """Fringe contrast V = amplitude/offset from a sinusoid fit, in [0, 1]."""
    fit = fit_fringe(samples)
    if fit.offset <= 0.0:
        raise InsufficientData("degenerate fringe fit (non-positive offset)")
    return min(max(fit.amplitude / fit.offset, 0.0), 1.0)
