"""Closed-form model of the source's noisy time-bin Bell pair.

Every channel in the model is a Pauli channel on the pair, so the noisy
state is diagonal in the Bell basis apart from the phi+/phi- (and psi+/psi-)
coherence, and everything the simulator reads from it has a closed form in
the noise knobs (p, q, theta): the Bell weights sessions sample from, each
Bell state's fidelity and the two-photon fringe. All functions here are
pure and safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import InsufficientData

if TYPE_CHECKING:
    from .scenario import NoiseParams


class BellLabel(Enum):
    """The four Bell states and their agreed 2-bit codes."""

    PHI_PLUS = "00"
    PHI_MINUS = "01"
    PSI_PLUS = "10"
    PSI_MINUS = "11"


# The code table: message code i (the 2-bit value 0..3) is sent as the
# i-th encoding (I, sigma_z, sigma_x, -i sigma_y) on the sender's qubit,
# which turns phi+ into BELL_ORDER[i], and BELL_ORDER[i].value spells i in
# binary. Sessions index with the code.
BELL_ORDER = tuple(BellLabel)


def _contrast(noise: NoiseParams, theta: float) -> float:
    """What dephasing and a phase offset theta leave of a Bell state's
    coherence: each qubit's phase flips with probability q, a net flip
    with 2q(1 - q), so c = (1 - 2q)^2 cos(theta)."""
    return (1.0 - 2.0 * noise.dephasing_q) ** 2 * math.cos(theta)


_PHI_STATES = (BellLabel.PHI_PLUS, BellLabel.PHI_MINUS)
_MINUS_STATES = (BellLabel.PHI_MINUS, BellLabel.PSI_MINUS)


def _offset(label: BellLabel, noise: NoiseParams) -> float:
    """The offset rotates the |ll> amplitude, which only phi+ and phi- hold."""
    return noise.phase_offset_rad if label in _PHI_STATES else 0.0


def bell_weights(noise: NoiseParams) -> np.ndarray:
    """Bell weights of the source's noisy phi+ pair, in BELL_ORDER.

    Dephasing and the phase offset leave c of the phi+/phi- contrast;
    depolarizing then mixes in p/4 of each state:
    (1 - p)[(1 + c)/2, (1 - c)/2, 0, 0] + p/4.
    """
    c = _contrast(noise, noise.phase_offset_rad)
    p = noise.depolarizing_p
    return (1.0 - p) * np.array([(1.0 + c) / 2.0, (1.0 - c) / 2.0, 0.0, 0.0]) + p / 4.0


def fidelity(label: BellLabel, noise: NoiseParams) -> float:
    """Fidelity of the noisy Bell state with its ideal self:
    (1 - p)(1 + (1 - 2q)^2 cos(theta_L))/2 + p/4, where theta_L is the phase
    offset for phi+/phi- and 0 for psi+/psi-."""
    c = _contrast(noise, _offset(label, noise))
    p = noise.depolarizing_p
    return (1.0 - p) * ((1.0 + c) / 2.0) + p / 4.0


def fringe_probability(
    label: BellLabel, noise: NoiseParams, phases: np.ndarray
) -> np.ndarray:
    """Two-photon coincidence probability at each analyzer phase.

    One analyzer projects its photon onto (|s> + e^{i phase}|l>)/sqrt(2), its
    partner is held at phase 0: (1 + s_L r cos(phase - theta_L))/4 with
    r = (1 - p)(1 - 2q)^2, s_L = +1 for phi+/psi+ and -1 for phi-/psi-.
    """
    sign = -1.0 if label in _MINUS_STATES else 1.0
    theta = _offset(label, noise)
    r = (1.0 - noise.depolarizing_p) * (1.0 - 2.0 * noise.dephasing_q) ** 2
    return (1.0 + sign * r * np.cos(np.asarray(phases, dtype=float) - theta)) / 4.0


@dataclass(frozen=True)
class FringeFit:
    """Least-squares fit of samples to offset + amplitude*cos(phase + theta)."""

    offset: float
    amplitude: float
    theta_rad: float

    @property
    def visibility(self) -> float:
        """Fringe contrast V = amplitude/offset, in [0, 1]."""
        if self.offset <= 0.0:
            raise InsufficientData("degenerate fringe fit (non-positive offset)")
        return min(max(self.amplitude / self.offset, 0.0), 1.0)


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
