"""Stochastic device and channel models.

Fiber attenuation, single-photon detection, the modulation rate, the SFG
stage's conversion efficiency and rate cap, and accidental coincidences.
Every random draw goes through the session's seeded numpy Generator, so
whole runs are reproducible bit-for-bit. Device specs are immutable
values; a Generator is owned by exactly one session.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .qstate import NoiseParams


def _check_probability(name: str, value: float):
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must be in [0, 1], got {value}")


def _check_nonnegative(name: str, value: float):
    if value < 0.0:
        raise DomainError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class FiberSpec:
    length_km: float
    attenuation_db_per_km: float = 0.2

    def __post_init__(self):
        _check_nonnegative("length_km", self.length_km)
        _check_nonnegative("attenuation_db_per_km", self.attenuation_db_per_km)


@dataclass(frozen=True)
class DetectorSpec:
    efficiency: float
    dark_count_rate_hz: float = 0.0
    coincidence_window_s: float = 1e-9

    def __post_init__(self):
        _check_probability("efficiency", self.efficiency)
        _check_nonnegative("dark_count_rate_hz", self.dark_count_rate_hz)
        _check_nonnegative("coincidence_window_s", self.coincidence_window_s)


@dataclass(frozen=True)
class SfgSpec:
    conversion_efficiency: float
    max_rate_hz: float = 1e5

    def __post_init__(self):
        _check_probability("conversion_efficiency", self.conversion_efficiency)
        if self.max_rate_hz <= 0.0:
            raise DomainError(f"max_rate_hz must be > 0, got {self.max_rate_hz}")


@dataclass(frozen=True)
class ModulatorSpec:
    rate_hz: float

    def __post_init__(self):
        if self.rate_hz <= 0.0:
            raise DomainError(f"rate_hz must be > 0, got {self.rate_hz}")


@dataclass(frozen=True)
class SourceSpec:
    pair_rate_hz: float
    heralding_noise: NoiseParams = field(default_factory=NoiseParams)

    def __post_init__(self):
        _check_nonnegative("pair_rate_hz", self.pair_rate_hz)


@dataclass(frozen=True)
class Devices:
    """The full device suite one session runs over."""

    alice_fiber: FiberSpec
    bob_fiber: FiberSpec
    detector: DetectorSpec
    sfg: SfgSpec
    modulator: ModulatorSpec
    source: SourceSpec


def transmittance(fiber: FiberSpec) -> float:
    """Fiber survival probability, 10^(-attenuation * length / 10)."""
    return 10.0 ** (-fiber.attenuation_db_per_km * fiber.length_km / 10.0)


def accidental_rate(singles_1_hz: float, singles_2_hz: float, window_s: float) -> float:
    """Accidental coincidence rate singles_1 * singles_2 * window."""
    _check_nonnegative("singles_1_hz", singles_1_hz)
    _check_nonnegative("singles_2_hz", singles_2_hz)
    _check_nonnegative("window_s", window_s)
    return singles_1_hz * singles_2_hz * window_s


def accidental_probability(devices: Devices) -> float:
    """Accidental coincidences per emitted pair, capped at 1 (0 without pairs).

    Each arm's singles are its surviving, detected pairs plus dark counts;
    they meet by chance within the coincidence window (``accidental_rate``).
    """
    detector = devices.detector
    pair_rate_hz = devices.source.pair_rate_hz
    eta_a = transmittance(devices.alice_fiber) * detector.efficiency
    eta_b = transmittance(devices.bob_fiber) * detector.efficiency
    rate_hz = accidental_rate(
        pair_rate_hz * eta_a + detector.dark_count_rate_hz,
        pair_rate_hz * eta_b + detector.dark_count_rate_hz,
        detector.coincidence_window_s,
    )
    return min(rate_hz / pair_rate_hz, 1.0) if pair_rate_hz > 0 else 0.0


def fringe_scan(
    phases: np.ndarray,
    probabilities: np.ndarray,
    shots_per_phase: int,
    accidental_prob: float,
    rng: np.random.Generator,
) -> list[dict]:
    """Monte Carlo two-photon interference scan with accidental subtraction.

    At each analyzer phase, counts are binomial in that phase's coincidence
    probability (``qstate.fringe_probability``) plus a Poisson accidental
    background whose expectation is subtracted off, mirroring how measured
    fringes are corrected before fitting. Each phase takes one binomial and
    then one Poisson draw, in phase order.
    """
    _check_probability("accidental_prob", accidental_prob)
    if shots_per_phase < 1:
        raise DomainError(f"shots_per_phase must be >= 1, got {shots_per_phase}")
    rows = []
    expected_accidentals = shots_per_phase * accidental_prob
    for phase, probability in zip(
        np.asarray(phases).tolist(), np.asarray(probabilities).tolist(), strict=True
    ):
        signal = int(rng.binomial(shots_per_phase, probability))
        accidentals = int(rng.poisson(expected_accidentals))
        corrected = (signal + accidentals - expected_accidentals) / shots_per_phase
        rows.append(
            {
                "phase_rad": phase,
                "raw_counts": signal + accidentals,
                "expected_accidentals": expected_accidentals,
                "corrected_rate": corrected,
            }
        )
    return rows
