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

from .errors import check_range
from .qstate import NoiseParams


@dataclass(frozen=True)
class FiberSpec:
    length_km: float
    attenuation_db_per_km: float = 0.2

    def __post_init__(self):
        check_range("length_km", self.length_km, 0)
        check_range("attenuation_db_per_km", self.attenuation_db_per_km, 0)


@dataclass(frozen=True)
class DetectorSpec:
    efficiency: float
    dark_count_rate_hz: float = 0.0
    coincidence_window_s: float = 1e-9

    def __post_init__(self):
        check_range("efficiency", self.efficiency, 0, 1)
        check_range("dark_count_rate_hz", self.dark_count_rate_hz, 0)
        check_range("coincidence_window_s", self.coincidence_window_s, 0)


@dataclass(frozen=True)
class SfgSpec:
    conversion_efficiency: float
    max_rate_hz: float = 1e5

    def __post_init__(self):
        check_range("conversion_efficiency", self.conversion_efficiency, 0, 1)
        check_range("max_rate_hz", self.max_rate_hz, 0, open_low=True)


@dataclass(frozen=True)
class ModulatorSpec:
    rate_hz: float

    def __post_init__(self):
        check_range("rate_hz", self.rate_hz, 0, open_low=True)


@dataclass(frozen=True)
class SourceSpec:
    pair_rate_hz: float
    noise: NoiseParams = field(default_factory=NoiseParams)  # the heralded pairs' noise

    def __post_init__(self):
        check_range("pair_rate_hz", self.pair_rate_hz, 0)


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


def accidental_probability(devices: Devices) -> float:
    """Accidental coincidences per emitted pair, capped at 1 (0 without pairs).

    Each arm's singles are its surviving, detected pairs plus dark counts;
    they meet by chance within the coincidence window, at the rate
    singles_a * singles_b * window.
    """
    detector = devices.detector
    pair_rate_hz = devices.source.pair_rate_hz
    eta_a = transmittance(devices.alice_fiber) * detector.efficiency
    eta_b = transmittance(devices.bob_fiber) * detector.efficiency
    singles_a_hz = pair_rate_hz * eta_a + detector.dark_count_rate_hz
    singles_b_hz = pair_rate_hz * eta_b + detector.dark_count_rate_hz
    rate_hz = singles_a_hz * singles_b_hz * detector.coincidence_window_s
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
    check_range("accidental_prob", accidental_prob, 0, 1)
    check_range("shots_per_phase", shots_per_phase, 1)
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
