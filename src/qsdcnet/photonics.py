"""Device and channel models over the scenario's device specs.

Fiber transmittance, accidental coincidences between the two arms'
detectors, and the Monte Carlo two-photon fringe scan. The specs they read
(``FiberSpec``, ``DetectorSpec``, ``SfgSpec``, ``ModulatorSpec``,
``SourceSpec`` and ``Devices``) are sections of the scenario schema, defined
in ``scenario``. Every random draw goes through the caller's seeded numpy
Generator, so whole runs are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import check_range

if TYPE_CHECKING:
    from .scenario import Devices, FiberSpec


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
