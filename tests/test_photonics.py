from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcnet.errors import DomainError
from qsdcnet.photonics import (
    FiberSpec,
    SfgSpec,
    accidental_probability,
    fringe_scan,
    transmittance,
)
from qsdcnet.qstate import BELL_ORDER, BellLabel, NoiseParams, fringe_probability
from qsdcnet.scenario import forty_km_scenario_dict, ideal_scenario_dict, scenario_from_dict

from conftest import apply_noise, bell_state, sfg_bsm


class TestTransmittance:
    def test_zero_length(self):
        assert transmittance(FiberSpec(0.0, 0.2)) == 1.0

    def test_forty_km_standard_fiber(self):
        assert transmittance(FiberSpec(40.0, 0.2)) == pytest.approx(10 ** -0.8, abs=1e-9)
        assert transmittance(FiberSpec(40.0, 0.2)) == pytest.approx(0.158489, abs=1e-6)

    def test_ten_km_one_db(self):
        assert transmittance(FiberSpec(10.0, 1.0)) == pytest.approx(0.1, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        l1=st.floats(0, 100),
        l2=st.floats(0, 100),
        att=st.floats(0, 2),
    )
    def test_multiplicative_in_length(self, l1, l2, att):
        combined = transmittance(FiberSpec(l1 + l2, att))
        split = transmittance(FiberSpec(l1, att)) * transmittance(FiberSpec(l2, att))
        assert combined == pytest.approx(split, abs=1e-12)

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            FiberSpec(-1.0, 0.2)


class TestSfgBsm:
    def test_pure_eigenstate_identified(self):
        rng = np.random.default_rng(3)
        state = bell_state(BellLabel.PSI_PLUS)
        outcomes = {sfg_bsm(state, SfgSpec(1.0), rng) for _ in range(200)}
        assert outcomes == {BellLabel.PSI_PLUS}

    def test_zero_efficiency_always_erases(self):
        rng = np.random.default_rng(4)
        state = bell_state(BellLabel.PHI_PLUS)
        assert all(sfg_bsm(state, SfgSpec(0.0), rng) is None for _ in range(200))

    def test_werner_outcome_frequencies_match_bell_diagonal(self):
        # Oracle: Bell diagonal of an explicitly constructed Werner matrix.
        p = 0.06
        rho = (1 - p) * bell_state(BellLabel.PHI_MINUS).rho + p * np.eye(4) / 4
        oracle = {}
        vectors = {
            BellLabel.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
            BellLabel.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
            BellLabel.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
            BellLabel.PSI_MINUS: np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2),
        }
        for label, v in vectors.items():
            oracle[label] = float((v.conj() @ rho @ v).real)
        assert oracle[BellLabel.PHI_MINUS] == pytest.approx(0.955, abs=1e-12)
        assert oracle[BellLabel.PHI_PLUS] == pytest.approx(0.015, abs=1e-12)

        state = apply_noise(bell_state(BellLabel.PHI_MINUS), NoiseParams(depolarizing_p=p))
        rng = np.random.default_rng(42)
        trials = 100_000
        counts = {label: 0 for label in BELL_ORDER}
        for _ in range(trials):
            counts[sfg_bsm(state, SfgSpec(1.0), rng)] += 1
        for label in BELL_ORDER:
            expected = oracle[label]
            se = np.sqrt(expected * (1 - expected) / trials)
            assert abs(counts[label] / trials - expected) <= 3 * se

    def test_identified_fraction_matches_conversion_efficiency(self):
        rng = np.random.default_rng(17)
        state = bell_state(BellLabel.PHI_PLUS)
        trials = 50_000
        efficiency = 0.37
        identified = sum(
            sfg_bsm(state, SfgSpec(efficiency), rng) is not None for _ in range(trials)
        )
        se = np.sqrt(efficiency * (1 - efficiency) / trials)
        assert abs(identified / trials - efficiency) <= 3 * se

    def test_same_seed_same_outcomes(self):
        state = apply_noise(bell_state(BellLabel.PHI_PLUS), NoiseParams(depolarizing_p=0.3))
        seq_a = [sfg_bsm(state, SfgSpec(0.7), np.random.default_rng([8, i])) for i in range(50)]
        seq_b = [sfg_bsm(state, SfgSpec(0.7), np.random.default_rng([8, i])) for i in range(50)]
        assert seq_a == seq_b


def lossless_devices(pair_rate_hz: float, efficiency: float = 1.0):
    """The ideal scenario's devices: lossless fibers, no dark counts, a 1 ns window."""
    devices = scenario_from_dict(ideal_scenario_dict()).devices
    return replace(
        devices,
        detector=replace(devices.detector, efficiency=efficiency),
        source=replace(devices.source, pair_rate_hz=pair_rate_hz),
    )


class TestAccidentalRate:
    """The accidental rate singles_a * singles_b * window, per emitted pair."""

    def test_zero_singles(self):
        assert accidental_probability(lossless_devices(1e5, efficiency=0.0)) == 0.0

    def test_reference_products(self):
        # 1e5 * 1e5 * 1e-9 = 10 Hz and 1e3 * 1e3 * 1e-9 = 1e-3 Hz of accidentals.
        assert accidental_probability(lossless_devices(1e5)) == pytest.approx(1e-4, rel=1e-12)
        assert accidental_probability(lossless_devices(1e3)) == pytest.approx(1e-6, rel=1e-12)


def inline_accidental_probability(devices) -> float:
    """The singles-and-accidentals formula fringe_study computed inline."""
    eta_a = transmittance(devices.alice_fiber) * devices.detector.efficiency
    eta_b = transmittance(devices.bob_fiber) * devices.detector.efficiency
    singles_a = devices.source.pair_rate_hz * eta_a + devices.detector.dark_count_rate_hz
    singles_b = devices.source.pair_rate_hz * eta_b + devices.detector.dark_count_rate_hz
    acc_rate = singles_a * singles_b * devices.detector.coincidence_window_s
    if devices.source.pair_rate_hz > 0:
        return min(acc_rate / devices.source.pair_rate_hz, 1.0)
    return 0.0


class TestAccidentalProbability:
    @pytest.mark.parametrize(
        "doc, expected",
        [(forty_km_scenario_dict(), 1.284e-4), (ideal_scenario_dict(), 1e-3)],
        ids=["forty_km", "ideal"],
    )
    def test_equals_the_inline_formula(self, doc, expected):
        devices = scenario_from_dict(doc).devices
        probability = accidental_probability(devices)
        assert probability == inline_accidental_probability(devices)
        assert probability == pytest.approx(expected, rel=1e-3)

    def test_no_pairs_and_the_cap(self):
        devices = scenario_from_dict(ideal_scenario_dict()).devices
        detector = replace(devices.detector, dark_count_rate_hz=1e9, coincidence_window_s=1e-6)
        no_pairs = replace(devices.source, pair_rate_hz=0.0)
        assert accidental_probability(replace(devices, source=no_pairs)) == 0.0
        assert accidental_probability(replace(devices, detector=detector)) == 1.0


class TestFringeScan:
    def test_accidental_subtraction_is_unbiased(self):
        phases = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        probabilities = fringe_probability(BellLabel.PHI_PLUS, NoiseParams(), phases)
        rows = fringe_scan(phases, probabilities, 50_000, 0.01, np.random.default_rng(7))
        for row in rows:
            expected = (1 + np.cos(row["phase_rad"])) / 4
            assert row["corrected_rate"] == pytest.approx(expected, abs=0.02)

    def test_reproducible(self):
        phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        probabilities = fringe_probability(BellLabel.PSI_MINUS, NoiseParams(), phases)
        a = fringe_scan(phases, probabilities, 1000, 0.0, np.random.default_rng(5))
        b = fringe_scan(phases, probabilities, 1000, 0.0, np.random.default_rng(5))
        assert a == b

    def test_one_binomial_then_one_poisson_per_phase(self):
        phases = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        probabilities = np.linspace(0.1, 0.8, 8)
        rows = fringe_scan(phases, probabilities, 1000, 0.02, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for phase, probability, row in zip(phases, probabilities, rows):
            signal = rng.binomial(1000, probability)
            accidentals = rng.poisson(1000 * 0.02)
            assert row["phase_rad"] == phase
            assert row["raw_counts"] == signal + accidentals

    def test_probability_per_phase_required(self):
        phases = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        with pytest.raises(ValueError):
            fringe_scan(phases, np.full(7, 0.25), 100, 0.0, np.random.default_rng(0))
