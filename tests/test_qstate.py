import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcnet.errors import DomainError, InsufficientData, InvariantViolation
from qsdcnet.qstate import (
    BELL_ORDER,
    BellLabel,
    NoiseParams,
    bell_weights,
    fidelity,
    fit_fringe,
    fringe_probability,
)

from qsdcnet.protocol import EveKind, EveModel, ProtocolConfig, run_qsdc

from conftest import (
    PauliEncoding,
    TwoQubitState,
    apply_encoding,
    apply_noise,
    bell_state,
    codes_from_bits,
    depolarizing_p_for_fidelity,
    fringe_coincidence,
    make_devices,
    maximally_mixed,
    purity,
    random_density_matrix,
    state_fidelity,
)

ALL_LABELS = list(BellLabel)
ALL_ENCODINGS = list(PauliEncoding)


class TestBellStates:
    def test_phi_plus_matrix_entries(self):
        rho = bell_state(BellLabel.PHI_PLUS).rho
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_psi_minus_matrix_entries(self):
        rho = bell_state(BellLabel.PSI_MINUS).rho
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_purity_is_one(self, label):
        assert purity(bell_state(label)) == pytest.approx(1.0, abs=1e-12)

    def test_mutual_orthogonality(self):
        for a in ALL_LABELS:
            for b in ALL_LABELS:
                expected = 1.0 if a is b else 0.0
                assert state_fidelity(bell_state(a), b) == pytest.approx(expected, abs=1e-12)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(InvariantViolation):
            TwoQubitState(np.eye(4) * 0.5)  # trace 2
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 1] = 0.3  # not Hermitian
        with pytest.raises(InvariantViolation):
            TwoQubitState(bad)


class TestEncoding:
    def test_identity_is_noop(self):
        state = bell_state(BellLabel.PHI_PLUS)
        out = apply_encoding(state, PauliEncoding.I)
        np.testing.assert_allclose(out.rho, state.rho, atol=1e-12)

    def test_conversion_table(self):
        # I, sigma_z, sigma_x, -i sigma_y send phi+ to phi+, phi-, psi+, psi-.
        expected = {
            PauliEncoding.I: BellLabel.PHI_PLUS,
            PauliEncoding.SIGMA_Z: BellLabel.PHI_MINUS,
            PauliEncoding.SIGMA_X: BellLabel.PSI_PLUS,
            PauliEncoding.MINUS_I_SIGMA_Y: BellLabel.PSI_MINUS,
        }
        for encoding, label in expected.items():
            out = apply_encoding(bell_state(BellLabel.PHI_PLUS), encoding)
            np.testing.assert_allclose(out.rho, bell_state(label).rho, atol=1e-12)

    def test_minus_i_sigma_y_against_matrix_oracle(self):
        # Independent oracle: conjugate by an explicitly hand-built 4x4 unitary.
        u2 = np.array([[0, -1], [1, 0]], dtype=complex)
        u4 = np.kron(u2, np.eye(2, dtype=complex))
        rho_in = bell_state(BellLabel.PHI_PLUS).rho
        oracle = u4 @ rho_in @ u4.conj().T
        out = apply_encoding(bell_state(BellLabel.PHI_PLUS), PauliEncoding.MINUS_I_SIGMA_Y)
        np.testing.assert_allclose(out.rho, oracle, atol=1e-12)
        np.testing.assert_allclose(oracle, bell_state(BellLabel.PSI_MINUS).rho, atol=1e-12)

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_double_application_returns_phi_plus(self, encoding):
        state = bell_state(BellLabel.PHI_PLUS)
        out = apply_encoding(apply_encoding(state, encoding), encoding)
        assert state_fidelity(out, BellLabel.PHI_PLUS) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), encoding=st.sampled_from(ALL_ENCODINGS))
    def test_preserves_trace_hermiticity_spectrum(self, seed, encoding):
        state = random_density_matrix(seed)
        out = apply_encoding(state, encoding)
        assert np.trace(out.rho).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.rho, out.rho.conj().T, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.rho), np.linalg.eigvalsh(state.rho), atol=1e-10
        )


class TestNoise:
    def test_zero_noise_is_noop(self):
        state = bell_state(BellLabel.PHI_PLUS)
        out = apply_noise(state, NoiseParams())
        np.testing.assert_allclose(out.rho, state.rho, atol=1e-12)

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_noiseless_fidelity_is_exactly_one(self, label):
        assert fidelity(label, NoiseParams()) == 1.0

    def test_full_depolarizing_gives_maximally_mixed(self):
        out = apply_noise(bell_state(BellLabel.PHI_PLUS), NoiseParams(depolarizing_p=1.0))
        np.testing.assert_allclose(out.rho, np.eye(4) / 4.0, atol=1e-12)
        noise = NoiseParams(depolarizing_p=1.0, dephasing_q=0.3, phase_offset_rad=0.7)
        phases = np.linspace(0, 2 * np.pi, 9)
        for label in ALL_LABELS:
            assert fidelity(label, noise) == 0.25
            np.testing.assert_array_equal(fringe_probability(label, noise, phases), 0.25)

    def test_werner_fidelity_against_quadratic_form_oracle(self):
        # Direct evaluation of <phi+|rho'|phi+> with an independently built vector.
        out = apply_noise(bell_state(BellLabel.PHI_PLUS), NoiseParams(depolarizing_p=0.06))
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        oracle = float((v.conj() @ out.rho @ v).real)
        assert oracle == pytest.approx(1 - 3 * 0.06 / 4, abs=1e-12)
        assert fidelity(BellLabel.PHI_PLUS, NoiseParams(depolarizing_p=0.06)) == pytest.approx(
            0.955, abs=1e-12
        )

    def test_invalid_probability_rejected(self):
        with pytest.raises(DomainError):
            NoiseParams(depolarizing_p=1.2)
        with pytest.raises(DomainError):
            NoiseParams(dephasing_q=-0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        p=st.floats(0, 1),
        q=st.floats(0, 1),
        offset=st.floats(0, 2 * np.pi),
    )
    def test_output_stays_positive_semidefinite(self, seed, p, q, offset):
        state = random_density_matrix(seed)
        out = apply_noise(state, NoiseParams(p, q, offset))
        assert np.linalg.eigvalsh(out.rho).min() >= -1e-10

    @pytest.mark.parametrize("p", [0.0, 0.06, 0.2, 0.5, 1.0])
    def test_werner_fidelity_and_visibility_laws(self, p):
        noise = NoiseParams(depolarizing_p=p)
        assert fidelity(BellLabel.PHI_PLUS, noise) == pytest.approx(1 - 3 * p / 4, abs=1e-12)
        phases = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        probabilities = fringe_probability(BellLabel.PHI_PLUS, noise, phases)
        samples = list(zip(phases, probabilities))
        assert fit_fringe(samples).visibility == pytest.approx(1 - p, abs=1e-9)

    def test_calibration_inverse(self):
        for target in (0.9525, 0.9543, 0.9549, 0.9548):
            p = depolarizing_p_for_fidelity(target)
            noise = NoiseParams(depolarizing_p=p)
            assert fidelity(BellLabel.PHI_PLUS, noise) == pytest.approx(target, abs=1e-12)
        with pytest.raises(DomainError):
            depolarizing_p_for_fidelity(0.1)


class TestFidelity:
    def test_maximally_mixed_gives_quarter(self):
        for label in ALL_LABELS:
            assert state_fidelity(maximally_mixed(), label) == pytest.approx(0.25, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(0, 1),
        q=st.floats(0, 1),
        offset=st.floats(-10, 10),
        label=st.sampled_from(ALL_LABELS),
    )
    def test_in_unit_interval(self, p, q, offset, label):
        assert 0.0 <= fidelity(label, NoiseParams(p, q, offset)) <= 1.0


class TestFringe:
    def test_phi_plus_at_zero_phases(self):
        # Hand evaluation: |<a b|phi+>|^2 with a = b = (s+l)/sqrt2 gives 1/2.
        assert fringe_probability(BellLabel.PHI_PLUS, NoiseParams(), 0.0) == 0.5
        state = bell_state(BellLabel.PHI_PLUS)
        assert fringe_coincidence(state, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_phi_plus_at_quarter_phases(self):
        state = bell_state(BellLabel.PHI_PLUS)
        assert fringe_coincidence(state, np.pi / 2, np.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert fringe_probability(BellLabel.PHI_PLUS, NoiseParams(), np.pi) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_phi_minus_shifted_by_pi(self):
        noise = NoiseParams(depolarizing_p=0.1, dephasing_q=0.05, phase_offset_rad=0.3)
        phases = np.linspace(0, 2 * np.pi, 9)
        np.testing.assert_allclose(
            fringe_probability(BellLabel.PHI_MINUS, noise, phases),
            fringe_probability(BellLabel.PHI_PLUS, noise, phases + np.pi),
            atol=1e-12,
        )

    def test_closed_form_for_phi_plus(self):
        state = bell_state(BellLabel.PHI_PLUS)
        for phi_a in np.linspace(0, 2 * np.pi, 7):
            for phi_b in np.linspace(0, 2 * np.pi, 7):
                assert fringe_coincidence(state, phi_a, phi_b) == pytest.approx(
                    (1 + np.cos(phi_a + phi_b)) / 4, abs=1e-12
                )

    @pytest.mark.parametrize("seed", [0, 1, 7, 99])
    def test_grid_mean_is_quarter_for_any_state(self, seed):
        # Harmonics up to |1| per axis vanish on any uniform grid of >= 2 points.
        state = random_density_matrix(seed)
        grid = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        values = [fringe_coincidence(state, a, b) for a in grid for b in grid]
        assert np.mean(values) == pytest.approx(0.25, abs=1e-12)

    def test_one_probability_per_phase(self):
        phases = np.linspace(-np.pi, np.pi, 13)
        out = fringe_probability(BellLabel.PSI_MINUS, NoiseParams(0.2, 0.1, 1.0), phases)
        assert out.shape == phases.shape


class TestClosedFormsMatchDensityMatrices:
    """The closed forms in qstate against the density-matrix oracle."""

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)),
        q=st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)),
        theta=st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
        label=st.sampled_from(ALL_LABELS),
    )
    def test_fidelity_and_fringe(self, p, q, theta, label):
        noise = NoiseParams(p, q, theta)
        state = apply_noise(bell_state(label), noise)
        assert fidelity(label, noise) == pytest.approx(state_fidelity(state, label), abs=1e-12)
        phases = np.linspace(-math.pi, math.pi, 17)
        oracle = [fringe_coincidence(state, phase, 0.0) for phase in phases]
        np.testing.assert_allclose(fringe_probability(label, noise, phases), oracle, atol=1e-12)
        assert bell_weights(noise)[0] == fidelity(BellLabel.PHI_PLUS, noise)


class TestVisibility:
    def test_perfect_fringe(self):
        phases = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        samples = [(p, (1 + np.cos(p)) / 4) for p in phases]
        assert fit_fringe(samples).visibility == pytest.approx(1.0, abs=1e-9)

    def test_flat_fringe(self):
        phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        assert fit_fringe([(p, 0.25) for p in phases]).visibility == pytest.approx(0.0, abs=1e-12)

    def test_partial_fringe_refit(self):
        phases = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        samples = [(p, (1 + 0.9 * np.cos(p)) / 4) for p in phases]
        assert fit_fringe(samples).visibility == pytest.approx(0.9, abs=1e-6)

    def test_fitted_theta_tracks_fringe_phase(self):
        phases = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        fit = fit_fringe([(p, (1 + 0.8 * np.cos(p + 1.1)) / 4) for p in phases])
        assert fit.theta_rad == pytest.approx(1.1, abs=1e-9)

    def test_too_few_samples_rejected(self):
        phases = np.linspace(0, 2 * np.pi, 5, endpoint=False)
        with pytest.raises(InsufficientData):
            fit_fringe([(p, 0.25) for p in phases])

    def test_non_positive_offset_rejected(self):
        phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        fit = fit_fringe([(p, -0.25 + 0.1 * np.cos(p)) for p in phases])
        with pytest.raises(InsufficientData, match="non-positive offset"):
            fit.visibility

    def test_narrow_span_rejected(self):
        phases = np.linspace(0, 0.5, 12)
        with pytest.raises(InsufficientData):
            fit_fringe([(p, (1 + np.cos(p)) / 4) for p in phases])


class TestBitCodes:
    def test_known_codes(self):
        # Code 00 is sent as I, code 11 as -i sigma_y; code 10 reads psi+.
        assert ALL_ENCODINGS[0b00] is PauliEncoding.I
        assert ALL_ENCODINGS[0b11] is PauliEncoding.MINUS_I_SIGMA_Y
        assert BELL_ORDER[0b10] is BellLabel.PSI_PLUS
        assert BellLabel.PSI_PLUS.value == "10"

    def test_round_trip_all_codes(self):
        # Sessions send code i as PauliEncoding member i and read BELL_ORDER[i].
        phi_plus = bell_state(BellLabel.PHI_PLUS)
        assert len(BELL_ORDER) == len(ALL_ENCODINGS) == 4
        for code, encoding in enumerate(ALL_ENCODINGS):
            label = BELL_ORDER[code]
            out = apply_encoding(phi_plus, encoding)
            assert state_fidelity(out, label) == pytest.approx(1.0, abs=1e-12)
            assert label.value == format(code, "02b")

    def test_bad_code_rejected(self):
        # A message whose bits do not spell 2-bit codes never reaches the table.
        for message in ("2x", "0x", "x1"):
            with pytest.raises(DomainError):
                run_qsdc(codes_from_bits(message), make_devices(), EveModel(EveKind.NONE, 0.0),
                         ProtocolConfig(), np.random.default_rng(0))
