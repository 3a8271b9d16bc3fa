import sys
from dataclasses import asdict
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcnet.analysis import (
    binary_entropy,
    clopper_pearson,
    fidelity_from_visibility,
    qber_from_counts,
    secrecy_capacity_bound,
    session_secrecy_report,
    throughput,
)
from qsdcnet.errors import DomainError, InsufficientData
from qsdcnet.protocol import (
    MAX_DETECTION_SIZE,
    EveKind,
    EveModel,
    Link,
    ProtocolConfig,
    Session,
    SessionPhase,
    run_security_detection,
)
from qsdcnet.qstate import BellLabel, NoiseParams, fidelity

from conftest import make_devices, qber_from_transcript


def entropy_oracle(value: str) -> float:
    """50-digit decimal evaluation of the binary entropy, independent of math.log2."""
    getcontext().prec = 50
    e = Decimal(value)
    ln2 = Decimal(2).ln()
    return float(-(e * e.ln() + (1 - e) * (1 - e).ln()) / ln2)


# The operating-point error rate and its high-precision entropy.
REFERENCE_ERROR_RATE = 0.0013
REFERENCE_ENTROPY = 0.014337738407066490  # frozen from entropy_oracle("0.0013")


class TestBinaryEntropy:
    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_reference_error_rate_against_decimal_oracle(self):
        oracle = entropy_oracle("0.0013")
        assert oracle == pytest.approx(REFERENCE_ENTROPY, abs=1e-12)
        assert binary_entropy(REFERENCE_ERROR_RATE) == pytest.approx(oracle, abs=1e-12)

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)

    @settings(max_examples=80, deadline=None)
    @given(e=st.floats(0, 1, allow_nan=False))
    def test_symmetry(self, e):
        assert binary_entropy(e) == pytest.approx(binary_entropy(1.0 - e), abs=1e-12)

    def test_concavity_on_sampled_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a, b = rng.random(2)
            midpoint = binary_entropy((a + b) / 2)
            assert midpoint >= (binary_entropy(a) + binary_entropy(b)) / 2 - 1e-12


class TestSecrecyCapacity:
    def test_perfect_channel(self):
        report = secrecy_capacity_bound(1.0, 0.0, 0.0)
        assert report.cs_lower == 1.0

    def test_reference_operating_point(self):
        report = secrecy_capacity_bound(1.0, 0.0, REFERENCE_ERROR_RATE)
        assert report.cs_lower == pytest.approx(1.0 - REFERENCE_ENTROPY, abs=1e-12)
        assert report.cs_lower > 0.98  # near-unit secrecy capacity

    def test_composed_yields(self):
        expected = 0.5 * (1.0 - entropy_oracle("0.0013")) - 0.5 * entropy_oracle("0.0026")
        report = secrecy_capacity_bound(
            0.5, 0.5, REFERENCE_ERROR_RATE, e_x=REFERENCE_ERROR_RATE, e_z=REFERENCE_ERROR_RATE
        )
        assert report.cs_lower == pytest.approx(expected, abs=1e-12)

    def test_bound_can_go_negative(self):
        report = secrecy_capacity_bound(0.1, 0.9, 0.3, e_x=0.25, e_z=0.25)
        assert report.cs_lower < 0.0

    def test_entropy_argument_clamped_and_flagged(self):
        report = secrecy_capacity_bound(1.0, 1.0, 0.0, e_x=0.7, e_z=0.7)
        assert report.entropy_arg_clamped
        assert report.h_exez == 0.0  # clamped to 1, H(1) = 0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(DomainError):
            secrecy_capacity_bound(1.2, 0.0, 0.0)
        with pytest.raises(DomainError):
            secrecy_capacity_bound(1.0, 0.0, 1.5)

    def test_monotonicity_sampled(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            q_b, q_e = rng.random(2)
            e = rng.random() * 0.5
            bump = rng.random() * (0.5 - e)
            base = secrecy_capacity_bound(q_b, q_e, e, e_x=e / 2, e_z=e / 2)
            worse_e = secrecy_capacity_bound(q_b, q_e, e + bump, e_x=e / 2, e_z=e / 2)
            assert worse_e.cs_lower <= base.cs_lower + 1e-12
            better_yield = secrecy_capacity_bound(
                min(1.0, q_b + 0.1), q_e, e, e_x=e / 2, e_z=e / 2
            )
            assert better_yield.cs_lower >= base.cs_lower - 1e-12


class TestQberEstimation:
    def test_all_agree(self):
        records = [
            {"basis": "Z" if i % 2 else "X", "alice_outcome": 1, "bob_outcome": 1}
            for i in range(100)
        ]
        estimate = qber_from_transcript(records)
        assert estimate.e == 0.0
        assert estimate.ci_low == 0.0
        assert estimate.ci_high > 0.0

    def test_counting_example(self):
        estimate = qber_from_counts(n_z=10_000, errors_z=25, n_x=10_000, errors_x=0)
        assert estimate.e_z == pytest.approx(0.0025, abs=1e-12)
        assert estimate.e_x == 0.0
        assert estimate.e == pytest.approx(0.00125, abs=1e-12)
        assert estimate.ci_low <= estimate.e <= estimate.ci_high

    def test_intercept_resend_transcript_covered_by_interval(self):
        session = Session(np.random.default_rng(31))
        session.transition(SessionPhase.SECURITY_DETECTION)
        result = run_security_detection(
            session,
            Link(make_devices(), EveModel(EveKind.INTERCEPT_RESEND, 1.0)),
            ProtocolConfig(qber_threshold=0.49, min_samples=500, detection_size=20000),
        )
        estimate = result.qber
        assert estimate.ci_low <= 0.25 <= estimate.ci_high

    def test_empty_records_rejected(self):
        with pytest.raises(InsufficientData):
            qber_from_counts(0, 0, 0, 0)
        with pytest.raises(InsufficientData):
            qber_from_transcript([])

    def test_interval_coverage_over_seeded_trials(self):
        # Clopper-Pearson 95% interval covers a planted rate in >= 93% of trials.
        planted = 0.07
        trials = 200
        n = 400
        covered = 0
        rng = np.random.default_rng(1234)
        for _ in range(trials):
            errors_z = int(rng.binomial(n, planted))
            errors_x = int(rng.binomial(n, planted))
            estimate = qber_from_counts(n, errors_z, n, errors_x)
            if estimate.ci_low <= planted <= estimate.ci_high:
                covered += 1
        assert covered / trials >= 0.93

    def test_clopper_pearson_interior_matches_endpoints_continuously(self):
        low_a, high_a = clopper_pearson(1, 1000)
        assert 0.0 < low_a < 1e-3 < high_a < 1e-2


@st.composite
def counts_and_trials(draw):
    """(k, n) with n up to a detection round's ceiling, the endpoints k = 0 and
    k = n drawn as often as an interior count."""
    n = draw(st.integers(1, MAX_DETECTION_SIZE))
    k = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    return k, n


class TestClopperPearson:
    @settings(max_examples=300, deadline=None)
    @given(counts_and_trials())
    def test_interval_holds_the_estimate_and_rises_with_k(self, case):
        k, n = case
        low, high = clopper_pearson(k, n)
        assert 0.0 <= low <= k / n <= high <= 1.0
        if k < n:
            next_low, next_high = clopper_pearson(k + 1, n)
            assert low <= next_low and high <= next_high

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, MAX_DETECTION_SIZE))
    def test_closed_forms_are_the_beta_quantiles(self, n):
        from scipy.special import betaincinv

        none_low, none_high = clopper_pearson(0, n)
        all_low, all_high = clopper_pearson(n, n)
        assert none_low == 0.0 and all_high == 1.0
        assert none_high == pytest.approx(betaincinv(1, n, 0.975), rel=1e-10)
        assert all_low == pytest.approx(betaincinv(n, 1, 0.025), rel=1e-10)

    @pytest.mark.parametrize(
        "errors, trials, confidence",
        [
            (5, 3, 0.95),
            (-1, 3, 0.95),
            (0, 10, 1.2),
            (0, 10, 1.0),
            (0, 10, 0.0),
            (3, 10, -0.5),
            (3, 10, float("nan")),
        ],
    )
    def test_out_of_range_rejected(self, monkeypatch, errors, trials, confidence):
        monkeypatch.setitem(sys.modules, "scipy.special", None)  # its import now raises
        with pytest.raises(DomainError):
            clopper_pearson(errors, trials, confidence)

    def test_no_trials_is_insufficient_data(self):
        with pytest.raises(InsufficientData):
            clopper_pearson(0, 0)


class TestFidelityFromVisibility:
    def test_trivial_points(self):
        # (isotropic, phase_only)
        assert fidelity_from_visibility(1.0) == (1.0, 1.0)
        assert fidelity_from_visibility(0.0) == (0.25, 0.5)

    def test_isotropic_matches_direct_werner_fidelity(self):
        for p in np.linspace(0.0, 1.0, 21):
            direct = fidelity(BellLabel.PHI_PLUS, NoiseParams(depolarizing_p=p))
            estimated, _ = fidelity_from_visibility(1.0 - p)
            assert estimated == pytest.approx(direct, abs=1e-10)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            fidelity_from_visibility(1.2)


class TestThroughput:
    def test_modulation_limited(self):
        report = throughput(1e5, 1e3, 0.0, 0.0)
        assert report.symbol_rate_hz == 1e3
        assert report.info_rate_bits_per_s == 2000.0

    def test_sfg_matched_modulation_reaches_hundred_kbps(self):
        report = throughput(1e5, 5e4, 0.0, 0.0)
        assert report.info_rate_bits_per_s == 1e5

    def test_dead_source(self):
        assert throughput(0.0, 1e3, 0.0, 0.0).info_rate_bits_per_s == 0.0

    def test_invariant_without_overhead(self):
        report = throughput(2e4, 1e4, 0.3, 0.0)
        assert report.info_rate_bits_per_s == pytest.approx(
            2 * report.symbol_rate_hz * (1 - report.erasure_fraction), abs=1e-9
        )

    def test_erasure_and_overhead_scale_down(self):
        report = throughput(1e5, 1e4, 0.25, 0.2)
        assert report.info_rate_bits_per_s == pytest.approx(2e4 * 0.75 * 0.8, abs=1e-9)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(DomainError):
            throughput(1e5, 1e3, 1.5, 0.0)


class TestSessionSecrecyReport:
    def test_loss_is_ceded_to_eavesdropper(self):
        estimate = qber_from_counts(1000, 1, 1000, 2)
        report = session_secrecy_report(estimate, erasure_fraction=0.3)
        assert report.q_b == pytest.approx(0.7)
        assert report.q_e == pytest.approx(0.3)
        assert report.cs_lower < 0.7


def test_to_dict_matches_asdict():
    # The hand-written dicts must keep every field, in field order, as the
    # report and transcript bytes depend on both.
    reports = [
        qber_from_counts(100, 3, 80, 5),
        secrecy_capacity_bound(0.9, 0.1, 0.02, 0.01, 0.03),
        throughput(1e5, 1e4, 0.2, 0.1),
    ]
    for report in reports:
        assert list(report.to_dict().items()) == list(asdict(report).items())
