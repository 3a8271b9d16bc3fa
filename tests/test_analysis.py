import math
from dataclasses import asdict
from decimal import Decimal, getcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcnet import analysis
from qsdcnet.analysis import (
    binary_entropy,
    clopper_pearson,
    fidelity_from_visibility,
    qber_from_counts,
    secrecy_capacity_bound,
    session_secrecy_report,
    throughput,
)
from qsdcnet.errors import MAX_RATE_HZ, DomainError, InsufficientData
from qsdcnet.protocol import Link, Session, run_security_detection
from qsdcnet.qstate import BellLabel, fidelity
from qsdcnet.scenario import MAX_DETECTION_SIZE, EveKind, EveModel, NoiseParams, ProtocolConfig

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
        assert report["cs_lower"] == 1.0

    def test_reference_operating_point(self):
        report = secrecy_capacity_bound(1.0, 0.0, REFERENCE_ERROR_RATE)
        assert report["cs_lower"] == pytest.approx(1.0 - REFERENCE_ENTROPY, abs=1e-12)
        assert report["cs_lower"] > 0.98  # near-unit secrecy capacity

    def test_composed_yields(self):
        expected = 0.5 * (1.0 - entropy_oracle("0.0013")) - 0.5 * entropy_oracle("0.0026")
        report = secrecy_capacity_bound(
            0.5, 0.5, REFERENCE_ERROR_RATE, e_x=REFERENCE_ERROR_RATE, e_z=REFERENCE_ERROR_RATE
        )
        assert report["cs_lower"] == pytest.approx(expected, abs=1e-12)

    def test_bound_can_go_negative(self):
        report = secrecy_capacity_bound(0.1, 0.9, 0.3, e_x=0.25, e_z=0.25)
        assert report["cs_lower"] < 0.0

    def test_entropy_argument_clamped_and_flagged(self):
        report = secrecy_capacity_bound(1.0, 1.0, 0.0, e_x=0.7, e_z=0.7)
        assert report["entropy_arg_clamped"]
        assert report["h_exez"] == 0.0  # clamped to 1, H(1) = 0

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
            assert worse_e["cs_lower"] <= base["cs_lower"] + 1e-12
            better_yield = secrecy_capacity_bound(
                min(1.0, q_b + 0.1), q_e, e, e_x=e / 2, e_z=e / 2
            )
            assert better_yield["cs_lower"] >= base["cs_lower"] - 1e-12


class TestQberEstimation:
    def test_all_agree(self):
        records = [
            {"basis": "Z" if i % 2 else "X", "alice_outcome": 1, "bob_outcome": 1}
            for i in range(100)
        ]
        estimate = qber_from_transcript(records)
        assert estimate.e == 0.0
        ci_low, ci_high = estimate.interval
        assert ci_low == 0.0
        assert ci_high > 0.0

    def test_counting_example(self):
        estimate = qber_from_counts(n_z=10_000, errors_z=25, n_x=10_000, errors_x=0)
        assert estimate.e_z == pytest.approx(0.0025, abs=1e-12)
        assert estimate.e_x == 0.0
        assert estimate.e == pytest.approx(0.00125, abs=1e-12)
        ci_low, ci_high = estimate.interval
        assert ci_low <= estimate.e <= ci_high

    def test_intercept_resend_transcript_covered_by_interval(self):
        session = Session(np.random.default_rng(31))
        session.transition("security_detection")
        run_security_detection(
            session,
            Link(make_devices(), EveModel(EveKind.INTERCEPT_RESEND, 1.0)),
            ProtocolConfig(qber_threshold=0.49, min_samples=500, detection_size=20000),
        )
        ci_low, ci_high = qber_from_counts(*session.transcript.detection_counts[-1]).interval
        assert ci_low <= 0.25 <= ci_high

    def test_a_cached_estimate_keeps_its_count_types(self):
        assert type(qber_from_counts(100.0, 3.0, 80.0, 5.0).n_z) is float
        assert type(qber_from_counts(100, 3, 80, 5).n_z) is int

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
            ci_low, ci_high = qber_from_counts(n, errors_z, n, errors_x).interval
            if ci_low <= planted <= ci_high:
                covered += 1
        assert covered / trials >= 0.93

    def test_clopper_pearson_interior_matches_endpoints_continuously(self):
        low_a, high_a = clopper_pearson(1, 1000)
        assert 0.0 < low_a < 1e-3 < high_a < 1e-2


@st.composite
def counts_and_trials(draw, max_trials=MAX_DETECTION_SIZE):
    """(k, n) with n up to a detection round's ceiling, the endpoints k = 0 and
    k = n drawn as often as an interior count."""
    n = draw(st.integers(1, max_trials))
    k = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    return k, n


def _mp_at_least(k: int, n: int, x) -> mpmath.mpf:
    """P(Bin(n, x) >= k), its binomial terms summed at the working precision
    from k away from the mean, down to 1e-60 of the sum."""
    if k == 0:
        return mpmath.mpf(1)
    if k > n * x:
        j, step = k, 1  # the upper tail, summed up from k
    else:
        j, step = k - 1, -1  # the lower tail, summed down from k - 1
    term = mpmath.binomial(n, j) * x**j * (1 - x) ** (n - j)
    total = term
    while 0 <= j + step <= n and term > total * mpmath.mpf(10) ** -60:
        if step > 0:
            term *= (n - j) * x / ((j + 1) * (1 - x))
        else:
            term *= j * (1 - x) / ((n - j + 1) * x)
        j += step
        total += term
    return total if step > 0 else 1 - total


def _mp_quantile(k: int, n: int, at_least) -> mpmath.mpf:
    """x with P(Bin(n, x) >= k) = at_least, bisected at 50 digits to 1e-20 relative."""
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while hi - lo > lo * mpmath.mpf(10) ** -20:
            mid = (lo + hi) / 2
            if _mp_at_least(k, n, mid) < at_least:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def _mp_interval(k: int, n: int) -> tuple[float, float]:
    """The 95% Clopper-Pearson interval at 50 digits, rounded to floats."""
    with mpmath.workdps(50):
        tail = mpmath.mpf(1.0 - 0.95) / 2  # the float alpha that clopper_pearson uses
        low = _mp_quantile(k, n, tail) if k > 0 else 0
        high = _mp_quantile(k + 1, n, 1 - tail) if k < n else 1
        return float(low), float(high)


def _mp_stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n / e)**n) at 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.loggamma(n + 1) - (n + 0.5) * mpmath.log(n) + n - mpmath.log(2 * mpmath.pi) / 2)


# (k, n) -> (ci_low, ci_high) from scipy 1.17.1: betaincinv(k, n - k + 1,
# alpha / 2) and betaincinv(k + 1, n - k, 1 - alpha / 2), with alpha the
# float 1 - 0.95, recorded once. They cover every count of the golden corpus
# (conftest.SCIPY_ERA_INTERVALS, whose k = 0 bounds came from the old closed
# form), k >= n - 3, and trials up to 10**7, beyond MAX_DETECTION_SIZE, as a
# pooled estimate can have.
SCIPY_1_17_1_INTERVALS = {
    (0, 700): (0.0, 0.005255966608486495),
    (0, 962): (0.0, 0.003827251359849999),
    (0, 981): (0.0, 0.0037532644703744513),
    (0, 984): (0.0, 0.003741843026414679),
    (0, 1000): (0.0, 0.003682083896865671),
    (0, 1002): (0.0, 0.003674747948320408),
    (0, 1005): (0.0, 0.0036637986709135693),
    (0, 1019): (0.0, 0.0036135529462135514),
    (0, 1022): (0.0, 0.003602964779822839),
    (0, 1027): (0.0, 0.0035854550529812934),
    (0, 1033): (0.0, 0.0035646667260825753),
    (0, 1039): (0.0, 0.0035441180691311936),
    (0, 1041): (0.0, 0.0035373210617995637),
    (0, 1053): (0.0, 0.0034970802794669444),
    (0, 1054): (0.0, 0.0034937681692626976),
    (0, 1095): (0.0, 0.0033631715105561753),
    (0, 1566): (0.0, 0.002352834029249099),
    (0, 5000): (0.0, 0.000737503801108105),
    (0, 6000): (0.0, 0.000614624283417639),
    (0, 6224): (0.0, 0.0005925106837913164),
    (0, 9093): (0.0, 0.0004056011543658919),
    (0, 10**6): (0.0, 3.688872650206488e-06),
    (0, 10**7): (0.0, 3.6888787737224376e-07),
    (1, 1): (0.025000000000000022, 1.0),
    (1, 2): (0.01257911709342506, 0.9874208829065749),
    (1, 10**5): (2.531780477933316e-07, 5.571516034774275e-05),
    (1, 10**6): (2.53178076637942e-08, 5.571630655166939e-06),
    (2, 3): (0.09429932405024613, 0.9915962413403874),
    (3, 4): (0.19412044968324346, 0.9936905367902902),
    (4, 5): (0.28358206388191054, 0.9949492366205319),
    (5, 64): (0.025853840167968132, 0.17297832900420762),
    (5, 10**5): (1.623505681705786e-05, 0.00011667943042027703),
    (8, 180): (0.019380472829908416, 0.08569257842896981),
    (31, 1000): (0.021158171970208632, 0.043715085006238906),
    (37, 3 * 10**6): (8.683819254359767e-06, 1.69998357152722e-05),
    (100, 10**7): (8.136406299795298e-06, 1.2162666227232309e-05),
    (151, 1000): (0.12936136200265355, 0.17471546603819102),
    (236, 1000): (0.2099908387686157, 0.2635732048664238),
    (800, 8000): (0.09351015555801763, 0.10678285497316738),
    (997, 1000): (0.9912579767615217, 0.9993809000683505),
    (998, 1000): (0.9927941610885425, 0.9997576988831227),
    (999, 1000): (0.9944410757201734, 0.9999746825125088),
    (1000, 1000): (0.9963179161031344, 1.0),
    (2500, 10**7): (0.00024029639060886584, 0.0002599948488776528),
    (99000, 10**7): (0.009838729105998839, 0.009961554900500642),
    (250000, 10**6): (0.24915153568554574, 0.2508499125965476),
    (10**6 - 3, 10**6): (0.9999912327522119, 0.9999993813274498),
    (10**6 - 1, 10**6): (0.9999944283693448, 0.9999999746821924),
    (5 * 10**6, 10**7): (0.4996900525213711, 0.5003099474786289),
    (10**7 - 3, 10**7): (0.9999991232729458, 0.9999999381327834),
    (10**7 - 1, 10**7): (0.9999994428357883, 0.9999999974682192),
    (10**7, 10**7): (0.9999996311121226, 1.0),
}


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
        # Beta(1, n) and Beta(n, 1) have quantiles 1 - (1 - q)**(1/n) and q**(1/n).
        none_low, none_high = clopper_pearson(0, n)
        all_low, all_high = clopper_pearson(n, n)
        assert none_low == 0.0 and all_high == 1.0
        with mpmath.workdps(50):
            tail = mpmath.mpf(1.0 - 0.95) / 2
            root = tail ** (mpmath.mpf(1) / n)
            assert none_high == pytest.approx(float(1 - root), rel=1e-15, abs=0.0)
            assert all_low == pytest.approx(float(root), rel=1e-15, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(counts_and_trials(max_trials=3000))
    def test_interval_matches_a_50_digit_oracle(self, case):
        k, n = case
        assert clopper_pearson(k, n) == pytest.approx(_mp_interval(k, n), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("counts", sorted(SCIPY_1_17_1_INTERVALS))
    def test_interval_matches_scipy_betaincinv(self, counts):
        expected = SCIPY_1_17_1_INTERVALS[counts]
        assert clopper_pearson(*counts) == pytest.approx(expected, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("counts", [(1, 10**7), (3, 10**7), (2, 1_353_414)])
    def test_upper_bound_holds_where_scipy_loses_digits(self, counts):
        # scipy 1.17.1's ci_high is off by 6.6e-11, 3.2e-11 and 1.3e-11 here:
        # few errors among millions of trials. Its 1 - x loses the digits of x.
        assert clopper_pearson(*counts) == pytest.approx(_mp_interval(*counts), rel=1e-14, abs=0.0)

    def test_stirlerr_table_is_log_factorial_less_stirling(self):
        # One mistyped entry would pass every interval test of a count that
        # misses it, and be off by 1e-5 at those that hit it.
        for n, value in enumerate(analysis._STIRLERR, start=1):
            stirling = (n + 0.5) * math.log(n) - n + 0.5 * math.log(2.0 * math.pi)
            assert value == pytest.approx(math.lgamma(n + 1) - stirling, rel=0.0, abs=1e-13)
            assert value == pytest.approx(_mp_stirlerr(n), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [16, 35, 36, 80, 81, 500, 501, 10**6])
    def test_stirlerr_series_beyond_the_table(self, n):
        assert analysis._stirlerr(n) == pytest.approx(_mp_stirlerr(n), rel=1e-13, abs=0.0)

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
    def test_out_of_range_rejected(self, errors, trials, confidence):
        with pytest.raises(DomainError):
            clopper_pearson(errors, trials, confidence)

    @pytest.mark.parametrize("errors, trials", [(2.0, 10), (2.5, 10), (2, 10.0)])
    def test_counts_that_are_not_integers_rejected(self, errors, trials):
        clopper_pearson(2, 10)  # a cached (2, 10) must not answer for 2.0 or 10.0
        with pytest.raises(DomainError, match="counts must be integers"):
            clopper_pearson(errors, trials)

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
        assert report["symbol_rate_hz"] == 1e3
        assert report["info_rate_bits_per_s"] == 2000.0

    def test_sfg_matched_modulation_reaches_hundred_kbps(self):
        report = throughput(1e5, 5e4, 0.0, 0.0)
        assert report["info_rate_bits_per_s"] == 1e5

    def test_dead_source(self):
        assert throughput(0.0, 1e3, 0.0, 0.0)["info_rate_bits_per_s"] == 0.0

    def test_invariant_without_overhead(self):
        report = throughput(2e4, 1e4, 0.3, 0.0)
        assert report["info_rate_bits_per_s"] == pytest.approx(
            2 * report["symbol_rate_hz"] * (1 - report["erasure_fraction"]), abs=1e-9
        )

    def test_erasure_and_overhead_scale_down(self):
        report = throughput(1e5, 1e4, 0.25, 0.2)
        assert report["info_rate_bits_per_s"] == pytest.approx(2e4 * 0.75 * 0.8, abs=1e-9)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(DomainError):
            throughput(1e5, 1e3, 1.5, 0.0)

    def test_rates_are_bounded_above(self):
        # Above the device ceiling, 2 * rate could overflow to inf.
        for rates in ((1e308, 1e3), (1e3, 1e308), (1e308, 1e308)):
            with pytest.raises(DomainError, match="rate_hz must be in"):
                throughput(*rates, 0.0)
        report = throughput(MAX_RATE_HZ, MAX_RATE_HZ, 0.0)
        assert report["info_rate_bits_per_s"] == 2.0 * MAX_RATE_HZ


class TestSessionSecrecyReport:
    def test_loss_is_ceded_to_eavesdropper(self):
        estimate = qber_from_counts(1000, 1, 1000, 2)
        report = session_secrecy_report(estimate, erasure_fraction=0.3)
        assert report["q_b"] == pytest.approx(0.7)
        assert report["q_e"] == pytest.approx(0.3)
        assert report["cs_lower"] < 0.7


def test_to_dict_matches_asdict():
    # The hand-written dicts must keep every field, in field order, as the
    # report and transcript bytes depend on both. A QberEstimate's interval,
    # computed when read, follows its fields. The secrecy and throughput
    # results are the report's dicts, so their keys are checked as returned.
    qber = qber_from_counts(100, 3, 80, 5)
    ci_low, ci_high = clopper_pearson(8, 180)
    expected = [*asdict(qber).items(), ("ci_low", ci_low), ("ci_high", ci_high)]
    assert list(qber.to_dict().items()) == expected
    secrecy = secrecy_capacity_bound(0.9, 0.1, 0.02, 0.01, 0.03)
    assert list(secrecy) == [
        "q_b", "q_e", "e", "e_x", "e_z", "h_e", "h_exez", "cs_lower", "entropy_arg_clamped"
    ]
    assert list(throughput(1e5, 1e4, 0.2, 0.1)) == [
        "symbol_rate_hz", "erasure_fraction", "overhead_fraction", "info_rate_bits_per_s"
    ]


@settings(max_examples=300, deadline=None)
@given(
    n_z=st.integers(0, 10**7),
    n_x=st.integers(0, 10**7),
    z_share=st.floats(0.0, 1.0),
    x_share=st.floats(0.0, 1.0),
)
def test_interval_on_demand_is_clopper_pearson_of_the_counts(n_z, n_x, z_share, x_share):
    # The estimate keeps no error count: its interval reads it back from e.
    if n_z + n_x == 0:
        n_z = 1
    errors_z, errors_x = round(z_share * n_z), round(x_share * n_x)
    qber = qber_from_counts(n_z, errors_z, n_x, errors_x)
    expected = clopper_pearson(errors_z + errors_x, n_z + n_x)
    assert qber.interval == expected
    assert (qber.to_dict()["ci_low"], qber.to_dict()["ci_high"]) == expected
