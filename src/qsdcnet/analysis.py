"""Post-session and closed-form analytics.

QBER estimation with exact Clopper-Pearson intervals, binary entropy, the
wiretap secrecy-capacity lower bound C_s >= Q_B*(1 - H(e)) - Q_E*H(e_x+e_z),
fidelity-from-visibility estimators and throughput accounting. Pure functions
over immutable inputs, in the standard library alone: the interval's Beta
quantiles are solved for here, on Loader's binomial probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import MAX_RATE_HZ, DomainError, InsufficientData, check_range


def binary_entropy(e: float) -> float:
    """Binary Shannon entropy H(e) in bits, with H(0) = H(1) = 0."""
    check_range("entropy argument", e, 0, 1)
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def secrecy_capacity_bound(
    q_b: float, q_e: float, e: float, e_x: float = 0.0, e_z: float = 0.0
) -> dict:
    """Lower bound on the secrecy capacity per emitted symbol and its
    ingredients, as the report's ``secrecy`` writes them.

    cs_lower = q_b*(1 - H(e)) - q_e*H(e_x + e_z). Negative values are
    reported as-is (the bound can be vacuous). When e_x + e_z leaves [0, 1]
    the entropy argument is clamped and flagged rather than silently wrapped.
    """
    for name, value in (("q_b", q_b), ("q_e", q_e), ("e", e), ("e_x", e_x), ("e_z", e_z)):
        check_range(name, value, 0, 1)
    argument = e_x + e_z
    clamped = argument > 1.0
    if clamped:
        argument = 1.0
    h_e = binary_entropy(e)
    h_exez = binary_entropy(argument)
    return {
        "q_b": q_b,
        "q_e": q_e,
        "e": e,
        "e_x": e_x,
        "e_z": e_z,
        "h_e": h_e,
        "h_exez": h_exez,
        "cs_lower": q_b * (1.0 - h_e) - q_e * h_exez,
        "entropy_arg_clamped": clamped,
    }


@dataclass(frozen=True)
class QberEstimate:
    """Pooled and per-basis error rates of matched-basis comparisons. The
    Clopper-Pearson interval of e is computed when it is read, which only
    the report and the transcript lines do: a sweep computes none, since an
    interior interval costs tens to hundreds of microseconds."""

    e: float
    e_x: float
    e_z: float
    n_x: int
    n_z: int

    @property
    def interval(self) -> tuple[float, float]:
        """(ci_low, ci_high): the 95% Clopper-Pearson interval of e."""
        trials = self.n_x + self.n_z
        # e is errors / trials in one correctly rounded division, so for any
        # count below 2**50 this gives the error count back exactly.
        return clopper_pearson(round(self.e * trials), trials)

    def to_dict(self) -> dict:
        """The fields in declared order, then the interval."""
        ci_low, ci_high = self.interval
        return {**vars(self), "ci_low": ci_low, "ci_high": ci_high}


# Pure, so memoised: one-round sessions and small rounds repeat their counts.
@lru_cache(maxsize=256, typed=True)  # so a cached 2 never answers for 2.0
def clopper_pearson(errors: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact binomial confidence interval; well behaved at tiny error rates.

    Clopper and Pearson, Biometrika 26, 404 (1934): the bounds are Beta
    quantiles, Beta(k, n - k + 1) at alpha/2 and Beta(k + 1, n - k) at
    1 - alpha/2: the x at which the binomial tail P(Bin(n, x) >= k), or
    >= k + 1, takes those values. The k = 0 and k = n endpoints reduce to
    closed forms (the Beta quantile with a unit shape parameter). Interior
    bounds are solved for on the tail (``_binomial_quantile``) to within a few
    ulp. So the bits depend on libm's exp, log, log1p and expm1 (and pow at
    k = n).
    """
    if not (isinstance(errors, int) and isinstance(trials, int)):
        raise DomainError(f"counts must be integers, got {errors!r} of {trials!r}")
    if trials < 1:
        raise InsufficientData("Clopper-Pearson interval needs at least one trial")
    check_range("errors", errors, 0, trials)
    check_range("confidence", confidence, 0, 1, open_low=True, open_high=True)
    tail = (1.0 - confidence) / 2.0
    if errors == 0:  # 1 - tail**(1/n), without its cancellation at large n
        return 0.0, -math.expm1(math.log(tail) / trials)
    if errors == trials:
        return tail ** (1.0 / trials), 1.0
    # P(Bin(n, low) >= k) = tail and P(Bin(n, high) >= k + 1) = 1 - tail.
    return (
        _binomial_quantile(errors, trials, tail, 1.0 - tail),
        _binomial_quantile(errors + 1, trials, 1.0 - tail, tail),
    )


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)**n) for n = 1, ..., 15 (Loader's table).
_STIRLERR = (
    0.0810614667953272582196702,
    0.0413406959554092940938221,
    0.02767792568499833914878929,
    0.02079067210376509311152277,
    0.01664469118982119216319487,
    0.01387612882307074799874573,
    0.01189670994589177009505572,
    0.010411265261972096497478567,
    0.009255462182712732917728637,
    0.008330563433362871256469318,
    0.007573675487951840794972024,
    0.006942840107209529865664152,
    0.006408994188004207068439631,
    0.005951370112758847735624416,
    0.005554733551962801371038690,
)


def _stirlerr(n: int) -> float:
    """The Stirling-series error of log(n!): the table, else five terms of the
    series in 1 / n, whose first term left out is below 1e-16 from n = 16."""
    if n < 16:
        return _STIRLERR[n - 1]
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x / m) + m - x, summed as a series where the two terms cancel."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s, term, v2, j = (x - m) * v, 2.0 * x * v, v * v, 1
    while True:
        j += 2
        term *= v2
        if s + term / j == s:
            return s
        s += term / j


def _binomial_pmf(k: int, n: int, x: float) -> float:
    """P(Bin(n, x) = k) in Loader's saddle-point form, accurate to a few ulp."""
    if k == 0:
        return math.exp(n * math.log1p(-x))
    if k == n:
        return math.exp(n * math.log(x))
    exponent = (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * x) - _bd0(n - k, n * (1.0 - x))
    )
    return math.exp(exponent) * math.sqrt(n / (math.tau * k * (n - k)))


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by modified Lentz, for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 / max(1.0 - (a + b) * x / (a + 1.0), tiny)
    h, m = d, 0
    while True:
        m += 1
        for step in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + step * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + step / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 1e-15:
            return h


def _tail_excess(k: int, n: int, x: float, upper: float, lower: float) -> tuple[float, float]:
    """P(Bin(n, x) >= k) - upper (= lower - P(Bin(n, x) < k)), from the tail away
    from the mean, and its derivative in x, n pmf(k - 1; n - 1, x) = k pmf(k; n, x) / x."""
    pmf = _binomial_pmf(k, n, x)
    if x * (n + 3) < k + 1:  # I_x(k, n - k + 1) by its continued fraction
        excess = pmf * (1.0 - x) * _beta_cf(k, n - k + 1, x) - upper
    elif x >= 0.01:  # its complement, I_(1-x)(n - k + 1, k)
        excess = lower - pmf * k * (1.0 - x) / (n - k + 1) * _beta_cf(n - k + 1, k, 1.0 - x)
    else:  # where 1 - x rounds away the digits of x: the terms, summed down from k - 1
        term = below = _binomial_pmf(k - 1, n, x)
        odds, j = (1.0 - x) / x, k - 1
        while j > 0 and term > 1e-17 * below:
            term *= j * odds / (n - j + 1)
            below += term
            j -= 1
        excess = lower - below
    return excess, k * pmf / x


def _binomial_quantile(k: int, n: int, upper: float, lower: float) -> float:
    """x in (0, 1) with P(Bin(n, x) >= k) = upper = 1 - lower, for 1 <= k <= n.

    That is the Beta(k, n - k + 1) quantile at upper. It starts from Paulson's
    normal approximation of the F(2k, 2(n - k + 1)) quantile, which becomes the
    Poisson limit as k / n falls, and takes safeguarded Halley steps (the
    tail's second derivative over its first is (k - 1) / x - (n - k) / (1 - x)).
    """
    t = math.sqrt(-2.0 * math.log(min(upper, lower)))  # Abramowitz & Stegun 26.2.23
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t * t * t
    )
    z = z if upper > 0.5 else -z
    a, b = k, n - k + 1
    c1, c2 = 1.0 / (9.0 * a), 1.0 / (9.0 * b)
    scale, spread = (1.0 - c2) ** 2 - z * z * c2, (1.0 - c2) ** 2 * c1 + (1.0 - c1) ** 2 * c2
    x = a / (a + b)
    if scale > 0.0 and spread > z * z * c1 * c2:
        cube_root = ((1.0 - c2) * (1.0 - c1) + z * math.sqrt(spread - z * z * c1 * c2)) / scale
        if cube_root > 0.0:
            ratio = a * cube_root**3
            x = ratio / (ratio + b)
    lo, hi = 0.0, 1.0
    while True:
        excess, slope = _tail_excess(k, n, x, upper, lower)
        if excess < 0.0:
            lo = x
        else:
            hi = x
        step = excess / slope if slope > 0.0 else math.inf
        bend = 0.5 * step * ((k - 1) / x - (n - k) / (1.0 - x))
        if abs(bend) < 0.5:
            step /= 1.0 - bend
        if abs(step) <= 1e-10 * x:  # what it leaves is of the order of its cube
            return x - step
        x -= step
        if not lo < x < hi:
            x = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi


# Memoised for the same reason: a one-round session's pooled estimate is its round's.
@lru_cache(maxsize=64, typed=True)
def qber_from_counts(n_z: int, errors_z: int, n_x: int, errors_x: int) -> QberEstimate:
    """QBER estimate from matched-basis comparison counts."""
    total = n_z + n_x
    if total == 0:
        raise InsufficientData("no matched-basis detection records")
    e_z = errors_z / n_z if n_z else 0.0
    e_x = errors_x / n_x if n_x else 0.0
    e = (errors_z + errors_x) / total
    return QberEstimate(e=e, e_x=e_x, e_z=e_z, n_x=n_x, n_z=n_z)


def fidelity_from_visibility(v: float) -> tuple[float, float]:
    """Bell-state fidelity from fringe visibility under two noise models:
    isotropic (Werner) noise gives F = (1 + 3V)/4, pure phase noise
    F = (1 + V)/2. Returns (isotropic, phase_only)."""
    check_range("visibility", v, 0, 1)
    return (1.0 + 3.0 * v) / 4.0, (1.0 + v) / 2.0


def throughput(
    sfg_rate_hz: float,
    modulation_rate_hz: float,
    erasure_fraction: float,
    overhead_fraction: float = 0.0,
) -> dict:
    """Deliverable information rate: 2 bits per Bell symbol, as the report's
    ``throughput`` writes it.

    The symbol rate is capped by whichever of the modulator and the SFG
    stage is slower; erasures (loss or failed conversion, including their
    retransmissions) and protocol overhead scale it down. Each rate lies in
    [0, MAX_RATE_HZ], which keeps the information rate finite.
    """
    check_range("sfg_rate_hz", sfg_rate_hz, 0, MAX_RATE_HZ)
    check_range("modulation_rate_hz", modulation_rate_hz, 0, MAX_RATE_HZ)
    check_range("erasure_fraction", erasure_fraction, 0, 1)
    check_range("overhead_fraction", overhead_fraction, 0, 1)
    symbol_rate = min(modulation_rate_hz, sfg_rate_hz)
    info_rate = 2.0 * symbol_rate * (1.0 - erasure_fraction) * (1.0 - overhead_fraction)
    return {
        "symbol_rate_hz": symbol_rate,
        "erasure_fraction": erasure_fraction,
        "overhead_fraction": overhead_fraction,
        "info_rate_bits_per_s": info_rate,
    }


def session_secrecy_report(qber: QberEstimate, erasure_fraction: float) -> dict:
    """Wiretap bound for a completed session.

    Symbols that reached Bob and converted count toward Q_B; every emitted
    symbol lost before detection is conservatively ceded to the eavesdropper
    as Q_E, treating signal loss as information leakage.
    """
    check_range("erasure_fraction", erasure_fraction, 0, 1)
    return secrecy_capacity_bound(
        q_b=1.0 - erasure_fraction,
        q_e=erasure_fraction,
        e=qber.e,
        e_x=qber.e_x,
        e_z=qber.e_z,
    )
