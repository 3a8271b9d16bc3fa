"""Post-session and closed-form analytics.

QBER estimation with exact Clopper-Pearson intervals, binary entropy, the
wiretap secrecy-capacity lower bound C_s >= Q_B*(1 - H(e)) - Q_E*H(e_x+e_z),
fidelity-from-visibility estimators and throughput accounting. Pure functions
over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, InsufficientData


def binary_entropy(e: float) -> float:
    """Binary Shannon entropy H(e) in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise DomainError(f"entropy argument must be in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


@dataclass(frozen=True)
class SecrecyReport:
    """The wiretap-bound ingredients and the resulting lower bound."""

    q_b: float
    q_e: float
    e: float
    e_x: float
    e_z: float
    h_e: float
    h_exez: float
    cs_lower: float
    entropy_arg_clamped: bool

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields in declared order


def secrecy_capacity_bound(
    q_b: float, q_e: float, e: float, e_x: float = 0.0, e_z: float = 0.0
) -> SecrecyReport:
    """Lower bound on the secrecy capacity per emitted symbol.

    cs_lower = q_b*(1 - H(e)) - q_e*H(e_x + e_z). Negative values are
    reported as-is (the bound can be vacuous). When e_x + e_z leaves [0, 1]
    the entropy argument is clamped and flagged rather than silently wrapped.
    """
    for name, value in (("q_b", q_b), ("q_e", q_e)):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must be in [0, 1], got {value}")
    for name, value in (("e", e), ("e_x", e_x), ("e_z", e_z)):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must be in [0, 1], got {value}")
    argument = e_x + e_z
    clamped = argument > 1.0
    if clamped:
        argument = 1.0
    h_e = binary_entropy(e)
    h_exez = binary_entropy(argument)
    cs_lower = q_b * (1.0 - h_e) - q_e * h_exez
    return SecrecyReport(
        q_b=q_b,
        q_e=q_e,
        e=e,
        e_x=e_x,
        e_z=e_z,
        h_e=h_e,
        h_exez=h_exez,
        cs_lower=cs_lower,
        entropy_arg_clamped=clamped,
    )


@dataclass(frozen=True)
class QberEstimate:
    e: float
    e_x: float
    e_z: float
    n_x: int
    n_z: int
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields in declared order


# Pure, so memoised: a one-round session's pooled QBER repeats its round's counts.
@lru_cache(maxsize=64)
def clopper_pearson(errors: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact binomial confidence interval; well behaved at tiny error rates.

    Clopper and Pearson, Biometrika 26, 404 (1934): the bounds are Beta
    quantiles, Beta(k, n - k + 1) at alpha/2 and Beta(k + 1, n - k) at
    1 - alpha/2. The k = 0 and k = n endpoints reduce to closed forms (the
    Beta quantile with a unit shape parameter); interior counts use the
    inverse regularized incomplete beta function.
    """
    if trials < 1:
        raise InsufficientData("Clopper-Pearson interval needs at least one trial")
    if not 0 <= errors <= trials:
        raise DomainError(f"errors must be in [0, {trials}], got {errors}")
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    if errors == 0:
        return 0.0, 1.0 - (alpha / 2.0) ** (1.0 / trials)
    if errors == trials:
        return (alpha / 2.0) ** (1.0 / trials), 1.0
    # Imported here, so that an error-free run never loads scipy: scipy.special
    # costs more CPU time at start-up than all of numpy and qsdcnet together.
    from scipy.special import betaincinv

    low = float(betaincinv(errors, trials - errors + 1, alpha / 2.0))
    high = float(betaincinv(errors + 1, trials - errors, 1.0 - alpha / 2.0))
    return low, high


# Memoised for the same reason: a one-round session's pooled estimate is its round's.
@lru_cache(maxsize=64)
def qber_from_counts(n_z: int, errors_z: int, n_x: int, errors_x: int) -> QberEstimate:
    """QBER estimate from matched-basis comparison counts."""
    total = n_z + n_x
    if total == 0:
        raise InsufficientData("no matched-basis detection records")
    e_z = errors_z / n_z if n_z else 0.0
    e_x = errors_x / n_x if n_x else 0.0
    e = (errors_z + errors_x) / total
    ci_low, ci_high = clopper_pearson(errors_z + errors_x, total)
    return QberEstimate(e=e, e_x=e_x, e_z=e_z, n_x=n_x, n_z=n_z, ci_low=ci_low, ci_high=ci_high)


def fidelity_from_visibility(v: float) -> tuple[float, float]:
    """Bell-state fidelity from fringe visibility under two noise models:
    isotropic (Werner) noise gives F = (1 + 3V)/4, pure phase noise
    F = (1 + V)/2. Returns (isotropic, phase_only)."""
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"visibility must be in [0, 1], got {v}")
    return (1.0 + 3.0 * v) / 4.0, (1.0 + v) / 2.0


@dataclass(frozen=True)
class ThroughputReport:
    symbol_rate_hz: float
    erasure_fraction: float
    overhead_fraction: float
    info_rate_bits_per_s: float

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields in declared order


def throughput(
    sfg_rate_hz: float,
    modulation_rate_hz: float,
    erasure_fraction: float,
    overhead_fraction: float = 0.0,
) -> ThroughputReport:
    """Deliverable information rate: 2 bits per Bell symbol.

    The symbol rate is capped by whichever of the modulator and the SFG
    stage is slower; erasures (loss or failed conversion, including their
    retransmissions) and protocol overhead scale it down.
    """
    for name, value in (("sfg_rate_hz", sfg_rate_hz), ("modulation_rate_hz", modulation_rate_hz)):
        if value < 0.0:
            raise DomainError(f"{name} must be >= 0, got {value}")
    for name, value in (
        ("erasure_fraction", erasure_fraction),
        ("overhead_fraction", overhead_fraction),
    ):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must be in [0, 1], got {value}")
    symbol_rate = min(modulation_rate_hz, sfg_rate_hz)
    info_rate = 2.0 * symbol_rate * (1.0 - erasure_fraction) * (1.0 - overhead_fraction)
    return ThroughputReport(
        symbol_rate_hz=symbol_rate,
        erasure_fraction=erasure_fraction,
        overhead_fraction=overhead_fraction,
        info_rate_bits_per_s=info_rate,
    )


def session_secrecy_report(qber: QberEstimate, erasure_fraction: float) -> SecrecyReport:
    """Wiretap bound for a completed session.

    Symbols that reached Bob and converted count toward Q_B; every emitted
    symbol lost before detection is conservatively ceded to the eavesdropper
    as Q_E, treating signal loss as information leakage.
    """
    if not 0.0 <= erasure_fraction <= 1.0:
        raise DomainError(f"erasure_fraction must be in [0, 1], got {erasure_fraction}")
    return secrecy_capacity_bound(
        q_b=1.0 - erasure_fraction,
        q_e=erasure_fraction,
        e=qber.e,
        e_x=qber.e_x,
        e_z=qber.e_z,
    )
