"""Shared exception types, the range check and the device rates' range."""

# The device rates' range, which with a TDM slot of at most 1 s keeps every
# time and rate that a session and its report compute finite.
MIN_RATE_HZ = 1e-3
MAX_RATE_HZ = 10**12


class QsdcError(Exception):
    """Base class for all simulator errors."""


class DomainError(QsdcError):
    """An argument is outside its valid domain (probability, rate, range)."""


class InsufficientData(QsdcError):
    """Not enough samples to produce the requested estimate."""


class CapacityExceeded(QsdcError):
    """The wavelength grid cannot host the requested network."""


class ScenarioError(QsdcError):
    """A scenario file failed to parse or validate."""


def check_range(name, value, low=None, high=None, *, open_low=False, open_high=False):
    """Raise DomainError unless low <= value <= high, with < at an open end
    and no bound on a None side. NaN fails every comparison, so it is out of
    every range. The message starts with name, which the scenario reader
    takes for the field the error is about."""
    if (low is None or (value > low if open_low else value >= low)) and (
        high is None or (value < high if open_high else value <= high)
    ):
        return
    if high is None:
        bound = f"{'>' if open_low else '>='} {low}"
    elif low is None:
        bound = f"{'<' if open_high else '<='} {high}"
    else:
        bound = f"in {'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"
    raise DomainError(f"{name} must be {bound}, got {value}")
