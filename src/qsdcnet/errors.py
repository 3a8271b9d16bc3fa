"""Shared exception types for the simulator."""


class QsdcError(Exception):
    """Base class for all simulator errors."""


class DomainError(QsdcError):
    """An argument is outside its valid domain (probability, rate, range)."""


class InvariantViolation(QsdcError):
    """A structural invariant was broken (an illegal phase transition, a bad density matrix)."""


class InsufficientData(QsdcError):
    """Not enough samples to produce the requested estimate."""


class CapacityExceeded(QsdcError):
    """The wavelength grid cannot host the requested network."""


class ScenarioError(QsdcError):
    """A scenario file failed to parse or validate."""
