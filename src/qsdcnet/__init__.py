"""Deterministic simulator of an entanglement-based QSDC network."""

__version__ = "0.1.0"
