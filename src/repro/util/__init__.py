"""Shared utilities: RNG plumbing and text tables."""

from repro.util.rng import RngSource, as_rng, spawn_rngs
from repro.util.tables import Table, format_float

__all__ = [
    "RngSource",
    "as_rng",
    "spawn_rngs",
    "Table",
    "format_float",
]
