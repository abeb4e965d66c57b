"""Shared utilities: RNG plumbing and text tables."""

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "rng": ("RngSource", "as_rng", "spawn_rngs"),
        "tables": ("Table", "format_float"),
    },
)
