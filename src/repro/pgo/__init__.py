"""Closed-loop continuous profile-guided code placement.

The deployment story the paper's overhead numbers enable: because the
tomography collector is cheap enough to leave on permanently, a fielded
mote can keep estimating its own branch probabilities, notice when they
drift (:mod:`repro.obs.health`), re-run the placement optimizer on the
fresh estimate, hot-swap the new layout at an activation boundary — and
roll the swap back if measured reality disagrees with the model that
proposed it.  :class:`PGOController` is that loop; :class:`LayoutRegistry`
keeps every layout it ever ran, content-addressed, so rollback and
post-hoc attribution are lookups.  Experiment F10 measures the loop
against a frozen static placement and an oracle re-placer.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "controller": (
            "ACTIONS",
            "PGOController",
            "SegmentMetrics",
            "SegmentReport",
            "measure_segment",
        ),
        "registry": ("EVENT_KINDS", "LayoutRegistry", "SwapEvent"),
    },
)
