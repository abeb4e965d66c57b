"""Static branch prediction schemes.

Mote MCUs have no dynamic branch predictor; the pipeline commits to a fixed
guess per branch *site* determined by the code layout.  A conditional branch
in flash falls through to the next block or jumps to a displaced target; the
scheme predicts which.  Code placement therefore controls the misprediction
rate — the quantity the paper's feedback loop minimizes — by choosing which
successor is the fall-through (and, for BTFN, whether the target lies
forward or backward).

The vocabulary here is layout-relative: ``taken`` means control leaves the
fall-through path.
"""

from __future__ import annotations

import abc

__all__ = [
    "StaticPredictor",
    "AlwaysNotTakenPredictor",
    "BTFNPredictor",
]


class StaticPredictor(abc.ABC):
    """A static prediction rule for conditional branch sites."""

    name: str = "static"

    @abc.abstractmethod
    def predicts_taken(self, *, backward_target: bool) -> bool:
        """Predicted outcome for a site whose taken-target direction is known.

        ``backward_target`` is True when the branch target sits at a lower
        flash address than the branch (a loop-closing shape).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class AlwaysNotTakenPredictor(StaticPredictor):
    """Predict fall-through everywhere (the simplest pipelines do this)."""

    name = "not-taken"

    def predicts_taken(self, *, backward_target: bool) -> bool:
        return False


class BTFNPredictor(StaticPredictor):
    """Backward-taken / forward-not-taken.

    The classic static heuristic: backward branches close loops and are
    usually taken; forward branches skip code and are usually not.
    """

    name = "btfn"

    def predicts_taken(self, *, backward_target: bool) -> bool:
        return backward_target
