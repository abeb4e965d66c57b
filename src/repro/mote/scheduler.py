"""A TinyOS-flavoured cooperative task scheduler.

TinyOS applications are event-driven: timers fire, post tasks, tasks run to
completion.  The reproduction's workloads are activated the same way — each
periodic timer activation invokes the program's entry procedure once.  The
scheduler keeps a virtual clock in CPU cycles, interleaves multiple periodic
tasks deterministically (earliest deadline, FIFO on ties), and supports
one-shot posts, which is enough to express the demo applications and to give
the batch runner realistic inter-activation spacing.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import MoteError
from repro.obs import counters as hwc

__all__ = ["Task", "Scheduler"]


@dataclass(frozen=True)
class Task:
    """A schedulable unit: a callable run with the activation cycle."""

    name: str
    action: Callable[[int], None]
    period_cycles: Optional[int] = None  # None = one-shot


class Scheduler:
    """Earliest-deadline-first cooperative scheduler over a cycle clock."""

    def __init__(self) -> None:
        self.now_cycles = 0
        self._queue: list[tuple[int, int, Task]] = []
        self._tie = itertools.count()
        self.activations = 0

    def post(self, task: Task, delay_cycles: int = 0) -> None:
        """Schedule ``task`` to run ``delay_cycles`` from now."""
        if delay_cycles < 0:
            raise MoteError(f"delay_cycles must be non-negative, got {delay_cycles}")
        if task.period_cycles is not None and task.period_cycles <= 0:
            raise MoteError(f"period_cycles must be positive, got {task.period_cycles}")
        heapq.heappush(self._queue, (self.now_cycles + delay_cycles, next(self._tie), task))
        hw = hwc.active()
        if hw is not None:
            hw.sched_post()

    def step(self) -> bool:
        """Run the next task; False when the queue is empty.

        The clock jumps to the task's activation time before it runs.  Tasks
        run to completion (cooperative), matching the TinyOS model where a
        long task delays everything behind it.
        """
        if not self._queue:
            return False
        when, _, task = heapq.heappop(self._queue)
        self.now_cycles = max(self.now_cycles, when)
        hw = hwc.active()
        if hw is not None:
            hw.sched_switch()
        task.action(self.now_cycles)
        self.activations += 1
        if task.period_cycles is not None:
            heapq.heappush(
                self._queue, (when + task.period_cycles, next(self._tie), task)
            )
        return True

    def run(self, *, max_activations: Optional[int] = None, until_cycles: Optional[int] = None) -> int:
        """Run until a bound is hit or the queue drains; returns activations run."""
        if max_activations is None and until_cycles is None:
            raise MoteError("run() needs max_activations or until_cycles")
        ran = 0
        while self._queue:
            if max_activations is not None and ran >= max_activations:
                break
            if until_cycles is not None and self._queue[0][0] > until_cycles:
                break
            if not self.step():
                break
            ran += 1
        return ran

    def advance(self, cycles: int) -> None:
        """Consume CPU time on the virtual clock (called by task bodies)."""
        if cycles < 0:
            raise MoteError(f"cycles must be non-negative, got {cycles}")
        self.now_cycles += cycles

    @property
    def pending(self) -> int:
        """Number of queued activations."""
        return len(self._queue)
