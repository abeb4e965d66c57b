"""Path enumeration over a procedure's timing chain.

A *path* here is one complete entry-to-exit walk.  Its probability under any
branch-probability vector factorizes as

    P(path | theta) = prod_k theta_k^{a_k} (1 - theta_k)^{b_k}

where ``a_k`` / ``b_k`` count how often the path took branch ``k``'s then /
else arm — the counts are theta-independent, so a family enumerated once can
be re-scored for any theta in closed form.  Each path also carries its total
duration mean and variance (variance is nonzero only on blocks that call
other procedures, whose time is folded in as a distribution).

Enumeration is best-first on path probability under a *reference* theta,
stopping at ``max_paths`` paths or when the frontier's probability drops
below ``min_prob``; loops terminate naturally because every extra iteration
multiplies the reference probability down.  The EM estimator re-enumerates
under its current iterate, so coverage follows the estimate.

Many paths share their statistics: a loop whose body holds two branches
reaches the same arm counts (and the same duration) in every order of its
iterations.  Such paths are interchangeable in every use of the family, so
the search merges them while they wait on its frontier.  A search node is
(state, packed arm counts, duration mean, duration variance) and stands for
a number of paths; a push that finds an equal node waiting adds its count
to that node instead of queueing a copy, so the search pops one node per
class prefix rather than one per path, and an exit emits its node's count
into one *class* row carrying its multiplicity.  A :class:`PathFamily`
holds those statistics as read-only arrays, one row per class, so EM's
iterations can share it without anyone mutating it.

The merge keeps the per-path search's pop order, its ``min_prob`` and
``max_paths`` limits and its rows' first-occurrence order, with one rule
of its own at the ``max_paths`` cut.  An exit emits its node's count cut
to what is left of ``max_paths``, so a class split at the cut keeps a
partial multiplicity.  Distinct classes can tie exactly in probability
(every reference entry equal, or entries clipped to 0.02/0.98); when the
cut falls inside such a tie, the last tier fills in merged-node order,
each class's whole count before the next class's, where a per-path search
would interleave the tied classes' paths in push order.  Coverage adds a
node's probability times its count, where a per-path search adds the same
terms one at a time.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.sim.timing import ProcedureTimingModel

__all__ = ["PathFamily", "enumerate_paths"]

#: Bits per arm in a path's packed arm counts.  A node only joins the
#: frontier with probability >= min_prob > 0, and every arm taken multiplies
#: by at most 0.98 (theta_ref is clipped), so no count exceeds
#: log(5e-324) / log(0.98) < 36,900 < 2**16.
_ARM_BITS = 16


@dataclass(frozen=True, eq=False)
class PathFamily:
    """An enumerated set of paths, folded into classes, plus coverage bookkeeping.

    Row ``c`` is a class of ``multiplicity[c]`` enumerated paths with equal
    arm counts and duration moments: ``then_counts`` / ``else_counts`` hold
    their arm counts ``a_ck`` / ``b_ck`` and ``duration_means`` /
    ``duration_variances`` their total duration moments.  Rows keep the
    order in which the search first emitted a member.  ``len()`` counts
    rows; ``multiplicity.sum()`` counts enumerated paths.  The arrays are
    read-only and the family compares by identity.  The θ-independent
    terms of :meth:`log_probabilities` are computed once per family: the
    log multiplicities when it is built, the zero-count masks the first
    time a θ on a bound needs them.
    """

    then_counts: np.ndarray  # (n_rows, k)
    else_counts: np.ndarray  # (n_rows, k)
    duration_means: np.ndarray  # (n_rows,)
    duration_variances: np.ndarray  # (n_rows,)
    multiplicity: np.ndarray  # (n_rows,) enumerated paths per row
    covered_probability: float  # total mass under the reference theta
    reference_theta: tuple[float, ...]
    truncated: bool  # True when max_paths or min_prob cut enumeration short

    def __post_init__(self) -> None:
        for arr in (
            self.then_counts,
            self.else_counts,
            self.duration_means,
            self.duration_variances,
            self.multiplicity,
        ):
            arr.flags.writeable = False
        object.__setattr__(self, "_log_multiplicity", np.log(self.multiplicity))

    def __reduce__(self):
        # Rebuild through __init__ so unpickled arrays are read-only again.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return self.duration_means.shape[0]

    @cached_property
    def _zero_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Where a row never takes a branch's then arm, and its else arm."""
        return self.then_counts == 0, self.else_counts == 0

    def log_probabilities(self, theta: Sequence[float]) -> np.ndarray:
        """Each row's class mass: log multiplicity plus ``log P(path | theta)``.

        With every θ entry strictly inside (0, 1), as EM's iterates always
        are, that is ``Σ_k a_k log θ_k + b_k log(1 − θ_k)``, which no term
        can make NaN.  On a bound the same sum is guarded: an arm of
        probability 0 that a row never takes adds 0 (not ``0 · log 0 =
        NaN``), and one it takes makes the row ``-inf``.  The two formulas
        agree bit for bit wherever both apply.
        """
        vec = np.asarray(theta, dtype=float)
        a, b = self.then_counts, self.else_counts
        if all(0.0 < t < 1.0 for t in vec.ravel().tolist()):
            log_p = a * np.log(vec) + b * np.log1p(-vec)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                log_p = a * np.log(vec) + b * np.log1p(-vec)
            then_zero, else_zero = self._zero_counts
            log_p = np.where(then_zero & np.isnan(log_p), 0.0, log_p)
            log_p = np.where(else_zero & np.isnan(log_p), 0.0, log_p)
        return log_p.sum(axis=1) + self._log_multiplicity

    def probabilities(self, theta: Sequence[float]) -> np.ndarray:
        """Each row's class mass ``multiplicity · P(path | theta)``, in order."""
        return np.exp(self.log_probabilities(theta))


def enumerate_paths(
    model: ProcedureTimingModel,
    reference_theta: Optional[Sequence[float]] = None,
    min_prob: float = 1e-6,
    max_paths: int = 2000,
) -> PathFamily:
    """Enumerate the most probable complete paths of ``model``.

    ``reference_theta`` defaults to the uninformed 0.5 vector.  Raises when
    no complete path is found within the limits (pathological limits).
    """
    k = model.n_parameters
    if reference_theta is None:
        theta_ref = np.full(k, 0.5)
    else:
        theta_ref = np.asarray(reference_theta, dtype=float)
        if theta_ref.shape != (k,):
            raise EstimationError(
                f"reference_theta must have length {k}, got {theta_ref.shape}"
            )
    # Clamp so reference probabilities never hit exactly 0 (which would make
    # legitimate low-probability arms unreachable by enumeration).
    theta_ref = np.clip(theta_ref, 0.02, 0.98)
    if not 0.0 < min_prob < 1.0:
        raise EstimationError(f"min_prob must lie in (0, 1), got {min_prob}")
    if max_paths < 1:
        raise EstimationError(f"max_paths must be >= 1, got {max_paths}")

    means = model.reward_means.tolist()
    variances = model.reward_variances.tolist()
    ref = theta_ref.tolist()
    # Resolve the plan once.  Per state: its exit probabilities; its moves as
    # (dst, edge probability, packed arm increment, dst mean, dst variance);
    # and, when its only move is certain, that move as (dst, mean, var).
    # Arm counts pack into one int, then-arms in the low k fields.
    rows = []
    for plan_row in model.transition_plan():
        exits, moves = [], []
        for entry in plan_row:
            if entry[0] == "exit":
                exits.append(entry[1])
                continue
            if entry[0] == "fixed":
                _, dst, p_edge = entry
                inc = 0
            else:
                _, dst, param, arm = entry
                if arm == "then":
                    p_edge, field_index = ref[param], param
                else:
                    p_edge, field_index = 1.0 - ref[param], k + param
                inc = 1 << (_ARM_BITS * field_index)
            moves.append((dst, p_edge, inc, means[dst], variances[dst]))
        certain = None
        if not exits and len(moves) == 1 and moves[0][1] == 1.0:
            dst, _, _, d_mean, d_var = moves[0]
            certain = (dst, d_mean, d_var)
        rows.append((exits, moves, certain))

    # Best-first search.  The frontier groups nodes by probability: a heap of
    # distinct -prob values, each with a FIFO of its nodes (state, packed
    # counts, duration mean, duration variance).  Nodes therefore pop in order
    # of falling probability and, among equal probabilities, in push order —
    # exactly the order of one heap keyed on (-prob, push sequence number).
    # Probabilities are carried negated; negation is exact.  ``waiting`` maps
    # each queued node to the number of paths it stands for: a push that
    # finds an equal node waiting adds its count there and queues nothing.
    heap: list[float] = []
    queues: dict[float, deque] = {}
    waiting: dict[tuple, int] = {}
    neg_min = -min_prob
    state = model.states.index(model.entry_state)
    neg, packed, count = -1.0, 0, 1
    dur_mean, dur_var = means[state], variances[state]
    classes: Counter = Counter()
    room = max_paths
    covered = 0.0
    truncated = False
    while True:
        exits, moves, certain = rows[state]
        if certain is not None:
            # The child keeps this node's probability, so it pops next unless
            # nodes of that probability are already waiting (at the top).
            dst, d_mean, d_var = certain
            queue = queues.get(neg)
            if queue is None:
                state, dur_mean, dur_var = dst, dur_mean + d_mean, dur_var + d_var
                continue
            node = (dst, packed, dur_mean + d_mean, dur_var + d_var)
            merged = waiting.get(node)
            if merged is not None:
                waiting[node] = merged + count
            else:
                waiting[node] = count
                queue.append(node)
        else:
            for p_exit in exits:
                neg_next = neg * p_exit
                if neg_next >= 0:
                    continue
                # A class the max_paths cut splits keeps the part that fits.
                emitted = min(count, room)
                truncated = truncated or emitted < count
                classes[packed, dur_mean, dur_var] += emitted
                covered -= neg_next * emitted
                room -= emitted
            for dst, p_edge, inc, d_mean, d_var in moves:
                neg_next = neg * p_edge
                if neg_next > neg_min:
                    truncated = True
                    continue
                node = (dst, packed + inc, dur_mean + d_mean, dur_var + d_var)
                merged = waiting.get(node)
                if merged is not None:
                    waiting[node] = merged + count
                    continue
                waiting[node] = count
                queue = queues.get(neg_next)
                if queue is None:
                    queue = queues[neg_next] = deque()
                    heapq.heappush(heap, neg_next)
                queue.append(node)
            if exits and room == 0:
                truncated = truncated or bool(heap)
                break
            if not heap:
                break
        neg = heap[0]
        queue = queues[neg]
        node = queue.popleft()
        count = waiting.pop(node)
        state, packed, dur_mean, dur_var = node
        if not queue:
            heapq.heappop(heap)
            del queues[neg]

    if not classes:
        raise EstimationError(
            "path enumeration found no complete path within limits "
            f"(min_prob={min_prob}, max_paths={max_paths})"
        )
    class_packed, class_means, class_vars = zip(*classes)
    width = 2 * k * _ARM_BITS // 8
    raw = b"".join(p.to_bytes(width, "little") for p in class_packed)
    counts = np.frombuffer(raw, dtype="<u2").reshape(len(classes), 2 * k)
    return PathFamily(
        then_counts=np.ascontiguousarray(counts[:, :k], dtype=float),
        else_counts=np.ascontiguousarray(counts[:, k:], dtype=float),
        duration_means=np.array(class_means),
        duration_variances=np.array(class_vars),
        multiplicity=np.fromiter(classes.values(), dtype=np.int64, count=len(classes)),
        covered_probability=covered,
        reference_theta=tuple(ref),
        truncated=truncated,
    )
