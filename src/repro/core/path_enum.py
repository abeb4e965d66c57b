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
after the search they fold into one *class* row carrying its multiplicity,
and EM's per-iteration work scales with classes rather than paths.  A
:class:`PathFamily` holds those statistics as read-only arrays, one row per
class, so it can be shared — across EM iterations and the online
estimator's cache — without anyone mutating it.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, fields
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
    read-only and the family compares by identity.
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

    def __reduce__(self):
        # Rebuild through __init__ so unpickled arrays are read-only again.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return self.duration_means.shape[0]

    def log_probabilities(self, theta: Sequence[float]) -> np.ndarray:
        """Each row's class mass: log multiplicity plus ``log P(path | theta)``.

        ``-inf`` on a 0-probability arm.
        """
        vec = np.asarray(theta, dtype=float)
        a, b = self.then_counts, self.else_counts
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p = a * np.log(vec) + b * np.log1p(-vec)
        # 0 * log(0) is a legitimate 0 contribution, not NaN.
        log_p = np.where((a == 0) & np.isnan(log_p), 0.0, log_p)
        log_p = np.where((b == 0) & np.isnan(log_p), 0.0, log_p)
        return log_p.sum(axis=1) + np.log(self.multiplicity)

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
    # Probabilities are carried negated; negation is exact.
    heap: list[float] = []
    queues: dict[float, deque] = {}
    neg_min = -min_prob
    state = model.states.index(model.entry_state)
    neg, packed = -1.0, 0
    dur_mean, dur_var = means[state], variances[state]
    packed_paths: list[int] = []
    path_means: list[float] = []
    path_vars: list[float] = []
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
            queue.append((dst, packed, dur_mean + d_mean, dur_var + d_var))
            state, packed, dur_mean, dur_var = queue.popleft()
            continue
        for p_exit in exits:
            neg_next = neg * p_exit
            if neg_next >= 0:
                continue
            packed_paths.append(packed)
            path_means.append(dur_mean)
            path_vars.append(dur_var)
            covered -= neg_next
        for dst, p_edge, inc, d_mean, d_var in moves:
            neg_next = neg * p_edge
            if neg_next > neg_min:
                truncated = True
                continue
            queue = queues.get(neg_next)
            if queue is None:
                queue = queues[neg_next] = deque()
                heapq.heappush(heap, neg_next)
            queue.append((dst, packed + inc, dur_mean + d_mean, dur_var + d_var))
        if exits and len(packed_paths) >= max_paths:
            truncated = truncated or bool(heap)
            break
        if not heap:
            break
        neg = heap[0]
        queue = queues[neg]
        state, packed, dur_mean, dur_var = queue.popleft()
        if not queue:
            heapq.heappop(heap)
            del queues[neg]

    if not packed_paths:
        raise EstimationError(
            "path enumeration found no complete path within limits "
            f"(min_prob={min_prob}, max_paths={max_paths})"
        )
    # Fold paths with equal (packed counts, duration mean, duration variance)
    # into one class row; a Counter keeps first-occurrence order.
    classes = Counter(zip(packed_paths, path_means, path_vars))
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
