"""Deterministic random-number plumbing.

Every stochastic component in the library accepts an ``rng`` argument that may
be ``None`` (fresh nondeterministic generator), an integer seed, or an
existing :class:`numpy.random.Generator`.  Centralizing the coercion here
keeps experiments reproducible: a single integer seed at the harness level
fans out into independent child streams via :func:`spawn_rngs`.

Seed-derivation scheme
----------------------

The parallel experiment engine (:mod:`repro.experiments.engine`) must produce
**bit-identical** results at any worker count, so child streams are never
derived from execution order.  Two derivation modes cover every use:

* **Positional spawning** (:func:`spawn_rngs`, :func:`spawn_seed_sequences`)
  uses NumPy's :meth:`~numpy.random.SeedSequence.spawn` protocol.  All
  children are derived *up front, in the parent process, in index order*;
  workers receive finished generators (or sequences), so the schedule —
  serial loop, thread pool, or process pool — cannot perturb the streams.
  Child ``i`` of a given parent is the same generator forever.

* **Labelled derivation** (:func:`derive_seed_sequence`, :func:`derive_rng`)
  keys a child off a root integer seed plus a path of string/int labels,
  e.g. ``derive_rng(2015, "f4", "sense", 3)``.  Labels are folded into the
  :class:`~numpy.random.SeedSequence` ``spawn_key`` via SHA-256, so the
  mapping is stable across processes and Python invocations (it does *not*
  depend on ``PYTHONHASHSEED``).  Use this when a work unit is naturally
  identified by *what* it is rather than by its position in a list.

Both modes guarantee statistical independence between children and between
any child and the parent's future output.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

__all__ = [
    "RngSource",
    "as_rng",
    "spawn_rngs",
    "spawn_seed_sequences",
    "derive_seed_sequence",
    "derive_rng",
]

RngSource = Union[None, int, np.random.Generator]


def as_rng(rng: RngSource = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` yields a freshly seeded generator, an ``int`` seeds a new
    generator deterministically, and an existing generator is returned
    unchanged (so callers can thread one stream through a pipeline).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ValueError(f"seed must be non-negative, got {rng}")
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def spawn_rngs(rng: RngSource, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Uses the SeedSequence spawning protocol, so children are independent of
    each other and of the parent's future output.  Children are created in
    index order before any of them is consumed, which is what lets the
    engine hand batch ``i`` to *any* worker and still reproduce the serial
    result exactly.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    parent = as_rng(rng)
    return [np.random.default_rng(seq) for seq in parent.bit_generator.seed_seq.spawn(n)]


def spawn_seed_sequences(rng: RngSource, n: int) -> list[np.random.SeedSequence]:
    """Derive ``n`` child :class:`~numpy.random.SeedSequence` objects.

    Like :func:`spawn_rngs` but stops one step earlier: sequences are tiny,
    cheaply picklable descriptions of a stream, so they are what the engine
    ships across process boundaries; each worker materializes its generator
    with ``np.random.default_rng(seq)``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    parent = as_rng(rng)
    return list(parent.bit_generator.seed_seq.spawn(n))


def _label_words(label: Union[str, int]) -> tuple[int, ...]:
    """Fold one path label into 32-bit words for a ``spawn_key``.

    Strings hash through SHA-256 (stable across processes, unlike
    ``hash()``); non-negative ints pass through unchanged so purely
    positional paths stay human-readable in the key.
    """
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"path labels must be non-negative, got {label}")
        return (int(label),)
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def derive_seed_sequence(
    root: int, *path: Union[str, int]
) -> np.random.SeedSequence:
    """A child SeedSequence keyed by ``root`` and a label path.

    ``derive_seed_sequence(2015, "f4", "sense", 3)`` names the same stream
    in every process forever: the labels become the sequence's
    ``spawn_key`` (strings via SHA-256, ints verbatim), so the derivation
    is independent of execution order, worker count, and
    ``PYTHONHASHSEED``.  Distinct paths give statistically independent
    streams.
    """
    if root < 0:
        raise ValueError(f"root seed must be non-negative, got {root}")
    key: tuple[int, ...] = ()
    for label in path:
        key += _label_words(label)
    return np.random.SeedSequence(int(root), spawn_key=key)


def derive_rng(root: int, *path: Union[str, int]) -> np.random.Generator:
    """A ready generator for the stream named by ``root`` and ``path``.

    Convenience wrapper over :func:`derive_seed_sequence`; see the module
    docstring for when to prefer labelled derivation over positional
    spawning.
    """
    return np.random.default_rng(derive_seed_sequence(root, *path))
