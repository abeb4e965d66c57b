"""Content-addressed layout registry and the swap/rollback event log.

Every layout the closed-loop controller ever runs is kept here, keyed by
:meth:`~repro.placement.layout.ProgramLayout.fingerprint` — a SHA-256 over
the layouts' structural keys.  Content addressing buys two properties the
loop depends on:

* **rollback is a lookup**, not a recomputation: the pre-swap key is enough
  to restore the exact layout that was running, and a re-optimized layout
  that is structurally identical to a stored one maps to the same digest;
* **post-hoc attribution is possible**: the event log records which layout
  was live over which segment range, so a regression found later can be
  pinned to the swap that introduced it.

The registry is deliberately append-only — layouts are never evicted, and
events are never rewritten.  A long-running deployment cycles through a
handful of layouts (regimes recur), so the content addressing also acts as
deduplication: re-proposing a layout already seen stores nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import PgoError
from repro.placement.layout import ProgramLayout

__all__ = ["SwapEvent", "LayoutRegistry", "EVENT_KINDS"]

#: Event kinds the controller can record (the vocabulary is closed).
EVENT_KINDS = ("initial", "swap", "rollback")


@dataclass(frozen=True)
class SwapEvent:
    """One layout transition: which layout became live, when, and why.

    ``segment`` is the segment index at whose *boundary* the transition
    happened (-1 for the initial layout, installed before any segment ran);
    ``key`` the layout that became live; ``previous`` the one it replaced
    (``None`` only for ``initial``).
    """

    segment: int
    kind: str
    key: str
    previous: Optional[str] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise PgoError(f"unknown event kind {self.kind!r} (known: {EVENT_KINDS})")
        if self.kind == "initial" and self.previous is not None:
            raise PgoError("the initial event cannot have a previous layout")
        if self.kind != "initial" and self.previous is None:
            raise PgoError(f"a {self.kind!r} event needs the previous layout key")

    def to_json(self) -> dict:
        """JSON-able form (the F10 artifact and the docs examples use this)."""
        payload: dict = {
            "segment": self.segment,
            "kind": self.kind,
            "key": self.key,
        }
        if self.previous is not None:
            payload["previous"] = self.previous
        if self.detail:
            payload["detail"] = self.detail
        return payload


class LayoutRegistry:
    """Append-only, content-addressed store of every layout the loop ran."""

    def __init__(self) -> None:
        self._layouts: dict[str, ProgramLayout] = {}
        self._events: list[SwapEvent] = []

    # -- layouts -------------------------------------------------------------

    def add(self, layout: ProgramLayout) -> str:
        """Store a layout under its fingerprint; returns the key.

        Idempotent: adding a structurally identical layout (such as the
        optimizer re-proposing the live one) returns the existing key and
        keeps the first object — so identity checks against registry
        contents stay stable across re-adds.
        """
        key = layout.fingerprint()
        self._layouts.setdefault(key, layout)
        return key

    def get(self, key: str) -> ProgramLayout:
        """The layout stored under ``key``; raises on unknown keys."""
        try:
            return self._layouts[key]
        except KeyError:
            raise PgoError(f"no layout registered under key {key[:16]}...") from None

    def __contains__(self, key: str) -> bool:
        return key in self._layouts

    def __len__(self) -> int:
        return len(self._layouts)

    @property
    def keys(self) -> tuple[str, ...]:
        """All registered keys, in first-seen order (dicts preserve it)."""
        return tuple(self._layouts)

    # -- events --------------------------------------------------------------

    def record(self, event: SwapEvent) -> SwapEvent:
        """Append one transition; both endpoints must already be registered."""
        if event.key not in self._layouts:
            raise PgoError(
                f"cannot record {event.kind!r} to unregistered layout "
                f"{event.key[:16]}..."
            )
        if event.previous is not None and event.previous not in self._layouts:
            raise PgoError(
                f"cannot record {event.kind!r} from unregistered layout "
                f"{event.previous[:16]}..."
            )
        self._events.append(event)
        return event

    @property
    def events(self) -> tuple[SwapEvent, ...]:
        """Every transition, in emission order."""
        return tuple(self._events)

    def live_key(self) -> str:
        """The key the event log says is currently live."""
        if not self._events:
            raise PgoError("no layout installed yet (record an 'initial' event)")
        return self._events[-1].key

    def segments_for(self, key: str) -> list[tuple[int, Optional[int]]]:
        """Segment ranges ``[start, end)`` during which ``key`` was live.

        ``end=None`` means the layout is still live.  This is the
        attribution primitive: join a regression's segment index against
        these ranges to find the swap that owned it.
        """
        if key not in self._layouts:
            raise PgoError(f"no layout registered under key {key[:16]}...")
        ranges: list[tuple[int, Optional[int]]] = []
        start: Optional[int] = None
        for event in self._events:
            if start is not None:
                ranges.append((start, event.segment + 1))
                start = None
            if event.key == key:
                start = event.segment + 1
        if start is not None:
            ranges.append((start, None))
        return ranges
