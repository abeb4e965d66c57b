"""The fault regime description and its deterministic decision dealer.

Determinism contract
--------------------

Every fault decision is a draw from a named seed stream derived with the
:mod:`repro.util.rng` SeedSequence scheme: the injector spawns one child
stream per fault *kind* (radio, sensor, reboot, timing) in a fixed order at
construction.  Two consequences the rest of the system leans on:

* **Stream isolation.** A kind consumes from its own stream only while its
  rate is positive, so turning sensor dropouts on cannot shift which radio
  packets get dropped.
* **Strict no-op when disabled.** A zero-rate kind performs *zero* draws,
  and a fully zero :class:`FaultModel` (or an absent injector) leaves every
  simulation output bit-identical to the fault-free code path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from repro.errors import FaultError
from repro.util.rng import derive_seed_sequence

__all__ = ["FaultModel", "FaultInjector", "GLITCH_CYCLES"]

_ADC_MAX = 1023  # mirrors repro.mote.sensors.ADC_MAX without the import cycle

_RATE_FIELDS = ("radio_loss", "radio_corrupt", "sensor_dropout", "timer_glitch", "reboot")

#: Mean magnitude (exponential) of one timer glitch, in cycles.
GLITCH_CYCLES = 100_000.0


@dataclass(frozen=True)
class FaultModel:
    """Per-event fault rates for one deployment regime.

    Parameters
    ----------
    radio_loss:
        Probability one transmitted packet (application data or a profiling
        upload) vanishes on air.
    radio_corrupt:
        Probability a packet that *was* delivered carries a corrupted
        payload.  ``radio_loss + radio_corrupt`` must not exceed 1.
    sensor_dropout:
        Probability one ``sense()`` read returns a stuck rail value (ADC 0
        or full scale) instead of the physical reading.
    timer_glitch:
        Probability one timestamped duration is inflated by an interrupt
        storm / clock glitch of mean :data:`GLITCH_CYCLES` cycles.
    reboot:
        Probability one top-level activation is interrupted by a node
        reboot: RAM state resets and the activation's invocation records
        are truncated mid-flight (their exit timestamps never upload).
    """

    radio_loss: float = 0.0
    radio_corrupt: float = 0.0
    sensor_dropout: float = 0.0
    timer_glitch: float = 0.0
    reboot: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultError(f"{name} must lie in [0, 1], got {rate}")
        if self.radio_loss + self.radio_corrupt > 1.0 + 1e-12:
            raise FaultError(
                "radio_loss + radio_corrupt must not exceed 1, got "
                f"{self.radio_loss} + {self.radio_corrupt}"
            )

    @property
    def enabled(self) -> bool:
        """True when any fault kind can actually fire."""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    def scaled(self, severity: float) -> "FaultModel":
        """This regime with every rate multiplied by ``severity`` (capped at 1).

        The F8 sweep uses one base mixture and scales it, so "fault rate"
        means the same blend of failure kinds at every point on the axis.
        """
        if severity < 0:
            raise FaultError(f"severity must be non-negative, got {severity}")
        rates = {name: getattr(self, name) * severity for name in _RATE_FIELDS}
        # Large severities can push the two radio rates past their joint
        # budget; renormalize them to sum to 1 while keeping their ratio.
        total_radio = rates["radio_loss"] + rates["radio_corrupt"]
        if total_radio > 1.0:
            rates["radio_loss"] /= total_radio
            rates["radio_corrupt"] /= total_radio
        return replace(
            self, **{name: min(rate, 1.0) for name, rate in rates.items()}
        )


class FaultInjector:
    """Deals deterministic fault decisions from per-kind named seed streams.

    One injector serves one run (or one batch of a batched run); construct a
    fresh one per independent unit of work.  ``counts`` tallies every fault
    that actually fired, keyed by kind — test and report plumbing.
    """

    #: Child-stream spawn order; APPEND ONLY — reordering would silently
    #: reshuffle every seeded experiment's fault pattern.
    STREAMS = ("radio", "sensor", "reboot", "timing")

    def __init__(self, model: FaultModel, seed_seq: np.random.SeedSequence) -> None:
        self.model = model
        children = seed_seq.spawn(len(self.STREAMS))
        self._radio = np.random.default_rng(children[0])
        self._sensor = np.random.default_rng(children[1])
        self._reboot = np.random.default_rng(children[2])
        self._timing = np.random.default_rng(children[3])
        self.counts: Counter = Counter()

    @classmethod
    def derived(cls, model: FaultModel, root: int, *path: Union[str, int]) -> "FaultInjector":
        """Injector on the stream named by ``root`` and a label ``path``.

        ``FaultInjector.derived(model, 2015, "f8", "sense", 3)`` is the same
        dealer in every process forever (see :func:`repro.util.rng.derive_seed_sequence`).
        """
        return cls(model, derive_seed_sequence(root, *path, "faults"))

    # -- radio ---------------------------------------------------------------

    def radio_outcome(self) -> str:
        """Fate of one transmitted packet: ``"ok"``, ``"drop"`` or ``"corrupt"``."""
        loss, corrupt = self.model.radio_loss, self.model.radio_corrupt
        if loss == 0.0 and corrupt == 0.0:
            return "ok"
        u = self._radio.random()
        if u < loss:
            self.counts["radio_drop"] += 1
            return "drop"
        if u < loss + corrupt:
            self.counts["radio_corrupt"] += 1
            return "corrupt"
        return "ok"

    def corrupt_payload(self, value: int) -> int:
        """A delivered-but-corrupted payload: random nonzero 16-bit flips."""
        flips = int(self._radio.integers(1, 1 << 16))
        raw = (int(value) ^ flips) & 0xFFFF
        return raw - (1 << 16) if raw >= (1 << 15) else raw

    # -- sensors -------------------------------------------------------------

    def sensor_faulted(self) -> bool:
        """Does this sensor read brown out?"""
        rate = self.model.sensor_dropout
        if rate == 0.0:
            return False
        if self._sensor.random() < rate:
            self.counts["sensor_dropout"] += 1
            return True
        return False

    def stuck_reading(self) -> int:
        """The rail value a browned-out read returns (ADC 0 or full scale)."""
        return _ADC_MAX if self._sensor.integers(0, 2) else 0

    # -- node reboots --------------------------------------------------------

    def reboot_during_activation(self) -> bool:
        """Does the node reboot during this top-level activation?"""
        rate = self.model.reboot
        if rate == 0.0:
            return False
        if self._reboot.random() < rate:
            self.counts["reboot"] += 1
            return True
        return False

    # -- timing collection ---------------------------------------------------

    def record_outcome(self) -> str:
        """Fate of one timing record's upload: ``"ok"``/``"drop"``/``"corrupt"``/``"glitch"``.

        One uniform classifies the record against the cumulative thresholds
        ``radio_loss``, ``+ radio_corrupt``, ``+ timer_glitch`` — a single
        draw per record keeps the stream budget O(records) regardless of
        which kinds are enabled.
        """
        loss, corrupt = self.model.radio_loss, self.model.radio_corrupt
        glitch = self.model.timer_glitch
        if loss == 0.0 and corrupt == 0.0 and glitch == 0.0:
            return "ok"
        u = self._timing.random()
        if u < loss:
            self.counts["record_drop"] += 1
            return "drop"
        if u < loss + corrupt:
            self.counts["record_corrupt"] += 1
            return "corrupt"
        if u < loss + corrupt + glitch:
            self.counts["record_glitch"] += 1
            return "glitch"
        return "ok"

    def corrupt_duration(self, cycles_per_tick: int) -> float:
        """A corrupted duration: a random 16-bit tick count read as truth."""
        return float(int(self._timing.integers(0, 1 << 16)) * cycles_per_tick)

    def glitch_cycles(self) -> float:
        """Extra cycles one glitched measurement picks up (exponential)."""
        return float(self._timing.exponential(GLITCH_CYCLES))
