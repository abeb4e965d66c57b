"""Nondeterministic sensor input processes.

The paper's premise is that sensor programs face *nondeterministic inputs*
whose statistics shape branch behaviour.  Each :class:`Sensor` is a discrete
stochastic process read once per ``sense()`` executed by the program; a
:class:`SensorSuite` maps channel names to sensors and owns the RNG stream.

The processes cover the regimes the robustness experiment (F6) needs:

* :class:`IIDSensor` — the Markov model's home turf (independent draws give
  genuinely constant branch probabilities);
* :class:`AR1Sensor` — temporally correlated readings (model mismatch);
* :class:`BurstySensor` — two-regime switching (quiet vs event bursts);
* :class:`DiurnalSensor` — slow deterministic drift of the mean;
* :class:`ConstantSensor` — degenerate, for deterministic tests.

Readings are clamped to a 10-bit ADC range [0, 1023] like a typical mote.
"""

from __future__ import annotations

import abc
import math
from typing import Mapping, Optional

import numpy as np

from repro.errors import MoteError
from repro.obs import counters as hwc
from repro.util.rng import RngSource, as_rng

__all__ = [
    "ADC_MAX",
    "Sensor",
    "ConstantSensor",
    "UniformSensor",
    "IIDSensor",
    "AR1Sensor",
    "BurstySensor",
    "DiurnalSensor",
    "SensorSuite",
]

ADC_MAX = 1023


def _clamp_adc(value: float) -> int:
    reading = round(value)  # NaN raises ValueError here or in int() below
    if reading < 0:
        return 0
    if reading > ADC_MAX:
        return ADC_MAX
    return int(reading)


class Sensor(abc.ABC):
    """A stream of ADC readings."""

    @abc.abstractmethod
    def read(self, rng: np.random.Generator) -> int:
        """Produce the next reading (advances internal state)."""

    def reset(self) -> None:
        """Return to the initial state (default: stateless)."""


class ConstantSensor(Sensor):
    """Always the same value; useful for deterministic tests."""

    def __init__(self, value: int) -> None:
        self.value = _clamp_adc(value)

    def read(self, rng: np.random.Generator) -> int:
        return self.value


class UniformSensor(Sensor):
    """Independent uniform readings over ``[low, high]`` inclusive.

    The workhorse of synthetic workloads: with readings uniform on
    [0, 1023], a source-level test ``sense(ch) > t`` is true with
    probability exactly ``(1023 - t) / 1024``, so generated programs have
    *known* branch probabilities by construction.
    """

    def __init__(self, low: int = 0, high: int = ADC_MAX) -> None:
        if not 0 <= low <= high <= ADC_MAX:
            raise MoteError(f"need 0 <= low <= high <= {ADC_MAX}, got [{low}, {high}]")
        self.low = int(low)
        self.high = int(high)

    def read(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))


class IIDSensor(Sensor):
    """Independent Gaussian readings around a fixed mean."""

    def __init__(self, mean: float, std: float) -> None:
        if std < 0:
            raise MoteError(f"std must be non-negative, got {std}")
        self.mean = float(mean)
        self.std = float(std)

    def read(self, rng: np.random.Generator) -> int:
        return _clamp_adc(rng.normal(self.mean, self.std) if self.std else self.mean)


class AR1Sensor(Sensor):
    """First-order autoregressive readings: ``x' = mean + rho (x - mean) + noise``.

    ``rho`` near 1 yields strongly correlated consecutive readings, breaking
    the independence the Markov execution model implicitly assumes — the
    mismatch probed by experiment F6.
    """

    def __init__(self, mean: float, std: float, rho: float) -> None:
        if not -1.0 < rho < 1.0:
            raise MoteError(f"rho must lie in (-1, 1), got {rho}")
        if std < 0:
            raise MoteError(f"std must be non-negative, got {std}")
        self.mean = float(mean)
        self.std = float(std)
        self.rho = float(rho)
        self._state: Optional[float] = None

    def read(self, rng: np.random.Generator) -> int:
        innovation_std = self.std * math.sqrt(1.0 - self.rho**2)
        if self._state is None:
            self._state = rng.normal(self.mean, self.std) if self.std else self.mean
        else:
            self._state = self.mean + self.rho * (self._state - self.mean) + (
                rng.normal(0.0, innovation_std) if innovation_std else 0.0
            )
        return _clamp_adc(self._state)

    def reset(self) -> None:
        self._state = None


class BurstySensor(Sensor):
    """Two-regime process: quiet baseline with occasional event bursts.

    A hidden two-state Markov chain (quiet/burst) selects which Gaussian the
    reading comes from.  ``p_enter`` and ``p_exit`` are the per-read regime
    switch probabilities.
    """

    def __init__(
        self,
        quiet_mean: float,
        burst_mean: float,
        std: float,
        p_enter: float = 0.02,
        p_exit: float = 0.2,
    ) -> None:
        for name, p in (("p_enter", p_enter), ("p_exit", p_exit)):
            if not 0.0 <= p <= 1.0:
                raise MoteError(f"{name} must lie in [0, 1], got {p}")
        if std < 0:
            raise MoteError(f"std must be non-negative, got {std}")
        self.quiet_mean = float(quiet_mean)
        self.burst_mean = float(burst_mean)
        self.std = float(std)
        self.p_enter = float(p_enter)
        self.p_exit = float(p_exit)
        self._bursting = False

    def read(self, rng: np.random.Generator) -> int:
        if self._bursting:
            if rng.random() < self.p_exit:
                self._bursting = False
        else:
            if rng.random() < self.p_enter:
                self._bursting = True
        mean = self.burst_mean if self._bursting else self.quiet_mean
        return _clamp_adc(rng.normal(mean, self.std) if self.std else mean)

    def reset(self) -> None:
        self._bursting = False


class DiurnalSensor(Sensor):
    """Sinusoidal mean drift, modelling e.g. temperature over a day.

    ``period_reads`` readings complete one cycle; amplitude is in ADC counts.
    """

    def __init__(self, mean: float, amplitude: float, period_reads: int, std: float) -> None:
        if period_reads < 1:
            raise MoteError(f"period_reads must be >= 1, got {period_reads}")
        if std < 0:
            raise MoteError(f"std must be non-negative, got {std}")
        self.mean = float(mean)
        self.amplitude = float(amplitude)
        self.period_reads = int(period_reads)
        self.std = float(std)
        self._t = 0

    def read(self, rng: np.random.Generator) -> int:
        drifted = self.mean + self.amplitude * math.sin(
            2.0 * math.pi * self._t / self.period_reads
        )
        self._t += 1
        return _clamp_adc(rng.normal(drifted, self.std) if self.std else drifted)

    def reset(self) -> None:
        self._t = 0


class SensorSuite:
    """Named sensor channels plus the RNG stream that drives them.

    With a :class:`~repro.faults.FaultInjector` attached (see
    :meth:`attach_faults`), individual reads can brown out to a stuck ADC
    rail value.  The physical process still advances — the underlying
    sensor is read (and its RNG stream consumed) before the dropout fate is
    decided — so enabling dropouts never shifts the sensor value sequence,
    only masks entries of it.
    """

    def __init__(self, channels: Mapping[str, Sensor], rng: RngSource = None) -> None:
        if not channels:
            raise MoteError("a sensor suite needs at least one channel")
        self.channels = dict(channels)
        self._rng = as_rng(rng)
        self.read_count = 0
        self.faults = None  # Optional[repro.faults.FaultInjector]
        self.dropout_count = 0

    def attach_faults(self, faults) -> None:
        """Route subsequent reads through ``faults`` (None to detach)."""
        self.faults = faults

    def read(self, channel: str) -> int:
        """Read one value from ``channel``; raises on unknown channels."""
        try:
            sensor = self.channels[channel]
        except KeyError:
            known = ", ".join(sorted(self.channels))
            raise MoteError(f"unknown sensor channel {channel!r}; known: {known}") from None
        self.read_count += 1
        value = sensor.read(self._rng)
        # ``sensor.reads`` is not counted here: the interpreter prices its
        # SENSE count when it reports.  Dropouts are rare and count here.
        if self.faults is not None and self.faults.sensor_faulted():
            self.dropout_count += 1
            hw = hwc.active()
            if hw is not None:
                hw.sensor_dropout()
            return self.faults.stuck_reading()
        return value

    def reset(self, rng: RngSource = None) -> None:
        """Reset every sensor's internal state (and optionally reseed)."""
        for sensor in self.channels.values():
            sensor.reset()
        if rng is not None:
            self._rng = as_rng(rng)
        self.read_count = 0
        self.dropout_count = 0
