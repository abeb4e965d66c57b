"""Sensor-mote hardware model.

The original evaluation ran on TelosB/MicaZ-class motes; this package is the
simulated stand-in (see DESIGN.md, "Hardware / data substitutions").  It
models exactly the properties the technique depends on:

* an in-order MCU with deterministic per-instruction cycle costs and a
  *static* branch scheme whose penalty depends on code layout
  (:mod:`repro.mote.cpu`, :mod:`repro.mote.predictor`);
* a low-resolution timestamp timer with quantization and jitter
  (:mod:`repro.mote.timer`) — the only measurement tomography gets;
* flash/RAM budgets (:mod:`repro.mote.memory`) and an energy model
  (:mod:`repro.mote.energy`) for the overhead comparison;
* nondeterministic sensors (:mod:`repro.mote.sensors`), a radio
  (:mod:`repro.mote.radio`), and a TinyOS-like task scheduler
  (:mod:`repro.mote.scheduler`).
"""

from repro.mote.predictor import (
    AlwaysNotTakenPredictor,
    BTFNPredictor,
    StaticPredictor,
)
from repro.mote.cpu import CpuModel
from repro.mote.timer import TimestampTimer
from repro.mote.energy import EnergyModel
from repro.mote.memory import MemoryMap
from repro.mote.sensors import (
    AR1Sensor,
    BurstySensor,
    ConstantSensor,
    DiurnalSensor,
    IIDSensor,
    Sensor,
    SensorSuite,
    UniformSensor,
)
from repro.mote.radio import Radio
from repro.mote.scheduler import Scheduler, Task
from repro.mote.platform import MICAZ_LIKE, TELOSB_LIKE, Platform

__all__ = [
    "StaticPredictor",
    "AlwaysNotTakenPredictor",
    "BTFNPredictor",
    "CpuModel",
    "TimestampTimer",
    "EnergyModel",
    "MemoryMap",
    "Sensor",
    "SensorSuite",
    "IIDSensor",
    "UniformSensor",
    "AR1Sensor",
    "BurstySensor",
    "DiurnalSensor",
    "ConstantSensor",
    "Radio",
    "Scheduler",
    "Task",
    "Platform",
    "MICAZ_LIKE",
    "TELOSB_LIKE",
]
