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

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "predictor": ("StaticPredictor", "AlwaysNotTakenPredictor", "BTFNPredictor"),
        "cpu": ("CpuModel",),
        "timer": ("TimestampTimer",),
        "energy": ("EnergyModel",),
        "memory": ("MemoryMap",),
        "sensors": (
            "Sensor",
            "SensorSuite",
            "IIDSensor",
            "UniformSensor",
            "AR1Sensor",
            "BurstySensor",
            "DiurnalSensor",
            "ConstantSensor",
        ),
        "radio": ("Radio",),
        "scheduler": ("Scheduler", "Task"),
        "platform": ("Platform", "MICAZ_LIKE", "TELOSB_LIKE"),
    },
)
