"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one base class at an API boundary.
Subsystem-specific bases (:class:`IRError`, :class:`LangError`, ...) let
callers be more selective without importing deep modules.

Every class survives pickling with its message and attributes: those whose
constructor takes more than a message rebuild themselves from their fields
through ``__reduce__``.
"""

from __future__ import annotations

__all__ = [
    "ERROR_CODES",
    "ReproError",
    "IRError",
    "CFGValidationError",
    "LangError",
    "LexError",
    "ParseError",
    "SemanticError",
    "MarkovError",
    "NotAbsorbingError",
    "MoteError",
    "FaultError",
    "SimulationError",
    "ProfilingError",
    "EstimationError",
    "PlacementError",
    "PgoError",
    "WorkloadError",
    "ExperimentError",
    "UnitExecutionError",
    "ObsError",
    "ServeError",
    "ProtocolError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class IRError(ReproError):
    """Errors from the program IR layer (:mod:`repro.ir`)."""


class CFGValidationError(IRError):
    """A control-flow graph violates a structural invariant."""


class LangError(ReproError):
    """Errors from the DSL front end (:mod:`repro.lang`)."""


class LexError(LangError):
    """The lexer met a character sequence it cannot tokenize."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column

    def __reduce__(self):
        return (type(self), (self.message, self.line, self.column))


class ParseError(LangError):
    """The parser met an unexpected token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column

    def __reduce__(self):
        return (type(self), (self.message, self.line, self.column))


class SemanticError(LangError):
    """The program is syntactically valid but semantically ill-formed."""


class MarkovError(ReproError):
    """Errors from the Markov-chain substrate (:mod:`repro.markov`)."""


class NotAbsorbingError(MarkovError):
    """A chain expected to be absorbing has unreachable absorption."""


class MoteError(ReproError):
    """Errors from the mote hardware model (:mod:`repro.mote`)."""


class FaultError(ReproError):
    """Errors from the fault-injection layer (:mod:`repro.faults`)."""


class SimulationError(ReproError):
    """Errors from the execution engine (:mod:`repro.sim`)."""


class ProfilingError(ReproError):
    """Errors from the profiling layer (:mod:`repro.profiling`)."""


class EstimationError(ReproError):
    """Errors from the Code Tomography estimators (:mod:`repro.core`)."""


class PlacementError(ReproError):
    """Errors from the code-placement optimizer (:mod:`repro.placement`)."""


class PgoError(ReproError):
    """Errors from the closed-loop continuous-PGO controller (:mod:`repro.pgo`)."""


class WorkloadError(ReproError):
    """Errors from workload construction (:mod:`repro.workloads`)."""


class ExperimentError(ReproError):
    """Errors from the experiment harness (:mod:`repro.experiments`)."""


class ObsError(ReproError):
    """Errors from the observability layer (:mod:`repro.obs`).

    Raised when telemetry artifacts cannot be combined soundly — e.g.
    merging metric snapshots whose histogram bucket boundaries disagree, or
    diffing hardware-counter snapshots from different registries.  Loud by
    design: a silently misaligned merge would corrupt every downstream
    reading.
    """


class ServeError(ReproError):
    """Errors from the fleet ingestion service (:mod:`repro.serve`)."""


#: The serve wire protocol's stable error-code vocabulary (documented in
#: docs/serving.md).  Every error reply's code passes through
#: :class:`ProtocolError`, which accepts no other.
ERROR_CODES = ("bad-json", "bad-request", "unknown-op", "bad-shard", "unknown-tenant")


class ProtocolError(ServeError):
    """A serve request violated the JSON-lines wire protocol.

    Carries a stable machine-readable ``code`` from :data:`ERROR_CODES`
    (e.g. ``"bad-json"``, ``"bad-shard"``, ``"unknown-tenant"``) so the
    service can answer with a structured error object instead of a bare
    string — motes retry on codes, not prose.  A code outside the
    vocabulary raises ``ValueError``.
    """

    def __init__(self, code: str, detail: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(
                f"unknown protocol error code {code!r} (known: {', '.join(ERROR_CODES)})"
            )
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.code, self.detail))


class UnitExecutionError(ExperimentError):
    """One batchable experiment unit crashed.

    Wraps the unit's exception with its **unit index** and the formatted
    traceback from the process where it ran, so a failed ``--jobs N`` run is
    diagnosable without re-running serially.  Explicit ``__reduce__`` keeps
    the extra state intact across the process-pool pickle boundary.
    """

    def __init__(self, unit_index: int, message: str, traceback_str: str = "") -> None:
        super().__init__(f"unit {unit_index}: {message}")
        self.unit_index = unit_index
        self.message = message
        self.traceback_str = traceback_str

    def __reduce__(self):
        return (type(self), (self.unit_index, self.message, self.traceback_str))
