"""Differential tests: the compiled interpreter against the oracle.

:mod:`repro.sim.interpreter` compiles each procedure once per (program,
layout, platform); ``tests/sim_oracle.py`` keeps the dict-walking
interpreter it was compiled from.  The compiled engine promises
*bit-identity* with it: the same :class:`RunResult` (cycles, ground-truth
counters, invocation records, float energy, packets), the same final state
(globals, arrays, LEDs, cycle counter, radio and sensor tallies), the same
fault fates, the same hardware-counter snapshot (counted event by event by
the oracle, derived from execution counts by the compiled engine), and —
when a program goes wrong — the same exception type and message, raised at
the same point.  These tests hold it to that, comparing with ``==``:

* the registry matrix — every workload × fault configuration × seed,
  through ``run_program_batched`` and ``run_program`` with the drivers'
  interpreter class swapped for the oracle's (:func:`oracle_engine`), and
  through interpreters built directly;
* single motes of ragged lengths, with faults, recorded paths and the
  TELOSB platform;
* property tests over *synthetic* programs (``random_workload``), so the
  compiler sees control-flow shapes nobody hand-picked;
* hand-built programs the language front-end would not produce or that go
  wrong at run time: recursion, bounded and runaway, a parameterized entry,
  a parameter shadowing a global, a possibly-unbound register or return
  value, an undeclared array, an out-of-bounds index, division and modulo
  by zero, an arity mismatch, an unknown callee or sensor channel and the
  ``max_steps`` guard;
* the methods PGO and F10 drive mid-run — ``hot_swap_layout``, ``reboot``
  and ``set_sensors`` — the PGO controller's drift → swap →
  commit/rollback loop itself, and F10's open-loop arms;
* the points where the compiled engine folds its slot counts into
  :class:`ExecutionCounters` and prices them into the registry: drawn
  sequences of activations, reports, reads, held references, replaced
  counters, hot swaps, reboots, sensor swaps and step-limit overruns;
* pipebench's own runs, 3,000 activations a program, at seed 2015
  (``tests/sim_identity.py``, which CI runs at more seeds).

Counterexamples found by the property tests can be recorded as replayable
fixtures: set ``REPRO_DIFF_RECORD=1`` and failing synthetic cases are
written to ``tests/fixtures/diff_regressions/`` (fold-point sequences to
its ``folds/``), which ``test_replay_recorded_regressions`` and
``test_replay_recorded_fold_sequences`` replay on every run thereafter.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.fig_f10_closed_loop as f10
import repro.pgo.controller as pgo_controller
from repro.errors import IRError, MoteError, SimulationError
from repro.experiments.fig_f10_closed_loop import PROBE_SOURCE, _REGIMES
from repro.faults import FaultInjector, FaultModel
from repro.ir import (
    BinaryOp,
    CFGBuilder,
    UnaryOp,
    binop,
    call,
    const,
    led,
    load,
    mov,
    sense,
    store,
    unop,
)
from repro.ir.program import Program
from repro.lang import compile_source
from repro.mote import MICAZ_LIKE, TELOSB_LIKE, ConstantSensor, IIDSensor, Radio, SensorSuite
from repro.obs.counters import HardwareCounters, counters_active
from repro.pgo import PGOController
from repro.placement import ProgramLayout, optimize_program_layout, random_program_layout
from repro.sim import ExecutionCounters, Interpreter, run_program, run_program_batched
from repro.sim.interpreter import MAX_CALL_DEPTH
from repro.util.rng import derive_rng
from repro.workloads.inputs import build_sensors
from repro.workloads.registry import all_workloads
from repro.workloads.synthetic import random_workload
from tests.sim_identity import key_order, mismatches
from tests.sim_oracle import Interpreter as OracleInterpreter
from tests.sim_oracle import oracle_engine

WORKLOAD_NAMES = [spec.name for spec in all_workloads()]
WORKLOADS = {spec.name: spec for spec in all_workloads()}

FAULT_CONFIGS = {
    "clean": None,
    "radio": FaultModel(radio_loss=0.2, radio_corrupt=0.1),
    "chaos": FaultModel(
        radio_loss=0.1, radio_corrupt=0.05, sensor_dropout=0.08, reboot=0.04
    ),
}

REGRESSION_DIR = Path(__file__).parent / "fixtures" / "diff_regressions"
RECORD_ENV_VAR = "REPRO_DIFF_RECORD"


def on_both_engines(run):
    """``run()`` through the drivers on the compiled engine, then the oracle."""
    compiled = run()
    with oracle_engine():
        oracle = run()
    return compiled, oracle


def observe(cls, build, act) -> dict:
    """Build an interpreter of ``cls``, run ``act`` on it, return all it shows.

    ``build(cls)`` must make fresh peripherals on every call, so both
    engines start from identical random streams.  Hardware counters are
    captured around ``act`` and reported after it (the oracle counts them
    event by event, the compiled engine derives them from its execution
    counts); an exception ends ``act`` and is recorded by type and message,
    with the state as the exception left it.
    """
    interp = build(cls)
    hw = HardwareCounters()
    error = None
    with counters_active(hw, isolated=True):
        try:
            act(interp)
        except Exception as exc:  # noqa: BLE001 - the exception is the datum
            error = (type(exc), str(exc))
        interp.report_counters()
    snapshot = hw.snapshot()
    return {
        "error": error,
        "globals": interp.globals,
        "arrays": interp.arrays,
        "leds": interp.leds,
        "cycle": interp.cycle,
        "counters": interp.counters,
        "counter_order": key_order(interp.counters),
        "records": interp.records,
        "packets": interp.radio.packets,
        "dropped": interp.radio.dropped_packets,
        "corrupted": interp.radio.corrupted_packets,
        "sensor_reads": interp.sensors.read_count,
        "sensor_dropouts": interp.sensors.dropout_count,
        "fates": dict(interp.faults.counts) if interp.faults is not None else None,
        "hw": snapshot,
    }


def assert_engines_agree(build, act) -> dict:
    """Both engines show the same everything; returns the compiled view."""
    compiled = observe(Interpreter, build, act)
    oracle = observe(OracleInterpreter, build, act)
    assert compiled == oracle
    return compiled


def activations(count: int):
    """``run_program``'s loop: ``count`` activations, reboots truncating."""

    def act(interp):
        for _ in range(count):
            mark = len(interp.records)
            interp.run_activation()
            if interp.faults is not None and interp.faults.reboot_during_activation():
                del interp.records[mark:]
                interp.reboot()

    return act


def _factory(spec):
    return partial(build_sensors, dict(spec.channels), "default")


def _injector(fault_model, seed):
    if fault_model is None:
        return None
    return FaultInjector(fault_model, np.random.SeedSequence(seed + 10_000))


def _batched(spec, fault_model, seed, activations=26, batch_size=7):
    """One batched run, with hardware counters captured."""
    hc = HardwareCounters()
    with counters_active(hc, isolated=True):
        result = run_program_batched(
            spec.program(),
            MICAZ_LIKE,
            _factory(spec),
            activations=activations,
            batch_size=batch_size,
            rng=seed,
            record_paths=True,
            fault_model=fault_model,
        )
    return result, hc.snapshot()


def _single(spec, fault_model, seed, activations=40):
    """One ``run_program`` mote, with its counters and fault fates."""
    faults = _injector(fault_model, seed)
    hc = HardwareCounters()
    with counters_active(hc, isolated=True):
        result = run_program(
            spec.program(),
            MICAZ_LIKE,
            _factory(spec)(np.random.default_rng(seed)),
            activations=activations,
            record_paths=True,
            faults=faults,
        )
    return result, hc.snapshot(), dict(faults.counts) if faults is not None else None


class TestRegistryMatrix:
    """Every workload × fault config × seed, through both drivers."""

    @pytest.mark.parametrize("fault_name", sorted(FAULT_CONFIGS))
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_engines_agree(self, name, fault_name):
        spec = WORKLOADS[name]
        fault_model = FAULT_CONFIGS[fault_name]
        for seed in (0, 2015):
            compiled, oracle = on_both_engines(lambda: _batched(spec, fault_model, seed))
            assert compiled == oracle
            compiled, oracle = on_both_engines(lambda: _single(spec, fault_model, seed))
            assert compiled == oracle

            program = spec.program()

            def build(cls):
                sensors = _factory(spec)(np.random.default_rng(seed))
                return cls(
                    program, MICAZ_LIKE, sensors, faults=_injector(fault_model, seed)
                )

            assert_engines_agree(build, activations(40))

    @pytest.mark.parametrize("batch_size", (1, 5, 64))
    def test_agreement_across_groupings(self, batch_size):
        """Bit-identity holds whether a batch is one activation or the whole run."""
        spec = WORKLOADS["surge"]
        compiled, oracle = on_both_engines(
            lambda: _batched(spec, FAULT_CONFIGS["chaos"], 7, batch_size=batch_size)
        )
        assert compiled == oracle

    def test_energy_and_packets_agree_exactly(self):
        """Float energy must match to the last bit, not approximately."""
        spec = WORKLOADS["surge"]
        (compiled, _), (oracle, _) = on_both_engines(
            lambda: _batched(spec, FAULT_CONFIGS["radio"], 3)
        )
        assert compiled.energy_mj == oracle.energy_mj
        assert compiled.radio_packets == oracle.radio_packets


PERMOTE_SOURCE = """
proc work(v) {
    var acc = v;
    while (acc > 200) {
        acc = acc / 2;
        send(acc);
    }
    return acc;
}
proc main() {
    var r = work(sense(ch));
    led(r & 7);
}
"""


def _mote(program, seed, fault_model=None, record_paths=False, platform=MICAZ_LIKE):
    """A builder for one mote with uniform inputs drawn from ``seed``."""

    def build(cls):
        return cls(
            program,
            platform,
            build_sensors({"ch": (512.0, 295.0)}, "uniform", rng=seed),
            record_paths=record_paths,
            faults=_injector(fault_model, seed),
        )

    return build


class TestPerMoteContract:
    """Each mote alone — any length, faults, paths, platform — agrees."""

    def test_ragged_activations(self):
        program = compile_source(PERMOTE_SOURCE, "permote")
        for seed, count in zip((11, 22, 33, 44, 55), (0, 1, 5, 13, 2)):
            assert_engines_agree(_mote(program, seed), activations(count))

    def test_fault_fates_per_mote(self):
        """Every mote's injector tallies agree — faults land identically."""
        program = compile_source(PERMOTE_SOURCE, "permote")
        for seed in (1, 2, 3, 4):
            seen = assert_engines_agree(
                _mote(program, seed, FAULT_CONFIGS["chaos"]), activations(8)
            )
            assert seen["fates"] is not None

    def test_recorded_paths_agree(self):
        program = compile_source(PERMOTE_SOURCE, "permote")
        for seed in (9, 10):
            seen = assert_engines_agree(
                _mote(program, seed, record_paths=True), activations(4)
            )
            assert all(rec.path is not None for rec in seen["records"])

    def test_other_platform(self):
        """Bit-identity is per platform, not a micaz-only accident."""
        program = compile_source(PERMOTE_SOURCE, "permote")
        for seed, count in ((5, 6), (6, 3)):
            assert_engines_agree(_mote(program, seed, platform=TELOSB_LIKE), activations(count))
        spec = WORKLOADS["tinydb-agg"]

        def build(cls):
            return cls(spec.program(), TELOSB_LIKE, spec.sensors(rng=8))

        assert_engines_agree(build, activations(30))


def check_synthetic_case(seed, n_branches, activations, batch_size):
    """Assert both engines agree on one generated program; raise if not."""
    workload = random_workload(
        rng=seed, n_branches=n_branches, name=f"synthetic_{seed}"
    )
    program = workload.program()
    factory = lambda g: workload.sensors(rng=g)

    def run():
        hc = HardwareCounters()
        with counters_active(hc, isolated=True):
            result = run_program_batched(
                program,
                MICAZ_LIKE,
                factory,
                activations=activations,
                batch_size=batch_size,
                rng=seed,
                record_paths=True,
                fault_model=FAULT_CONFIGS["chaos"],
            )
        return result, hc.snapshot()

    (compiled, compiled_hw), (oracle, oracle_hw) = on_both_engines(run)
    assert compiled == oracle, "merged RunResult diverged"
    assert compiled_hw == oracle_hw, "hardware-counter snapshot diverged"


def _record_regression(case: dict) -> Path:
    REGRESSION_DIR.mkdir(parents=True, exist_ok=True)
    path = REGRESSION_DIR / "case_{seed}_{n_branches}_{activations}_{batch_size}.json".format(
        **case
    )
    path.write_text(json.dumps(case, indent=2, sort_keys=True) + "\n")
    return path


class TestSyntheticPrograms:
    """Property tests: the engines agree on generated control flow."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_branches=st.integers(1, 6),
        activations=st.integers(1, 12),
        batch_size=st.integers(1, 5),
    )
    def test_engines_agree_on_generated_programs(
        self, seed, n_branches, activations, batch_size
    ):
        try:
            check_synthetic_case(seed, n_branches, activations, batch_size)
        except AssertionError:
            if os.environ.get(RECORD_ENV_VAR, "") not in ("", "0"):
                _record_regression(
                    {
                        "seed": seed,
                        "n_branches": n_branches,
                        "activations": activations,
                        "batch_size": batch_size,
                    }
                )
            raise

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), n_branches=st.integers(1, 5))
    def test_per_mote_equality_on_generated_programs(self, seed, n_branches):
        workload = random_workload(
            rng=seed, n_branches=n_branches, name=f"synthetic_{seed}"
        )
        program = workload.program()
        for i, count in enumerate((1, 3, 2)):

            def build(cls, i=i):
                return cls(program, MICAZ_LIKE, workload.sensors(rng=seed + i))

            assert_engines_agree(build, activations(count))


def _regression_cases():
    if not REGRESSION_DIR.is_dir():
        return []
    return sorted(REGRESSION_DIR.glob("*.json"))


@pytest.mark.parametrize(
    "fixture", _regression_cases(), ids=lambda p: p.stem
)
def test_replay_recorded_regressions(fixture):
    """Every recorded counterexample stays fixed forever."""
    case = json.loads(fixture.read_text())
    check_synthetic_case(
        case["seed"], case["n_branches"], case["activations"], case["batch_size"]
    )


# --------------------------------------------------------------------------
# Hand-built programs: shapes the front-end never emits, and run-time errors
# --------------------------------------------------------------------------


def _program(name, *procs, globals_=None, arrays=None) -> Program:
    program = Program(
        name=name, entry=procs[-1].name, globals_=dict(globals_ or {}), arrays=dict(arrays or {})
    )
    for proc in procs:
        program.add(proc)
    return program


def _bounded_recursive_program() -> Program:
    """``f(n) = n > 0 ? f(n-1) : 0`` — the front-end rejects recursion."""
    fb = CFGBuilder("f")
    fb.emit(const("zero", 0), binop(BinaryOp.GT, "going", "n", "zero"))
    then_blk, else_blk = fb.branch("going")
    fb.emit(const("one", 1), binop(BinaryOp.SUB, "m", "n", "one"))
    fb.emit(call("f", dst="r", args=("m",)))
    fb.jump("join")
    fb.switch_to(else_blk)
    fb.emit(const("r", 0))
    fb.jump("join")
    fb.block("join")
    fb.ret("r")
    f = fb.build(params=("n",), returns_value=True)

    mb = CFGBuilder("main")
    mb.emit(const("three", 3), call("f", dst="out", args=("three",)), led("out"))
    mb.ret()
    return _program("bounded_recursion", f, mb.build())


def _main(*instructions, params=()) -> CFGBuilder:
    b = CFGBuilder("main")
    b.emit(*instructions)
    b.ret()
    return b.build(params=params)


def _suite(value=0):
    return SensorSuite({"ch": ConstantSensor(value)}, rng=0)


def _fixed(program, value=0, **kwargs):
    """A builder for a mote whose one channel always reads ``value``."""
    return lambda cls: cls(program, MICAZ_LIKE, _suite(value), **kwargs)


def _error(seen) -> tuple:
    assert seen["error"] is not None, "expected the run to fail"
    return seen["error"]


class TestHandBuiltPrograms:
    """Every shape and failure the front-end never produces, on both engines."""

    def test_recursion(self):
        seen = assert_engines_agree(
            _fixed(_bounded_recursive_program(), record_paths=True), activations(3)
        )
        assert seen["error"] is None
        assert max(rec.depth for rec in seen["records"]) == 4

    def test_runaway_recursion(self):
        """Unbounded recursion ends at the call-depth limit, on both engines."""
        f = CFGBuilder("f")
        f.emit(call("f"))
        f.ret()
        program = _program("runaway", f.build(), _main(call("f")))
        seen = assert_engines_agree(_fixed(program), activations(1))
        assert _error(seen) == (
            SimulationError, f"call to 'f' exceeds the call-depth limit of {MAX_CALL_DEPTH}"
        )
        visits = seen["counters"].block_visits
        assert sum(n for (proc, _), n in visits.items() if proc == "f") == MAX_CALL_DEPTH - 1
        # Nothing returned, so no row counts an invocation.
        assert all("invocations" not in row for row in seen["hw"]["per_proc"].values())

    def test_recursive_program_batched(self):
        program = _bounded_recursive_program()
        factory = partial(build_sensors, {"ch": (512.0, 295.0)}, "uniform")
        compiled, oracle = on_both_engines(
            lambda: run_program_batched(
                program, MICAZ_LIKE, factory, activations=9, batch_size=4, rng=5
            )
        )
        assert compiled == oracle

    def test_parameterized_entry(self):
        program = _program("param_entry", _main(led("x"), params=("x",)))
        seen = assert_engines_agree(_fixed(program), activations(1))
        assert _error(seen) == (SimulationError, "'main' expects 1 args, got 0")
        seen = assert_engines_agree(_fixed(program), lambda i: i.invoke("main", [13]))
        assert seen["leds"] == 13 & 7

    def test_parameter_shadowing_a_global(self):
        """Reads see the frame, writes go to the global."""
        f = CFGBuilder("f")
        f.emit(
            const("one", 1),
            binop(BinaryOp.ADD, "g", "g", "one"),  # frame g + 1, stored to global g
            binop(BinaryOp.ADD, "seen", "g", "one"),  # still the frame's g
            mov("out", "seen"),
        )
        f.ret("g")
        main = _main(const("five", 5), call("f", dst="r", args=("five",)), led("r"))
        program = _program("shadow", f.build(params=("g",), returns_value=True), main,
                           globals_={"g": 100, "out": 0})
        seen = assert_engines_agree(_fixed(program), activations(2))
        assert seen["globals"] == {"g": 6, "out": 6}
        assert seen["leds"] == 5

    def test_possibly_unbound_register(self):
        b = CFGBuilder("main")
        b.emit(sense("v", "ch"), const("t", 100), binop(BinaryOp.GT, "hot", "v", "t"))
        then_blk, else_blk = b.branch("hot")
        b.emit(const("x", 1))  # "x" assigned on the then arm only
        b.jump("join")
        b.switch_to(else_blk)
        b.jump("join")
        b.block("join")
        b.emit(led("x"))
        b.ret()
        program = _program("maybe_unbound", b.build())
        seen = assert_engines_agree(_fixed(program, value=500), activations(3))
        assert seen["error"] is None and seen["leds"] == 1
        seen = assert_engines_agree(_fixed(program, value=5), activations(3))
        assert _error(seen) == (SimulationError, "read of unbound variable 'x'")

    def test_possibly_unbound_return_value(self):
        """A return is paid once its value is read, so a failed read pays none."""
        b = CFGBuilder("main")
        b.emit(sense("v", "ch"), const("t", 100), binop(BinaryOp.GT, "hot", "v", "t"))
        then_blk, else_blk = b.branch("hot")
        b.emit(const("x", 1))
        b.jump("join")
        b.switch_to(else_blk)
        b.jump("join")
        b.block("join")
        b.ret("x")
        program = _program("unbound_return", b.build(returns_value=True))
        seen = assert_engines_agree(_fixed(program, value=500), activations(3))
        assert seen["error"] is None
        assert seen["hw"]["per_proc"]["main"]["invocations"] == 3
        seen = assert_engines_agree(_fixed(program, value=5), activations(3))
        assert _error(seen) == (SimulationError, "read of unbound variable 'x'")
        assert "cycles.return" not in seen["hw"]["totals"]

    @pytest.mark.parametrize("op", ("load", "store"))
    def test_undeclared_array(self, op):
        access = load("v", "nope", "i") if op == "load" else store("nope", "i", "i")
        program = _program("undeclared", _main(const("i", 0), access), arrays={"buf": 4})
        seen = assert_engines_agree(_fixed(program), activations(1))
        assert _error(seen) == (SimulationError, "access to undeclared array 'nope'")

    @pytest.mark.parametrize("index", (4, -1))
    @pytest.mark.parametrize("op", ("load", "store"))
    def test_out_of_bounds_index(self, op, index):
        access = load("v", "buf", "i") if op == "load" else store("buf", "i", "i")
        program = _program("oob", _main(const("i", index), access), arrays={"buf": 4})
        seen = assert_engines_agree(_fixed(program), activations(1))
        assert _error(seen) == (
            SimulationError,
            f"array index out of bounds: buf[{index}] (size 4)",
        )

    def test_unbound_array_index_and_value(self):
        """An unbound index fails before the array is checked; a value after."""
        unbound_index = _program("ui", _main(store("nope", "i", "v")), arrays={})
        seen = assert_engines_agree(_fixed(unbound_index), activations(1))
        assert _error(seen) == (SimulationError, "read of unbound variable 'i'")
        unbound_value = _program("uv", _main(const("i", 1), store("buf", "i", "v")),
                                 arrays={"buf": 2})
        seen = assert_engines_agree(_fixed(unbound_value), activations(1))
        assert _error(seen) == (SimulationError, "read of unbound variable 'v'")

    @pytest.mark.parametrize(
        "op, message",
        ((BinaryOp.DIV, "division by zero"), (BinaryOp.MOD, "modulo by zero")),
        ids=("div", "mod"),
    )
    def test_division_and_modulo_by_zero(self, op, message):
        main = _main(const("a", 7), sense("z", "ch"), binop(op, "q", "a", "z"), led("q"))
        program = _program("by_zero", main)
        seen = assert_engines_agree(_fixed(program, value=3), activations(2))
        assert seen["error"] is None and seen["leds"] == (2 if op is BinaryOp.DIV else 1)
        seen = assert_engines_agree(_fixed(program, value=0), activations(2))
        assert _error(seen) == (SimulationError, message)

    def test_arity_mismatch(self):
        f = CFGBuilder("f")
        f.ret("a")
        main = _main(const("one", 1), call("f", dst="r", args=("one", "one")))
        program = _program("arity", f.build(params=("a",), returns_value=True), main)
        seen = assert_engines_agree(_fixed(program), activations(1))
        assert _error(seen) == (SimulationError, "'f' expects 1 args, got 2")
        seen = assert_engines_agree(_fixed(program), lambda i: i.invoke("f", []))
        assert _error(seen) == (SimulationError, "'f' expects 1 args, got 0")

    def test_unknown_procedure(self):
        program = _program("unknown", _main(const("one", 1), call("ghost", args=("one",))))
        seen = assert_engines_agree(_fixed(program), activations(1))
        assert _error(seen) == (IRError, "program 'unknown' has no procedure 'ghost'")
        seen = assert_engines_agree(_fixed(program), lambda i: i.invoke("ghost"))
        assert _error(seen)[0] is IRError

    def test_jump_to_a_missing_block(self):
        b = CFGBuilder("main")
        b.emit(sense("v", "ch"), const("t", 100), binop(BinaryOp.GT, "hot", "v", "t"))
        b.branch("hot", then_label="out", else_label="gone")
        b.ret()
        b.switch_to(b.cfg.block("gone"))
        b.jump("nowhere")
        program = _program("dangling", b.build())
        seen = assert_engines_agree(_fixed(program, value=500), activations(2))
        assert seen["error"] is None
        seen = assert_engines_agree(_fixed(program, value=5), activations(2))
        assert _error(seen) == (IRError, "no block labelled 'nowhere'")

    def test_unknown_sensor_channel(self):
        program = _program("deaf", _main(const("one", 1), sense("v", "nope"), led("one")))
        seen = assert_engines_agree(_fixed(program), activations(1))
        assert _error(seen) == (MoteError, "unknown sensor channel 'nope'; known: ch")

    def test_max_steps_guard(self):
        program = compile_source(
            "global x = 1; proc main() { while (x > 0) { x = 1; } }"
        )
        seen = assert_engines_agree(
            _fixed(program, max_steps_per_invocation=100), activations(1)
        )
        assert _error(seen) == (
            SimulationError, "'main' exceeded 100 blocks in one invocation"
        )
        assert sum(seen["counters"].block_visits.values()) == 100

    def test_every_operator_on_signed_operands(self):
        """Each operator over signs, extremes and shift counts, unfolded."""
        values = (-32768, -300, -7, -1, 0, 1, 3, 7, 17, 300, 32767)
        b = CFGBuilder("main")
        slot = 0
        for op in BinaryOp:
            for x in values:
                for y in values:
                    if y == 0 and op in (BinaryOp.DIV, BinaryOp.MOD):
                        continue
                    b.emit(
                        const("x", x),
                        const("y", y),
                        binop(op, "r", "x", "y"),
                        const("i", slot),
                        store("out", "i", "r"),
                    )
                    slot += 1
        for op in UnaryOp:
            for x in values:
                b.emit(const("x", x), unop(op, "r", "x"), const("i", slot), store("out", "i", "r"))
                slot += 1
        b.ret()
        program = _program("operators", b.build(), arrays={"out": slot})
        seen = assert_engines_agree(_fixed(program), activations(1))
        assert seen["error"] is None
        assert seen["arrays"]["out"][:3] == [0, 32468, 32761]  # -32768 + {-32768, -300, -7}
        assert all(-32768 <= v <= 32767 for v in seen["arrays"]["out"])

    def test_state_written_from_outside_is_wrapped_on_use(self):
        """Reads of globals, array cells, call results and arguments wrap."""
        f = CFGBuilder("f")
        f.ret("g")
        main = _main(
            mov("x", "g"),
            const("zero", 0),
            load("y", "buf", "zero"),
            call("f", dst="z"),
            binop(BinaryOp.ADD, "s", "x", "y"),
            binop(BinaryOp.ADD, "s", "s", "z"),
            store("buf", "zero", "g"),
            const("one", 1),
            store("buf", "one", "z"),
            led("s"),
        )
        program = _program("outside", f.build(returns_value=True), main,
                           globals_={"g": 0}, arrays={"buf": 2})

        def act(interp):
            interp.globals["g"] = 70000
            interp.arrays["buf"][0] = -40000
            interp.run_activation()
            interp.globals["g"] = 70000
            interp.invoke("f", [])
            interp.leds = interp.invoke("main", ())

        seen = assert_engines_agree(_fixed(program), act)
        assert seen["error"] is None and seen["arrays"]["buf"] == [70000 - 65536] * 2

    @pytest.mark.parametrize(
        "arg", (70000, -40000, 3.7, np.int64(12)), ids=("big", "small", "float", "numpy")
    )
    def test_invoke_wraps_its_arguments(self, arg):
        f = CFGBuilder("f")
        f.emit(mov("out", "a"))
        f.ret("a")
        program = _program("args", f.build(params=("a",), returns_value=True),
                           _main(), globals_={"out": 0})
        seen = assert_engines_agree(_fixed(program), lambda i: i.invoke("f", [arg]))
        assert seen["globals"]["out"] == ((int(arg) + 32768) & 65535) - 32768

    def test_runtime_values_wrap_to_sixteen_bits(self):
        program = compile_source(
            """
            global a; global b; global c; global d;
            array buf[2];
            proc main() {
                a = 30000 + 30000; b = (0 - 7) / 2; c = (0 - 7) % 3; d = 1 << 20;
                buf[1] = 0 - 32768; buf[0] = buf[1] / (0 - 1);
            }
            """
        )
        seen = assert_engines_agree(_fixed(program), activations(2))
        assert seen["globals"] == {"a": 30000 + 30000 - 65536, "b": -3, "c": -1, "d": 16}
        assert seen["arrays"] == {"buf": [-32768, -32768]}


# --------------------------------------------------------------------------
# Mid-run methods: hot swap, reboot, sensor swap
# --------------------------------------------------------------------------


class TestMidRunMethods:
    """The calls PGO and F10 make between activations agree too."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_hot_swap_layout_mid_run(self, name):
        spec = WORKLOADS[name]
        program = spec.program()
        first = random_program_layout(program, rng=3)
        run = run_program(program, MICAZ_LIKE, spec.sensors(rng=1), activations=200)
        thetas = {proc.name: run.counters.true_branch_probabilities(proc) for proc in program}
        second = optimize_program_layout(program, thetas)

        def act(interp):
            activations(40)(interp)
            interp.hot_swap_layout(second)
            activations(40)(interp)
            interp.hot_swap_layout(first)
            activations(20)(interp)

        def build(cls):
            return cls(program, MICAZ_LIKE, spec.sensors(rng=7), layout=first, record_paths=True)

        seen = assert_engines_agree(build, act)
        assert seen["error"] is None

    def test_hot_swap_rejects_a_foreign_layout(self):
        spec = WORKLOADS["surge"]
        program = spec.program()
        foreign = random_program_layout(WORKLOADS["sense"].program(), rng=1)

        def act(interp):
            activations(5)(interp)
            interp.hot_swap_layout(foreign)

        seen = assert_engines_agree(lambda cls: cls(program, MICAZ_LIKE, spec.sensors(rng=2)), act)
        assert _error(seen) == (
            SimulationError, "hot-swapped layout does not cover this interpreter's program"
        )

    def test_public_state_replaced_between_activations(self):
        """Counters, radio, LEDs, paths and the step limit are read live."""
        spec = WORKLOADS["surge"]
        program = spec.program()

        def act(interp):
            activations(10)(interp)
            # A replaced counters object starts a fresh report baseline, so
            # what the old one counted is reported first.
            interp.report_counters()
            interp.counters = ExecutionCounters()
            interp.radio = Radio()
            interp.leds = 5
            interp.record_paths = True
            activations(10)(interp)
            interp.max_steps = 3
            activations(10)(interp)

        seen = assert_engines_agree(lambda cls: cls(program, MICAZ_LIKE, spec.sensors(rng=3)), act)
        assert _error(seen)[1].endswith("exceeded 3 blocks in one invocation")

    @pytest.mark.parametrize("name", ("oscilloscope", "tinydb-agg", "surge"))
    def test_reboot(self, name):
        spec = WORKLOADS[name]
        program = spec.program()

        def act(interp):
            activations(23)(interp)
            interp.reboot()
            activations(30)(interp)

        assert_engines_agree(lambda cls: cls(program, MICAZ_LIKE, spec.sensors(rng=4)), act)

    @pytest.mark.parametrize("faulty", (False, True))
    def test_set_sensors(self, faulty):
        spec = WORKLOADS["event-detect"]
        program = spec.program()

        def build(cls):
            return cls(
                program,
                MICAZ_LIKE,
                spec.sensors(rng=5),
                faults=_injector(FAULT_CONFIGS["chaos"], 5) if faulty else None,
            )

        def act(interp):
            activations(30)(interp)
            interp.set_sensors(spec.sensors(scenario="bursty", rng=6))
            activations(30)(interp)

        assert_engines_agree(build, act)

    @pytest.mark.parametrize(
        "schedule",
        (["A"] * 10 + ["B"] * 3 + ["A"] * 3, ["A"] * 10 + ["B"] * 6),
        ids=("trap", "sustained"),
    )
    def test_pgo_controller_matches_the_oracle(self, schedule):
        """The closed loop's drift → swap → commit/rollback path, end to end."""
        program = compile_source(PROBE_SOURCE, name="probe", entry="main")

        def run():
            controller = PGOController(program, MICAZ_LIKE)
            hw = HardwareCounters()
            with counters_active(hw, isolated=True):
                for i, regime in enumerate(schedule):
                    channels = _REGIMES["probe"][regime]
                    sensors = SensorSuite(
                        {ch: IIDSensor(mean, std) for ch, (mean, std) in channels.items()},
                        rng=derive_rng(7, "sim-diff", "sensors", regime, i),
                    )
                    controller.run_segment(
                        sensors, 60, profiler_rng=derive_rng(7, "sim-diff", "profiler", i)
                    )
            interp = controller._interp
            return (
                controller.reports,
                hw.snapshot(),
                (interp.globals, interp.arrays, interp.leds, interp.cycle, interp.counters),
            )

        compiled = run()
        with mock.patch.object(pgo_controller, "Interpreter", OracleInterpreter):
            oracle = run()
        assert compiled == oracle
        assert any(report.action == "swap" for report in compiled[0])

    def test_f10_open_loop_arm_matches_the_oracle(self):
        """F10's static and oracle arms report each segment's counts."""
        program = f10._program("probe")
        regimes = f10._segment_regimes("probe")[:4]
        layouts = (ProgramLayout.source_order(program), random_program_layout(program, rng=3))

        def run():
            hw = HardwareCounters()
            with counters_active(hw, isolated=True):
                metrics, _, swaps = f10._run_arm(
                    program, MICAZ_LIKE, "probe", 7, 30, regimes, lambda i: layouts[i % 2]
                )
            return metrics, swaps, hw.snapshot()

        compiled = run()
        with mock.patch.object(f10, "Interpreter", OracleInterpreter):
            oracle = run()
        assert compiled == oracle
        assert compiled[1] == 3 and compiled[2]["totals"]["cycles.block"] > 0


# --------------------------------------------------------------------------
# Fold points: where slot counts reach ExecutionCounters and the registry
# --------------------------------------------------------------------------

FOLD_REGRESSION_DIR = REGRESSION_DIR / "folds"


def _fold_subject(name: str, seed: int, n_branches: int):
    """The program and a sensor factory: generated, or a registered workload."""
    if name == "synthetic":
        workload = random_workload(rng=seed, n_branches=n_branches, name=f"synthetic_{seed}")
        return workload.program(), workload.sensors
    spec = WORKLOADS[name]
    return spec.program(), spec.sensors


def observe_folds(cls, name: str, seed: int, n_branches: int, ops) -> list:
    """Run ``ops`` on an interpreter of ``cls``; everything each one shows.

    The whole sequence runs under one registry.  A read records the counts
    and their key order; a report, a held reference and the end record the
    hardware snapshot as well, since the compiled engine prices counts only
    when it reports.  Counts made since the last report are not priced when
    :attr:`counters` is replaced, so a replacement reports first and runs its
    own activations under a registry of their own that nobody reads.  An
    exception ends its op and is recorded by type and message; the sequence
    goes on from the state it left (an overrun can leave a program's state
    half-updated, so later activations may fail too).
    """
    program, sensors = _fold_subject(name, seed, n_branches)
    interp = cls(program, MICAZ_LIKE, sensors(rng=seed))
    hw = HardwareCounters()
    seen: list = []

    def counts(counters) -> tuple:
        return copy.deepcopy(counters), key_order(counters)

    def step(op, *arg):
        if op == "run":
            activations(arg[0])(interp)
        elif op == "report":
            interp.report_counters()
            seen.append((op, hw.snapshot()))
        elif op == "read":
            seen.append((op, *counts(interp.counters)))
        elif op == "hold":
            held = interp.counters
            activations(arg[0])(interp)
            interp.report_counters()
            seen.append((op, *counts(held), hw.snapshot()))
        elif op == "replace":
            interp.report_counters()
            held = interp.counters
            with counters_active(HardwareCounters(), isolated=True):
                activations(arg[0])(interp)
                interp.counters = ExecutionCounters()
            seen.append((op, *counts(held)))
        elif op == "swap":
            interp.hot_swap_layout(random_program_layout(program, rng=arg[0]))
        elif op == "reboot":
            interp.reboot()
        elif op == "sensors":
            interp.set_sensors(sensors(rng=arg[0]))
        elif op == "overrun":
            limit, interp.max_steps = interp.max_steps, 1
            try:
                interp.run_activation()
            finally:
                interp.max_steps = limit
        else:  # pragma: no cover - the strategy draws only the ops above
            raise ValueError(op)

    with counters_active(hw, isolated=True):
        for op in ops:
            try:
                step(*op)
            except Exception as exc:  # noqa: BLE001 - the exception is the datum
                seen.append((op[0], type(exc), str(exc)))
        interp.report_counters()
    seen.append(
        ("end", *counts(interp.counters), hw.snapshot(), interp.cycle, interp.records,
         interp.radio.packets, interp.globals, interp.arrays, interp.leds)
    )
    return seen


def check_fold_sequence(name: str, seed: int, n_branches: int, ops) -> None:
    """Assert both engines observe the same at every step of ``ops``."""
    compiled = observe_folds(Interpreter, name, seed, n_branches, ops)
    oracle = observe_folds(OracleInterpreter, name, seed, n_branches, ops)
    assert len(compiled) == len(oracle)
    for step, (mine, theirs) in enumerate(zip(compiled, oracle)):
        assert mine == theirs, f"observation {step} ({mine[0]}) diverged"


_FOLD_OPS = st.one_of(
    st.tuples(st.just("run"), st.integers(1, 6)),
    st.tuples(st.just("report")),
    st.tuples(st.just("read")),
    st.tuples(st.just("hold"), st.integers(1, 4)),
    st.tuples(st.just("replace"), st.integers(0, 3)),
    st.tuples(st.just("swap"), st.integers(0, 10_000)),
    st.tuples(st.just("reboot")),
    st.tuples(st.just("sensors"), st.integers(0, 10_000)),
    st.tuples(st.just("overrun")),
).map(list)


def _record_fold_regression(case: dict) -> Path:
    FOLD_REGRESSION_DIR.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(json.dumps(case["ops"]).encode()).hexdigest()[:10]
    path = FOLD_REGRESSION_DIR / f"folds_{case['name']}_{case['seed']}_{digest}.json"
    path.write_text(json.dumps(case, indent=2, sort_keys=True) + "\n")
    return path


class TestFoldPoints:
    """Counts read, reported, held or replaced at any point agree."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["synthetic"] * 3 + WORKLOAD_NAMES),
        seed=st.integers(0, 10_000),
        n_branches=st.integers(1, 6),
        ops=st.lists(_FOLD_OPS, min_size=1, max_size=12),
    )
    def test_engines_agree_at_every_fold_point(self, name, seed, n_branches, ops):
        try:
            check_fold_sequence(name, seed, n_branches, ops)
        except AssertionError:
            if os.environ.get(RECORD_ENV_VAR, "") not in ("", "0"):
                _record_fold_regression(
                    {"name": name, "seed": seed, "n_branches": n_branches, "ops": ops}
                )
            raise


def _fold_cases():
    if not FOLD_REGRESSION_DIR.is_dir():
        return []
    return sorted(FOLD_REGRESSION_DIR.glob("*.json"))


@pytest.mark.parametrize("fixture", _fold_cases(), ids=lambda p: p.stem)
def test_replay_recorded_fold_sequences(fixture):
    """Every recorded fold-point sequence stays fixed forever."""
    case = json.loads(fixture.read_text())
    check_fold_sequence(case["name"], case["seed"], case["n_branches"], case["ops"])


def test_pipebench_size_runs_agree():
    """pipebench's profiled and evaluation runs at full size, seed 2015.

    ``python -m tests.sim_identity --seeds ...`` runs the same at any seed.
    """
    assert mismatches([2015]) == []
