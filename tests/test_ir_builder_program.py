"""Tests for the CFG builder, procedures, programs, cost model and validation."""

from __future__ import annotations

import pytest

from repro.errors import CFGValidationError, IRError
from repro.ir import (
    BinaryOp,
    CFG,
    CFGBuilder,
    CostModel,
    DEFAULT_COST_MODEL,
    Opcode,
    Procedure,
    Program,
    binop,
    call,
    cfg_to_dot,
    const,
    nop,
    sense,
    validate_cfg,
    validate_program,
)
from repro.ir.instructions import Branch, Jump, Return


class TestCFGBuilder:
    def test_simple_straight_line(self):
        b = CFGBuilder("p")
        b.emit(const("x", 1))
        b.ret("x")
        proc = b.build(returns_value=True)
        assert proc.block_count() == 1
        assert proc.returns_value

    def test_branch_creates_two_blocks(self):
        b = CFGBuilder("p")
        b.emit(const("c", 1))
        then_blk, else_blk = b.branch("c")
        b.ret()
        b.switch_to(else_blk)
        b.ret()
        proc = b.build()
        assert proc.branch_count() == 1
        assert proc.block_count() == 3

    def test_fresh_labels_are_unique(self):
        b = CFGBuilder("p")
        labels = {b.fresh_label() for _ in range(50)}
        assert len(labels) == 50

    def test_build_rejects_open_blocks(self):
        b = CFGBuilder("p")
        b.emit(nop())
        with pytest.raises(IRError, match="unterminated"):
            b.build()

    def test_emit_without_current_block_raises(self):
        b = CFGBuilder("p")
        b.ret()
        with pytest.raises(IRError):
            b.emit(nop())

    def test_switch_to_foreign_block_raises(self):
        b1 = CFGBuilder("p")
        b2 = CFGBuilder("q")
        blk = b2.block("other")
        with pytest.raises(IRError):
            b1.switch_to(blk)

    def test_params_and_arrays_recorded(self):
        b = CFGBuilder("p")
        b.ret()
        proc = b.build(params=("a", "b"), arrays={"buf": 8})
        assert proc.params == ("a", "b")
        assert proc.arrays == {"buf": 8}


class TestCostModel:
    def test_block_cost_sums_instructions(self):
        b = CFGBuilder("p")
        b.emit(const("x", 1), const("y", 2), binop(BinaryOp.ADD, "z", "x", "y"))
        b.ret()
        proc = b.build()
        entry = proc.cfg.block(proc.cfg.entry)
        assert DEFAULT_COST_MODEL.block_cycles(entry) == 3

    def test_div_much_more_expensive_than_add(self):
        div = DEFAULT_COST_MODEL.binop_cycles[BinaryOp.DIV]
        add = DEFAULT_COST_MODEL.binop_cycles[BinaryOp.ADD]
        assert div > 10 * add

    def test_sense_and_send_are_expensive(self):
        assert DEFAULT_COST_MODEL.opcode_cycles[Opcode.SENSE] >= 20
        assert DEFAULT_COST_MODEL.opcode_cycles[Opcode.SEND] >= 50

    def test_call_priced_as_overhead_only(self):
        assert (
            DEFAULT_COST_MODEL.instruction_cycles(call("f"))
            == DEFAULT_COST_MODEL.call_overhead
        )

    def test_scaled_multiplies_costs(self):
        scaled = DEFAULT_COST_MODEL.scaled(2.0)
        assert scaled.opcode_cycles[Opcode.LOAD] == 2 * DEFAULT_COST_MODEL.opcode_cycles[Opcode.LOAD]
        assert scaled.call_overhead == 2 * DEFAULT_COST_MODEL.call_overhead

    def test_scaled_never_drops_below_one_cycle(self):
        scaled = DEFAULT_COST_MODEL.scaled(0.01)
        assert min(scaled.opcode_cycles.values()) >= 1

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DEFAULT_COST_MODEL.scaled(0.0)


def _valid_proc(name: str = "p") -> Procedure:
    b = CFGBuilder(name)
    b.emit(nop())
    b.ret()
    return b.build()


class TestValidateCfg:
    def test_accepts_valid(self):
        validate_cfg(_valid_proc().cfg, "p")

    def test_rejects_missing_entry(self):
        cfg = CFG("missing")
        cfg.new_block("other").close(Return())
        with pytest.raises(CFGValidationError, match="entry"):
            validate_cfg(cfg, "p")

    def test_rejects_unterminated_block(self):
        cfg = CFG("a")
        cfg.new_block("a")
        with pytest.raises(CFGValidationError, match="unterminated"):
            validate_cfg(cfg, "p")

    def test_rejects_unknown_successor(self):
        cfg = CFG("a")
        cfg.new_block("a").close(Jump("ghost"))
        with pytest.raises(CFGValidationError, match="unknown label"):
            validate_cfg(cfg, "p")

    def test_rejects_no_reachable_return(self):
        cfg = CFG("a")
        cfg.new_block("a").close(Jump("b"))
        cfg.new_block("b").close(Jump("a"))
        with pytest.raises(CFGValidationError):
            validate_cfg(cfg, "p")

    def test_rejects_inescapable_loop(self):
        cfg = CFG("a")
        cfg.new_block("a").close(Branch("c", "spin", "done"))
        cfg.new_block("spin").close(Jump("spin"))
        cfg.new_block("done").close(Return())
        with pytest.raises(CFGValidationError, match="infinite loop"):
            validate_cfg(cfg, "p")

    def test_unreachable_junk_is_tolerated(self):
        cfg = CFG("a")
        cfg.new_block("a").close(Return())
        cfg.new_block("junk").close(Jump("junk"))
        validate_cfg(cfg, "p")  # unreachable cycle is dead code, not an error


class TestProgram:
    def test_add_and_lookup(self):
        prog = Program(name="t", entry="p")
        prog.add(_valid_proc("p"))
        assert prog.procedure("p").name == "p"

    def test_duplicate_procedure_rejected(self):
        prog = Program(name="t", entry="p")
        prog.add(_valid_proc("p"))
        with pytest.raises(IRError):
            prog.add(_valid_proc("p"))

    def test_unknown_procedure_raises(self):
        prog = Program(name="t", entry="p")
        with pytest.raises(IRError):
            prog.procedure("nope")

    def test_topological_order_is_callee_first(self):
        prog = Program(name="t", entry="main")
        leaf = _valid_proc("leaf")
        b = CFGBuilder("main")
        b.emit(call("leaf"))
        b.ret()
        prog.add(b.build())
        prog.add(leaf)
        order = [p.name for p in prog.topological_procedures()]
        assert order.index("leaf") < order.index("main")

    def test_recursion_detected(self):
        prog = Program(name="t", entry="a")
        ba = CFGBuilder("a")
        ba.emit(call("b"))
        ba.ret()
        bb = CFGBuilder("b")
        bb.emit(call("a"))
        bb.ret()
        prog.add(ba.build())
        prog.add(bb.build())
        with pytest.raises(IRError, match="recursive"):
            prog.topological_procedures()

    def test_validate_program_rejects_unknown_callee(self):
        prog = Program(name="t", entry="main")
        b = CFGBuilder("main")
        b.emit(call("ghost"))
        b.ret()
        prog.add(b.build())
        with pytest.raises(CFGValidationError, match="undeclared"):
            validate_program(prog)

    def test_validate_program_rejects_missing_entry(self):
        prog = Program(name="t", entry="main")
        prog.add(_valid_proc("other"))
        with pytest.raises(CFGValidationError, match="entry"):
            validate_program(prog)

    def test_totals_census(self):
        prog = Program(name="t", entry="p")
        prog.add(_valid_proc("p"))
        totals = prog.totals()
        assert totals["procedures"] == 1
        assert totals["blocks"] == 1
        assert totals["branches"] == 0


class TestDotExport:
    def test_dot_contains_blocks_and_edges(self, diamond_procedure):
        dot = cfg_to_dot(diamond_procedure.cfg, "demo")
        assert dot.startswith('digraph "demo"')
        assert '"entry"' in dot
        assert "->" in dot

    def test_dot_edge_labels(self, diamond_procedure):
        cfg = diamond_procedure.cfg
        branch_label = cfg.branch_blocks()[0].label
        dot = cfg_to_dot(cfg, edge_labels={(branch_label, "then"): "0.42"})
        assert "0.42" in dot
