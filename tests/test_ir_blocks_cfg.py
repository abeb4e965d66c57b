"""Tests for instructions, basic blocks, and CFG structure."""

from __future__ import annotations

import pytest

from repro.errors import IRError
from repro.ir import (
    BasicBlock,
    BinaryOp,
    Branch,
    CFG,
    Edge,
    Jump,
    Opcode,
    Return,
    UnaryOp,
    binop,
    call,
    const,
    led,
    load,
    mov,
    nop,
    send,
    sense,
    store,
    unop,
)


class TestInstructionConstructors:
    def test_const(self):
        i = const("x", 7)
        assert i.opcode is Opcode.CONST
        assert i.dst == "x"
        assert i.imm == 7

    def test_binop_reads_both_sources(self):
        i = binop(BinaryOp.ADD, "z", "a", "b")
        assert i.srcs == ("a", "b")
        assert i.dst == "z"

    def test_call_metadata(self):
        i = call("helper", dst="r", args=("a", "b"))
        assert i.is_call()
        assert i.callee() == "helper"
        assert i.args == ("a", "b")

    def test_callee_on_non_call_raises(self):
        with pytest.raises(ValueError):
            const("x", 1).callee()

    def test_void_call_has_no_dst(self):
        i = call("helper")
        assert i.dst is None

    def test_str_forms_are_readable(self):
        assert str(const("x", 3)) == "x = 3"
        assert str(mov("a", "b")) == "a = b"
        assert str(binop(BinaryOp.MUL, "c", "a", "b")) == "c = a * b"
        assert str(load("d", "arr", "i")) == "d = arr[i]"
        assert str(store("arr", "i", "v")) == "arr[i] = v"
        assert str(sense("s", "adc0")) == "s = sense(adc0)"
        assert "send" in str(send("v"))
        assert "led" in str(led("v"))
        assert str(call("f", "r", ("x",))) == "r = f(x)"
        assert str(unop(UnaryOp.NEG, "n", "m")) == "n = neg m"


class TestTerminators:
    def test_jump_successors(self):
        assert Jump("x").successors() == ("x",)

    def test_branch_successors_order(self):
        assert Branch("c", "t", "e").successors() == ("t", "e")

    def test_return_has_no_successors(self):
        assert Return().successors() == ()
        assert Return("v").successors() == ()


class TestBasicBlock:
    def test_append_then_close(self):
        blk = BasicBlock("b")
        blk.append(nop())
        blk.close(Return())
        assert blk.is_closed
        assert len(blk) == 1

    def test_append_after_close_raises(self):
        blk = BasicBlock("b")
        blk.close(Return())
        with pytest.raises(IRError):
            blk.append(nop())

    def test_double_close_raises(self):
        blk = BasicBlock("b")
        blk.close(Return())
        with pytest.raises(IRError):
            blk.close(Jump("x"))

    def test_successors_requires_terminator(self):
        with pytest.raises(IRError):
            BasicBlock("b").successors()

    def test_is_branch_and_is_return(self):
        b1 = BasicBlock("b1")
        b1.close(Branch("c", "x", "y"))
        assert b1.is_branch and not b1.is_return
        b2 = BasicBlock("b2")
        b2.close(Return())
        assert b2.is_return and not b2.is_branch

    def test_calls_lists_callees_in_order(self):
        blk = BasicBlock("b")
        blk.append(call("f"))
        blk.append(nop())
        blk.append(call("g"))
        assert blk.calls() == ["f", "g"]

    def test_pretty_mentions_label_and_terminator(self):
        blk = BasicBlock("entry")
        blk.close(Return("v"))
        text = blk.pretty()
        assert "entry:" in text
        assert "ret v" in text


def _linear_cfg() -> CFG:
    cfg = CFG("a")
    cfg.new_block("a").close(Jump("b"))
    cfg.new_block("b").close(Return())
    return cfg


def _diamond_cfg() -> CFG:
    cfg = CFG("top")
    cfg.new_block("top").close(Branch("c", "t", "e"))
    cfg.new_block("t").close(Jump("join"))
    cfg.new_block("e").close(Jump("join"))
    cfg.new_block("join").close(Return())
    return cfg


def _loop_cfg() -> CFG:
    cfg = CFG("entry")
    cfg.new_block("entry").close(Jump("head"))
    cfg.new_block("head").close(Branch("c", "body", "exit"))
    cfg.new_block("body").close(Jump("head"))
    cfg.new_block("exit").close(Return())
    return cfg


class TestCFG:
    def test_duplicate_label_rejected(self):
        cfg = CFG("a")
        cfg.new_block("a")
        with pytest.raises(IRError):
            cfg.new_block("a")

    def test_unknown_block_lookup_raises(self):
        with pytest.raises(IRError):
            _linear_cfg().block("zzz")

    def test_edges_of_diamond(self):
        edges = _diamond_cfg().edges()
        assert Edge("top", "t", "then") in edges
        assert Edge("top", "e", "else") in edges
        assert Edge("t", "join", "jump") in edges
        assert len(edges) == 4

    def test_predecessors(self):
        preds = _diamond_cfg().predecessors()
        assert {e.src for e in preds["join"]} == {"t", "e"}
        assert preds["top"] == []

    def test_reachable_labels(self):
        cfg = _linear_cfg()
        cfg.new_block("orphan").close(Return())
        assert cfg.reachable_labels() == {"a", "b"}

    def test_back_edges_of_loop(self):
        back = _loop_cfg().back_edges()
        assert back == {Edge("body", "head", "jump")}

    def test_loop_count(self):
        assert _loop_cfg().loop_count() == 1
        assert _diamond_cfg().loop_count() == 0

    def test_labels_preserve_insertion_order(self):
        assert _diamond_cfg().labels == ["top", "t", "e", "join"]

    def test_len_and_iteration(self):
        cfg = _diamond_cfg()
        assert len(cfg) == 4
        assert [b.label for b in cfg] == cfg.labels
