"""Tests for static predictors and the CPU timing model."""

from __future__ import annotations

from repro.ir import BinaryOp, CFGBuilder, binop, const
from repro.mote import AlwaysNotTakenPredictor, BTFNPredictor, CpuModel


class TestPredictors:
    def test_not_taken_ignores_direction(self):
        p = AlwaysNotTakenPredictor()
        assert not p.predicts_taken(backward_target=True)
        assert not p.predicts_taken(backward_target=False)

    def test_btfn_follows_direction(self):
        p = BTFNPredictor()
        assert p.predicts_taken(backward_target=True)
        assert not p.predicts_taken(backward_target=False)


class TestCpuModel:
    def setup_method(self):
        self.cpu = CpuModel(
            predictor=AlwaysNotTakenPredictor(),
            jump_cycles=2,
            branch_base_cycles=1,
            taken_extra_cycles=1,
            mispredict_penalty_cycles=3,
        )

    def test_default_predictor_is_btfn(self):
        assert isinstance(CpuModel().predictor, BTFNPredictor)

    def test_not_taken_correct_prediction_is_cheap(self):
        assert self.cpu.branch_cost(taken=False, backward_target=False) == 1
        assert not self.cpu.predictor.predicts_taken(backward_target=False)

    def test_taken_with_not_taken_scheme_pays_both_penalties(self):
        assert self.cpu.branch_cost(taken=True, backward_target=False) == 1 + 1 + 3
        assert not self.cpu.predictor.predicts_taken(backward_target=False)

    def test_btfn_backward_taken_is_correct(self):
        cpu = CpuModel(predictor=BTFNPredictor())
        assert cpu.predictor.predicts_taken(backward_target=True)
        # Pays taken redirect but no mispredict refill.
        assert cpu.branch_cost(taken=True, backward_target=True) == (
            cpu.branch_base_cycles + cpu.taken_extra_cycles
        )

    def test_btfn_backward_not_taken_mispredicts(self):
        cpu = CpuModel(predictor=BTFNPredictor())
        assert cpu.predictor.predicts_taken(backward_target=True)
        assert cpu.branch_cost(taken=False, backward_target=True) == (
            cpu.branch_base_cycles + cpu.mispredict_penalty_cycles
        )

    def test_jump_cost_elided_on_fallthrough(self):
        assert self.cpu.jump_cost(fallthrough=True) == 0
        assert self.cpu.jump_cost(fallthrough=False) == 2

    def test_return_cost_comes_from_cost_model(self):
        assert self.cpu.return_cost() == self.cpu.cost_model.return_overhead

    def test_block_cycles_delegates_to_cost_model(self):
        b = CFGBuilder("p")
        b.emit(const("x", 1), const("y", 2), binop(BinaryOp.ADD, "z", "x", "y"))
        b.ret()
        proc = b.build()
        assert self.cpu.cost_model.block_cycles(proc.cfg.block(proc.cfg.entry)) == 3
