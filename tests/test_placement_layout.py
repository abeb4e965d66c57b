"""Tests for layouts, branch-site resolution, and baselines."""

from __future__ import annotations

import pytest

from repro.errors import PlacementError
from repro.lang import compile_source
from repro.placement import (
    Layout,
    ProgramLayout,
    random_program_layout,
    source_order_layout,
)

DIAMOND_SRC = """
proc main() {
    if (sense(a) > 100) {
        led(1);
    } else {
        led(2);
    }
    led(0);
}
"""


@pytest.fixture
def diamond_cfg():
    return compile_source(DIAMOND_SRC).procedure("main").cfg


class TestLayoutBasics:
    def test_source_order_keeps_insertion_order(self, diamond_cfg):
        layout = Layout.source_order(diamond_cfg)
        assert layout.order == diamond_cfg.labels

    def test_rejects_non_permutation(self, diamond_cfg):
        with pytest.raises(PlacementError, match="permutation"):
            Layout(diamond_cfg, diamond_cfg.labels[:-1])

    def test_rejects_entry_not_first(self, diamond_cfg):
        order = diamond_cfg.labels
        swapped = [order[1], order[0]] + order[2:]
        with pytest.raises(PlacementError, match="entry"):
            Layout(diamond_cfg, swapped)

    def test_position_and_next(self, diamond_cfg):
        layout = Layout.source_order(diamond_cfg)
        labels = layout.order
        assert layout.position(labels[0]) == 0
        assert layout.next_label(labels[0]) == labels[1]
        assert layout.next_label(labels[-1]) is None

    def test_unknown_label_raises(self, diamond_cfg):
        layout = Layout.source_order(diamond_cfg)
        with pytest.raises(PlacementError):
            layout.position("ghost")


class TestBranchResolution:
    def test_else_fallthrough_makes_then_taken(self, diamond_cfg):
        # Force the else target directly after the branch block.
        branch = diamond_cfg.branch_blocks()[0]
        term = branch.terminator
        rest = [
            l
            for l in diamond_cfg.labels
            if l not in (diamond_cfg.entry, term.else_target)
        ]
        order = [diamond_cfg.entry]
        if branch.label != diamond_cfg.entry:
            order.append(branch.label)
            rest.remove(branch.label)
        order.append(term.else_target)
        order.extend(rest)
        layout = Layout(diamond_cfg, order)
        site = layout.resolve_branch(branch.label)
        assert site.fallthrough_arm == "else"
        assert site.taken_arm == "then"
        assert site.extra_jump_arm is None
        assert site.arm_taken("then") and not site.arm_taken("else")

    def test_then_fallthrough_inverts_condition(self, diamond_cfg):
        branch = diamond_cfg.branch_blocks()[0]
        term = branch.terminator
        order = [diamond_cfg.entry]
        rest = [l for l in diamond_cfg.labels if l != diamond_cfg.entry]
        # entry IS the branch block in this program; then-target next.
        assert branch.label == diamond_cfg.entry
        rest.remove(term.then_target)
        order.append(term.then_target)
        order.extend(rest)
        layout = Layout(diamond_cfg, order)
        site = layout.resolve_branch(branch.label)
        assert site.fallthrough_arm == "then"
        assert site.taken_arm == "else"

    def test_no_fallthrough_needs_extra_jump(self, diamond_cfg):
        branch = diamond_cfg.branch_blocks()[0]
        term = branch.terminator
        # Put a block that is neither arm right after the branch.
        other = [
            l
            for l in diamond_cfg.labels
            if l not in (branch.label, term.then_target, term.else_target)
        ]
        assert other, "test program needs a neutral block"
        order = [branch.label, other[0], term.then_target, term.else_target]
        order += [l for l in diamond_cfg.labels if l not in order]
        layout = Layout(diamond_cfg, order)
        site = layout.resolve_branch(branch.label)
        assert site.fallthrough_arm is None
        assert site.extra_jump_arm == "else"
        assert site.taken_arm == "then"

    def test_backward_target_detection(self):
        prog = compile_source("proc main() { while (sense(a) > 900) { led(1); } }")
        cfg = prog.procedure("main").cfg
        layout = Layout.source_order(cfg)
        header = cfg.branch_blocks()[0]
        site = layout.resolve_branch(header.label)
        # Source order: header before body and exit -> taken target forward.
        assert not site.backward_taken_target

    def test_resolve_non_branch_raises(self, diamond_cfg):
        layout = Layout.source_order(diamond_cfg)
        ret_label = diamond_cfg.return_blocks()[0].label
        with pytest.raises(PlacementError):
            layout.resolve_branch(ret_label)

    def test_arm_taken_validates_arm(self, diamond_cfg):
        layout = Layout.source_order(diamond_cfg)
        site = layout.resolve_branch(diamond_cfg.branch_blocks()[0].label)
        with pytest.raises(PlacementError):
            site.arm_taken("sideways")

    def test_jump_elision(self, diamond_cfg):
        layout = Layout.source_order(diamond_cfg)
        for block in diamond_cfg:
            from repro.ir.instructions import Jump

            if isinstance(block.terminator, Jump):
                elided = layout.jump_is_elided(block.label)
                assert elided == (layout.next_label(block.label) == block.terminator.target)


class TestProgramLayout:
    def test_source_order_covers_all_procedures(self, demo_program):
        playout = source_order_layout(demo_program)
        for proc in demo_program:
            assert playout.layout(proc.name).order == proc.cfg.labels

    def test_missing_procedure_rejected(self, demo_program):
        with pytest.raises(PlacementError, match="missing"):
            ProgramLayout(demo_program, {})

    def test_extra_procedure_rejected(self, demo_program):
        layouts = {p.name: Layout.source_order(p.cfg) for p in demo_program}
        layouts["ghost"] = layouts[demo_program.entry]
        with pytest.raises(PlacementError, match="unknown"):
            ProgramLayout(demo_program, layouts)

    def test_random_layout_keeps_entry_first(self, demo_program):
        playout = random_program_layout(demo_program, rng=3)
        for proc in demo_program:
            assert playout.layout(proc.name).order[0] == proc.cfg.entry

    def test_random_layout_is_seeded(self, demo_program):
        a = random_program_layout(demo_program, rng=3)
        b = random_program_layout(demo_program, rng=3)
        for proc in demo_program:
            assert a.layout(proc.name).order == b.layout(proc.name).order


class TestLayoutIdentity:
    """Structural equality/hashing — layouts must survive recompilation and
    pickling without losing their identity (the LayoutRegistry keys on it)."""

    def test_equal_across_separately_compiled_cfgs(self):
        # Regression: object-identity equality made a layout rebuilt from the
        # same source (or unpickled) compare unequal to the original,
        # so the registry re-added layouts it already had.
        a = Layout.source_order(compile_source(DIAMOND_SRC).procedure("main").cfg)
        b = Layout.source_order(compile_source(DIAMOND_SRC).procedure("main").cfg)
        assert a.cfg is not b.cfg
        assert a == b
        assert hash(a) == hash(b)
        assert a.fingerprint() == b.fingerprint()
        assert len({a, b}) == 1

    def test_pickle_round_trip_preserves_identity(self, diamond_cfg):
        import pickle

        layout = Layout.source_order(diamond_cfg)
        clone = pickle.loads(pickle.dumps(layout))
        assert clone == layout
        assert hash(clone) == hash(layout)
        assert clone.fingerprint() == layout.fingerprint()

    def test_different_orders_are_unequal(self, diamond_cfg):
        base = Layout.source_order(diamond_cfg)
        order = list(base.order)
        swapped = [order[0], order[2], order[1]] + order[3:]
        other = Layout(diamond_cfg, swapped)
        assert other != base
        assert other.fingerprint() != base.fingerprint()

    def test_different_source_is_unequal(self, diamond_cfg):
        other_src = DIAMOND_SRC.replace("100", "200")
        other = Layout.source_order(
            compile_source(other_src).procedure("main").cfg
        )
        base = Layout.source_order(diamond_cfg)
        assert other.order == base.order  # same shape ...
        assert other != base  # ... different code

    def test_program_layout_fingerprint_is_structural(self, demo_program):
        a = source_order_layout(demo_program)
        b = source_order_layout(demo_program)
        assert a is not b
        assert a.fingerprint() == b.fingerprint()


class TestDegenerateBranch:
    """A branch whose arms name the same next-in-flash block transfers
    nothing: no taken direction exists and no mispredict can be charged."""

    @staticmethod
    def _degenerate_cfg():
        from repro.ir.cfg import CFG
        from repro.ir.instructions import Branch, Return

        cfg = CFG("top")
        cfg.new_block("top").close(Branch("c", "join", "join"))
        cfg.new_block("join").close(Return())
        return cfg

    def test_resolution_has_no_taken_arm(self):
        layout = Layout.source_order(self._degenerate_cfg())
        site = layout.resolve_branch("top")
        # Regression: the old resolution labelled the then arm taken, charging
        # a phantom taken transfer (and a mispredict under BTFN) per execution.
        assert site.taken_arm is None
        assert site.fallthrough_arm is None
        assert site.extra_jump_arm is None
        assert not site.arm_taken("then")
        assert not site.arm_taken("else")

    def test_analytic_metrics_charge_no_events(self):
        from repro.ir.procedure import Procedure
        from repro.ir.program import Program
        from repro.mote.platform import MICAZ_LIKE
        from repro.placement import evaluate_program_layout, source_order_layout

        proc = Procedure(name="deg", cfg=self._degenerate_cfg())
        program = Program(name="deg", entry="deg", procedures={"deg": proc})
        layout = source_order_layout(program)
        for p in (0.0, 0.3, 1.0):
            metrics = evaluate_program_layout(program, layout, {"deg": [p]}, MICAZ_LIKE)
            assert metrics.branches == pytest.approx(1.0)
            assert metrics.taken == 0.0
            assert metrics.mispredicts == 0.0

    def test_non_adjacent_same_target_still_resolves(self):
        # Same-target branch whose target is NOT next in flash: the branch
        # takes to it (then direction) and no extra jump block exists for the
        # else arm in this 2-block CFG -- the non-degenerate path applies.
        from repro.ir.cfg import CFG
        from repro.ir.instructions import Branch, Jump, Return

        cfg = CFG("top")
        cfg.new_block("top").close(Branch("c", "join", "join"))
        cfg.new_block("pad").close(Jump("join"))
        cfg.new_block("join").close(Return())
        layout = Layout(cfg, ["top", "pad", "join"])
        site = layout.resolve_branch("top")
        assert site.taken_arm == "then"
        assert site.extra_jump_arm == "else"
