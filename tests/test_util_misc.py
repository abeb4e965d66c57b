"""Tests for RNG plumbing, table rendering, and validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.rng import as_rng, spawn_rngs
from repro.util.tables import Table, format_float


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert as_rng(gen) is gen

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            as_rng(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            as_rng("seed")  # type: ignore[arg-type]


class TestSpawnRngs:
    def test_spawns_requested_count(self):
        children = spawn_rngs(7, 4)
        assert len(children) == 4

    def test_children_are_independent_and_deterministic(self):
        a = [g.random() for g in spawn_rngs(7, 3)]
        b = [g.random() for g in spawn_rngs(7, 3)]
        assert a == b
        assert len(set(a)) == 3  # distinct streams

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestFormatFloat:
    def test_zero(self):
        assert format_float(0.0) == "0"

    def test_midrange_trims_trailing_zeros(self):
        assert format_float(2.5000) == "2.5"

    def test_small_uses_scientific(self):
        assert "e" in format_float(1e-7)

    def test_large_uses_scientific(self):
        assert "e" in format_float(5e9)


class TestTable:
    def test_render_contains_header_and_rows(self):
        t = Table("demo", ["name", "value"])
        t.add_row("x", 1.5)
        text = t.render()
        assert "demo" in text
        assert "name" in text
        assert "1.5" in text

    def test_row_width_mismatch_raises(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_column_lookup(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("b") == ["2", "4"]

    def test_unknown_column_raises(self):
        t = Table("demo", ["a"])
        with pytest.raises(KeyError):
            t.column("zzz")

    def test_bool_cells_render_as_yes_no(self):
        t = Table("demo", ["flag"])
        t.add_row(True)
        t.add_row(False)
        assert t.column("flag") == ["yes", "no"]

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("demo", [])

    def test_extend(self):
        t = Table("demo", ["a"])
        t.extend([[1], [2]])
        assert len(t.rows) == 2
