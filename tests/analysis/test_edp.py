"""Tests for the EDP sweep container and helpers."""

import pytest

from repro.analysis.edp import (
    EDPSweep,
    JIKES_HEAPS_MB,
    PXA255_HEAPS_MB,
)


def make_sweep():
    sweep = EDPSweep()
    data = {
        ("javac", "SemiSpace", 32): 400.0,
        ("javac", "SemiSpace", 48): 180.0,
        ("javac", "SemiSpace", 128): 120.0,
        ("javac", "GenMS", 32): 120.0,
        ("javac", "GenMS", 48): 110.0,
        ("javac", "GenMS", 128): 105.0,
    }
    for (bench, coll, heap), value in data.items():
        sweep.add(bench, coll, heap, value)
    return sweep


class TestHeapLadders:
    def test_jikes_ladder_matches_paper(self):
        # Section IV-A: 32, 48, 64, 80, 96, 112, 128 MB.
        assert JIKES_HEAPS_MB == (32, 48, 64, 80, 96, 112, 128)

    def test_pxa255_ladder_matches_paper(self):
        # Section VI-E: 12, 16, 20, 24, 28, 32 MB.
        assert PXA255_HEAPS_MB == (12, 16, 20, 24, 28, 32)


class TestSweep:
    def test_series(self):
        sweep = make_sweep()
        series = sweep.series("javac", "SemiSpace")
        assert series == [(32, 400.0), (48, 180.0), (128, 120.0)]

    def test_improvement(self):
        sweep = make_sweep()
        drop = sweep.improvement("javac", "SemiSpace", 32, 48)
        assert drop == pytest.approx(1 - 180.0 / 400.0)

    def test_collector_gap(self):
        sweep = make_sweep()
        gap = sweep.collector_gap("javac", "GenMS", "SemiSpace", 32)
        assert gap == pytest.approx(1 - 120.0 / 400.0)

    def test_best_collector(self):
        sweep = make_sweep()
        assert sweep.best_collector(
            "javac", 32, ("SemiSpace", "GenMS")
        ) == "GenMS"

    def test_crossover_detection(self):
        sweep = make_sweep()
        heap = sweep.crossover_heap(
            "javac", "GenMS", "SemiSpace", (32, 48, 128),
            tolerance=0.2,
        )
        assert heap == 128

    def test_no_crossover_returns_none(self):
        sweep = make_sweep()
        assert sweep.crossover_heap(
            "javac", "GenMS", "SemiSpace", (32, 48), tolerance=0.01
        ) is None

    def test_missing_point_is_infinite(self):
        sweep = make_sweep()
        assert sweep.edp("javac", "GenCopy", 32) == float("inf")
