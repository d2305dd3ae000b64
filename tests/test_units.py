"""Tests for unit helpers."""

import pytest

from repro import units


class TestConversions:
    def test_byte_helpers(self):
        assert units.mb(2) == 2 * 1024 * 1024
        assert units.kb(3) == 3072
        assert units.mb(0.5) == 512 * 1024

    def test_cycles_seconds_round_trip(self):
        cycles = units.seconds_to_cycles(0.125, 1.6e9)
        assert cycles == 200_000_000
        assert units.cycles_to_seconds(cycles, 1.6e9) == (
            pytest.approx(0.125)
        )

    def test_joules(self):
        assert units.joules(12.5, 2.0) == pytest.approx(25.0)

    def test_paper_constants(self):
        assert units.DAQ_SAMPLE_PERIOD_S == pytest.approx(40e-6)
        assert units.HPM_PERIOD_P6_S == pytest.approx(1e-3)
        assert units.HPM_PERIOD_PXA255_S == pytest.approx(10e-3)

