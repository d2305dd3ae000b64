"""Tests for ASCII figure rendering."""

import pytest

from repro.analysis.figures import sparkline
from repro.errors import ConfigurationError


class TestSparkline:
    def test_length_preserved(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_downsampling(self):
        assert len(sparkline(list(range(100)), width=20)) == 20

    def test_monotone_ramp(self):
        strip = sparkline([0, 1, 2, 3, 4, 5])
        assert strip[0] == " "
        assert strip[-1] == "@"

    def test_constant_sequence(self):
        assert sparkline([3, 3, 3]) == "   "

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            sparkline([])
