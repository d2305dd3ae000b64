"""Tests for trace containers and their aggregations."""

import math

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measurement.traces import PerfTrace, PowerTrace


def make_power_trace():
    period = 40e-6
    # 100 samples of component 0 at 14 W, 50 of component 1 at 12 W.
    component = np.array([0] * 100 + [1] * 50, dtype=np.int16)
    cpu = np.where(component == 0, 14.0, 12.0)
    mem = np.full(150, 0.5)
    times = np.arange(150) * period
    return PowerTrace(
        times_s=times, cpu_power_w=cpu, mem_power_w=mem,
        component=component, sample_period_s=period,
    )


class TestPowerTrace:
    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            PowerTrace(
                times_s=np.array([]), cpu_power_w=np.array([]),
                mem_power_w=np.array([]), component=np.array([]),
                sample_period_s=40e-6,
            )

    def test_duration(self):
        trace = make_power_trace()
        assert trace.duration_s == pytest.approx(150 * 40e-6)

    def test_total_energy(self):
        trace = make_power_trace()
        expected = (100 * 14.0 + 50 * 12.0) * 40e-6
        assert trace.cpu_energy_j() == pytest.approx(expected)

    def test_component_energy_split(self):
        trace = make_power_trace()
        split = trace.component_cpu_energy_j()
        assert split[0] == pytest.approx(100 * 14.0 * 40e-6)
        assert split[1] == pytest.approx(50 * 12.0 * 40e-6)

    def test_component_energy_sums_to_total(self):
        trace = make_power_trace()
        assert sum(trace.component_cpu_energy_j().values()) == (
            pytest.approx(trace.cpu_energy_j())
        )

    def test_avg_and_peak(self):
        trace = make_power_trace()
        assert trace.component_avg_power_w()[0] == pytest.approx(14.0)
        assert trace.component_peak_power_w()[1] == pytest.approx(12.0)
        assert trace.peak_power_w() == pytest.approx(14.0)

    def test_component_seconds(self):
        trace = make_power_trace()
        assert trace.component_seconds()[1] == pytest.approx(
            50 * 40e-6
        )

    def test_components_present(self):
        assert make_power_trace().components_present() == [0, 1]

    def test_mem_energy(self):
        trace = make_power_trace()
        assert trace.mem_energy_j() == pytest.approx(
            150 * 0.5 * 40e-6
        )


class TestOnePassAggregation:
    """The one-pass per-component figures against a per-mask
    reference: sums agree to a tolerance fixed by float64 rounding over
    a few thousand terms, counts and peaks exactly."""

    @pytest.fixture
    def trace(self):
        rng = np.random.default_rng(5)
        n = 5000  # several summation blocks, one of them partial
        # Negative and non-contiguous IDs: a glitching port can latch
        # anything.
        component = rng.choice(
            np.array([-2, 0, 1, 4], dtype=np.int16), size=n
        )
        window = np.full(n, 40e-6)
        window[-1] = 13e-6
        return PowerTrace(
            times_s=np.cumsum(window), cpu_power_w=rng.normal(14, 2, n),
            mem_power_w=rng.normal(0.5, 0.1, n), component=component,
            sample_period_s=40e-6, window_s=window,
        )

    def test_matches_per_component_masks(self, trace):
        cids = sorted(int(c) for c in set(trace.component.tolist()))
        assert trace.components_present() == cids
        masks = {cid: trace.component == cid for cid in cids}
        cpu_j = trace.cpu_power_w * trace.window_s
        mem_j = trace.mem_power_w * trace.window_s
        expected = {
            "component_cpu_energy_j": {
                c: math.fsum(cpu_j[m]) for c, m in masks.items()},
            "component_mem_energy_j": {
                c: math.fsum(mem_j[m]) for c, m in masks.items()},
            "component_seconds": {
                c: math.fsum(trace.window_s[m]) for c, m in masks.items()},
            "component_avg_power_w": {
                c: math.fsum(trace.cpu_power_w[m]) / m.sum()
                for c, m in masks.items()},
        }
        for method, want in expected.items():
            got = getattr(trace, method)()
            assert list(got) == cids
            for cid in cids:
                assert got[cid] == pytest.approx(want[cid], rel=1e-13)
        assert trace.component_peak_power_w() == {
            c: float(trace.cpu_power_w[m].max()) for c, m in masks.items()
        }
        assert trace.cpu_energy_j() == pytest.approx(
            math.fsum(cpu_j), rel=1e-13)

    def test_results_are_fresh_copies(self, trace):
        first = trace.component_cpu_energy_j()
        first.clear()
        assert trace.component_cpu_energy_j()


class TestPerfTrace:
    def make(self):
        return PerfTrace(
            sample_period_s=1e-3,
            n_samples=100,
            component_samples={0: 80, 1: 20},
            component_cycles={0: 8e6, 1: 2e6},
            component_instructions={0: 6.4e6, 1: 1.0e6},
            component_l2_accesses={0: 1e5, 1: 8e4},
            component_l2_misses={0: 1.1e4, 1: 4.4e4},
        )

    def test_ipc(self):
        trace = self.make()
        ipc = trace.component_ipc()
        assert ipc[0] == pytest.approx(0.8)
        assert ipc[1] == pytest.approx(0.5)

    def test_l2_miss_rate(self):
        trace = self.make()
        miss = trace.component_l2_miss_rate()
        assert miss[0] == pytest.approx(0.11)
        assert miss[1] == pytest.approx(0.55)

    def test_time_share(self):
        trace = self.make()
        share = trace.component_time_share()
        assert share[0] == pytest.approx(0.8)
        assert share[1] == pytest.approx(0.2)

    def test_zero_division_guards(self):
        trace = PerfTrace(
            sample_period_s=1e-3, n_samples=1,
            component_samples={0: 1},
            component_cycles={0: 0},
            component_instructions={0: 0},
            component_l2_accesses={0: 0},
            component_l2_misses={0: 0},
        )
        assert trace.component_ipc()[0] == 0.0
        assert trace.component_l2_miss_rate()[0] == 0.0

    def test_empty_time_share_rejected(self):
        trace = PerfTrace(
            sample_period_s=1e-3, n_samples=0,
            component_samples={}, component_cycles={},
            component_instructions={}, component_l2_accesses={},
            component_l2_misses={},
        )
        with pytest.raises(MeasurementError):
            trace.component_time_share()
