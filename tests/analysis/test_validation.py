"""Tests for measurement-vs-ground-truth validation."""

import pytest

from repro.analysis.validation import AttributionReport
from repro.core.experiment import Experiment, ExperimentConfig
from repro.core.simulation import MeasurementConfig, SimulationResult
from repro.hardware.platform import make_platform
from repro.jvm.components import Component
from repro.jvm.vm import JikesRVM

from tests.conftest import make_tiny_spec


@pytest.fixture(scope="module")
def attribution():
    """``attribution(period_s)``: the attribution report of one
    ``measure()`` of a single recorded run at that DAQ period."""
    platform = make_platform("p6")
    vm = JikesRVM(platform, heap_mb=24, seed=21, n_slices=40)
    run = vm.run(make_tiny_spec())
    config = ExperimentConfig(benchmark=run.benchmark, heap_mb=24,
                              seed=21, n_slices=40)
    sim = SimulationResult(config=config, run=run, platform=platform)

    def measure(period_s=40e-6):
        return Experiment(config).measure(
            sim, MeasurementConfig(daq_period_s=period_s)
        ).attribution

    return measure


class TestReport:
    def test_relative_error(self):
        report = AttributionReport(
            sample_period_s=40e-6,
            true_energy_j={0: 100.0, 1: 10.0},
            measured_energy_j={0: 102.0, 1: 8.0},
        )
        assert report.relative_error(0) == pytest.approx(0.02)
        assert report.relative_error(1) == pytest.approx(0.2)

    def test_misattribution_fraction(self):
        report = AttributionReport(
            sample_period_s=40e-6,
            true_energy_j={0: 90.0, 1: 10.0},
            measured_energy_j={0: 95.0, 1: 5.0},
        )
        assert report.total_misattribution_fraction() == (
            pytest.approx(0.05)
        )

    def test_zero_truth_guard(self):
        report = AttributionReport(
            sample_period_s=40e-6,
            true_energy_j={}, measured_energy_j={},
        )
        assert report.relative_error(0) == 0.0
        assert report.total_misattribution_fraction() == 0.0


class TestAttribution:
    def test_40us_attribution_is_accurate(self, attribution):
        # The paper's claim: with component durations of hundreds of
        # microseconds, 40 us sampling captures the important behavior.
        report = attribution()
        assert report.total_misattribution_fraction() < 0.05
        assert report.relative_error(Component.GC) < 0.15

    def test_coarse_sampling_degrades_attribution(self, attribution):
        fine = attribution(40e-6)
        coarse = attribution(10e-3)
        assert (
            coarse.total_misattribution_fraction()
            > fine.total_misattribution_fraction()
        )

    def test_total_energy_conserved(self, attribution):
        report = attribution()
        assert sum(report.measured_energy_j.values()) == pytest.approx(
            sum(report.true_energy_j.values()), rel=0.02
        )


class TestResultAttribution:
    def test_report_is_the_measurements_own(self):
        from repro.core.experiment import run_experiment
        from repro.export import result_to_dict

        result = run_experiment("_202_jess", heap_mb=32, input_scale=0.1)
        report = result.attribution
        assert report is result.attribution  # memoized
        assert report.sample_period_s == result.config.daq_period_s
        assert report.measured_energy_j == (
            result.power.component_cpu_energy_j()
        )
        assert "attribution" not in result_to_dict(result)
