"""Tests for the pauses/export CLI commands."""

import json

import pytest

from repro.analysis.pauses import pause_stats
from repro.cli import main
from repro.core.experiment import Experiment
from repro.core.simulation import MeasurementConfig
from repro.jvm.components import Component
from repro.spec import ScenarioSpec

#: A cell whose ``[run]`` section differs from the defaults.
RUN_SECTION_SPEC = """
[axes]
benchmark = "_202_jess"
collector = "GenCopy"
heap_mb = 32
input_scale = 0.1

[run]
repetitions = 3
warmup = false
"""


class TestPausesCommand:
    def test_output(self, capsys):
        code = main([
            "pauses", "_202_jess", "--heap", "32",
            "--input-scale", "0.2", "--collector", "SemiSpace",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pauses" in out
        assert "MMU" in out
        assert "window ms" in out


class TestSpecRunSection:
    """pauses and validate simulate the cell the spec describes,
    repetitions and warm-up included."""

    @pytest.fixture(scope="class")
    def spec_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("spec") / "reps.toml"
        path.write_text(RUN_SECTION_SPEC)
        return str(path)

    @pytest.fixture(scope="class")
    def sim(self, spec_path):
        config = ScenarioSpec.from_file(spec_path).experiment_config()
        assert config.repetitions == 3 and not config.warmup
        return Experiment(config).simulate()

    def test_pauses_honours_run_section(self, spec_path, sim, capsys):
        assert main(["pauses", "--spec", spec_path]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        stats = pause_stats(sim.run.timeline)
        assert first.endswith(": " + stats.describe())

    def test_validate_honours_run_section(self, spec_path, sim, capsys):
        assert main(["validate", "--spec", spec_path,
                     "--periods", "40", "1000"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        for row, period_us in zip(rows, (40, 1000), strict=True):
            report = Experiment(sim.config).measure(
                sim, MeasurementConfig(daq_period_s=period_us * 1e-6)
            ).attribution
            assert row.split() == [
                str(period_us),
                f"{100 * report.total_misattribution_fraction():.2f}",
                f"{100 * report.relative_error(Component.GC):.2f}",
            ]


class TestExportCommand:
    def test_writes_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "exp")
        code = main([
            "export", "_201_compress", "--heap", "32",
            "--input-scale", "0.2", "--collector", "MarkSweep",
            "--output", prefix,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out

        summary = json.loads((tmp_path / "exp.json").read_text())
        assert summary["config"]["benchmark"] == "_201_compress"
        assert summary["gc"]["collections"] > 0

        csv_text = (tmp_path / "exp.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == \
            "time_s,cpu_power_w,mem_power_w,component,window_s"
        assert len(csv_text.splitlines()) > 1000


class TestWorkloadCommand:
    def test_output(self, capsys):
        code = main(["workload", "_202_jess"])
        assert code == 0
        out = capsys.readouterr().out
        assert "_202_jess" in out
        assert "nursery survival" in out
        assert "live set" in out


class TestOverheadCommand:
    def test_frontier_table_and_artifact_reuse(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        argv = [
            "overhead", "--heap", "24", "--input-scale", "0.1",
            "--periods", "40", "400", "2000",
            "--artifact-dir", store,
            "--output", str(tmp_path / "frontier.json"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(simulated," in out
        assert "misattributed %" in out
        assert "3 measurements" in out

        frontier = json.loads((tmp_path / "frontier.json").read_text())
        assert len(frontier["points"]) == 3
        assert frontier["artifact_source"] == "simulated"
        periods = [p["period_us"] for p in frontier["points"]]
        assert periods == [40.0, 400.0, 2000.0]
        # Coarser sampling takes fewer DAQ samples.
        samples = [p["daq_samples"] for p in frontier["points"]]
        assert samples == sorted(samples, reverse=True)

        # Second invocation measures off the stored artifact.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(store," in out

    def test_one_acquisition_per_period(self, tmp_path, monkeypatch):
        # Each row's error columns come from the acquisition measure()
        # made for that row, not from a second DAQ pass.
        from repro.measurement.daq import DAQ

        acquired = []
        results = []
        acquire, measure = DAQ.acquire, Experiment.measure

        def counting_acquire(daq, *args, **kwargs):
            acquired.append(daq.sample_period_s)
            return acquire(daq, *args, **kwargs)

        def recording_measure(experiment, *args, **kwargs):
            results.append(measure(experiment, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(DAQ, "acquire", counting_acquire)
        monkeypatch.setattr(Experiment, "measure", recording_measure)
        out = tmp_path / "frontier.json"
        assert main([
            "overhead", "--heap", "24", "--input-scale", "0.1",
            "--periods", "40", "200", "1000", "10000",
            "--no-artifacts", "--output", str(out),
        ]) == 0
        assert acquired == pytest.approx([40e-6, 200e-6, 1e-3, 1e-2])
        points = json.loads(out.read_text())["points"]
        for point, result in zip(points, results, strict=True):
            report = result.attribution
            assert point["misattributed_pct"] == (
                100 * report.total_misattribution_fraction()
            )
            assert point["gc_error_pct"] == (
                100 * report.relative_error(Component.GC)
            )

    def test_no_artifacts_flag(self, capsys):
        assert main([
            "overhead", "--heap", "24", "--input-scale", "0.1",
            "--periods", "40",  "--no-artifacts",
        ]) == 0
        out = capsys.readouterr().out
        assert "(simulated," in out
        assert "artifact store:" not in out


class TestCacheArtifactStore:
    def test_stats_includes_artifact_store(self, tmp_path, capsys):
        assert main([
            "cache", "stats",
            "--cache-dir", str(tmp_path / "cells"),
            "--result-dir", str(tmp_path / "results"),
            "--artifact-dir", str(tmp_path / "artifacts"),
        ]) == 0
        out = capsys.readouterr().out
        assert "artifact store" in out
