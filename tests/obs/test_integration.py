"""End-to-end observability tests against real experiment runs.

The two load-bearing guarantees:

* a traced run produces spans on **both clocks** — simulated-clock
  component/GC/compiler spans and wall-clock phase spans — and a valid
  Chrome trace;
* tracing is **write-only**: the traced run's energy/EDP metrics are
  byte-identical (``float.hex``) to the untraced run's.
"""

import pytest

from repro.core.experiment import run_experiment
from repro.core.report import render_perturbation
from repro.export import result_to_dict
from repro.obs import Observability
from repro.obs.chrome import load_trace, write_chrome_trace
from repro.obs.tracer import SIM_CLOCK, WALL_CLOCK

CONFIG = dict(benchmark="_202_jess", heap_mb=32, seed=7,
              input_scale=0.2)


@pytest.fixture(scope="module")
def traced():
    obs = Observability.create(trace=True, metrics=True)
    result = run_experiment(obs=obs, **CONFIG)
    return result, obs


@pytest.fixture(scope="module")
def untraced():
    return run_experiment(**CONFIG)


class TestDeterminism:
    def test_tracing_does_not_change_results(self, traced, untraced):
        result, _ = traced
        for attr in ("duration_s", "cpu_energy_j", "mem_energy_j",
                     "edp"):
            assert (getattr(result, attr).hex()
                    == getattr(untraced, attr).hex()), attr

    def test_component_profiles_identical(self, traced, untraced):
        result, _ = traced
        a = result.profiles()
        b = untraced.profiles()
        assert set(a) == set(b)
        for comp in a:
            assert a[comp].energy_j.hex() == b[comp].energy_j.hex()


class TestSpans:
    def test_wall_clock_phase_spans(self, traced):
        _, obs = traced
        names = {s.name for s in obs.tracer.spans_on(WALL_CLOCK,
                                                     "phases")}
        assert {"experiment", "setup", "vm-run", "daq-acquire",
                "hpm-sample", "decompose"} <= names

    def test_sim_clock_component_spans(self, traced):
        _, obs = traced
        comps = obs.tracer.spans_on(SIM_CLOCK, "components")
        assert comps
        names = {s.name for s in comps}
        assert "App" in names and "GC" in names
        # coalesced spans tile the run without overlapping
        ordered = sorted(comps, key=lambda s: s.start_s)
        for prev, cur in zip(ordered, ordered[1:]):
            assert cur.start_s >= prev.end_s - 1e-9

    def test_gc_and_compiler_spans_match_counters(self, traced):
        result, obs = traced
        gc_spans = obs.tracer.spans_on(SIM_CLOCK, "gc")
        assert len(gc_spans) == obs.metrics.counter("gc.cycles").value
        assert len(gc_spans) > 0
        opt = obs.tracer.spans_on(SIM_CLOCK, "compiler")
        assert len(opt) == (
            obs.metrics.counter("compiler.opt_compiles").value
        )

    def test_perturbation_spans_match_port_writes(self, traced):
        result, obs = traced
        pw = obs.tracer.spans_on(SIM_CLOCK, "perturbation")
        assert len(pw) == result.run.port_writes
        assert (obs.metrics.counter("scheduler.port_writes").value
                == result.run.port_writes)

    def test_pipeline_counters_populated(self, traced):
        _, obs = traced
        m = obs.metrics
        assert m.counter("scheduler.segments_emitted").value > 0
        assert m.counter("daq.samples").value > 0
        assert m.counter("daq.samples_attributed").value > 0
        assert m.counter("hpm.samples").value > 0
        assert m.histogram("gc.pause_s").count > 0

    def test_chrome_export_is_valid(self, traced, tmp_path):
        _, obs = traced
        path = tmp_path / "trace.json"
        write_chrome_trace(path, obs.tracer, obs.metrics)
        events = load_trace(path)
        xs = [e for e in events if e.get("ph") == "X"]
        for event in xs:
            for key in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert key in event
        # both clocks present as distinct process rows
        assert {e["pid"] for e in xs} == {1, 2}


class TestPerturbationReport:
    def test_first_class_field(self, traced):
        result, _ = traced
        report = result.perturbation
        assert report.port_writes == result.run.port_writes
        assert report.instructions == 30 * report.port_writes
        assert report.seconds > 0
        assert 0.0 < report.time_fraction < 0.01
        assert 0.0 < report.energy_fraction < 0.01
        assert report.energy_j == pytest.approx(
            report.cpu_energy_j + report.mem_energy_j
        )

    def test_identical_with_and_without_tracing(self, traced,
                                                untraced):
        result, _ = traced
        assert (result.perturbation.as_dict()
                == untraced.perturbation.as_dict())

    def test_in_export_and_report(self, traced):
        result, _ = traced
        data = result_to_dict(result)
        pert = data["instrumentation"]["perturbation"]
        assert pert["port_writes"] == result.run.port_writes
        text = render_perturbation(result.perturbation)
        assert "port writes" in text
        assert "%" in text


class TestCampaignObservability:
    def cells(self):
        from repro.core.experiment import ExperimentConfig

        return [
            ExperimentConfig(benchmark="_202_jess", heap_mb=heap,
                             seed=7, input_scale=0.1)
            for heap in (24, 32)
        ]

    def test_trace_dir_and_summary(self, tmp_path):
        from repro.campaign.runner import CampaignRunner

        obs = Observability.create(trace=True, metrics=True)
        runner = CampaignRunner(obs=obs,
                                trace_dir=tmp_path / "traces")
        result = runner.run(self.cells())
        summary = result.summary
        assert summary.n_ok == 2
        assert summary.mean_cell_wall_s > 0
        assert summary.max_cell_wall_s >= summary.mean_cell_wall_s
        assert summary.n_retried == 0 and summary.n_retries == 0
        assert "per-cell wall mean" in summary.describe()
        # per-cell traces written by the workers
        for i in range(2):
            events = load_trace(tmp_path / "traces"
                                / f"cell-{i:04d}.json")
            assert any(e.get("ph") == "X" for e in events)
        # campaign-level wall spans and counters
        cells = obs.tracer.spans_on(WALL_CLOCK, "cells")
        assert len(cells) == 2
        assert obs.metrics.counter("campaign.cells").value == 2
        assert obs.metrics.histogram("campaign.cell_wall_s").count == 2

    def test_cache_hit_miss_counters(self, tmp_path):
        from repro.campaign.cache import ResultCache
        from repro.campaign.runner import CampaignRunner

        cells = self.cells()
        cache_dir = tmp_path / "cache"
        first = Observability.create(trace=False, metrics=True)
        CampaignRunner(cache=ResultCache(cache_dir), obs=first).run(cells)
        assert first.metrics.counter("campaign.cache_misses").value == 2
        assert first.metrics.counter("campaign.cache_hits").value == 0

        second = Observability.create(trace=False, metrics=True)
        result = CampaignRunner(cache=ResultCache(cache_dir),
                                obs=second).run(cells)
        assert second.metrics.counter("campaign.cache_hits").value == 2
        assert result.summary.n_cached == 2
        assert result.summary.cache_hit_rate == 1.0
