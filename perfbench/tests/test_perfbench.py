"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import stats, tracing, workloads  # noqa: E402


# -- generators ------------------------------------------------------

def test_cell_order_is_deterministic_per_seed():
    assert workloads.cell_cycle(7, 3) == workloads.cell_cycle(7, 3)
    assert sorted(workloads.cell_cycle(7, 3)) == list(
        range(len(workloads.CELL_MENU)))
    assert [workloads.cell_cycle(7, i) for i in range(4)] != [
        workloads.cell_cycle(8, i) for i in range(4)]


def test_bootstrap_input_is_deterministic_per_seed():
    assert workloads.bootstrap_config(3) == workloads.bootstrap_config(3)
    assert workloads.bootstrap_config(3) != workloads.bootstrap_config(4)


def _round_ids(seed, client, index):
    return [(kind, arg.spec_hash() if kind == "miss" else arg)
            for kind, arg in workloads.serve_round(seed, client, index)]


def test_serve_schedule_is_deterministic_per_seed():
    assert _round_ids(5, 0, 2) == _round_ids(5, 0, 2)
    assert _round_ids(5, 0, 2) != _round_ids(6, 0, 2)
    assert _round_ids(5, 0, 2) != _round_ids(5, 1, 2)


def test_serve_schedule_hits_repeat_completed_misses_only():
    seen = set()
    for client in range(workloads.SERVE_CLIENTS):
        misses = 0
        for index in range(6):
            ops = workloads.serve_round(11, client, index)
            kinds = [kind for kind, _ in ops]
            assert kinds.count("hit") / len(kinds) == pytest.approx(0.6)
            for kind, arg in ops:
                if kind == "hit":
                    assert 0 <= arg < misses
                else:
                    seed = arg.seeds[0]
                    assert seed not in seen  # every miss is a new spec
                    seen.add(seed)
                    misses += 1


# -- tracing ---------------------------------------------------------

class _Clock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_of_nested_spans(monkeypatch):
    monkeypatch.setattr(tracing, "_now", _Clock(0.0, 0.0, 1.0, 3.0, 4.0,
                                                 4.5, 10.0))
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)                       # inner: 1 .. 3
    leaf = tracer.begin("inner", keep=False)
    tracer.end(leaf)                        # inner: 4 .. 4.5
    tracer.end(outer)                       # outer: 0 .. 10
    stats = tracer.stats
    assert stats["inner"] == [2, pytest.approx(2.5), pytest.approx(2.5)]
    assert stats["outer"] == [1, pytest.approx(10.0), pytest.approx(7.5)]
    kept = {span[0]: span for span in tracer.spans}
    assert len(tracer.spans) == 2           # keep=False is not kept
    assert kept["inner"][4] == kept["outer"][3]  # parent link


def test_wrapped_functions_nest_and_restore():
    class Layer:
        def leaf(self):
            return "leaf"

        def outer(self):
            return self.leaf() + "+outer"

    module = type(sys)("perfbench_test_layer")
    module.Layer = Layer
    sys.modules[module.__name__] = module
    hooks = (tracing.Hook("t.outer", module.__name__, "Layer.outer"),
             tracing.Hook("t.leaf", module.__name__, "Layer.leaf"),
             tracing.Hook("t.gone", module.__name__, "Layer.missing"))
    original = Layer.__dict__["outer"]
    tracer = tracing.Tracer()
    try:
        installed = tracing.Installation(tracer, hooks)
        assert Layer().outer() == "leaf+outer"
        installed.remove()
    finally:
        del sys.modules[module.__name__]
    assert Layer.__dict__["outer"] is original
    assert installed.missing == [f"{module.__name__}:Layer.missing"]
    stats = tracer.stats
    assert stats["t.outer"][0] == stats["t.leaf"][0] == 1
    assert stats["t.outer"][2] == pytest.approx(
        stats["t.outer"][1] - stats["t.leaf"][1])


def test_every_program_hook_resolves():
    installed = tracing.Installation(tracing.Tracer())
    installed.remove()
    assert installed.missing == []


def test_worker_export_merges_into_parent():
    worker = tracing.Tracer()
    with worker.span("a"):
        pass
    worker.count("c", 2)
    worker.gauge_max("g", 3)
    parent = tracing.Tracer()
    with parent.span("a"):
        pass
    parent.merge(worker.export())
    assert parent.calls("a") == 2
    assert parent.counters["c"] == 2
    assert parent.maxima["g"] == 3
    assert len(parent.spans) == 2


# -- reporting rule ---------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.reportable(100, 90)
    assert not stats.reportable(90, 90)
    assert stats.tail(list(range(19))) is None
    assert stats.tail(list(range(100)))[0] == 90
    assert stats.tail(list(range(1000)))[0] == 99
    assert stats.tail(list(range(10000)))[0] == 99.9
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert "no tail percentile" in stats.describe([1.0] * 50)


# -- BENCHMARK.json ----------------------------------------------------

def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_each_workload_why_is_recorded():
    recorded = {w["name"]: w["why"] for w in _benchmark()["workloads"]}
    assert recorded == {name: cls.why
                        for name, cls in workloads.WORKLOADS.items()}


def test_per_layer_metrics_match_the_tracer():
    names = [m["name"] for m in _benchmark()["per_layer"]]
    assert names == [m.name for m in tracing.LAYER_METRICS] + [
        "trace.overhead_pct"]
    assert all(m.moves for m in tracing.LAYER_METRICS)


def test_end_to_end_metrics_include_setup():
    e2e = {m["name"]: m for m in _benchmark()["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
