"""Execution-engine performance harness.

Measures the two numbers PR 3's batched engine is accountable for and
writes them to ``BENCH_engine.json``:

* **segments/sec** — a scheduler microbenchmark: one long activity split
  into tens of thousands of chunks (``max_chunk_s=20 us``), the regime
  the vectorized path exists for.  Reported for both engines.
* **end-to-end wall time** — a full ``repro run`` equivalent
  (``_213_javac`` on jikes/p6 at half input scale) under the default
  (batched) engine.
* **amortized sweep speedup** — a 4-point DAQ-period sweep run both
  ways: fused (every point re-simulates, the pre-split behavior) and
  split (one simulate phase, N measure phases off its artifact).  The
  ratio is the split pipeline's accountability number; it is a
  same-machine ratio, so it gates robustly on shared runners.

Every comparison the harness prints is between two numbers measured in
the same run on the same machine: batched vs. legacy segments/sec, and
the split vs. the fused sweep.  Absolute times do not compare across
machines.  ``scripts/check_perf.py`` gates the output against the
``gate`` section of ``baseline.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_engine.py
    PYTHONPATH=src python benchmarks/perf/bench_engine.py \
        --output BENCH_engine.json --repeats 5
"""

import argparse
import json
import time
from pathlib import Path

MICRO_CHUNK_S = 2e-5
MICRO_INSTRUCTIONS = 2_000_000_000

E2E_CONFIG = dict(
    benchmark="_213_javac", vm="jikes", platform="p6",
    heap_mb=32, input_scale=0.5, seed=42,
)

#: DAQ periods of the amortized-sweep benchmark (the `repro overhead`
#: defaults): 40 us is the paper's DAQ, the rest walk the
#: accuracy-vs-overhead frontier.
SWEEP_PERIODS_S = (40e-6, 200e-6, 1e-3, 1e-2)


def _microbench_once(engine):
    from repro.hardware.activity import Activity
    from repro.hardware.cache import MemoryBehavior
    from repro.hardware.platform import make_platform
    from repro.jvm.components import Component
    from repro.jvm.scheduler import InstrumentedScheduler
    from repro.units import KB, MB

    platform = make_platform("p6")
    sched = InstrumentedScheduler(
        platform, max_chunk_s=MICRO_CHUNK_S, engine=engine
    )
    activity = Activity(
        component=int(Component.APP),
        instructions=MICRO_INSTRUCTIONS,
        behavior=MemoryBehavior(
            footprint_bytes=4 * MB, hot_bytes=256 * KB,
            locality=0.8, spatial_factor=0.5,
        ),
        refs_per_instr=0.3,
        l1_miss_rate=0.03,
    )
    start = time.perf_counter()
    sched.execute(activity)
    elapsed = time.perf_counter() - start
    return len(sched.timeline), elapsed


def microbench(engine, repeats):
    """Best segments/sec over *repeats* runs (max is the least noisy
    estimator of the machine's attainable rate)."""
    best = 0.0
    segments = 0
    for _ in range(repeats):
        segments, elapsed = _microbench_once(engine)
        best = max(best, segments / elapsed)
    return {"segments": segments, "segments_per_sec": round(best, 1)}


def e2e(repeats):
    """Best wall time for one full experiment under the default engine."""
    from repro.core.experiment import run_experiment

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_experiment(**E2E_CONFIG)
        best = min(best, time.perf_counter() - start)
    return {"config": E2E_CONFIG, "wall_s": round(best, 4)}


def sweep(repeats):
    """Best wall time for a DAQ-period sweep, fused vs split.

    Fused runs ``Experiment.run()`` once per period (simulate + measure
    every time); split simulates once, snapshots the artifact, and
    measures it once per period.  Both produce byte-identical cell
    exports (tests/campaign/test_sim_sharing.py), so the ratio is pure
    overhead, not a fidelity trade.
    """
    from dataclasses import replace as dc_replace

    from repro.core.experiment import Experiment, ExperimentConfig
    from repro.core.simulation import MeasurementConfig

    config = ExperimentConfig(**E2E_CONFIG)
    fused = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for period_s in SWEEP_PERIODS_S:
            Experiment(dc_replace(config, daq_period_s=period_s)).run()
        fused = min(fused, time.perf_counter() - start)
    split = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        experiment = Experiment(config)
        artifact = experiment.simulate().artifact()
        for period_s in SWEEP_PERIODS_S:
            experiment.measure(
                artifact, MeasurementConfig(daq_period_s=period_s)
            )
        split = min(split, time.perf_counter() - start)
    return {
        "periods_us": [round(p * 1e6, 1) for p in SWEEP_PERIODS_S],
        "config": E2E_CONFIG,
        "fused_wall_s": round(fused, 4),
        "split_wall_s": round(split, 4),
        "amortized_speedup": round(fused / split, 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_engine.json",
                        help="result file (default: ./BENCH_engine.json)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="measurement repeats, best-of (default 5)")
    args = parser.parse_args(argv)

    results = {
        "schema": "repro-bench-engine-v1",
        "microbench": {
            "max_chunk_s": MICRO_CHUNK_S,
            "instructions": MICRO_INSTRUCTIONS,
            "repeats": args.repeats,
            "batched": microbench("batched", args.repeats),
            "legacy": microbench("legacy", args.repeats),
        },
        "e2e": {"repeats": args.repeats, **e2e(args.repeats)},
        "sweep": {"repeats": args.repeats, **sweep(args.repeats)},
    }
    micro = results["microbench"]
    rate = micro["batched"]["segments_per_sec"]
    legacy = micro["legacy"]["segments_per_sec"]
    micro["batched_over_legacy"] = round(rate / legacy, 2)

    out = Path(args.output)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"segments/sec  batched: {rate:>12,.0f}")
    print(f"segments/sec   legacy: {legacy:>12,.0f}  "
          f"(batched/legacy {micro['batched_over_legacy']}x)")
    print(f"e2e wall             : {results['e2e']['wall_s']:>9.3f} s")
    sw = results["sweep"]
    print(f"sweep ({len(SWEEP_PERIODS_S)} DAQ periods)  "
          f"fused: {sw['fused_wall_s']:>7.3f} s  "
          f"split: {sw['split_wall_s']:>7.3f} s  "
          f"(fused/split {sw['amortized_speedup']}x)")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
