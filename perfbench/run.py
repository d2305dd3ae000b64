"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cells --seed 1 --seconds 30 --trace 0

``--trace 0`` times an untraced closed loop and reports the end-to-end
metrics; ``--trace 1`` runs the loop untraced for half the time, then
traced for the other half, and reports the per-layer metrics of the
traced half plus the tracing overhead (the gap between the halves).
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The span trace of a traced run is written to
``.perfbench_out/trace-<workload>.json``.

Every workload reports the same end-to-end metrics, each per operation
of that workload (a cell, a bootstrap report, a service job):
``ops_per_s``, ``op_s_p50``, ``setup_s`` (median of
:data:`SETUP_SAMPLES` set-ups, each in a fresh process: imports, the
workload's state, one untimed warm-up op) and ``peak_rss_mb`` (the
benchmark process plus its service workers).  Host times of the serial
workloads are expressed at a nominal machine speed measured alongside
(:mod:`perfbench.calibration`).  The workload's own names for the
figures (``cells_per_s``, ``report_s`` p50, ``hit_s`` p90 ...), raw,
and its accuracy figures are printed above the JSON line.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before imports
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups timed per run, each in a fresh process; ``setup_s`` is
#: their median.
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used for the "
                             "set-up samples)")
    return parser.parse_args(argv)


def fingerprint():
    """Machine and numeric stack that produced the numbers."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in
                ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup_in_child(args):
    """Seconds one set-up takes in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up sample failed (rc {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb(workload):
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (self_kb + getattr(workload, "worker_peak_rss_kb", 0)) / 1024.0


def human_figures(op, loop):
    """Lines naming the workload's own figures, with units."""
    from perfbench import stats

    lines = [f"  {op}s_per_s = {loop.ops_per_s:.6g} 1/s "
             f"({loop.n_ops} ops in {loop.elapsed_s:.3f} s)"]
    kinds = sorted(set(loop.kinds))
    groups = [(f"{op}_s", loop.latencies)]
    if len(kinds) > 1:
        groups += [(f"{kind}_s", loop.of_kind(kind)) for kind in kinds]
    for label, values in groups:
        lines.append(f"  {label}: {stats.describe(values)}")
    for key, (value, unit) in sorted(loop.named.items()):
        lines.append(f"  {key} = {value:.6g} {unit}")
    return lines


def end_to_end(loop, setup_samples, workload, slowdown):
    """The JSON metrics; host times are divided by the run's *slowdown*
    (see :mod:`perfbench.calibration`)."""
    from perfbench import stats

    return {
        "ops_per_s": {"value": loop.ops_per_s * slowdown, "unit": "1/s"},
        "op_s_p50": {"value": stats.median(loop.latencies) / slowdown,
                     "unit": "s"},
        "setup_s": {"value": stats.median(setup_samples) / slowdown,
                    "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(workload), "unit": "MB"},
    }


def run_untraced(args, make):
    from perfbench import calibration

    t_pre = time.perf_counter() - T_START
    setup_samples = [setup_in_child(args)
                     for _ in range(SETUP_SAMPLES - 1)]
    workload = make()
    t0 = time.perf_counter()
    workload.setup()
    setup_samples.append(t_pre + time.perf_counter() - t0)
    speed = calibration.Calibration() if workload.serial else None
    try:
        if speed is None:
            loop = workload.loop(args.seconds)
        else:
            speed.sample()
            loop = workload.loop(args.seconds, pause=speed.between_ops)
            speed.sample()
    finally:
        workload.teardown()
    slowdown = 1.0 if speed is None else speed.slowdown
    lines = [f"setup_s samples: "
             f"{', '.join(f'{s:.4f}' for s in setup_samples)}"]
    if speed is None:
        lines.append("machine slowdown not measured (concurrent clients "
                     "leave no idle moment); JSON times are raw")
    else:
        lines.append(f"machine slowdown {slowdown:.4f} (kernel median over "
                     f"{len(speed.samples)} runs / "
                     f"{calibration.NOMINAL_KERNEL_S} s); JSON times are "
                     "divided by it, the figures below are raw")
    lines += human_figures(workload.op_name, loop)
    metrics = end_to_end(loop, setup_samples, workload, slowdown)
    return loop, metrics, lines


def run_traced(args, make):
    from perfbench import tracing

    half = args.seconds / 2.0
    workload = make()
    workload.setup()
    try:
        plain = workload.loop(half)
    finally:
        workload.teardown()
    tracer = tracing.Tracer()
    installed = tracing.Installation(tracer)
    try:
        workload = make()
        workload.setup()
        tracer.reset()
        try:
            traced = workload.loop(half, tracer)
        finally:
            workload.teardown()
    finally:
        installed.remove()
    overhead = 100.0 * (plain.ops_per_s / traced.ops_per_s - 1.0) \
        if traced.ops_per_s else float("nan")
    metrics = {
        m.name: {"value": m.value(tracer, traced.n_ops), "unit": m.unit}
        for m in tracing.LAYER_METRICS
    }
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    trace_path = OUT_DIR / f"trace-{args.workload}.json"
    tracer.write_chrome(trace_path, {"workload": args.workload,
                                     "seed": args.seed,
                                     "fingerprint": fingerprint()})
    lines = [f"untraced half: {plain.n_ops} ops, "
             f"{plain.ops_per_s:.6g} ops/s",
             f"traced half:   {traced.n_ops} ops, "
             f"{traced.ops_per_s:.6g} ops/s",
             f"tracing overhead: {overhead:.2f}% of untraced throughput",
             f"kept {len(tracer.spans)} spans ({tracer.dropped} dropped) "
             f"-> {trace_path}"]
    if installed.missing:
        lines.append("hooks not found (their layers read 0): "
                     + ", ".join(installed.missing))
    lines.append("per-layer metrics (per op of the traced half) and the "
                 "end-to-end metric each should move:")
    for m in tracing.LAYER_METRICS:
        lines.append(f"  {m.name} = {metrics[m.name]['value']:.6g} "
                     f"{m.unit}  -> {m.moves}")
    merged = plain
    merged.attempted += traced.attempted
    merged.failed += traced.failed
    merged.failures += traced.failures
    return merged, metrics, lines


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    make = lambda: cls(args.seed, str(OUT_DIR))  # noqa: E731
    if args.setup_only:
        workload = make()
        workload.setup()
        setup_s = time.perf_counter() - T_START
        workload.teardown()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    runner = run_traced if args.trace else run_untraced
    loop, metrics, lines = runner(args, make)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {cls.why}")
    print(f"fingerprint: {json.dumps(fingerprint(), sort_keys=True)}")
    for line in lines:
        print(line)
    for failure in loop.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": loop.failed == 0 and loop.n_ops > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
