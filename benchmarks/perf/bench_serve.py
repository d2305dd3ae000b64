"""Serving-layer load harness.

Storms a live ``repro serve`` instance — real HTTP, real simulator —
with N concurrent clients submitting K distinct CPU-bound specs, once
per worker mode, and writes the numbers the fleet design is
accountable for to ``BENCH_serve.json``:

* **sustained jobs/sec** — distinct specs executed per wall second,
  thread mode vs process mode.  Thread workers serialize CPU-bound
  campaigns on one GIL; the process pool is expected to beat them on
  any multi-core host (``config.cpu_count`` records what this run had
  to work with — on a single core there is no parallelism to win, and
  the latency isolation below is the observable signal).
* **p50/p99 submit latency** — POST round-trip as the clients saw it,
  dedup and backpressure included.  In thread mode the CPU-bound
  campaigns and the HTTP handlers fight over one GIL, so submit tail
  latency balloons while jobs run; process mode moves the compute out
  of the serving process and keeps the tail flat.
* **dedup hit-rate** — the storm submits each spec many times; all but
  the first collapse via single-flight coalescing or the result store.
* **byte identity** — served bytes equal a direct in-process
  ``repro run --spec`` of the same scenario.
* **exactly-once across instances** — the same storm against *two*
  service instances sharing one result store executes each spec once
  fleet-wide, enforced by the per-key lease files.

``scripts/check_perf.py`` validates the output schema and its
correctness invariants in CI (reduced configuration)::

    PYTHONPATH=src python benchmarks/perf/bench_serve.py
    PYTHONPATH=src python benchmarks/perf/bench_serve.py \
        --clients 4 --specs 3 --workers 2 --input-scale 0.2
"""

import argparse
import json
import os
import tempfile
import threading
import time
from pathlib import Path

BENCHMARK = "_202_jess"


def build_spec_bodies(n_specs, input_scale):
    """K distinct single-cell TOML specs (a heap sweep), CPU-bound."""
    bodies = []
    for i in range(n_specs):
        bodies.append(
            f'[axes]\nbenchmark = "{BENCHMARK}"\n'
            f'collector = "SemiSpace"\nheap_mb = {32 + 16 * i}\n'
            f'input_scale = {input_scale}\n'.encode()
        )
    return bodies


def spec_ids(bodies):
    from repro.spec import ScenarioSpec

    return [
        ScenarioSpec.from_bytes(body, fmt="toml").spec_hash()
        for body in bodies
    ]


def percentile(values, q):
    """Nearest-rank percentile of *values* (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1,
               max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def _start_server(mode, result_dir, workers, queue_size=256,
                  job_trace=False):
    from repro.serve.server import ExperimentService, ServiceServer

    service = ExperimentService(
        queue_size=queue_size, job_workers=workers, cell_workers=1,
        use_cell_cache=False, result_dir=result_dir,
        worker_mode=mode, job_trace=job_trace,
    )
    return ServiceServer(service=service, host="127.0.0.1",
                         port=0).start()


def _client_storm(url, bodies, clients, rounds, latencies):
    """N client threads, each submitting every spec *rounds* times."""
    from repro.serve.client import ServiceBusy, ServiceClient

    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def client_main(n):
        client = ServiceClient(url, timeout_s=60.0)
        barrier.wait()
        mine = []
        for _ in range(rounds):
            for j in range(len(bodies)):
                body = bodies[(j + n) % len(bodies)]
                t0 = time.perf_counter()
                while True:
                    try:
                        client.submit_bytes(body, fmt="toml")
                        break
                    except ServiceBusy as exc:
                        time.sleep(min(exc.retry_after_s, 0.2))
                mine.append(time.perf_counter() - t0)
        with lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=client_main, args=(n,), daemon=True)
        for n in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def storm_mode(mode, bodies, ids, args, job_trace=False):
    """One full storm against a fresh service in *mode*."""
    from repro.serve.client import ServiceClient

    prefix = f"bench-serve-{mode}{'-traced' if job_trace else ''}-"
    result_dir = Path(tempfile.mkdtemp(prefix=prefix))
    server = _start_server(mode, result_dir, args.workers,
                           job_trace=job_trace)
    latencies = []
    try:
        start = time.perf_counter()
        _client_storm(server.url, bodies, args.clients, args.rounds,
                      latencies)
        waiter = ServiceClient(server.url, timeout_s=60.0)
        for job_id in ids:
            waiter.wait(job_id, timeout_s=300.0, poll_s=0.05)
        wall = time.perf_counter() - start
        metrics = waiter.metrics()
    finally:
        server.stop(drain_timeout=60.0)
    counters = metrics["counters"]
    executed = counters.get("serve.jobs_executed", 0)
    submits = len(latencies)
    return {
        "wall_s": round(wall, 4),
        "executed": executed,
        "submits": submits,
        "jobs_per_sec": round(executed / wall, 3) if wall > 0 else 0.0,
        "submits_per_sec": (
            round(submits / wall, 1) if wall > 0 else 0.0
        ),
        "submit_latency_s": {
            "p50": round(percentile(latencies, 50), 6),
            "p99": round(percentile(latencies, 99), 6),
            "mean": round(sum(latencies) / len(latencies), 6)
            if latencies else 0.0,
            "n": submits,
        },
        "dedup_rate": round(metrics["derived"]["dedup_rate"], 4),
        "result_dir": str(result_dir),
    }


def multi_instance_storm(mode, bodies, ids, args):
    """Two instances, one shared store: each spec must execute exactly
    once fleet-wide (the lease is the only cross-instance lock)."""
    from repro.serve.client import ServiceClient

    result_dir = Path(tempfile.mkdtemp(prefix="bench-serve-fleet-"))
    servers = [
        _start_server(mode, result_dir, max(1, args.workers // 2))
        for _ in range(2)
    ]
    try:
        threads = []
        latencies = [[] for _ in servers]
        for i, server in enumerate(servers):
            thread = threading.Thread(
                target=_client_storm,
                args=(server.url, bodies,
                      max(1, args.clients // 2), args.rounds,
                      latencies[i]),
                daemon=True,
            )
            threads.append(thread)
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for server in servers:
            waiter = ServiceClient(server.url, timeout_s=60.0)
            for job_id in ids:
                waiter.wait(job_id, timeout_s=300.0, poll_s=0.05)
        wall = time.perf_counter() - start
        per_instance = []
        for server in servers:
            counters = ServiceClient(server.url).metrics()["counters"]
            per_instance.append({
                "executed": counters.get("serve.jobs_executed", 0),
                "lease_coalesced": counters.get(
                    "serve.jobs_lease_coalesced", 0
                ),
                "result_cache_hits": counters.get(
                    "serve.result_cache_hits", 0
                ),
                "lease_takeovers": counters.get(
                    "serve.lease_takeovers", 0
                ),
            })
    finally:
        for server in servers:
            server.stop(drain_timeout=60.0)
    executed_total = sum(inst["executed"] for inst in per_instance)
    return {
        "instances": len(servers),
        "worker_mode": mode,
        "specs": len(ids),
        "wall_s": round(wall, 4),
        "executed_total": executed_total,
        "exactly_once": executed_total == len(ids),
        "per_instance": per_instance,
    }


def tracing_overhead(mode, bodies, ids, args):
    """Self-overhead of distributed job tracing, measured.

    Two back-to-back storms in the same mode into fresh result dirs —
    tracing off, then tracing on — so the overhead number compares
    like with like (same host state, same spec set).  Alongside the
    jobs/sec ratio the traced store is checked for byte identity
    against a direct run: tracing must never change result bytes.
    """
    baseline = storm_mode(mode, bodies, ids, args, job_trace=False)
    traced = storm_mode(mode, bodies, ids, args, job_trace=True)
    baseline.pop("result_dir", None)
    traced_dir = traced.pop("result_dir")
    base_rate = baseline["jobs_per_sec"]
    overhead = (
        round(1.0 - traced["jobs_per_sec"] / base_rate, 4)
        if base_rate > 0 else 0.0
    )
    n_spools = len(list(Path(traced_dir).rglob("*.spans")))
    return {
        "worker_mode": mode,
        "untraced": baseline,
        "traced": traced,
        "overhead_fraction": overhead,
        "spool_files": n_spools,
        "traced_byte_identical": verify_byte_identity(
            bodies, ids, traced_dir
        ),
    }


def verify_byte_identity(bodies, ids, result_dir):
    """Stored bytes for spec 0 equal a direct in-process run."""
    from repro.campaign.runner import CampaignRunner
    from repro.serve.server import ResultStore, build_result_payload, encode_result
    from repro.spec import ScenarioSpec

    spec = ScenarioSpec.from_bytes(bodies[0], fmt="toml")
    served = ResultStore(result_dir).get_bytes(ids[0])
    direct = CampaignRunner(workers=1).run(spec.cells())
    expected = encode_result(build_result_payload(spec, direct))
    return served == expected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_serve.json",
                        help="result file (default: ./BENCH_serve.json)")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent submitting clients (default 8)")
    parser.add_argument("--specs", type=int, default=6,
                        help="distinct specs in the storm (default 6)")
    parser.add_argument("--rounds", type=int, default=2,
                        help="times each client submits every spec")
    parser.add_argument("--workers", type=int, default=4,
                        help="job workers per service (default 4)")
    parser.add_argument("--input-scale", type=float, default=0.4,
                        help="per-cell CPU weight (default 0.4)")
    parser.add_argument("--worker-mode", default="both",
                        choices=("thread", "process", "both"),
                        help="which modes to storm (default both)")
    parser.add_argument("--skip-multi-instance", action="store_true",
                        help="skip the two-instance exactly-once storm")
    parser.add_argument("--skip-tracing-overhead", action="store_true",
                        help="skip the traced-vs-untraced overhead storm")
    args = parser.parse_args(argv)

    bodies = build_spec_bodies(args.specs, args.input_scale)
    ids = spec_ids(bodies)
    modes = (
        ("thread", "process") if args.worker_mode == "both"
        else (args.worker_mode,)
    )

    results = {
        "schema": "repro-bench-serve-v1",
        "config": {
            "benchmark": BENCHMARK,
            "clients": args.clients,
            "specs": args.specs,
            "rounds": args.rounds,
            "workers": args.workers,
            "input_scale": args.input_scale,
            "cpu_count": os.cpu_count(),
        },
        "modes": {},
    }
    for mode in modes:
        print(f"storming worker_mode={mode} "
              f"({args.clients} clients x {args.specs} specs x "
              f"{args.rounds} rounds, {args.workers} workers) ...")
        results["modes"][mode] = storm_mode(mode, bodies, ids, args)
        m = results["modes"][mode]
        print(f"  {mode:>7}: {m['jobs_per_sec']:.2f} jobs/s "
              f"({m['executed']} executed in {m['wall_s']:.2f} s), "
              f"submit p50 {1e3 * m['submit_latency_s']['p50']:.1f} ms "
              f"p99 {1e3 * m['submit_latency_s']['p99']:.1f} ms, "
              f"dedup {100 * m['dedup_rate']:.1f}%")

    if "thread" in results["modes"] and "process" in results["modes"]:
        thread_mode = results["modes"]["thread"]
        process_mode = results["modes"]["process"]
        results["speedup_process_vs_thread"] = round(
            thread_mode["wall_s"] / process_mode["wall_s"], 2
        ) if process_mode["wall_s"] > 0 else 0.0
        process_p99 = process_mode["submit_latency_s"]["p99"]
        results["p99_isolation_thread_vs_process"] = round(
            thread_mode["submit_latency_s"]["p99"] / process_p99, 2
        ) if process_p99 > 0 else 0.0
        print(f"  process vs thread: "
              f"{results['speedup_process_vs_thread']}x jobs/s "
              f"({results['config']['cpu_count']} cpus), "
              f"{results['p99_isolation_thread_vs_process']}x lower "
              f"p99 submit latency")

    check_dir = results["modes"][modes[-1]].pop("result_dir")
    for mode in modes[:-1]:
        results["modes"][mode].pop("result_dir", None)
    results["byte_identical"] = verify_byte_identity(
        bodies, ids, check_dir
    )
    print(f"  byte-identical to direct run: "
          f"{results['byte_identical']}")

    if not args.skip_tracing_overhead:
        mode = modes[0]
        print(f"storming traced vs untraced (worker_mode={mode}) ...")
        results["tracing_overhead"] = tracing_overhead(
            mode, bodies, ids, args
        )
        t = results["tracing_overhead"]
        print(f"  untraced {t['untraced']['jobs_per_sec']:.2f} jobs/s,"
              f" traced {t['traced']['jobs_per_sec']:.2f} jobs/s "
              f"({100 * t['overhead_fraction']:.1f}% overhead, "
              f"{t['spool_files']} spool files, byte-identical="
              f"{t['traced_byte_identical']})")

    if not args.skip_multi_instance:
        mode = "process" if "process" in modes else modes[0]
        print(f"storming 2 instances sharing one store "
              f"(worker_mode={mode}) ...")
        results["multi_instance"] = multi_instance_storm(
            mode, bodies, ids, args
        )
        fleet = results["multi_instance"]
        print(f"  executed_total {fleet['executed_total']} / "
              f"{fleet['specs']} specs; exactly_once="
              f"{fleet['exactly_once']}")

    out = Path(args.output)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
