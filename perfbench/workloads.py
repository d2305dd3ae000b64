"""The benchmark's workloads: seeded inputs, set-up, a timed closed loop,
and a check of every operation's output.

* ``cells`` — simulate-heavy: fused ``Experiment(config).run()`` cells
  over a fixed menu, in a seeded order.
* ``bootstrap`` — measure-heavy: ``bootstrap_uncertainty`` over one
  recorded reference execution; no simulation in the loop.
* ``serve-mix`` — service layers: an in-process service with process
  workers, two clients mixing store hits (reads) with new specs
  (simulate, measure, store writes) over loopback HTTP.

Each workload runs in one process as a closed loop of at most two
client threads.  Inputs depend only on the seed; the program receives
nothing else from the benchmark.
"""

import contextlib
import json
import math
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

#: Input scale of every ``cells`` cell.
CELL_INPUT_SCALE = 0.2

#: The ``cells`` menu: (benchmark, vm, platform, collector, heap MB).
#: Allocation-heavy (javac, jess, db) and compute-heavy (mpegaudio,
#: compress) benchmarks; the four Jikes collectors on the P6 and Kaffe
#: on the PXA255, twice each; heaps from tight to roomy.
CELL_MENU = (
    ("_213_javac", "jikes", "p6", "GenMS", 24),
    ("_213_javac", "kaffe", "pxa255", None, 32),
    ("_202_jess", "jikes", "p6", "GenCopy", 32),
    ("_202_jess", "jikes", "p6", "SemiSpace", 20),
    ("_209_db", "jikes", "p6", "MarkSweep", 32),
    ("_209_db", "kaffe", "pxa255", None, 16),
    ("_222_mpegaudio", "jikes", "p6", "SemiSpace", 64),
    ("_222_mpegaudio", "jikes", "p6", "GenMS", 32),
    ("_201_compress", "jikes", "p6", "MarkSweep", 64),
    ("_201_compress", "jikes", "p6", "GenCopy", 16),
)

#: The reference cell the ``bootstrap`` workload records once.
REFERENCE_CELL = dict(benchmark="_213_javac", vm="jikes", platform="p6",
                      heap_mb=32, input_scale=0.5)

#: Replicates per bootstrap report (the CLI default).
BOOTSTRAP_REPLICATES = 32

#: (benchmark, input scale) pairs the ``serve-mix`` misses rotate
#: through.
SERVE_MISS_ROTATION = tuple(
    (bench, scale)
    for scale in (0.1, 0.15)
    for bench in ("_202_jess", "_209_db", "_201_compress", "_222_mpegaudio")
)

#: One ``serve-mix`` round per client: 60% hits, starting with a miss.
SERVE_ROUND = ("miss", "hit", "hit", "miss", "hit")

#: Client threads of ``serve-mix`` (at most ``nproc`` on a 2-vCPU box).
SERVE_CLIENTS = 2

#: How often a ``serve-mix`` client polls a queued job.
SERVE_POLL_S = 0.005

#: Specs re-run in-process after the ``serve-mix`` loop.
SERVE_DIRECT_CHECKS = 2


@dataclass
class Loop:
    """What one timed loop did."""

    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Time inside the loop spent on calibration between ops.
    paused_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: Per-workload named figures: ``name -> (value, unit)``.
    named: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def record(self, latency, kind):
        with self._lock:
            self.attempted += 1
            self.latencies.append(latency)
            self.kinds.append(kind)

    def fail(self, message, counted=True):
        with self._lock:
            if counted:
                self.attempted += 1
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(message)

    @property
    def n_ops(self):
        return len(self.latencies)

    @property
    def ops_per_s(self):
        busy = self.elapsed_s - self.paused_s
        return self.n_ops / busy if busy > 0 else 0.0

    def of_kind(self, kind):
        return [t for t, k in zip(self.latencies, self.kinds) if k == kind]


def all_finite(value):
    """True when every number inside *value* is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(all_finite(v) for v in value)
    return True


def canonical_bytes(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _op_span(tracer):
    """The root span of one op in a traced loop (nothing untraced)."""
    return tracer.span("bench.op") if tracer else contextlib.nullcontext()


# -- cells -------------------------------------------------------------

def cell_configs():
    """The menu as :class:`ExperimentConfig` objects.

    Every cell keeps the program's default simulation seed, so a cell
    costs the same in every run and the seed changes only the order:
    the median cell then sits in the same cost cluster whatever the
    seed, instead of moving with each cell's allocation trace."""
    from repro.core.experiment import ExperimentConfig

    return [
        ExperimentConfig(benchmark=bench, vm=vm, platform=platform,
                         collector=collector, heap_mb=heap,
                         input_scale=CELL_INPUT_SCALE)
        for bench, vm, platform, collector, heap in CELL_MENU
    ]


def cell_cycle(seed, index):
    """Menu indices of cycle *index*: every cell once, seeded order."""
    order = list(range(len(CELL_MENU)))
    random.Random(f"perfbench/cells/{seed}/cycle/{index}").shuffle(order)
    return order


def cell_output(result):
    """The figures of one cell that must repeat exactly."""
    breakdown = result.breakdown
    return {
        "duration_s": result.duration_s,
        "cpu_energy_j": result.cpu_energy_j,
        "mem_energy_j": result.mem_energy_j,
        "component_cpu_j": {str(k): v for k, v
                            in sorted(breakdown.cpu_energy_j.items())},
        "component_mem_j": {str(k): v for k, v
                            in sorted(breakdown.mem_energy_j.items())},
        "daq_samples": result.power.n_samples,
        "collections": result.run.gc_stats.collections,
    }


def misattribution(result):
    """``(fraction, true joules)``: CPU energy the DAQ credited to the
    wrong component, against the timeline's exact truth."""
    from repro.analysis.validation import AttributionReport

    truth = result.run.timeline.component_cpu_energy_j()
    report = AttributionReport(
        sample_period_s=result.config.daq_period_s,
        true_energy_j={int(k): v for k, v in truth.items()},
        measured_energy_j=result.breakdown.cpu_energy_j,
    )
    return report.total_misattribution_fraction(), sum(truth.values())


class Cells:
    name = "cells"
    why = ("simulate-heavy: fused cells over 5 SPECjvm98 benchmarks, 4 "
           "Jikes collectors and Kaffe, tight to roomy heaps; no cache "
           "or store")
    op_name = "cell"
    #: One op at a time: calibration can run between ops.
    serial = True

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.configs = None
        self.outputs = {}
        self.misattrib = {}

    def setup(self):
        from repro.core.experiment import Experiment

        self._experiment = Experiment
        self.configs = cell_configs()
        # The same menu cell warms up every seed, so set-up time does
        # not depend on which cell a seed happens to order first.
        problem = self._check(0, Experiment(self.configs[0]).run())
        if problem is not None:
            raise RuntimeError(f"warm-up cell: {problem}")

    def _check(self, index, result):
        """``None`` when the cell's output is right, else why not."""
        output = cell_output(result)
        if not all_finite(output):
            return "non-finite energy"
        data = canonical_bytes(output)
        expected = self.outputs.setdefault(index, data)
        if data != expected:
            return "same input gave different output bytes"
        fraction, true_j = misattribution(result)
        if not (math.isfinite(fraction) and 0.0 <= fraction <= 1.0):
            return f"misattribution {fraction!r} out of range"
        self.misattrib[index] = (fraction, true_j)
        return None

    def loop(self, seconds, tracer=None, pause=None):
        """Whole cycles of the menu until *seconds* have passed.
        *pause*, if given, runs between cells and returns the seconds it
        took, which do not count as loop time."""
        loop = Loop()
        start = time.perf_counter()
        cycle = 0
        while True:
            for index in cell_cycle(self.seed, cycle):
                config = self.configs[index]
                try:
                    with _op_span(tracer):
                        t0 = time.perf_counter()
                        result = self._experiment(config).run()
                        latency = time.perf_counter() - t0
                    problem = self._check(index, result)
                    # Free the traces before the next cell runs, so peak
                    # memory is one cell's, not a pair's that depends on
                    # the seeded order.
                    del result
                except Exception as exc:  # noqa: BLE001 - op isolation
                    problem = f"{type(exc).__name__}: {exc}"
                if problem is None:
                    loop.record(latency, self.op_name)
                else:
                    loop.fail(f"{config.benchmark}/{config.vm}/"
                              f"{config.collector}: {problem}")
                if pause is not None:
                    loop.paused_s += pause()
            cycle += 1
            loop.elapsed_s = time.perf_counter() - start
            if loop.elapsed_s >= seconds:
                break
        wrong = sum(f * j for f, j in self.misattrib.values())
        total = sum(j for _, j in self.misattrib.values())
        loop.named["misattrib_pct"] = (
            100.0 * wrong / total if total else float("nan"), "%")
        return loop

    def teardown(self):
        pass


# -- bootstrap ---------------------------------------------------------

def bootstrap_config(seed):
    """The reference cell, with a simulation seed drawn from *seed*."""
    from repro.core.experiment import ExperimentConfig

    rng = random.Random(f"perfbench/bootstrap/{seed}")
    return ExperimentConfig(seed=rng.randrange(1, 2 ** 31),
                            **REFERENCE_CELL)


class Bootstrap:
    name = "bootstrap"
    why = ("measure-heavy: 32-replicate bootstrap reports over one "
           "recorded reference cell; DAQ, HPM, decomposition, restore; "
           "no simulation in the loop")
    op_name = "report"
    serial = True

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.expected = None
        self.coverage = None

    def setup(self):
        from repro.analysis.uncertainty import (
            DEFAULT_NOISE,
            bootstrap_uncertainty,
        )
        from repro.core.experiment import Experiment

        self.config = bootstrap_config(self.seed)
        self.artifact = Experiment(self.config).simulate().artifact()
        self._report = lambda: bootstrap_uncertainty(
            self.config, self.artifact, noise=DEFAULT_NOISE,
            replicates=BOOTSTRAP_REPLICATES,
        )
        problem = self._check(self._report())
        if problem is not None:
            raise RuntimeError(f"warm-up report: {problem}")

    def _check(self, report):
        doc = report.as_dict()
        if not all_finite(doc):
            return "non-finite energy"
        data = canonical_bytes(doc)
        if self.expected is None:
            self.expected = data
            self.coverage = report.coverage
        if data != self.expected:
            return "same input gave different report bytes"
        return None

    def loop(self, seconds, tracer=None, pause=None):
        """Reports until *seconds* have passed; *pause* as for
        :meth:`Cells.loop`."""
        loop = Loop()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            try:
                with _op_span(tracer):
                    t0 = time.perf_counter()
                    report = self._report()
                    latency = time.perf_counter() - t0
                problem = self._check(report)
            except Exception as exc:  # noqa: BLE001 - op isolation
                problem = f"{type(exc).__name__}: {exc}"
            if problem is None:
                loop.record(latency, self.op_name)
            else:
                loop.fail(problem)
            if pause is not None:
                loop.paused_s += pause()
        loop.elapsed_s = time.perf_counter() - start
        loop.named["replicates_per_s"] = (
            loop.ops_per_s * BOOTSTRAP_REPLICATES, "1/s")
        loop.named["ci_coverage"] = (self.coverage, "ratio")
        return loop

    def teardown(self):
        pass


# -- serve-mix ---------------------------------------------------------

def _serve_base(seed):
    return random.Random(f"perfbench/serve-mix/{seed}").randrange(
        1, 2 ** 30)


def serve_round(seed, client, index):
    """Ops of one client's round *index*, in order.

    A miss is ``("miss", spec)``: a new two-point DAQ-period sweep whose
    simulation seed no other op of the run uses.  Misses walk a fixed
    rotation of benchmark and input scale, so every block of rounds
    costs the same whatever the seed.  A hit is ``("hit", k)``: repeat
    the client's *k*-th miss, which has completed by then.
    """
    from repro.spec import ScenarioSpec

    rng = random.Random(f"perfbench/serve-mix/{seed}/{client}/{index}")
    base = _serve_base(seed)
    ops = []
    misses = 2 * index
    for kind in SERVE_ROUND:
        if kind == "hit":
            ops.append(("hit", rng.randrange(misses)))
            continue
        j = misses - 2 * index
        bench, scale = SERVE_MISS_ROTATION[
            (misses + 3 * client) % len(SERVE_MISS_ROTATION)]
        spec = ScenarioSpec(
            benchmarks=(bench,), heap_mbs=(32,), input_scales=(scale,),
            seeds=(base + 4 * index + 2 * j + client,),
            daq_periods_s=(40e-6, rng.choice((200e-6, 400e-6, 1e-3))),
            name=f"perfbench-{client}-{index}-{j}",
        )
        ops.append(("miss", spec))
        misses += 1
    return ops


def _spec_bytes(spec):
    return json.dumps(spec.to_dict(), sort_keys=True).encode()


class ServeMix:
    name = "serve-mix"
    why = ("service: 2 clients on loopback HTTP, 60% store hits (reads) "
           "and 40% new DAQ sweeps (simulate, measure, store writes) on "
           "2 process workers")
    op_name = "job"
    serial = False

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.server = None
        self.workdir = None
        self.worker_peak_rss_kb = 0

    def setup(self):
        from repro.serve import (
            ExperimentService,
            ServiceClient,
            ServiceServer,
        )

        self.workdir = tempfile.mkdtemp(prefix="serve-", dir=self.out_dir)
        service = ExperimentService(
            job_workers=2, worker_mode="process",
            result_dir=f"{self.workdir}/results",
            cache_dir=f"{self.workdir}/cells",
        )
        self.server = ServiceServer(service=service, host="127.0.0.1",
                                    port=0).start()
        self.client = ServiceClient(self.server.url)
        # Warm-up: one new spec per client at once, so both workers
        # start, then a store hit of each.
        base = _serve_base(self.seed)
        warm = [self._spec_for_warmup(base, c) for c in
                range(SERVE_CLIENTS)]
        threads = [threading.Thread(target=self._job, args=(_spec_bytes(s),))
                   for s in warm]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        for spec in warm:
            outcome, _, _ = self._job(_spec_bytes(spec))
            if outcome != "cached":
                raise RuntimeError(f"warm-up resubmission was {outcome!r}")

    @staticmethod
    def _spec_for_warmup(base, client):
        from repro.spec import ScenarioSpec

        return ScenarioSpec(
            benchmarks=(SERVE_MISS_ROTATION[client][0],),
            heap_mbs=(32,), input_scales=(0.1,), seeds=(base - 1 - client,),
            daq_periods_s=(40e-6, 200e-6), name=f"perfbench-warm-{client}",
        )

    def _job(self, raw):
        """Submit → poll → fetch; ``(outcome, state, result bytes)``."""
        job = self.client.submit_bytes(raw, fmt="json")
        outcome = job["outcome"]
        while job["state"] not in ("done", "failed"):
            time.sleep(SERVE_POLL_S)
            job = self.client.job(job["id"])
        if job["state"] != "done":
            return outcome, job["state"], job.get("error")
        return outcome, "done", self.client.result_bytes(job["id"])

    def _client(self, client, seconds, start, loop, tracer, done_specs):
        mine = []  # (spec, raw bytes, result bytes) of completed misses
        unplanned = 0
        index = 0
        try:
            while time.perf_counter() - start < seconds:
                for intended, arg in serve_round(self.seed, client, index):
                    unplanned += self._op(intended, arg, mine, loop, tracer)
                index += 1
        except Exception as exc:  # noqa: BLE001 - report, don't vanish
            loop.fail(f"client {client} stopped: {type(exc).__name__}: "
                      f"{exc}")
        finally:
            done_specs[client] = (mine, unplanned)

    def _op(self, intended, arg, mine, loop, tracer):
        """One job; returns 1 when its outcome was not the planned one."""
        if intended == "hit":
            if arg >= len(mine):
                loop.fail("the miss to repeat did not complete")
                return 0
            spec, raw, expected = mine[arg]
        else:
            spec, raw, expected = arg, _spec_bytes(arg), None
        try:
            with _op_span(tracer):
                t0 = time.perf_counter()
                outcome, state, data = self._job(raw)
                latency = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - op isolation
            loop.fail(f"{type(exc).__name__}: {exc}")
            return 0
        kind = "hit" if outcome == "cached" else "miss"
        if state != "done":
            loop.fail(f"job {state}: {data}")
        elif expected is not None and data != expected:
            loop.fail("hit bytes differ from the miss bytes")
        elif expected is None and not all_finite(json.loads(data)):
            loop.fail("non-finite energy in a result")
        else:
            loop.record(latency, kind)
            if intended == "miss":
                mine.append((spec, raw, data))
            return int(kind != intended)
        return 0

    def loop(self, seconds, tracer=None):
        """Both clients until *seconds* have passed."""
        loop = Loop()
        done_specs = {}
        start = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, name=f"client-{c}",
                             args=(c, seconds, start, loop, tracer,
                                   done_specs))
            for c in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        loop.elapsed_s = time.perf_counter() - start
        self._check_direct(loop, [entry for c in sorted(done_specs)
                                  for entry in done_specs[c][0]])
        loop.named["unplanned_kind"] = (
            sum(n for _, n in done_specs.values()), "count")
        return loop

    def _check_direct(self, loop, completed):
        """Served bytes of a seeded sample of the completed misses must
        equal an in-process run of the same spec."""
        from repro.campaign.runner import CampaignRunner
        from repro.serve import build_result_payload, encode_result

        rng = random.Random(f"perfbench/serve-mix/{self.seed}/direct")
        for spec, _, served in rng.sample(
                completed, min(SERVE_DIRECT_CHECKS, len(completed))):
            result = CampaignRunner(workers=1).run(spec.campaign_config())
            direct = encode_result(build_result_payload(spec, result))
            loop.attempted += 1
            if direct != served:
                loop.fail("served bytes differ from a direct run",
                          counted=False)

    def teardown(self):
        if self.server is not None:
            self.worker_peak_rss_kb = _children_peak_rss_kb()
            self.server.stop(drain_timeout=120.0)
            self.server = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


def _children_peak_rss_kb():
    """Summed peak RSS of this process's live multiprocessing children
    (the service's worker processes), from ``/proc`` where it exists."""
    import multiprocessing

    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


WORKLOADS = {cls.name: cls for cls in (Cells, Bootstrap, ServeMix)}
