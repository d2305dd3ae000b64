"""Span tracing of the program's layers, installed from outside it.

A traced run wraps public functions of each layer module (see
:data:`HOOKS`) by assignment at run time and restores the originals
afterwards; no program file changes.  Every call through a wrapper is a
span with a name, a start, an end and a parent (the enclosing span on
the same thread).  Spans are aggregated as they end: calls, total time
and *self* time, which is the span's duration minus the time its
wrapped children cover.  Spans are kept in memory, up to
:data:`MAX_SPANS`, and written as a Chrome trace when the run ends.
Hooks marked ``keep=False`` fire tens of thousands of times per cell;
they are aggregated but not kept, which bounds memory.

Process-mode service workers are forked after the wrappers are
installed, so they run wrapped code too: each worker job resets the
worker's tracer, and ships its aggregates and spans back inside the
job outcome, where the parent merges them.  Under a ``spawn`` start
method the workers run unwrapped and their layers read zero.

:data:`LAYER_METRICS` turns the aggregates into per-operation metrics,
each with the end-to-end metric and workload it should move.
"""

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
from time import perf_counter as _now

#: Most spans kept in memory (aggregates always cover every span).
MAX_SPANS = 50_000

#: Outcome key under which a worker ships its trace to the parent.
WORKER_TRACE_KEY = "_perfbench_trace"


class Tracer:
    """Per-thread span stacks and aggregates, plus the kept spans."""

    def __init__(self, max_spans=MAX_SPANS):
        self.max_spans = max_spans
        self.reset()

    def reset(self):
        """Drop everything recorded so far (and any open stacks)."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._thread_stats = []  # one dict per thread that ended a span
        self.counters = {}   # counter name -> summed value
        self.maxima = {}     # gauge name -> largest value seen
        self.marks = {}      # key -> perf_counter time (queue put->get)
        self.spans = []      # (name, start, end, id, parent, pid, tid)
        self.dropped = 0
        self.epoch = _now()

    # -- spans -------------------------------------------------------
    #
    # The hot path takes no lock: each thread keeps its own stack and
    # its own ``name -> [calls, total_s, self_s]`` dict.

    def _thread_state(self):
        local = self._local
        local.stack = []
        local.stats = {}
        with self._lock:
            self._thread_stats.append(local.stats)
        return local

    def begin(self, name, keep=True):
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._thread_state().stack
        if keep:
            parent = stack[-1][3] if stack else 0
            frame = [name, _now(), 0.0, next(self._ids), parent, True]
        else:
            frame = [name, _now(), 0.0, 0, 0, False]
        stack.append(frame)
        return frame

    def end(self, frame):
        end = _now()
        local = self._local
        try:
            stack = local.stack
        except AttributeError:  # reset while the span was open
            stack = self._thread_state().stack
        duration = end - frame[1]
        if stack and stack[-1] is frame:
            stack.pop()
        if stack:
            stack[-1][2] += duration
        stat = local.stats.get(frame[0])
        if stat is None:
            stat = local.stats[frame[0]] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[2]
        if frame[5]:
            with self._lock:
                if len(self.spans) < self.max_spans:
                    self.spans.append((frame[0], frame[1], end, frame[3],
                                       frame[4], os.getpid(),
                                       threading.get_ident()))
                else:
                    self.dropped += 1

    @property
    def stats(self):
        """``name -> [calls, total_s, self_s]`` over every thread."""
        with self._lock:
            per_thread = list(self._thread_stats)
        merged = {}
        for stats in per_thread:
            for name, (calls, total, own) in list(stats.items()):
                stat = merged.setdefault(name, [0, 0.0, 0.0])
                stat[0] += calls
                stat[1] += total
                stat[2] += own
        return merged

    @contextlib.contextmanager
    def span(self, name):
        """Context manager form of :meth:`begin`/:meth:`end`."""
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    # -- counters ----------------------------------------------------

    def count(self, name, value=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge_max(self, name, value):
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    def mark(self, key):
        with self._lock:
            self.marks[key] = _now()

    def since_mark(self, key):
        """Seconds since :meth:`mark` of *key* (``None`` if unmarked)."""
        now = _now()
        with self._lock:
            start = self.marks.pop(key, None)
        return None if start is None else now - start

    # -- queries -----------------------------------------------------

    def calls(self, *names):
        stats = self.stats
        return sum(stats[n][0] for n in names if n in stats)

    def self_s(self, *names):
        stats = self.stats
        return sum(stats[n][2] for n in names if n in stats)

    # -- crossing processes ------------------------------------------

    def export(self):
        """Plain-data copy of everything recorded (picklable)."""
        stats = self.stats
        with self._lock:
            return {
                "stats": stats,
                "counters": dict(self.counters),
                "maxima": dict(self.maxima),
                "spans": list(self.spans),
                "dropped": self.dropped,
            }

    def merge(self, data):
        """Fold another process's :meth:`export` into this tracer."""
        if not data:
            return
        with self._lock:
            self._thread_stats.append(data["stats"])
            for name, value in data["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in data["maxima"].items():
                if value > self.maxima.get(name, float("-inf")):
                    self.maxima[name] = value
            room = max(0, self.max_spans - len(self.spans))
            self.spans.extend(data["spans"][:room])
            self.dropped += (data["dropped"]
                             + max(0, len(data["spans"]) - room))

    def write_chrome(self, path, metadata=None):
        """Write the kept spans as a Chrome/Perfetto trace file."""
        events = [
            {
                "name": name, "ph": "X", "cat": name.split(".")[0],
                "ts": (start - self.epoch) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid, "tid": tid,
                "args": {"id": span_id, "parent": parent},
            }
            for name, start, end, span_id, parent, pid, tid in self.spans
        ]
        doc = {"traceEvents": events,
               "otherData": dict(metadata or {},
                                 dropped_spans=self.dropped)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- hooks -----------------------------------------------------------

class Hook:
    """One wrapped function: span *name* over ``module.target``.

    ``target`` is ``"func"`` or ``"Class.method"``; with
    ``subclasses=True`` every subclass's own override is wrapped too.
    ``before(tracer)`` runs ahead of the span; ``after(tracer, args,
    result)`` runs after it ends, for counters read off the result.
    """

    def __init__(self, name, module, target, keep=True, subclasses=False,
                 before=None, after=None):
        self.name = name
        self.module = module
        self.target = target
        self.keep = keep
        self.subclasses = subclasses
        self.before = before
        self.after = after


def _n_collections(tracer, args, result):
    tracer.count("jvm.gc.collections",
                 len(result) if isinstance(result, list) else 1)


def _n_segments(tracer, args, result):
    tracer.count("timeline.segments", len(result.timeline))


def _n_samples(tracer, args, result):
    tracer.count("measurement.daq.samples", result.n_samples)


def _queue_put(tracer, args, result):
    queue, job = args[0], args[1]
    tracer.mark(("queue", id(job)))
    tracer.gauge_max("serve.queue.depth_max", len(queue))


def _queue_get(tracer, args, result):
    if result is not None:
        waited = tracer.since_mark(("queue", id(result)))
        if waited is not None:
            tracer.count("serve.queue.wait_s", waited)


def _lease_result(tracer, args, result):
    if result is None:
        tracer.count("serve.lease.contended")


def _cache_result(tracer, args, result):
    if result is not None:
        tracer.count("campaign.cache.hits")


def _worker_job_start(tracer):
    # A forked worker inherits the parent's records and open stacks.
    tracer.reset()


def _worker_job_done(tracer, args, result):
    if isinstance(result, dict):
        result[WORKER_TRACE_KEY] = tracer.export()


def _parent_job_done(tracer, args, result):
    if isinstance(result, dict):
        tracer.merge(result.pop(WORKER_TRACE_KEY, None))


#: Every wrapped function, by layer.
HOOKS = (
    # simulate: heap and reference graph, collectors
    Hook("jvm.objects.wire", "repro.jvm.objects",
         "ReferenceFactory.wire", keep=False),
    Hook("jvm.objects.root_add", "repro.jvm.objects", "RootSet.add",
         keep=False),
    Hook("jvm.objects.root_expire", "repro.jvm.objects", "RootSet.expire"),
    Hook("jvm.gc.allocate", "repro.jvm.gc.base", "Collector.allocate",
         keep=False, subclasses=True),
    Hook("jvm.gc.collect", "repro.jvm.gc.base", "Collector.collect",
         subclasses=True, after=_n_collections),
    Hook("jvm.gc.barrier", "repro.jvm.gc.base",
         "Collector.record_mutation", keep=False, subclasses=True),
    # simulate: scheduler/timeline, thermal, compilers, class loading, VM
    Hook("jvm.scheduler.execute", "repro.jvm.scheduler",
         "InstrumentedScheduler.execute", keep=False),
    Hook("jvm.scheduler.idle", "repro.jvm.scheduler",
         "InstrumentedScheduler.idle", keep=False),
    Hook("jvm.scheduler.finish", "repro.jvm.scheduler",
         "InstrumentedScheduler.finish"),
    Hook("hardware.thermal.step", "repro.hardware.thermal",
         "ThermalModel.step", keep=False),
    Hook("hardware.thermal.step_batch", "repro.hardware.thermal",
         "ThermalModel.step_batch", keep=False),
    Hook("jvm.compiler.baseline", "repro.jvm.compiler.baseline",
         "BaselineCompiler.compile", keep=False),
    Hook("jvm.compiler.optimizing", "repro.jvm.compiler.optimizing",
         "OptimizingCompiler.compile", keep=False),
    Hook("jvm.compiler.kaffe_jit", "repro.jvm.compiler.kaffe_jit",
         "KaffeJIT.compile", keep=False),
    Hook("jvm.classloader.load", "repro.jvm.classloader",
         "ClassLoader.load", keep=False),
    Hook("jvm.vm.run", "repro.jvm.vm", "BaseVM.run", after=_n_segments),
    # measure: DAQ, HPM, decomposition, artifact restore, bootstrap
    Hook("measurement.daq.acquire", "repro.measurement.daq",
         "DAQ.acquire", after=_n_samples),
    Hook("measurement.hpm.sample", "repro.measurement.hpm_sampler",
         "HPMSampler.sample"),
    Hook("measurement.hpm.mux_sample", "repro.measurement.multiplexing",
         "MultiplexedHPMSampler.sample"),
    Hook("core.decomposition.decompose", "repro.core.experiment",
         "decompose"),
    Hook("core.simulation.run_result", "repro.core.simulation",
         "SimulationArtifact.run_result"),
    Hook("core.simulation.timeline", "repro.core.simulation",
         "SimulationArtifact.timeline"),
    Hook("campaign.artifacts.sim_key", "repro.campaign.artifacts",
         "sim_key"),
    Hook("analysis.uncertainty.run", "repro.analysis.uncertainty.bootstrap",
         "BootstrapEngine.run"),
    # service: queue, lease, execute, store
    Hook("serve.server.submit_body", "repro.serve.server",
         "ExperimentService.submit_body"),
    Hook("serve.queue.put", "repro.serve.queue", "BoundedJobQueue.put",
         after=_queue_put),
    Hook("serve.queue.get", "repro.serve.queue", "BoundedJobQueue.get",
         keep=False, after=_queue_get),
    Hook("serve.lease.try_acquire", "repro.serve.pool", "try_acquire",
         after=_lease_result),
    Hook("serve.pool.run_job", "repro.serve.pool",
         "ProcessWorkerPool.run_job", after=_parent_job_done),
    Hook("serve.pool.worker_job", "repro.serve.pool", "_process_job_main",
         before=_worker_job_start, after=_worker_job_done),
    Hook("serve.pool.encode_result", "repro.serve.pool", "encode_result"),
    Hook("serve.store.get_bytes", "repro.serve.store",
         "ResultStore.get_bytes"),
    Hook("serve.store.put_bytes", "repro.serve.store",
         "ResultStore.put_bytes"),
    Hook("campaign.cache.get", "repro.campaign.cache", "ResultCache.get",
         after=_cache_result),
    Hook("campaign.cache.put", "repro.campaign.cache", "ResultCache.put"),
)


def _wrap(tracer, hook, fn):
    name, keep, before, after = hook.name, hook.keep, hook.before, hook.after

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer)
        frame = tracer.begin(name, keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _owners(hook):
    """``(owner, attribute)`` pairs to patch for *hook*."""
    module = importlib.import_module(hook.module)
    path = hook.target.split(".")
    owner = module
    for part in path[:-1]:
        owner = getattr(owner, part)
    attr = path[-1]
    owners = [owner]
    if hook.subclasses:
        pending = list(owner.__subclasses__())
        while pending:
            cls = pending.pop()
            owners.append(cls)
            pending.extend(cls.__subclasses__())
    found = []
    for candidate in owners:
        raw = vars(candidate).get(attr)
        if callable(raw) and not getattr(raw, "__isabstractmethod__",
                                         False):
            found.append((candidate, attr))
    return found


class Installation:
    """Wrappers currently installed; :meth:`remove` restores them."""

    def __init__(self, tracer, hooks=HOOKS):
        self.tracer = tracer
        self.missing = []
        self._patched = []
        importlib.import_module("repro.jvm.gc")  # registers collectors
        for hook in hooks:
            try:
                owners = _owners(hook)
            except (ImportError, AttributeError):
                owners = []
            if not owners:
                self.missing.append(f"{hook.module}:{hook.target}")
            for owner, attr in owners:
                original = vars(owner)[attr]
                setattr(owner, attr, _wrap(tracer, hook, original))
                self._patched.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


# -- per-layer metrics ------------------------------------------------

class LayerMetric:
    """One per-layer metric and the end-to-end metric it should move.

    ``kind`` is ``self`` (self seconds per op over *spans*), ``calls``
    (calls per op), ``counter`` (a counter per op), ``max`` (largest
    gauge value) or ``ratio`` (a counter over the calls of *spans*).
    """

    def __init__(self, name, unit, better, kind, spans=(), counter=None,
                 moves=""):
        self.name = name
        self.unit = unit
        self.better = better
        self.kind = kind
        self.spans = tuple(spans)
        self.counter = counter
        self.moves = moves

    def value(self, tracer, n_ops):
        per_op = 1.0 / max(1, n_ops)
        if self.kind == "self":
            return tracer.self_s(*self.spans) * per_op
        if self.kind == "calls":
            return tracer.calls(*self.spans) * per_op
        if self.kind == "counter":
            return tracer.counters.get(self.counter, 0) * per_op
        if self.kind == "max":
            return tracer.maxima.get(self.counter, 0)
        if self.kind == "ratio":
            calls = tracer.calls(*self.spans)
            return tracer.counters.get(self.counter, 0) / calls if calls \
                else 0.0
        raise ValueError(f"unknown metric kind {self.kind!r}")


_CELLS = "ops_per_s on cells"
_MISS = "miss_s_p50 (ops_per_s) on serve-mix"
_BOOT = "ops_per_s on bootstrap"
_HEAP = ("ops_per_s on cells and miss_s_p50 on serve-mix; "
         "~0 on bootstrap")
_MEASURE = (f"{_BOOT}; a small share on cells, mostly its Kaffe cells")
_HIT = "op_s_p50 (hit_s_p50) on serve-mix"

#: The per-layer metrics, in report order.
LAYER_METRICS = (
    LayerMetric("jvm.objects.self_s", "s/op", "lower", "self",
                ("jvm.objects.wire", "jvm.objects.root_add",
                 "jvm.objects.root_expire"), moves=_HEAP),
    LayerMetric("jvm.objects.wire_calls", "calls/op", "lower", "calls",
                ("jvm.objects.wire",), moves=_HEAP),
    LayerMetric("jvm.gc.alloc_self_s", "s/op", "lower", "self",
                ("jvm.gc.allocate",), moves=_HEAP),
    LayerMetric("jvm.gc.alloc_calls", "calls/op", "lower", "calls",
                ("jvm.gc.allocate",), moves=_HEAP),
    LayerMetric("jvm.gc.collect_self_s", "s/op", "lower", "self",
                ("jvm.gc.collect",), moves=_HEAP),
    LayerMetric("jvm.gc.collections", "count/op", "lower", "counter",
                counter="jvm.gc.collections", moves=_HEAP),
    LayerMetric("jvm.gc.barrier_calls", "calls/op", "lower", "calls",
                ("jvm.gc.barrier",), moves=_HEAP),
    LayerMetric("jvm.scheduler.self_s", "s/op", "lower", "self",
                ("jvm.scheduler.execute", "jvm.scheduler.idle",
                 "jvm.scheduler.finish"), moves=_CELLS),
    LayerMetric("jvm.scheduler.execute_calls", "calls/op", "lower",
                "calls", ("jvm.scheduler.execute",), moves=_CELLS),
    LayerMetric("timeline.segments", "count/op", "lower", "counter",
                counter="timeline.segments", moves=_CELLS),
    LayerMetric("hardware.thermal.step_s", "s/op", "lower", "self",
                ("hardware.thermal.step", "hardware.thermal.step_batch"),
                moves=_CELLS),
    LayerMetric("jvm.compiler.self_s", "s/op", "lower", "self",
                ("jvm.compiler.baseline", "jvm.compiler.optimizing",
                 "jvm.compiler.kaffe_jit"), moves=_CELLS),
    LayerMetric("jvm.classloader.load_s", "s/op", "lower", "self",
                ("jvm.classloader.load",), moves=_CELLS),
    LayerMetric("jvm.vm.self_s", "s/op", "lower", "self",
                ("jvm.vm.run",), moves=_CELLS),
    LayerMetric("measurement.daq.acquire_s", "s/op", "lower", "self",
                ("measurement.daq.acquire",), moves=_MEASURE),
    LayerMetric("measurement.daq.samples", "count/op", "lower", "counter",
                counter="measurement.daq.samples", moves=_MEASURE),
    LayerMetric("measurement.hpm.sample_s", "s/op", "lower", "self",
                ("measurement.hpm.sample", "measurement.hpm.mux_sample"),
                moves=_MEASURE),
    LayerMetric("core.decomposition.decompose_s", "s/op", "lower", "self",
                ("core.decomposition.decompose",), moves=_MEASURE),
    LayerMetric("core.simulation.restore_s", "s/op", "lower", "self",
                ("core.simulation.run_result", "core.simulation.timeline"),
                moves=_MEASURE),
    LayerMetric("campaign.artifacts.sim_key_s", "s/op", "lower", "self",
                ("campaign.artifacts.sim_key",), moves=_MEASURE),
    LayerMetric("analysis.uncertainty.self_s", "s/op", "lower", "self",
                ("analysis.uncertainty.run",), moves=_BOOT),
    LayerMetric("serve.server.submit_s", "s/op", "lower", "self",
                ("serve.server.submit_body",), moves=_HIT),
    LayerMetric("serve.store.get_s", "s/op", "lower", "self",
                ("serve.store.get_bytes",), moves=_HIT),
    LayerMetric("serve.pool.encode_s", "s/op", "lower", "self",
                ("serve.pool.encode_result",), moves=_MISS),
    LayerMetric("serve.queue.wait_s", "s/op", "lower", "counter",
                counter="serve.queue.wait_s",
                moves="miss_s_p90 and ops_per_s on serve-mix"),
    LayerMetric("serve.queue.depth_max", "count", "lower", "max",
                counter="serve.queue.depth_max",
                moves="miss_s_p90 and ops_per_s on serve-mix"),
    LayerMetric("serve.lease.acquire_s", "s/op", "lower", "self",
                ("serve.lease.try_acquire",), moves=_MISS),
    LayerMetric("serve.lease.contended_ratio", "ratio", "lower", "ratio",
                ("serve.lease.try_acquire",),
                counter="serve.lease.contended", moves=_MISS),
    LayerMetric("serve.pool.run_job_s", "s/op", "lower", "self",
                ("serve.pool.run_job",), moves=_MISS),
    LayerMetric("serve.store.put_s", "s/op", "lower", "self",
                ("serve.store.put_bytes",), moves=_MISS),
    LayerMetric("campaign.cache.get_s", "s/op", "lower", "self",
                ("campaign.cache.get",), moves=_MISS),
    LayerMetric("campaign.cache.put_s", "s/op", "lower", "self",
                ("campaign.cache.put",), moves=_MISS),
    LayerMetric("campaign.cache.hit_ratio", "ratio", "higher", "ratio",
                ("campaign.cache.get",), counter="campaign.cache.hits",
                moves=_MISS),
    LayerMetric("bench.op.self_s", "s/op", "lower", "self",
                ("bench.op",),
                moves="time in no wrapped layer: harness, HTTP client, "
                      "unwrapped program code"),
)
