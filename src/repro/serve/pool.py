"""Worker pools: how the experiment service executes a job.

The service's worker *threads* pull jobs off the bounded queue; a
worker pool decides where the campaign actually runs:

* :class:`ThreadWorkerPool` — in the service process (the original
  behavior).  Fine for I/O-light deployments and for tests, but every
  concurrent job contends on one GIL, so CPU-bound cells serialize.
* :class:`ProcessWorkerPool` — on a persistent
  ``ProcessPoolExecutor``, one OS process per job worker.  Specs cross
  the boundary as plain dicts (:meth:`ScenarioSpec.to_dict` round-trips
  through :meth:`ScenarioSpec.from_dict` with an identical
  ``spec_hash``), and the worker writes the result bytes into the
  shared :class:`~repro.serve.store.ResultStore` itself — only a small
  outcome summary is pickled back, never the payload.

Both modes execute through one function, :func:`execute_spec_job`,
which wraps the campaign in the cross-process single-flight protocol
(:mod:`repro.serve.lease`):

1. result already in the store → serve it, run nothing (``via:
   "store"``);
2. acquire the lease beside the result entry; if a *live* peer — a
   sibling worker process or a whole other service instance sharing
   the store — holds it, poll until the peer's result appears (``via:
   "lease"``);
3. lease held (possibly taken over from a dead peer): run the
   campaign, write the canonical bytes, release.

Outcomes are plain dicts (never exceptions) so the same shape crosses
the process boundary and the in-thread path identically.
"""

import os
import time
import traceback

from repro.campaign.runner import CampaignRunner
from repro.obs.distributed import SpanRecorder, TraceContext, write_spool
from repro.obs.logging import get_logger
from repro.provenance import build_envelope
from repro.serve.lease import DEFAULT_LEASE_TTL_S, try_acquire

#: How the service runs jobs; ``repro serve --worker-mode``.
WORKER_MODES = ("thread", "process")

#: Default bound on waiting for a peer's lease to resolve.
DEFAULT_LEASE_WAIT_S = 600.0

#: Poll interval while waiting on a peer's lease.
_LEASE_POLL_S = 0.05


def build_result_payload(spec, campaign_result):
    """The deterministic result document for one completed spec.

    Contains only values that are pure functions of the spec (cell
    payloads are simulator output; the simulator is seeded), so the
    encoded bytes are identical no matter where or when the spec ran —
    which is what makes the store content-addressed rather than merely
    keyed.  Wall times, attempts, and worker counts live on the job
    record instead.
    """
    return {
        "schema": "repro-result-v1",
        "spec_hash": spec.spec_hash(),
        "spec": spec.to_dict(),
        "cells": [cell.payload for cell in campaign_result.cells],
    }


def encode_result(payload):
    """Canonical JSON bytes for a result payload (sorted keys, no
    whitespace) — the exact bytes stored and served."""
    import json

    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _done(executed, via, took_over=False, n_cells=0, n_executed=0,
          n_cached=0):
    return {
        "ok": True, "executed": executed, "via": via,
        "took_over": took_over, "n_cells": n_cells,
        "n_executed": n_executed, "n_cached": n_cached,
    }


def _failed(error, error_type, **extra):
    out = {"ok": False, "error": error, "error_type": error_type}
    out.update(extra)
    return out


def _traced_runner_obs(obs, tracer):
    """The runner's obs bundle when per-job tracing is on: the local
    harvesting tracer plus whatever metrics/log the caller already
    aggregates — so tracing adds spans without changing what the
    service's metrics see."""
    from repro.obs import Observability

    if obs is None:
        return Observability(tracer=tracer)
    return Observability(tracer=tracer, metrics=obs.metrics,
                         log=obs.log)


def execute_spec_job(spec, results, cell_cache=None, cell_workers=1,
                     timeout_s=None, retries=1,
                     lease_ttl_s=DEFAULT_LEASE_TTL_S,
                     lease_wait_s=DEFAULT_LEASE_WAIT_S,
                     runner_factory=None, obs=None, trace_ctx=None):
    """Run *spec* to a stored result under the single-flight lease.

    Returns an outcome dict:

    * ``{"ok": True, "executed": True, ...}`` — this call ran the
      campaign and wrote the result (``took_over`` marks a stale-lease
      takeover from a dead peer);
    * ``{"ok": True, "executed": False, "via": "store"|"lease", ...}``
      — the result already existed, or a live peer produced it while
      we waited;
    * ``{"ok": False, "error", "error_type", ...}`` — failed cells,
      a raised error, or a lease that never resolved within
      *lease_wait_s*.

    With a :class:`~repro.obs.distributed.TraceContext` the executing
    process also records worker-side spans — lease acquisition, the
    campaign (with per-cell spans harvested from a local tracer), and
    the store write — and spools them beside the result entry for the
    service to merge into the per-job trace.  Tracing never touches
    the result bytes: the payload is built from the campaign result
    alone, and the spool is a separate file.
    """
    job_id = spec.spec_hash()
    recorder = (SpanRecorder(trace_ctx) if trace_ctx is not None
                else None)
    log = get_logger().bind(job=job_id[:12], worker_pid=os.getpid())
    try:
        return _run_under_lease(
            spec, job_id, results, cell_cache, cell_workers,
            timeout_s, retries, lease_ttl_s, lease_wait_s,
            runner_factory, obs, recorder, log,
        )
    finally:
        # Only the process that actually ran the campaign writes the
        # spool: a lease-coalesced waiter holds spans too (its lease
        # wait), and replacing the executor's spool for the same
        # content-addressed key would destroy the engine/store spans.
        if (recorder is not None and recorder.executed
                and recorder.records):
            try:
                write_spool(results.trace_spool_for(job_id),
                            trace_ctx, recorder.records)
            except OSError as exc:
                # Losing the trace must never fail the job.
                log.warning("serve.spool_write_failed", error=str(exc))


def _run_under_lease(spec, job_id, results, cell_cache, cell_workers,
                     timeout_s, retries, lease_ttl_s, lease_wait_s,
                     runner_factory, obs, recorder, log):
    if job_id in results:
        log.debug("serve.job_via_store")
        return _done(False, "store")
    lease_start = time.time()
    deadline = time.monotonic() + lease_wait_s
    lease = None
    while lease is None:
        if job_id in results:
            if recorder is not None:
                recorder.add("lease wait", "lease", lease_start,
                             time.time() - lease_start, via="lease")
            log.debug("serve.job_via_lease")
            return _done(False, "lease")
        lease = try_acquire(results.lease_path_for(job_id),
                            ttl_s=lease_ttl_s)
        if lease is None:
            if time.monotonic() >= deadline:
                if recorder is not None:
                    recorder.add("lease wait", "lease", lease_start,
                                 time.time() - lease_start,
                                 error="LeaseTimeout")
                log.warning("serve.lease_timeout",
                            waited_s=round(lease_wait_s, 3))
                return _failed(
                    f"gave up after {lease_wait_s:.0f} s waiting for "
                    f"the peer holding the lease on {job_id[:12]} "
                    "to finish or go stale",
                    "LeaseTimeout",
                )
            time.sleep(_LEASE_POLL_S)
    if recorder is not None:
        recorder.add("lease acquire", "lease", lease_start,
                     time.time() - lease_start,
                     took_over=lease.took_over)
    if lease.took_over:
        log.warning("serve.lease_takeover")
    try:
        # A peer may have finished in the takeover window between our
        # last store check and the acquisition.
        if job_id in results:
            log.debug("serve.job_via_lease", took_over=lease.took_over)
            return _done(False, "lease", took_over=lease.took_over)
        make_runner = (
            runner_factory if runner_factory is not None
            else CampaignRunner
        )
        if recorder is not None:
            # From here on this process is the executor; its spool may
            # be written (even on failure — a failed run leaves no
            # result, so no peer spool exists to clobber).
            recorder.executed = True
        kwargs = dict(workers=cell_workers, cache=cell_cache,
                      timeout_s=timeout_s, retries=retries)
        local_tracer = None
        if recorder is not None:
            from repro.obs.tracer import Tracer

            local_tracer = Tracer()
            kwargs["obs"] = _traced_runner_obs(obs, local_tracer)
        elif obs is not None:
            kwargs["obs"] = obs
        result = make_runner(**kwargs).run(spec.cells())
        if local_tracer is not None:
            recorder.extend_from_tracer(local_tracer)
        failed = result.failed_cells()
        if failed:
            first = failed[0]
            log.warning("serve.job_cells_failed", n_failed=len(failed))
            return _failed(
                f"{len(failed)}/{len(result)} cells failed; first: "
                f"[{first.error_type}] {first.error}",
                "ConfigurationError",
            )
        data = encode_result(build_result_payload(spec, result))
        envelope = build_envelope(
            "result", job_id, spec_hash=job_id,
            spec_name=spec.name or None, n_cells=len(result),
        )
        if recorder is not None:
            with recorder.span("store write", "store",
                               n_bytes=len(data)):
                results.put_bytes(job_id, data, envelope=envelope)
        else:
            results.put_bytes(job_id, data, envelope=envelope)
        log.info("serve.job_executed", n_cells=len(result),
                 took_over=lease.took_over)
        return _done(
            True, "run", took_over=lease.took_over,
            n_cells=len(result),
            n_executed=result.summary.n_executed,
            n_cached=result.summary.n_cached,
        )
    except BaseException as exc:  # noqa: BLE001 - folded, not raised
        log.warning("serve.job_error", error=str(exc),
                    error_type=type(exc).__name__)
        return _failed(str(exc), type(exc).__name__,
                       traceback=traceback.format_exc())
    finally:
        lease.release()


class ThreadWorkerPool:
    """Jobs run inside the service process, on the worker thread.

    Shares the service's live :class:`ResultCache` object (hit/miss
    counters aggregate across jobs) and resolves the runner through
    *runner_factory* at call time, so tests can substitute a gated
    fake runner.
    """

    mode = "thread"

    def __init__(self, results, cell_cache=None, cell_workers=1,
                 timeout_s=None, retries=1,
                 lease_ttl_s=DEFAULT_LEASE_TTL_S,
                 lease_wait_s=DEFAULT_LEASE_WAIT_S,
                 runner_factory=None, obs=None):
        self.results = results
        self.cell_cache = cell_cache
        self.cell_workers = cell_workers
        self.timeout_s = timeout_s
        self.retries = retries
        self.lease_ttl_s = lease_ttl_s
        self.lease_wait_s = lease_wait_s
        self.runner_factory = runner_factory
        self.obs = obs

    def start(self):
        return self

    def run_job(self, spec, trace_ctx=None):
        return execute_spec_job(
            spec, self.results, cell_cache=self.cell_cache,
            cell_workers=self.cell_workers, timeout_s=self.timeout_s,
            retries=self.retries, lease_ttl_s=self.lease_ttl_s,
            lease_wait_s=self.lease_wait_s,
            runner_factory=self.runner_factory, obs=self.obs,
            trace_ctx=trace_ctx,
        )

    def shutdown(self):
        pass


def _process_job_main(spec_dict, trace, opts):
    """Worker-process entry point: rebuild the spec, trace context and
    stores from plain data, execute under the lease, fold everything
    into the outcome dict (no exception crosses the process boundary).

    *spec_dict* is :meth:`ScenarioSpec.to_dict`; *trace* is
    :meth:`TraceContext.to_dict` or ``None`` when the job is untraced.
    """
    try:
        from repro.campaign.cache import ResultCache
        from repro.serve.store import ResultStore
        from repro.spec import ScenarioSpec

        spec = ScenarioSpec.from_dict(spec_dict, source="worker job")
        trace_ctx = TraceContext.from_dict(trace)
        results = ResultStore(opts["result_dir"],
                              shards=opts["store_shards"])
        cache = (ResultCache(opts["cache_dir"])
                 if opts["cache_dir"] is not None else None)
        outcome = execute_spec_job(
            spec, results, cell_cache=cache,
            cell_workers=opts["cell_workers"],
            timeout_s=opts["timeout_s"], retries=opts["retries"],
            lease_ttl_s=opts["lease_ttl_s"],
            lease_wait_s=opts["lease_wait_s"],
            trace_ctx=trace_ctx,
        )
        if cache is not None:
            # The worker's cache counters die with the call; ship them
            # back so the parent's aggregate hit rate stays truthful.
            outcome["cache_hits"] = cache.hits
            outcome["cache_misses"] = cache.misses
        return outcome
    except BaseException as exc:  # noqa: BLE001 - folded, not raised
        return _failed(str(exc), type(exc).__name__,
                       traceback=traceback.format_exc())


class ProcessWorkerPool:
    """Jobs run on a persistent process pool — one OS process per job
    worker, so CPU-bound campaigns scale with cores instead of
    serializing on the service's GIL.

    The pool survives worker death: a ``BrokenProcessPool`` fails only
    the in-flight job, and the executor is rebuilt for the next one.
    The dead worker's lease goes stale and is taken over by whichever
    peer retries the spec.
    """

    mode = "process"

    def __init__(self, workers, result_dir, store_shards=1,
                 cache_dir=None, cell_workers=1, timeout_s=None,
                 retries=1, lease_ttl_s=DEFAULT_LEASE_TTL_S,
                 lease_wait_s=DEFAULT_LEASE_WAIT_S):
        self.workers = int(workers)
        self._opts = {
            "result_dir": str(result_dir),
            "store_shards": int(store_shards),
            "cache_dir": str(cache_dir) if cache_dir is not None else None,
            "cell_workers": int(cell_workers),
            "timeout_s": timeout_s,
            "retries": int(retries),
            "lease_ttl_s": float(lease_ttl_s),
            "lease_wait_s": float(lease_wait_s),
        }
        self._pool = None
        import threading

        self._lock = threading.Lock()

    def start(self):
        from concurrent.futures import ProcessPoolExecutor

        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers
                )
        return self

    def run_job(self, spec, trace_ctx=None):
        from concurrent.futures.process import BrokenProcessPool

        with self._lock:
            pool = self._pool
        if pool is None:
            return _failed("worker pool is not running",
                           "PoolShutdown")
        # The trace context travels beside the spec dict, never inside
        # it, so the spec hash (and so the result bytes) are identical
        # traced or not.
        trace = trace_ctx.to_dict() if trace_ctx is not None else None
        try:
            future = pool.submit(_process_job_main, spec.to_dict(), trace,
                                 self._opts)
            return future.result()
        except BrokenProcessPool:
            # The job's worker died (OOM kill, segfault, operator).
            # Replace the executor so subsequent jobs still run; the
            # dead worker's lease expires on its own TTL.
            from concurrent.futures import ProcessPoolExecutor

            with self._lock:
                if self._pool is pool:
                    pool.shutdown(wait=False, cancel_futures=True)
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers
                    )
            return _failed("worker process died mid-job",
                           "BrokenProcessPool")

    def shutdown(self):
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def make_worker_pool(mode, *, results, job_workers, cell_cache=None,
                     cell_workers=1, timeout_s=None, retries=1,
                     lease_ttl_s=DEFAULT_LEASE_TTL_S,
                     lease_wait_s=DEFAULT_LEASE_WAIT_S,
                     runner_factory=None, obs=None):
    """Build the worker pool for *mode* (``"thread"``/``"process"``)."""
    if mode not in WORKER_MODES:
        raise ValueError(
            f"unknown worker mode {mode!r}; expected one of "
            f"{WORKER_MODES}"
        )
    if mode == "thread":
        return ThreadWorkerPool(
            results, cell_cache=cell_cache, cell_workers=cell_workers,
            timeout_s=timeout_s, retries=retries,
            lease_ttl_s=lease_ttl_s, lease_wait_s=lease_wait_s,
            runner_factory=runner_factory, obs=obs,
        )
    return ProcessWorkerPool(
        workers=job_workers, result_dir=results.root,
        store_shards=results.shards,
        cache_dir=cell_cache.root if cell_cache is not None else None,
        cell_workers=cell_workers, timeout_s=timeout_s,
        retries=retries, lease_ttl_s=lease_ttl_s,
        lease_wait_s=lease_wait_s,
    )
