"""Tests for the worker pools and cross-instance single-flight.

The in-process single-flight tests live in test_service.py; this file
exercises what is new with the worker fleet: the lease protocol between
*two service instances sharing one result store*, stale-lease takeover,
and the process worker pool end-to-end.
"""

import os
import threading
import time

import pytest

from repro.campaign.runner import CampaignRunner
from repro.errors import ConfigurationError
from repro.obs.distributed import (
    TraceContext,
    read_spool,
    span_record,
    write_spool,
)
from repro.serve.lease import try_acquire
from repro.serve.pool import (
    execute_spec_job,
    make_worker_pool,
)
from repro.serve.server import (
    ExperimentService,
    build_result_payload,
    encode_result,
)
from repro.serve.store import DONE, FAILED, ResultStore
from repro.spec import ScenarioSpec
from tests.serve.test_service import (
    GatedRunner,
    gated,  # noqa: F401 - fixture reused across files
    tiny_spec,
    wait_state,
)


def make_service(tmp_path, **kw):
    kw.setdefault("queue_size", 4)
    kw.setdefault("job_workers", 1)
    kw.setdefault("use_cell_cache", False)
    kw.setdefault("result_dir", tmp_path / "results")
    return ExperimentService(**kw)


def counters_of(service):
    return service.metrics_snapshot()["counters"]


class TestCrossInstanceSingleFlight:
    def test_racing_duplicate_executes_exactly_once(self, tmp_path,
                                                    gated):  # noqa: F811
        """Two instances, one store, the same spec submitted to both:
        one runs it, the other coalesces on the lease."""
        store_dir = tmp_path / "shared"
        a = make_service(tmp_path, result_dir=store_dir).start()
        b = make_service(tmp_path, result_dir=store_dir).start()
        try:
            spec = tiny_spec()
            _, job_a = a.submit_spec(spec)
            _, job_b = b.submit_spec(tiny_spec())
            # Both workers are in: one inside the gated runner, the
            # other polling the lease (both jobs report running).
            wait_state(a, job_a.id, "running")
            wait_state(b, job_b.id, "running")
            gated.gate.set()
            wait_state(a, job_a.id, DONE)
            wait_state(b, job_b.id, DONE)
            assert len(gated.started) == 1
            executed = [
                counters_of(s).get("serve.jobs_executed", 0)
                for s in (a, b)
            ]
            leased = [
                counters_of(s).get("serve.jobs_lease_coalesced", 0)
                for s in (a, b)
            ]
            assert sorted(executed) == [0, 1]
            assert sorted(leased) == [0, 1]
            # Winner and loser are opposite instances.
            assert executed.index(1) != leased.index(1)
            # No lease file left behind.
            assert not list(store_dir.rglob("*.lease"))
        finally:
            gated.gate.set()
            a.drain(5.0)
            b.drain(5.0)

    def test_peer_result_mid_wait_serves_without_executing(
            self, tmp_path, gated):  # noqa: F811
        """A job blocked on a foreign lease completes as soon as the
        lease holder's result bytes appear — no execution here."""
        service = make_service(tmp_path).start()
        try:
            spec = tiny_spec()
            job_id = spec.spec_hash()
            # A live foreign lease (fresh mtime, 30 s TTL) the service
            # can neither acquire nor steal.
            lease_path = service.results.lease_path_for(job_id)
            lease_path.parent.mkdir(parents=True, exist_ok=True)
            lease_path.write_text("{}")
            _, job = service.submit_spec(spec)
            wait_state(service, job.id, "running")
            time.sleep(0.15)  # let it poll the lease a few times
            assert job.state == "running"
            # The "peer" finishes: result bytes land in the store.
            peer_bytes = b'{"schema":"repro-result-v1","peer":true}'
            service.results.put_bytes(job_id, peer_bytes)
            wait_state(service, job.id, DONE)
            assert gated.started == []  # never executed locally
            assert counters_of(service)[
                "serve.jobs_lease_coalesced"] == 1
            assert service.results.get_bytes(job_id) == peer_bytes
        finally:
            gated.gate.set()
            service.drain(5.0)
            lease_path.unlink(missing_ok=True)

    def test_stale_lease_is_taken_over_and_counted(self, tmp_path,
                                                   gated):  # noqa: F811
        """A dead peer's lease (old mtime, nobody refreshing) must not
        wedge the key: the worker steals it and runs."""
        gated.gate.set()
        service = make_service(tmp_path, lease_ttl_s=0.2).start()
        try:
            spec = tiny_spec()
            lease_path = service.results.lease_path_for(
                spec.spec_hash()
            )
            lease_path.parent.mkdir(parents=True, exist_ok=True)
            lease_path.write_text("{}")
            dead = time.time() - 60.0
            os.utime(lease_path, (dead, dead))
            _, job = service.submit_spec(spec)
            wait_state(service, job.id, DONE)
            assert len(gated.started) == 1
            snap = counters_of(service)
            assert snap["serve.jobs_executed"] == 1
            assert snap["serve.lease_takeovers"] == 1
            assert not lease_path.exists()
        finally:
            service.drain(5.0)

    def test_unyielding_lease_times_out_the_job(self, tmp_path,
                                                gated):  # noqa: F811
        """A live foreign lease that never resolves fails the job with
        LeaseTimeout after lease_wait_s — it does not hang forever."""
        service = make_service(
            tmp_path, lease_ttl_s=30.0, lease_wait_s=0.3
        ).start()
        try:
            spec = tiny_spec()
            lease_path = service.results.lease_path_for(
                spec.spec_hash()
            )
            lease_path.parent.mkdir(parents=True, exist_ok=True)
            lease_path.write_text("{}")
            keep_fresh = threading.Event()

            def refresher():
                while not keep_fresh.wait(0.05):
                    os.utime(lease_path)

            thread = threading.Thread(target=refresher, daemon=True)
            thread.start()
            try:
                _, job = service.submit_spec(spec)
                wait_state(service, job.id, FAILED)
                assert "[LeaseTimeout]" in job.error
                assert gated.started == []
            finally:
                keep_fresh.set()
                thread.join(2.0)
        finally:
            gated.gate.set()
            service.drain(5.0)
            lease_path.unlink(missing_ok=True)


class TestExecuteSpecJob:
    def test_store_hit_short_circuits(self, tmp_path):
        spec = tiny_spec()
        results = ResultStore(tmp_path)
        results.put_bytes(spec.spec_hash(), b"{}")
        outcome = execute_spec_job(spec, results)
        assert outcome == {
            "ok": True, "executed": False, "via": "store",
            "took_over": False, "n_cells": 0, "n_executed": 0,
            "n_cached": 0,
        }

    def test_runner_exception_folds_into_outcome(self, tmp_path):
        spec = tiny_spec()
        results = ResultStore(tmp_path)

        class Boom:
            def __init__(self, **kwargs):
                pass

            def run(self, campaign):
                raise RuntimeError("kaboom")

        outcome = execute_spec_job(
            spec, results, runner_factory=lambda **kw: Boom(**kw)
        )
        assert outcome["ok"] is False
        assert outcome["error_type"] == "RuntimeError"
        assert "kaboom" in outcome["error"]
        assert "kaboom" in outcome["traceback"]
        # The lease was released despite the failure.
        assert not results.lease_path_for(spec.spec_hash()).exists()

    def test_lease_waiter_does_not_clobber_executor_spool(
            self, tmp_path):
        """A lease-coalesced waiter records a span of its own (the
        lease wait) but must never replace the executor's spool for
        the same content-addressed key."""
        spec = tiny_spec()
        results = ResultStore(tmp_path)
        job_id = spec.spec_hash()
        spool = results.trace_spool_for(job_id)
        write_spool(spool, TraceContext.for_job(job_id), [
            span_record("campaign", "engine", 1000.0, 1.0,
                        role="worker"),
        ])
        executor_bytes = spool.read_bytes()
        # A live "peer" holds the lease and finishes while we wait.
        lease = try_acquire(results.lease_path_for(job_id))
        assert lease is not None
        publish = threading.Timer(
            0.2, lambda: results.put_bytes(job_id, b"{}")
        )
        publish.start()
        try:
            outcome = execute_spec_job(
                spec, results, lease_wait_s=10.0,
                trace_ctx=TraceContext.for_job(job_id),
            )
        finally:
            publish.join()
            lease.release()
        assert outcome["ok"] and not outcome["executed"]
        assert outcome["via"] == "lease"
        # The executor's spans survived the waiter.
        assert spool.read_bytes() == executor_bytes
        assert [s["name"] for s in read_spool(spool)] == ["campaign"]


class TestProcessMode:
    def test_process_job_bytes_match_direct_run(self, tmp_path):
        """End-to-end through the process pool with the real simulator:
        the stored bytes are the same pure function of the spec."""
        spec = tiny_spec()
        service = make_service(
            tmp_path, worker_mode="process", job_workers=2
        ).start()
        try:
            assert service.health()["worker_mode"] == "process"
            _, job = service.submit_spec(spec)
            wait_state(service, job.id, DONE, timeout=60.0)
            served = service.results.get_bytes(job.id)
            assert counters_of(service)["serve.jobs_executed"] == 1
        finally:
            service.drain(10.0)
        direct = CampaignRunner(workers=1).run(spec.cells())
        assert served == encode_result(
            build_result_payload(spec, direct)
        )

    def test_spec_round_trips_process_boundary(self):
        spec = tiny_spec(heap_mb=48, seed=7)
        clone = ScenarioSpec.from_dict(spec.to_dict(), source="test")
        assert clone.spec_hash() == spec.spec_hash()


class TestConfiguration:
    def test_unknown_worker_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            make_service(tmp_path, worker_mode="fibers")

    def test_make_worker_pool_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError):
            make_worker_pool("fibers", results=ResultStore(tmp_path),
                            job_workers=1)

    def test_thread_pool_uses_runner_factory(self, tmp_path, gated):  # noqa: F811
        gated.gate.set()
        pool = make_worker_pool(
            "thread", results=ResultStore(tmp_path), job_workers=1,
            runner_factory=lambda **kw: GatedRunner(**kw),
        ).start()
        outcome = pool.run_job(tiny_spec())
        assert outcome["ok"] and outcome["executed"]
        assert outcome["via"] == "run"
        assert len(gated.started) == 1
