"""Tests for the job manager: queueing, dedup, backpressure, faults."""

import time

import pytest

from repro.harness.faults import FaultPlan
from repro.obs import MetricsRegistry
from repro.service.api import request_key, validate_request
from repro.service.errors import NotFoundError, QueueFullError
from repro.service.jobs import JobManager
from repro.service.store import ResultStore


def _request(circuit="KSA4", planes=2, seed=3, **extra):
    body = {"circuit": circuit, "num_planes": planes, "seed": seed}
    body.update(extra)
    normalized = validate_request(body)
    return request_key(normalized), normalized


@pytest.fixture()
def manager():
    mgr = JobManager(workers=1, queue_size=2, retries=0, backoff=0.0).start()
    yield mgr
    mgr.stop()


def test_submit_executes_and_completes(manager):
    key, normalized = _request()
    job, outcome = manager.submit(key, normalized)
    assert outcome == "queued"
    assert manager.wait(job.id, 60).finished
    assert job.state == "done"
    assert job.payload["circuit"] == "KSA4"
    assert all(isinstance(label, int) for label in job.payload["labels"])


def test_inflight_dedup_returns_same_job(manager):
    # Stopped workers can't drain the queue, so the first job stays
    # in-flight for the duration of the check.
    manager.stop()
    key, normalized = _request()
    first, _ = manager.submit(key, normalized)
    second, outcome = manager.submit(key, normalized)
    assert outcome == "deduped"
    assert second is first


def test_queue_full_raises_429_error():
    mgr = JobManager(workers=1, queue_size=1, retry_after=7)
    # Not started: jobs stay queued, so capacity is hit deterministically.
    key1, norm1 = _request(seed=1)
    mgr.submit(key1, norm1)
    key2, norm2 = _request(seed=2)
    with pytest.raises(QueueFullError) as excinfo:
        mgr.submit(key2, norm2)
    assert excinfo.value.retry_after == 7
    assert excinfo.value.status == 429


def test_store_hit_short_circuits_queue(tmp_path):
    store = ResultStore(root=str(tmp_path), enabled=True)
    mgr = JobManager(workers=1, queue_size=2, retries=0, store=store).start()
    try:
        key, normalized = _request()
        first, _ = mgr.submit(key, normalized)
        assert mgr.wait(first.id, 60).finished
        second, outcome = mgr.submit(key, normalized)
        assert outcome == "cached"
        assert second.state == "done"
        assert second.cached
        assert second.payload == first.payload
    finally:
        mgr.stop()


def test_wait_rejects_unknown_ids_and_never_parks_on_a_stopped_manager():
    mgr = JobManager(workers=1, queue_size=2)
    with pytest.raises(NotFoundError):
        mgr.wait("no-such-id", 10)
    # Not started: the job stays queued and the wait returns at once.
    key, normalized = _request()
    job, _ = mgr.submit(key, normalized)
    began = time.monotonic()
    assert mgr.wait(job.id, 10) is job
    assert job.state == "queued"
    assert time.monotonic() - began < 1.0


def test_cancel_queued_job():
    mgr = JobManager(workers=1, queue_size=4)
    key, normalized = _request()
    job, _ = mgr.submit(key, normalized)
    cancelled = mgr.cancel(job.id)
    assert cancelled is job
    assert job.state == "cancelled"
    assert mgr.queue_depth() == 0
    with pytest.raises(NotFoundError):
        mgr.cancel("no-such-id")


def test_injected_crash_fails_cleanly(manager):
    manager.fault_plan = FaultPlan.parse("crash@0x5")  # outlasts retries=0
    key, normalized = _request(seed=77)
    job, _ = manager.submit(key, normalized)
    assert manager.wait(job.id, 60).finished
    assert job.state == "failed"
    assert "crash" in job.error
    # The worker survives a failed job and keeps serving.
    manager.fault_plan = None
    key2, norm2 = _request(seed=78)
    job2, _ = manager.submit(key2, norm2)
    assert manager.wait(job2.id, 60).finished
    assert job2.state == "done"


def test_injected_crash_recovers_via_retry(tmp_path):
    mgr = JobManager(workers=1, queue_size=2, retries=1, backoff=0.0,
                     fault_plan=FaultPlan.parse("crash@0x1")).start()
    try:
        key, normalized = _request(seed=79)
        job, _ = mgr.submit(key, normalized)
        assert mgr.wait(job.id, 60).finished
        assert job.state == "done"
    finally:
        mgr.stop()


def test_injected_hang_times_out_cleanly(manager):
    # Inline execution records a hang as an instant timed-out failure.
    manager.fault_plan = FaultPlan.parse("hang@0x5")
    key, normalized = _request(seed=80)
    job, _ = manager.submit(key, normalized)
    assert manager.wait(job.id, 60).finished
    assert job.state == "failed"
    assert "timed-out" in job.error or "hang" in job.error


def test_metrics_counters():
    metrics = MetricsRegistry()
    mgr = JobManager(workers=1, queue_size=1, retries=0, metrics=metrics).start()
    try:
        key, normalized = _request(seed=81)
        job, _ = mgr.submit(key, normalized)
        assert mgr.wait(job.id, 60).finished
        data = metrics.as_dict()
        assert data["service.jobs.submitted"]["value"] == 1
        assert data["service.jobs.completed"]["value"] == 1
    finally:
        mgr.stop()


def test_stop_cancels_queued_jobs():
    mgr = JobManager(workers=1, queue_size=4)
    key, normalized = _request(seed=82)
    job, _ = mgr.submit(key, normalized)
    mgr.stop()
    assert job.state == "cancelled"
