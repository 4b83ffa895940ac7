"""End-to-end HTTP tests of the partitioning service.

Each test boots a real ``ThreadingHTTPServer`` on an ephemeral port and
talks to it through :class:`repro.service.client.ServiceClient` — the
same stack the CLI, benchmark and CI smoke use.
"""

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.circuits.suite import build_circuit
from repro.harness.faults import FaultPlan
from repro.harness.runner import execute_job
from repro.netlist.serialize import netlist_to_dict
from repro.service import ServiceClient, ServiceHTTPError, build_server
from repro.service.api import request_to_job, validate_request
from repro.service.errors import QueueFullError
from repro.service.store import ResultStore
from repro.utils.errors import ReproError


@contextlib.contextmanager
def running_server(tmp_path, **opts):
    opts.setdefault("workers", 2)
    opts.setdefault("queue_size", 8)
    opts.setdefault("retries", 0)
    opts.setdefault("backoff", 0.0)
    opts.setdefault("store", ResultStore(root=str(tmp_path), enabled=True))
    server = build_server(host="127.0.0.1", port=0, **opts)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, ServiceClient(server.url, timeout=60.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


REQ = {"circuit": "KSA4", "num_planes": 3, "seed": 2020}


def test_health_reports_versions_and_queue(tmp_path):
    with running_server(tmp_path) as (_server, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["versions"]["netlist_format"] == 1
        assert health["queue_size"] == 8
        assert health["workers"] == 2
        assert health["store_enabled"]


def test_served_partition_bitwise_identical_to_cli_run(tmp_path):
    """The acceptance contract: HTTP result == local run, bit for bit."""
    with running_server(tmp_path) as (_server, client):
        served = client.partition(REQ)
    local = execute_job(request_to_job(validate_request(REQ)))
    assert np.array_equal(served["labels"], local["labels"])
    assert served["report"].b_max_ma == local["report"].b_max_ma


def test_inline_netlist_submission_bitwise_identical(tmp_path):
    netlist = netlist_to_dict(build_circuit("KSA4"))
    request = {"netlist": netlist, "num_planes": 3, "seed": 2020}
    with running_server(tmp_path) as (_server, client):
        served = client.partition(request)
    local = execute_job(request_to_job(validate_request(REQ)))
    assert np.array_equal(served["labels"], local["labels"])


def test_repeat_request_hits_result_store_and_metrics_show_it(tmp_path):
    with running_server(tmp_path) as (_server, client):
        first = client.submit(REQ)
        client.wait(first["id"])
        second = client.submit(REQ)
        assert second["outcome"] == "cached"
        assert second["state"] == "done"
        metrics = client.metrics()
        assert metrics["metrics"]["service.store.hits"]["value"] == 1
        assert metrics["store"]["hits"] == 1
        served_again = client.result(second["id"])["result"]
        served_first = client.result(first["id"])["result"]
        assert served_again == served_first


def test_full_queue_returns_429_with_retry_after(tmp_path):
    with running_server(tmp_path, workers=1, queue_size=1,
                        retry_after=3) as (server, client):
        # Drain no jobs: with the workers stopped, queued jobs stay
        # queued, so capacity is hit deterministically.
        server.service.manager.stop()
        first = client.submit(dict(REQ, seed=1))
        assert first["state"] == "queued"
        with pytest.raises(QueueFullError) as excinfo:
            client.submit(dict(REQ, seed=2))
        assert excinfo.value.retry_after == 3
        metrics = client.metrics()
        assert metrics["metrics"]["service.queue.rejections"]["value"] == 1


def test_injected_crash_gives_clean_500_and_server_keeps_serving(tmp_path):
    plan = FaultPlan.parse("crash@0x99")
    with running_server(tmp_path, workers=1,
                        fault_plan=plan) as (server, client):
        job = client.submit(dict(REQ, seed=41))
        status = client.wait(job["id"])
        assert status["state"] == "failed"
        assert "crash" in status["error"]
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 500
        assert "crash" in str(excinfo.value)
        # Same server, fault cleared: next job succeeds.
        server.service.manager.fault_plan = None
        served = client.partition(dict(REQ, seed=42))
        assert len(served["labels"]) > 0


def test_injected_hang_times_out_cleanly(tmp_path):
    plan = FaultPlan.parse("hang@0x99")
    with running_server(tmp_path, workers=1,
                        fault_plan=plan) as (server, client):
        job = client.submit(dict(REQ, seed=43))
        status = client.wait(job["id"])
        assert status["state"] == "failed"
        server.service.manager.fault_plan = None
        assert client.health()["status"] == "ok"
        served = client.partition(dict(REQ, seed=44))
        assert len(served["labels"]) > 0


def test_result_of_unfinished_job_is_409(tmp_path):
    with running_server(tmp_path, workers=1, queue_size=2) as (server, client):
        server.service.manager.stop()
        job = client.submit(dict(REQ, seed=45))
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409


def test_cancel_queued_job_over_http(tmp_path):
    with running_server(tmp_path, workers=1, queue_size=2) as (server, client):
        server.service.manager.stop()
        job = client.submit(dict(REQ, seed=46))
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        status = client.status(job["id"])
        assert status["state"] == "cancelled"
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409


def test_validation_errors_are_400(tmp_path):
    with running_server(tmp_path) as (_server, client):
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.submit({"circuit": "NOPE", "num_planes": 3, "seed": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.submit({"circuit": "KSA4", "num_planes": 3, "seed": "x"})
        assert excinfo.value.status == 400
        assert "seed" in str(excinfo.value)


def test_unknown_routes_and_jobs_are_404(tmp_path):
    with running_server(tmp_path) as (_server, client):
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.status("not-a-job")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceHTTPError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404


def test_job_list_and_request_spans(tmp_path):
    with running_server(tmp_path) as (_server, client):
        client.partition(dict(REQ, seed=47))
        jobs = client.jobs()
        assert len(jobs) == 1
        assert jobs[0]["state"] == "done"
        metrics = client.metrics()
        assert metrics["metrics"]["service.http.requests"]["value"] >= 3
        assert "service.request" in metrics["spans"]


def test_client_reports_unreachable_server():
    client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(ReproError, match="cannot reach service"):
        client.health()


# ----------------------------------------------------------------------
# Waited status (``GET /v1/jobs/<id>?wait=``)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def held_solves(server):
    """Hold every solve of ``server`` until the block exits.

    With one worker the first job then stays ``running`` and every later
    one stays ``queued`` for as long as the test needs.
    """
    manager = server.service.manager
    gate = threading.Event()
    solve = manager._solve

    def held(job, tracer):
        gate.wait(60)
        return solve(job, tracer)

    manager._solve = held
    try:
        yield
    finally:
        gate.set()


def test_waited_status_of_finished_job_returns_at_once(tmp_path):
    with running_server(tmp_path) as (_server, client):
        job = client.submit(REQ)
        client.wait(job["id"], timeout=60.0)
        began = time.monotonic()
        status = client.status(job["id"], wait=20.0)
        assert status["state"] == "done"
        assert time.monotonic() - began < 1.0


def test_waited_status_wakes_when_a_queued_job_is_cancelled(tmp_path):
    with running_server(tmp_path, workers=1) as (server, client), \
            held_solves(server):
        client.submit(dict(REQ, seed=50))
        queued = client.submit(dict(REQ, seed=51))
        assert queued["state"] == "queued"
        answers = []
        waiter = threading.Thread(target=lambda: answers.append(
            (client.status(queued["id"], wait=20.0), time.monotonic())))
        waiter.start()
        time.sleep(0.2)  # let the waited request reach the server
        cancelled_at = time.monotonic()
        client.cancel(queued["id"])
        waiter.join(5.0)
        assert answers, "waited status never returned"
        status, answered_at = answers[0]
        assert status["state"] == "cancelled"
        assert answered_at - cancelled_at < 1.0


@pytest.mark.parametrize("wait", ["-1", "nan", "inf", "abc"])
def test_bad_wait_values_are_400(tmp_path, wait):
    with running_server(tmp_path) as (_server, client):
        job = client.submit(REQ)
        with pytest.raises(ServiceHTTPError) as excinfo:
            client._request("GET", f"/v1/jobs/{job['id']}?wait={wait}")
        assert excinfo.value.status == 400
        assert "wait" in str(excinfo.value)


def test_waited_status_of_unknown_job_is_404_without_waiting(tmp_path):
    with running_server(tmp_path) as (_server, client):
        began = time.monotonic()
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.status("not-a-job", wait=20.0)
        assert excinfo.value.status == 404
        assert time.monotonic() - began < 1.0


def test_client_wait_gives_up_at_its_own_timeout(tmp_path):
    """A job that cannot finish costs the caller its ``timeout``, not
    the server's 30 s cap on one waited request."""
    with running_server(tmp_path, workers=1) as (server, client), \
            held_solves(server):
        job = client.submit(dict(REQ, seed=52))
        began = time.monotonic()
        with pytest.raises(ReproError, match="still (queued|running)"):
            client.wait(job["id"], timeout=0.3)
        assert time.monotonic() - began < 2.0


#: From ``server.shutdown()`` to the answer of a held status request.
WAITER_RELEASE_BUDGET_S = 0.5


def test_shutdown_releases_a_waiter_on_a_queued_job(tmp_path):
    """``server.shutdown()`` cancels queued jobs before it stops the
    listener, so a held status request is answered at once."""
    with running_server(tmp_path, workers=1) as (server, client), \
            held_solves(server):
        client.submit(dict(REQ, seed=53))
        queued = client.submit(dict(REQ, seed=54))
        answers = []
        waiter = threading.Thread(target=lambda: answers.append(
            (client.status(queued["id"], wait=20.0), time.monotonic())))
        waiter.start()
        time.sleep(0.2)  # let the waited request reach the server
        began = time.monotonic()
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        stopper.start()
        waiter.join(WAITER_RELEASE_BUDGET_S)
    stopper.join(10.0)
    assert answers, "shutdown did not release the waiter"
    status, answered_at = answers[0]
    assert status["state"] == "cancelled"
    assert answered_at - began < WAITER_RELEASE_BUDGET_S


def _http_calls(client):
    """Requests the server has recorded, its metrics reads left out.

    A handler counts its request just after sending the response, so
    read until two reads agree — nothing is then left uncounted.
    """
    previous = None
    while True:
        metrics = client.metrics()["metrics"]
        requests = metrics.get("service.http.requests", {}).get("value", 0)
        reads = metrics.get("service.http.seconds.metrics", {}).get("count", 0)
        calls = requests - reads
        if calls == previous:
            return calls
        previous = calls


def test_partition_http_call_budget(tmp_path):
    """A fresh solve is submit + one waited status + result; a
    result-store hit is submit + result."""
    request = {"circuit": "KSA32", "num_planes": 5, "seed": 55}
    with running_server(tmp_path) as (_server, client):
        before = _http_calls(client)
        fresh = client.partition(request)
        after_fresh = _http_calls(client)
        hit = client.partition(request)
        after_hit = _http_calls(client)
    assert after_fresh - before == 3
    assert after_hit - after_fresh == 2
    assert np.array_equal(fresh["labels"], hit["labels"])


def test_concurrent_waiters_each_get_their_own_answer(tmp_path):
    """More waiting clients than workers, more workers than cores, and a
    short switch interval: every client is woken for its own job and
    spends exactly three requests on it."""
    clients, per_client = 8, 3
    requests = [[dict(REQ, seed=100 + c * per_client + i)
                 for i in range(per_client)] for c in range(clients)]
    served, errors = {}, []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with running_server(tmp_path, workers=4,
                            queue_size=2 * clients) as (server, client):
            before = _http_calls(client)

            def drive(bodies):
                own = ServiceClient(server.url, timeout=60.0)
                try:
                    for body in bodies:
                        served[body["seed"]] = own.partition(body)
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [threading.Thread(target=drive, args=(bodies,))
                       for bodies in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
            assert not any(thread.is_alive() for thread in threads)
            calls = _http_calls(client) - before
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert calls == 3 * clients * per_client
    for bodies in requests:
        for body in bodies:
            local = execute_job(request_to_job(validate_request(body)))
            assert np.array_equal(served[body["seed"]]["labels"],
                                  local["labels"])
