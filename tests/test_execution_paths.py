"""One conformance matrix over every execution path of a job.

The core invariant of the partitioner is bitwise determinism: a job
gives the same bytes whichever path runs it.  Each case below runs the
same job list through one of six paths — :func:`run_jobs` inline, on a
process pool and mega-batched, and the service's ``JobManager`` with
``inline``, ``process`` and ``fleet`` isolation (the fleet path with an
in-thread :class:`~repro.fleet.worker.FleetWorker`) — and requires:

* the ``payload_to_jsonable`` JSON of every job is byte-identical to a
  plain :func:`execute_job` run;
* under ``REPRO_FAULT`` ``crash@0`` / ``corrupt@0`` a single job records
  the same failure kinds at the same attempt numbers on every path, and
  still converges to the clean bytes;
* with deep tracing on, every service path hands the solver's spans
  back into the request's span tree.
"""

import contextlib
import io
import json
import threading

import pytest

from repro import obs
from repro.circuits.suite import build_circuit
from repro.fleet.worker import FleetWorker
from repro.harness.checkpoint import payload_to_jsonable
from repro.harness.runner import execute_job, run_jobs
from repro.netlist.serialize import netlist_to_dict
from repro.obs import EventLog
from repro.obs import events as obs_events
from repro.obs.export import read_trace_jsonl
from repro.obs.report import span_trees
from repro.service import ServiceClient, build_server
from repro.service.api import request_to_job, validate_request
from repro.service.store import ResultStore

#: Two KSA8 K=5 seeds, one plan job and one inline-netlist job.
REQUESTS = [
    {"circuit": "KSA8", "num_planes": 5, "seed": 11},
    {"circuit": "KSA8", "num_planes": 5, "seed": 12},
    {"kind": "plan", "circuit": "KSA4", "bias_limit_ma": 40.0, "seed": 3},
    {"netlist": netlist_to_dict(build_circuit("KSA4")), "num_planes": 3,
     "seed": 5},
]

#: Events that charge one failed attempt, on the runner and fleet ledgers.
FAILURE_EVENTS = ("runner.attempt_failed", "runner.job_failed",
                  "fleet.requeued", "fleet.failed")


def canonical(jsonable):
    return json.dumps(jsonable, sort_keys=True)


def suite_jobs(requests):
    return [request_to_job(validate_request(dict(r))) for r in requests]


def reference(requests):
    return [canonical(payload_to_jsonable(execute_job(job)))
            for job in suite_jobs(requests)]


def runner_path(**opts):
    def run(requests):
        payloads = run_jobs(suite_jobs(requests), retries=1, backoff=0.0,
                            **opts)
        return [canonical(payload_to_jsonable(p)) for p in payloads], []
    return run


@contextlib.contextmanager
def service(isolation, **opts):
    """A served JobManager (plus an in-thread worker node for fleet)."""
    server = build_server(
        host="127.0.0.1", port=0, workers=1, retries=1, backoff=0.0,
        isolation=isolation, store=ResultStore(enabled=False),
        events=EventLog(), **opts,
    )
    threads = [threading.Thread(target=server.serve_forever, daemon=True)]
    worker = None
    if isolation == "fleet":
        worker = FleetWorker(server.url, worker_id="matrix", poll=0.1)
        threads.append(threading.Thread(target=worker.run, daemon=True))
    for thread in threads:
        thread.start()
    try:
        yield server, ServiceClient(server.url, timeout=60.0)
    finally:
        if worker is not None:
            worker.stop()
        server.shutdown()
        server.server_close()
        for thread in threads:
            thread.join(5)


def service_path(isolation):
    def run(requests):
        with service(isolation) as (server, client):
            jobs = [client.submit(request) for request in requests]
            for job in jobs:
                assert client.wait(job["id"], timeout=120.0)["state"] == "done"
            served = [canonical(client.result(job["id"])["result"])
                      for job in jobs]
            return served, server.service.events.snapshot()
    return run


PATHS = {
    "run_jobs-inline": runner_path(jobs=1),
    "run_jobs-pool": runner_path(jobs=2, force_pool=True),
    "run_jobs-megabatch": runner_path(jobs=1, megabatch=True),
    "service-inline": service_path("inline"),
    "service-process": service_path("process"),
    "service-fleet": service_path("fleet"),
}


@pytest.fixture()
def runner_events():
    """Capture the runner's attempt events in a private default log."""
    log = obs_events.set_default_events(EventLog())
    yield log
    obs_events.set_default_events(None)


@pytest.fixture(scope="module")
def clean():
    return reference(REQUESTS)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_payloads_are_byte_identical_on_every_path(path, clean, runner_events):
    served, _events = PATHS[path](REQUESTS)
    assert served == clean
    assert not [e for e in runner_events.snapshot()
                if e["event"] in FAILURE_EVENTS]


@pytest.mark.parametrize("fault, kind", [("crash@0", "crashed"),
                                         ("corrupt@0", "invalid-result")])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_fault_history_is_the_same_on_every_path(
    path, fault, kind, clean, runner_events, monkeypatch
):
    """One job whose first attempt suffers ``fault``: one failure of
    ``kind`` on attempt 1, then the clean bytes on attempt 2."""
    monkeypatch.setenv("REPRO_FAULT", fault)
    served, service_events = PATHS[path](REQUESTS[:1])
    history = [
        (event["kind"], event["attempt"])
        for event in runner_events.snapshot() + service_events
        if event["event"] in FAILURE_EVENTS
    ]
    assert history == [(kind, 1)]
    assert served == clean[:1]


@pytest.mark.parametrize("isolation", ["inline", "process", "fleet"])
def test_deep_trace_reaches_the_request_tree_on_every_service_path(isolation):
    obs.disable(reset=True)
    with service(isolation, tracing=True) as (_server, client):
        job = client.submit(REQUESTS[0])
        assert client.wait(job["id"], timeout=120.0)["state"] == "done"
        trace_text = client.trace_text()
    parsed = read_trace_jsonl(io.StringIO(trace_text))
    requests, _skipped = span_trees(parsed["spans"])
    roots = requests[job["trace"]["request_id"]]
    assert len(roots) == 1, "one request must produce exactly one tree"

    def paths(node):
        yield node["path"]
        for child in node["children"]:
            yield from paths(child)

    assert any(p.startswith("partition") for p in paths(roots[0]))
