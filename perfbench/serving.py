"""``service-mix`` and ``fleet-lease``: closed loops of ``nproc`` client
threads against an in-process partitioning server.

Each client thread owns a :class:`~repro.service.client.ServiceClient`
and walks its own seeded request stream, calling the blocking
``partition`` (submit, poll, result) until the run's seconds are up;
requests started before then finish.  ``service-mix`` uses the default
``inline`` isolation; ``fleet-lease`` runs ``isolation="fleet"`` with
one ``repro-gpp worker`` subprocess.  Both get a private result store.

Every answer is checked, after the timed window, against a local
``execute_job(request_to_job(validate_request(body)))``.
"""

import os
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

from perfbench import layers
from perfbench.common import (
    SRC,
    Isolation,
    Quality,
    answer_bytes,
    mean,
    median,
    nproc,
    ratio,
)
from perfbench.spans import SpanRecorder
from perfbench.workloads import STREAMS, warmup_requests

#: ``latency_tail_ms`` looks at the requests from p94 up: at least ten,
#: given the request floor below.  On service-mix it is p94 itself.
#: Fleet latencies sit on the client's 50 ms poll steps, and p94 jumps
#: a whole step when host speed shifts a little, so on fleet-lease it
#: is the mean of those requests.
TAIL_PERCENTILE = 94
#: Requests generated per client thread and second of run time; far
#: more than a thread can complete.
OPS_PER_THREAD_SECOND = 60
#: Every client completes at least this many requests, even past
#: ``--seconds``.  With two clients that is at least 170 requests, so
#: the tail holds at least ten.  The quality metrics are
#: the means over the distinct answers among these first requests of
#: each client, so they repeat exactly for a seed.
QUALITY_OPS = 85
WARMUP_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 120.0


class Stack:
    """One booted server (plus fleet worker) with a private store."""

    def __init__(self, workload, iso):
        from repro.service.client import ServiceClient
        from repro.service.server import build_server
        from repro.service.store import ResultStore

        self.iso = iso
        self.worker = None
        opts = {"isolation": "fleet"} if workload == "fleet-lease" else {}
        self.server = build_server(
            host="127.0.0.1", port=0,
            store=ResultStore(root=iso.store_dir, enabled=True), **opts,
        )
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        try:
            if workload == "fleet-lease":
                self._spawn_worker()
            self.client = ServiceClient(self.server.url, timeout=REQUEST_TIMEOUT_S)
            for body in warmup_requests(workload):
                self.client.partition(dict(body), timeout=WARMUP_TIMEOUT_S)
        except BaseException:
            self.close()
            raise

    def _spawn_worker(self):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        self._worker_log = open(os.path.join(self.iso.root, "worker.log"), "wb")
        self.worker = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "worker",
             "--coordinator", self.server.url, "--id", "bench-worker"],
            env=env, stdin=subprocess.DEVNULL, stdout=self._worker_log,
            stderr=subprocess.STDOUT,
        )

    def metrics(self):
        return self.client.metrics()["metrics"]

    def close(self):
        if self.worker is not None:
            self.worker.terminate()
            try:
                self.worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
            self._worker_log.close()
            self.worker = None
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(10)


def _setup(workload, repeats):
    """Boot a fresh stack ``repeats`` times (fresh cache dir, store,
    server, worker, one first request per circuit); the last stays up."""
    durations = []
    stack = None
    for index in range(repeats):
        started = time.perf_counter()
        iso = Isolation(workload)
        try:
            stack = Stack(workload, iso)
        except BaseException:
            iso.close()
            raise
        durations.append(time.perf_counter() - started)
        if index < repeats - 1:
            _teardown(stack)
    return durations, stack


def _teardown(stack):
    stack.close()
    stack.iso.close()


def _drive(url, workload, seed, seconds, recorder=None):
    """Closed loop of ``nproc`` client threads for ``seconds``; returns
    ``(ops per thread, wall_seconds)`` with ops ``(body, latency_s,
    payload|error)``."""
    from repro.service.client import ServiceClient

    threads = nproc()
    minimum = QUALITY_OPS
    length = max(2 * minimum, int(OPS_PER_THREAD_SECOND * seconds))
    streams = [STREAMS[workload](seed, t, length) for t in range(threads)]
    results = [[] for _ in range(threads)]
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop(index):
        client = ServiceClient(url, timeout=REQUEST_TIMEOUT_S)
        for body in streams[index]:
            if time.perf_counter() >= deadline and len(results[index]) >= minimum:
                break
            span = (nullcontext() if recorder is None else
                    recorder.span("ServiceClient.partition", "service", circuit=body["circuit"]))
            began = time.perf_counter()
            try:
                with span:
                    outcome = client.partition(dict(body), timeout=REQUEST_TIMEOUT_S)
            except Exception as error:  # counted as a failed op
                outcome = error
            results[index].append((body, time.perf_counter() - began, outcome))
        else:
            results[index].append((None, None, RuntimeError("request stream exhausted")))

    workers = [threading.Thread(target=client_loop, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - start
    return results, wall


_TAIL_NAMES = {"service-mix": "p94", "fleet-lease": "mean from p94 up"}


def _tail(workload, latencies):
    ordered = sorted(latencies)
    rank = -(-TAIL_PERCENTILE * len(ordered) // 100)  # nearest rank, ceil
    tail = ordered[rank - 1:]
    return tail[0] if workload == "service-mix" else mean(tail)


def _key(body):
    return tuple(sorted(body.items()))


def _check(ops, timed):
    """Compare every answer with a local solve of its request.

    With ``timed`` the local solves run one by one in this process and
    their times are returned; otherwise they run through
    ``run_jobs(jobs=nproc)``, which executes the same ``execute_job``
    in pool workers at half the cost.  Returns ``(failed, mismatches,
    local_seconds)``, ``local_seconds`` keyed like ``_key``."""
    from repro.harness.runner import execute_job, run_jobs
    from repro.service.api import request_to_job, validate_request

    jobs = {}
    for body, _latency, outcome in ops:
        if body is not None and not isinstance(outcome, Exception):
            jobs.setdefault(_key(body), request_to_job(validate_request(dict(body))))
    expected, local_seconds = {}, {}
    if timed:
        for key, job in jobs.items():
            began = time.perf_counter()
            expected[key] = answer_bytes(execute_job(job))
            local_seconds[key] = time.perf_counter() - began
    else:
        payloads = run_jobs(list(jobs.values()), jobs=nproc())
        expected = {key: answer_bytes(p) for key, p in zip(jobs, payloads)}

    failed, mismatches = 0, []
    for body, _latency, outcome in ops:
        if isinstance(outcome, Exception):
            failed += 1
            mismatches.append(f"{body}: {outcome!r}")
        elif answer_bytes(outcome) != expected[_key(body)]:
            failed += 1
            mismatches.append(f"{body}: answer differs from the local solve")
    return failed, mismatches, local_seconds


def _per_circuit(done, local_seconds):
    """Median client latency per circuit, split into first requests
    (solves) and repeats (store reads), beside the median local solve."""
    groups, seen = {}, set()
    for body, latency, _outcome in done:
        key = _key(body)
        entry = groups.setdefault(body["circuit"], {"solve": [], "repeat": [], "local": []})
        if key in seen:
            entry["repeat"].append(latency)
        else:
            seen.add(key)
            entry["solve"].append(latency)
            entry["local"].append(local_seconds[key])
    return {
        circuit: {
            f"{kind}_p50_ms": 1e3 * median(values) if values else None
            for kind, values in entry.items()
        } | {"requests": len(entry["solve"]) + len(entry["repeat"])}
        for circuit, entry in sorted(groups.items())
    }


def _delta(before, after, name, field="value"):
    def read(snapshot):
        return float((snapshot.get(name) or {}).get(field) or 0)

    return read(after) - read(before)


def _segment(workload, seed, seconds, stack, recorder=None):
    """Drive one timed stretch between two ``/metrics`` snapshots."""
    before = stack.metrics()
    per_thread, wall = _drive(stack.server.url, workload, seed, seconds, recorder)
    after = stack.metrics()
    ops = [op for thread_ops in per_thread for op in thread_ops]
    done = [op for op in ops if op[0] is not None and not isinstance(op[2], Exception)]
    first = {}
    for thread_ops in per_thread:
        for op in thread_ops[:QUALITY_OPS]:
            if not isinstance(op[2], Exception):
                first.setdefault(_key(op[0]), op)
    return {"ops": ops, "done": done, "first": first, "wall": wall,
            "before": before, "after": after}


def _service_layers(workload, segment):
    """``service.*`` / ``fleet.*`` figures from the ``/metrics`` deltas."""
    before, after = segment["before"], segment["after"]
    done = segment["done"]
    ops = len(done)

    def seconds(name):
        return _delta(before, after, name, "sum")

    def samples(name):
        return _delta(before, after, name, "count")

    phases = sum(seconds(f"service.job.{phase}_seconds")
                 for phase in ("queue_wait", "solve", "finalize", "store"))
    hits = _delta(before, after, "service.store.hits")
    writes = _delta(before, after, "service.store.writes")
    # The opening /metrics call is counted once it has been answered.
    http_requests = _delta(before, after, "service.http.requests") - 1
    figures = {
        "service.queue_wait_ms": 1e3 * ratio(seconds("service.job.queue_wait_seconds"),
                                             samples("service.job.queue_wait_seconds")),
        "service.solve_ms": 1e3 * ratio(seconds("service.job.solve_seconds"),
                                        samples("service.job.solve_seconds")),
        "service.store_ms": 1e3 * ratio(seconds("service.job.store_seconds"),
                                        samples("service.job.store_seconds")),
        "service.store_hit_ratio": ratio(hits, hits + writes),
        "service.http_calls_per_op": ratio(http_requests, ops),
        "service.unaccounted_ms": 1e3 * (mean([op[1] for op in done]) - ratio(phases, ops)),
    }
    if workload == "fleet-lease":
        empty = _delta(before, after, "fleet.lease.empty")
        granted = _delta(before, after, "fleet.lease.granted")
        figures["fleet.lease_empty_ratio"] = ratio(empty, empty + granted)
        figures["fleet.requeues"] = _delta(before, after, "fleet.requeues")
    return figures


def _wire_roundtrip_ms(done, repeats=20):
    """Mean ``job_to_wire`` + ``job_from_wire`` time per fleet job."""
    from repro.harness.wire import job_from_wire, job_to_wire
    from repro.service.api import request_to_job, validate_request

    jobs = [request_to_job(validate_request(dict(op[0]))) for op in done]
    started = time.perf_counter()
    for _ in range(repeats):
        for job in jobs:
            job_from_wire(job_to_wire(job))
    return 1e3 * (time.perf_counter() - started) / (repeats * len(jobs))


def run(workload, seed, seconds, trace, setup_repeats):
    setup_s, stack = _setup(workload, setup_repeats)
    try:
        segment = _segment(workload, seed, seconds, stack)
    finally:
        _teardown(stack)
    failed, mismatches, local_seconds = _check(segment["ops"], timed=trace)
    done = segment["done"]
    result = {
        "attempted": len(segment["ops"]),
        "failed": failed,
        "mismatches": mismatches,
        "setup_s": setup_s,
        "detail": {
            "clients": nproc(),
            "completed": len(done),
            "tail": _TAIL_NAMES[workload],
            "wall_s": segment["wall"],
            "latencies_ms": sorted(round(1e3 * op[1], 1) for op in done),
        },
    }
    if not done:
        result["metrics"] = {}
        return result
    if not trace:
        latencies = [op[1] for op in done]
        quality = Quality()
        for op in segment["first"].values():
            quality.add_partition(op[2]["report"])
        result["metrics"] = {
            "throughput_ops_s": len(done) / segment["wall"],
            "latency_p50_ms": 1e3 * median(latencies),
            "latency_tail_ms": 1e3 * _tail(workload, latencies),
            "quality.d_le_1": mean(quality.d_le_1),
            "quality.i_comp_pct": mean(quality.i_comp_pct),
            "quality.a_fs_pct": mean(quality.a_fs_pct),
        }
        return result

    # Traced run: the untraced stretch above gives the /metrics-based
    # layer figures; a second stretch on a fresh stack, with
    # repro.obs enabled and spans around the solver entry points and
    # the client calls, gives the span-based ones.
    metrics = _service_layers(workload, segment)
    local = [local_seconds[_key(op[0])] for op in done]
    if workload == "fleet-lease":
        metrics["fleet.overhead_ms"] = 1e3 * (mean([op[1] for op in done]) - mean(local))
        metrics["wire.roundtrip_ms"] = _wire_roundtrip_ms(done)
    traced, recorder = _traced_segment(workload, seed, seconds)
    t_failed, t_mismatches, _ = _check(traced["ops"], timed=False)
    metrics.update(traced["solver"])
    metrics["obs.trace_overhead_frac"] = 1.0 - (
        len(traced["done"]) / traced["wall"]) / (len(done) / segment["wall"])
    metrics.update(_netlist_layers(workload, recorder))
    result.update({
        "attempted": result["attempted"] + len(traced["ops"]),
        "failed": failed + t_failed,
        "mismatches": mismatches + t_mismatches,
        "metrics": metrics,
        "recorder": recorder,
    })
    result["detail"]["traced_completed"] = len(traced["done"])
    result["detail"]["per_circuit"] = _per_circuit(done, local_seconds)
    result["detail"]["self_seconds"] = recorder.self_times()
    return result


def _traced_segment(workload, seed, seconds):
    from repro import obs

    recorder = SpanRecorder()
    _durations, stack = _setup(workload, 1)
    obs.reset()
    obs.enable()
    layers.instrument_solver(recorder)
    try:
        segment = _segment(workload, seed, seconds, stack, recorder)
        obs_metrics = obs.OBS.metrics.as_dict()
    finally:
        recorder.restore()
        obs.disable(reset=True)
        _teardown(stack)
    segment["solver"] = layers.solver_metrics(recorder, obs_metrics)
    return segment, recorder


def _netlist_layers(workload, recorder):
    from perfbench.workloads import FLEET_CIRCUITS, SERVICE_CIRCUITS

    names = FLEET_CIRCUITS if workload == "fleet-lease" else SERVICE_CIRCUITS
    with Isolation(workload):
        return layers.netlist_layers(recorder, names)
