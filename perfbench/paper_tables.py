"""``paper-tables``: Tables I-III as one closed loop with one caller.

Each pass is one ``run_jobs(jobs=nproc)`` call over the 30 jobs of
:func:`perfbench.workloads.paper_tables_jobs`, with a fresh process
pool whose workers load every netlist from the disk cache.

Answers are checked outside the timed window.  A plain run compares
every pass with a second, independent ``run_jobs`` of the same jobs;
the traced run compares its pool pass with an untraced and a traced
in-process ``run_jobs(jobs=1)`` pass.  (An in-process reference for
every pass of a plain run would cost twice the timed window.)
"""

import time

from perfbench import layers
from perfbench.common import (
    Isolation,
    Quality,
    answer_bytes,
    mean,
    median,
    nproc,
    reset_process_caches,
)
from perfbench.spans import SpanRecorder
from perfbench.workloads import paper_tables_jobs

#: A run makes at least this many passes, even past ``--seconds``:
#: pass times vary with the seed and with host load, and the median of
#: four is far steadier than that of three.  The quality metrics are
#: the means over these passes' answers, so they repeat exactly for a
#: seed.
MIN_PASSES = 4


def _setup(repeats):
    """Synthesize the suite into a fresh cache dir ``repeats`` times;
    returns (durations, the last still-open isolation)."""
    from repro.circuits.suite import SUITE_NAMES, build_circuit

    durations = []
    iso = None
    for index in range(repeats):
        started = time.perf_counter()
        iso = Isolation("paper-tables")
        for name in SUITE_NAMES:
            build_circuit(name)
        durations.append(time.perf_counter() - started)
        if index < repeats - 1:
            iso.close()
    return durations, iso


def _pass(jobs, workers):
    """One timed ``run_jobs`` call; memory caches are dropped first so
    every worker (or the inline caller) loads netlists from disk."""
    from repro.harness.runner import run_jobs

    reset_process_caches()
    started = time.perf_counter()
    payloads = run_jobs(jobs, jobs=workers)
    return time.perf_counter() - started, payloads


def _check(payloads, reference):
    """Indices of the payloads whose bytes differ from the reference."""
    return [
        index for index, (payload, expected) in enumerate(zip(payloads, reference))
        if answer_bytes(payload) != expected
    ]


def _describe(job):
    return f"{job.kind} {job.circuit} K={job.num_planes} seed {job.seed}"


def run(seed, seconds, trace, setup_repeats):
    from repro.circuits.suite import SUITE_NAMES

    workers = nproc()
    setup_s, iso = _setup(setup_repeats)
    try:
        if trace:
            return _run_traced(seed, workers, SUITE_NAMES, iso) | {"setup_s": setup_s}
        passes = []
        started = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
            jobs = paper_tables_jobs(seed + len(passes))
            wall, payloads = _pass(jobs, workers)
            passes.append((jobs, wall, payloads))

        # One independent re-run of every pass's jobs, in one pool.
        all_jobs = [job for jobs, _w, _p in passes for job in jobs]
        all_payloads = [p for _j, _w, payloads in passes for p in payloads]
        _ref_wall, reference = _pass(all_jobs, workers)
        bad = _check(all_payloads, [answer_bytes(p) for p in reference])
        failed = len(bad)
        mismatches = [_describe(all_jobs[i]) for i in bad]
        quality = Quality()
        for jobs, _wall, payloads in passes[:MIN_PASSES]:
            for job, payload in zip(jobs, payloads):
                if job.kind == "plan":
                    quality.add_plan(payload)
                else:
                    quality.add_partition(payload["report"])

        walls = [wall for _jobs, wall, _payloads in passes]
        return {
            "attempted": len(all_jobs),
            "failed": failed,
            "mismatches": mismatches,
            "setup_s": setup_s,
            "metrics": {
                "throughput_ops_s": median([len(j) / w for j, w, _p in passes]),
                "latency_p50_ms": 1e3 * median(walls),
                "latency_tail_ms": 1e3 * max(walls),
                "quality.d_le_1": mean(quality.d_le_1),
                "quality.i_comp_pct": mean(quality.i_comp_pct),
                "quality.a_fs_pct": mean(quality.a_fs_pct),
            },
            "detail": {
                "passes": len(passes),
                "workers": workers,
                "pass_seconds": walls,
                "tail": "slowest pass",
                "k_res_mean": mean(quality.k_res),
            },
        }
    finally:
        iso.close()


def _run_traced(seed, workers, suite_names, iso):
    """One pool pass, one untraced and one traced in-process pass over
    the same jobs, then the synth/cache layers."""
    from repro import obs

    from repro.harness.runner import execute_job

    jobs = paper_tables_jobs(seed)
    pool_wall, pool_payloads = _pass(jobs, workers)
    # Finish this process's lazy imports before the in-process passes
    # are compared with each other.
    execute_job(jobs[0])
    plain_wall, plain_payloads = _pass(jobs, 1)

    recorder = SpanRecorder()
    obs.reset()
    obs.enable()
    layers.instrument_solver(recorder)
    try:
        reset_process_caches()
        with recorder.span("run_jobs", "harness.runner", jobs=1) as outer:
            from repro.harness.runner import run_jobs

            traced_payloads = run_jobs(jobs, jobs=1)
        obs_metrics = obs.OBS.metrics.as_dict()
    finally:
        recorder.restore()
        obs.disable(reset=True)
    traced_wall = outer["end"] - outer["start"]

    reference = [answer_bytes(p) for p in traced_payloads]
    bad = set(_check(pool_payloads, reference))
    bad |= set(_check(plain_payloads, reference))

    metrics = layers.solver_metrics(recorder, obs_metrics)
    metrics.update(layers.netlist_layers(recorder, suite_names))
    plans = [p for job, p in zip(jobs, traced_payloads) if job.kind == "plan"]
    metrics.update({
        # In-process job seconds of one pass (the sequential pass's wall)
        # over the worker-seconds the pool pass had available.
        "runner.pool_efficiency": plain_wall / (workers * pool_wall),
        "quality.k_res_mean": mean([p["k_res"] for p in plans]),
        "obs.trace_overhead_frac": 1.0 - plain_wall / traced_wall,
    })
    return {
        "attempted": len(jobs),
        "failed": len(bad),
        "mismatches": [_describe(jobs[i]) for i in sorted(bad)],
        "metrics": metrics,
        "recorder": recorder,
        "detail": {
            "workers": workers,
            "pool_pass_s": pool_wall,
            "inprocess_pass_s": plain_wall,
            "traced_pass_s": traced_wall,
            "self_seconds": recorder.self_times(),
        },
    }
