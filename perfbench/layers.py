"""Per-layer measurements shared by the workloads.

``instrument_solver`` wraps the public entry points of the solver-side
modules in spans; ``netlist_layers`` times the ``synth`` and ``cache``
layers directly.  Both only call into ``repro``; nothing here changes
what the program computes.
"""

from perfbench.common import median

#: Every per-layer metric a traced run reports.  A layer a workload does
#: not exercise reads 0 (see NOTES.md for which layers each one covers).
PER_LAYER_NAMES = (
    "synth.build_s", "cache.load_s", "cache.speedup",
    "core.partition_s", "core.plan_s", "core.iterations", "core.ms_per_iteration",
    "core.kernel_evals", "core.plan_attempts", "core.coarse_iterations",
    "metrics.evaluate_s", "runner.pool_efficiency", "wire.roundtrip_ms",
    "service.queue_wait_ms", "service.solve_ms", "service.store_ms",
    "service.store_hit_ratio", "service.http_calls_per_op", "service.unaccounted_ms",
    "fleet.overhead_ms", "fleet.lease_empty_ratio", "fleet.requeues",
    "quality.k_res_mean", "obs.trace_overhead_frac",
)


def _count_iterations(record, result):
    stats = result.restart_stats
    record["iterations"] = sum(int(s.get("iterations", 0)) for s in stats)


def _count_attempts(record, plan):
    record["attempts"] = len(plan.attempts)


def instrument_solver(recorder):
    """Span every call of ``execute_job``, ``build_circuit``,
    ``partition``, ``plan_bias_limited`` and ``evaluate_partition`` made
    in this process.  Undo with ``recorder.restore()``."""
    from repro.circuits import suite
    from repro.core import planner
    from repro.harness import runner, tables
    from repro.metrics import report

    recorder.patch(runner, "execute_job", "execute_job", "harness.runner")
    recorder.patch(suite, "build_circuit", "build_circuit", "synth")
    # ``partition`` is reached through the method table (partition jobs)
    # and through the planner's own import (plan jobs).
    recorder.patch(tables.PARTITION_METHODS, "gradient", "partition", "core",
                   on_result=_count_iterations)
    recorder.patch(planner, "partition", "partition", "core",
                   on_result=_count_iterations)
    recorder.patch(planner, "plan_bias_limited", "plan", "core",
                   on_result=_count_attempts)
    recorder.patch(report, "evaluate_partition", "evaluate_partition", "metrics")


def solver_metrics(recorder, obs_metrics):
    """``core.*`` / ``metrics.*`` figures of an instrumented stretch.

    ``obs_metrics`` is ``repro.obs.OBS.metrics.as_dict()`` captured at
    its end (the OBS counters the program already keeps)."""
    partition_s = recorder.total("partition")
    iterations = recorder.count("partition", "iterations")

    def counter(name):
        return float((obs_metrics.get(name) or {}).get("value") or 0)

    return {
        "core.partition_s": partition_s,
        "core.plan_s": recorder.total("plan"),
        "core.iterations": float(iterations),
        "core.ms_per_iteration": 1e3 * partition_s / iterations if iterations else 0.0,
        "core.kernel_evals": counter("kernel.evaluations"),
        "core.plan_attempts": float(recorder.count("plan", "attempts")),
        "core.coarse_iterations": counter("multilevel.coarse_iterations"),
        "metrics.evaluate_s": recorder.total("evaluate_partition"),
    }


def netlist_layers(recorder, names, repeats=3):
    """``synth.build_s``, ``cache.load_s`` and ``cache.speedup``.

    Synthesis: ``build_circuit(name, use_cache=False)`` summed over
    ``names``.  Cache: ``load_cached_netlist`` of the same circuits from
    a warm disk cache (the current ``REPRO_CACHE_DIR``).  Each sum is
    the median of ``repeats`` rounds."""
    from repro.cache import default_cache, load_cached_netlist
    from repro.circuits.suite import build_circuit, netlist_cache_key
    from repro.netlist.library import default_library

    for name in names:  # warm the disk cache
        build_circuit(name)
    library = default_library()
    keys = {name: netlist_cache_key(name) for name in names}
    build_s, load_s = [], []
    for _ in range(repeats):
        total = 0.0
        for name in names:
            with recorder.span("build_circuit", "synth", circuit=name) as span:
                build_circuit(name, use_cache=False)
            total += span["end"] - span["start"]
        build_s.append(total)
        total = 0.0
        for name in names:
            with recorder.span("load_cached_netlist", "cache", circuit=name) as span:
                netlist = load_cached_netlist(default_cache(), keys[name], library)
            if netlist is None:
                raise RuntimeError(f"netlist cache has no entry for {name}")
            total += span["end"] - span["start"]
        load_s.append(total)
    build, load = median(build_s), median(load_s)
    return {
        "synth.build_s": build,
        "cache.load_s": load,
        "cache.speedup": build / load if load else 0.0,
    }
