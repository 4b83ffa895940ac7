#!/usr/bin/env python3
"""Benchmark of the ground-plane partitioner.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 15 --trace 0

Workloads (see NOTES.md for why each exists):

* ``paper-tables`` — Tables I-III through ``run_jobs`` with a process pool;
* ``service-mix``  — client threads against the HTTP service, store reads
  and writes, some multilevel solves;
* ``fleet-lease``  — client threads against a fleet coordinator with one
  worker subprocess.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off; ``--trace 1`` is the separate traced run that reports the
per-layer metrics and writes its spans to ``.bench_out/``.  Every
answer is checked bitwise outside the timed window; a wrong answer
makes the command exit non-zero.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import argparse
import json
import os
import sys
import time

_STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("paper-tables", "service-mix", "fleet-lease")
#: Set-ups per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return _fail(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        return _fail("BENCHMARK.json is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)

    from perfbench.common import (
        OUT_DIR,
        host_fingerprint,
        median,
        peak_rss_mb,
        shipped_defaults_environ,
    )

    removed_env = shipped_defaults_environ()
    import repro.harness.tables  # noqa: F401  (imports count into setup_s)
    import repro.service.client  # noqa: F401
    import repro.service.server  # noqa: F401
    from perfbench import paper_tables, serving
    from perfbench.layers import PER_LAYER_NAMES

    import_s = time.perf_counter() - _STARTED
    trace = bool(args.trace)
    setup_repeats = 1 if trace else SETUP_REPEATS
    if args.workload == "paper-tables":
        outcome = paper_tables.run(args.seed, args.seconds, trace, setup_repeats)
    else:
        outcome = serving.run(args.workload, args.seed, args.seconds, trace, setup_repeats)

    values = dict(outcome["metrics"])
    if trace:
        for name in PER_LAYER_NAMES:
            values.setdefault(name, 0.0)
    else:
        values["setup_s"] = import_s + median(outcome["setup_s"])
        values["peak_rss_mb"] = peak_rss_mb()
    declared = _declared_metrics(trace)
    missing = sorted(set(declared) - set(values))
    if missing:
        return _fail(f"workload {args.workload} produced no value for {', '.join(missing)}")

    correct = outcome["failed"] == 0 and outcome["attempted"] > 0
    fingerprint = host_fingerprint(
        "fleet" if args.workload == "fleet-lease" else "inline", removed_env
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint,
        "import_s": import_s,
        "setup_runs_s": outcome["setup_s"],
        "detail": outcome.get("detail", {}),
        "mismatches": outcome.get("mismatches", []),
        "metrics": values,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
        handle.write("\n")
    if trace and outcome.get("recorder") is not None:
        outcome["recorder"].write(stem + ".spans.json", extra={"workload": args.workload,
                                                               "seed": args.seed})

    for line in outcome.get("mismatches", [])[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    print("host " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
