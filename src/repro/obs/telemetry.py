"""Solver telemetry: per-iteration records of Algorithm 1's descent.

When observability is enabled, both descent functions
(:func:`repro.core.optimizer.minimize_assignment` and
:func:`~repro.core.optimizer.minimize_assignment_batch`) emit one
record per restart per iteration into the process-wide
:class:`SolverTelemetry`, and attach each restart's records to its
:class:`~repro.core.optimizer.GradientDescentTrace` (``trace.telemetry``).

A record is a plain dict with the fields of :data:`ITERATION_FIELDS`:

``run``
    Monotonic id of the solver call within the process (each serial
    :func:`~repro.core.optimizer.minimize_assignment` call makes one
    run; the batched engine makes a single run for the whole stack).
``restart``
    Restart index within the run.
``iteration``
    Zero-based gradient-descent iteration.
``f1, f2, f3, f4, total``
    The four cost terms of eqs. (4)-(9) and the weighted total
    (eq. (8)) evaluated at the start of the iteration.
``rel_change``
    ``|total / total_prev - 1|`` — the quantity the margin criterion
    tests; ``None`` on each restart's first iteration.
``grad_norm``
    Frobenius norm of the total weighted gradient; ``None`` on the
    final evaluation of a converged restart (Algorithm 1 stops before
    computing it).
``active_restarts``
    Restarts still descending when the record was taken (always 1 for
    a serial :func:`~repro.core.optimizer.minimize_assignment` run).

The schema of the exported trace file is versioned by
:data:`TRACE_SCHEMA_VERSION`; bump it whenever a field is added,
removed or re-interpreted, and update ``docs/observability.md`` in the
same change (CI cross-checks the two).
"""

#: Version of the JSONL/CSV trace schema. CI asserts that
#: docs/observability.md documents exactly this version.
#: v2: span records may carry ``start_unix`` and a ``ctx`` block
#: (trace/span/parent/request ids) when trace context is active; see
#: repro/obs/context.py.  v1 files remain readable (both fields are
#: simply absent).
TRACE_SCHEMA_VERSION = 2

#: Column order of iteration records in CSV export (and the full key
#: set of each JSONL iteration record).
ITERATION_FIELDS = (
    "run",
    "restart",
    "iteration",
    "f1",
    "f2",
    "f3",
    "f4",
    "total",
    "rel_change",
    "grad_norm",
    "active_restarts",
)


class SolverTelemetry:
    """Accumulates solver runs and their per-iteration records."""

    def __init__(self):
        self.records = []
        self.runs = []

    def begin_run(self, engine, restarts, **attrs):
        """Register a solver call; returns its run id."""
        run_id = len(self.runs)
        self.runs.append({"run": run_id, "engine": engine, "restarts": int(restarts), **attrs})
        return run_id

    def record(
        self,
        run,
        restart,
        iteration,
        f1,
        f2,
        f3,
        f4,
        total,
        rel_change,
        grad_norm,
        active_restarts,
    ):
        """Append one iteration record; returns the dict (so solver
        engines can also attach it to the restart's trace)."""
        entry = {
            "run": run,
            "restart": restart,
            "iteration": iteration,
            "f1": f1,
            "f2": f2,
            "f3": f3,
            "f4": f4,
            "total": total,
            "rel_change": rel_change,
            "grad_norm": grad_norm,
            "active_restarts": active_restarts,
        }
        self.records.append(entry)
        return entry

    def reset(self):
        self.records = []
        self.runs = []

    def __len__(self):
        return len(self.records)

    def run_records(self, run, restart=None):
        """Records of one run (optionally one restart), in order."""
        return [
            r
            for r in self.records
            if r["run"] == run and (restart is None or r["restart"] == restart)
        ]

    def summary(self):
        """Aggregate view: per-run iteration counts and restart counts."""
        per_run = {}
        for record in self.records:
            stats = per_run.setdefault(
                record["run"], {"iterations": 0, "restarts": set()}
            )
            stats["iterations"] = max(stats["iterations"], record["iteration"] + 1)
            stats["restarts"].add(record["restart"])
        return {
            "runs": len(self.runs),
            "records": len(self.records),
            "per_run": {
                run: {"iterations": s["iterations"], "restarts": len(s["restarts"])}
                for run, s in sorted(per_run.items())
            },
        }
