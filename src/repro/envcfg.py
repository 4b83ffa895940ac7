"""One registry for every ``REPRO_*`` environment variable.

Before this module, each subsystem rolled its own environment parsing
(the runner read ``REPRO_JOBS``/``REPRO_RETRIES``, the cache read
``REPRO_CACHE``/``REPRO_CACHE_DIR``, observability read ``REPRO_TRACE``,
fault injection read ``REPRO_FAULT``) with locally duplicated
strip/parse/validate logic and no single place documenting what knobs
exist.  This module is that place:

* :data:`ENV_VARS` — the full, documented table of recognized
  variables.  ``repro-gpp`` help text, docs and tests all derive from
  it, and :func:`raw` refuses to read an undeclared name so a new knob
  cannot ship undocumented (``tests/test_envcfg.py`` additionally
  greps the source tree for strays).
* Typed accessors — :func:`raw`, :func:`number`, :func:`flag_disabled`,
  :func:`flag_enabled`, :func:`choice` — with the exact
  parsing/validation semantics the
  subsystems used before (error message format included; several tests
  assert on those messages).

The subsystems keep their public resolver functions
(:func:`repro.harness.runner.resolve_jobs`,
:func:`repro.cache.store.cache_enabled`, ...) — those express defaults
and subsystem policy — but all of them now read the environment through
here.  The ``REPRO_SERVICE_*`` family of the partitioning service
(:mod:`repro.service`) is declared here from day one.

This module deliberately imports nothing beyond the standard library
and :mod:`repro.utils.errors`, so every other subsystem (including
:mod:`repro.obs`, imported at interpreter startup by almost everything)
can depend on it without cycles.
"""

import os
from dataclasses import dataclass

from repro.utils.errors import ReproError

#: Values that turn a :func:`flag_disabled`-style switch off.
DISABLED_VALUES = ("0", "off", "false", "no")

#: Values that turn a truthy toggle (``REPRO_TRACE=1``) on.
TRUTHY_VALUES = ("1", "true", "yes", "on")


@dataclass(frozen=True)
class EnvVar:
    """One documented environment variable.

    ``kind`` is a human-readable value shape (``"int >= 1"``,
    ``"flag"``, ``"path"``, ...), ``default`` the effective behavior
    when unset, ``used_by`` the owning subsystem — all three feed the
    rendered documentation table, none affect parsing.
    """

    name: str
    kind: str
    default: str
    used_by: str
    doc: str


#: Every recognized ``REPRO_*`` variable.  Keep sorted by name within
#: each subsystem block; docs/service.md renders this table.
ENV_VARS = (
    # -- cache ---------------------------------------------------------
    EnvVar("REPRO_CACHE", "flag", "enabled",
           "repro.cache",
           "Set to 0/off/false/no to disable every artifact-cache read "
           "and write (forces cold runs)."),
    EnvVar("REPRO_CACHE_DIR", "path", "~/.cache/repro-gpp",
           "repro.cache",
           "Root directory of the on-disk artifact cache."),
    # -- observability -------------------------------------------------
    EnvVar("REPRO_EVENTS", "flag or path", "service on, CLI off",
           "repro.obs.events",
           "Job-lifecycle event log: 0/off/false/no disables it "
           "everywhere, 1/true/yes/on enables in-memory capture (the "
           "CLI/runner default is off; the service always keeps its "
           "in-memory log unless disabled), any other value also names "
           "a JSONL file every event is appended to."),
    EnvVar("REPRO_TRACE", "flag or path", "disabled",
           "repro.obs",
           "1/true/yes/on enables span+metric+telemetry capture; any "
           "other non-empty value also names the JSONL trace output "
           "path written by the CLI on exit."),
    EnvVar("REPRO_TRACE_CONTEXT", "flag", "enabled",
           "repro.obs.context",
           "Set to 0/off/false/no to stop the service/CLI from "
           "attaching trace contexts (request/trace/span ids) to "
           "spans; with it off, span events record exactly the v1 "
           "shape."),
    # -- suite runner --------------------------------------------------
    EnvVar("REPRO_JOBS", "int >= 1", "min(cpus, 8)",
           "repro.harness.runner",
           "Worker process count of the parallel suite runner."),
    EnvVar("REPRO_JOB_TIMEOUT", "seconds > 0", "unlimited",
           "repro.harness.runner",
           "Per-job-attempt wall-clock limit; a timed-out attempt "
           "terminates the worker pool and is retried."),
    EnvVar("REPRO_MEGABATCH", "flag", "disabled",
           "repro.harness.megabatch",
           "1/true/yes/on packs compatible queued partition jobs into "
           "one batched kernel invocation (suite runner and service "
           "drain loop).  Per-job results are bitwise-identical to solo "
           "solves."),
    EnvVar("REPRO_MEGABATCH_LIMIT", "int >= 1", "16",
           "repro.harness.megabatch",
           "Maximum number of jobs packed into one mega-batch group."),
    EnvVar("REPRO_RETRIES", "int >= 0", "2",
           "repro.harness.runner",
           "Retries per failed job (additional attempts after the "
           "first)."),
    EnvVar("REPRO_RETRY_BACKOFF", "seconds >= 0", "0.05",
           "repro.harness.runner",
           "Exponential-backoff base delay: the n-th retry waits "
           "backoff * 2**(n-1) seconds."),
    # -- incremental (ECO) re-partitioning -----------------------------
    EnvVar("REPRO_ECO_HALO", "int >= 0", "2",
           "repro.core.incremental",
           "Radius (in undirected hops) of the halo grown around the "
           "gates an ECO diff touches; gates inside the halo are "
           "re-solved, everything outside stays pinned to its previous "
           "plane."),
    EnvVar("REPRO_ECO_QUALITY_EPS", "float >= 0", "0.05",
           "repro.core.incremental",
           "Quality guard of the warm-start path: the warm result's "
           "integer cost must stay within (1 + eps) of the "
           "carried-forward reference assignment, otherwise the solve "
           "falls back to a cold multi-restart run."),
    EnvVar("REPRO_ECO_THRESHOLD", "fraction in (0, 1]", "0.25",
           "repro.core.incremental",
           "Maximum perturbed-region size (touched gates + halo) as a "
           "fraction of the netlist before the warm-start path gives "
           "up and solves cold; large edits gain nothing from "
           "warm-starting."),
    # -- fault injection -----------------------------------------------
    EnvVar("REPRO_FAULT", "spec", "none",
           "repro.harness.faults",
           "Deterministic fault plan, e.g. 'crash@1,hang@3x2' "
           "(kind@job-index[xN])."),
    EnvVar("REPRO_FAULT_HANG_SECONDS", "seconds >= 0", "3600",
           "repro.harness.faults",
           "Sleep length of an injected hang fault."),
    # -- Pareto sweep planning -----------------------------------------
    EnvVar("REPRO_SWEEP_CLOCK_GHZ", "GHz > 0", "20",
           "repro.harness.pareto",
           "Default clock frequency of the per-point ERSFQ dynamic-power "
           "estimate attached to sweep results; an explicit clock_ghz "
           "field in the sweep request wins (and is what enters the "
           "content key)."),
    EnvVar("REPRO_SWEEP_JOBS", "int >= 1", "1",
           "repro.harness.pareto",
           "Worker processes a sweep fans its uncached grid points over "
           "(through the parallel suite runner)."),
    EnvVar("REPRO_SWEEP_MAX_POINTS", "int >= 1", "256",
           "repro.harness.pareto",
           "Upper bound on K x weight-ratio grid points per sweep "
           "request; larger grids are rejected at validation (HTTP "
           "400)."),
    # -- distributed fleet ---------------------------------------------
    EnvVar("REPRO_FLEET_HEARTBEAT", "seconds > 0", "lease TTL / 3",
           "repro.fleet",
           "Heartbeat period the coordinator hands to workers with "
           "every lease; a worker that stops heartbeating loses its "
           "leases after the lease TTL and the jobs are requeued."),
    EnvVar("REPRO_FLEET_LEASE_TTL", "seconds > 0", "30",
           "repro.fleet",
           "Lease time-to-live: a leased job whose deadline passes "
           "without a heartbeat extension is reclaimed by the "
           "coordinator and requeued (charged as a timed-out retry)."),
    EnvVar("REPRO_FLEET_MAX_INFLIGHT", "int >= 1", "2",
           "repro.fleet",
           "Maximum jobs a worker node leases per request (and "
           "executes before reporting back)."),
    EnvVar("REPRO_FLEET_POLL", "seconds >= 0", "2",
           "repro.fleet",
           "Long-poll wait of an idle worker's lease request: the "
           "coordinator parks the request up to this long waiting for "
           "work before answering with an empty lease set."),
    EnvVar("REPRO_FLEET_WORKER_ID", "string", "<hostname>-<pid>",
           "repro.fleet",
           "Stable identifier a worker node registers under; shows up "
           "in /fleet/v1/workers, /healthz and the per-worker gauges."),
    # -- partitioning service ------------------------------------------
    EnvVar("REPRO_SERVICE_HOST", "host", "127.0.0.1",
           "repro.service",
           "Bind address of `repro-gpp serve`."),
    EnvVar("REPRO_SERVICE_PORT", "int >= 0", "8731",
           "repro.service",
           "TCP port of `repro-gpp serve` (0 = pick an ephemeral "
           "port)."),
    EnvVar("REPRO_SERVICE_WORKERS", "int >= 1", "min(cpus, 4)",
           "repro.service",
           "Job-executing worker threads of the service."),
    EnvVar("REPRO_SERVICE_QUEUE", "int >= 1", "64",
           "repro.service",
           "Maximum queued (admitted but not yet running) jobs; a full "
           "queue answers HTTP 429 with a Retry-After header."),
    EnvVar("REPRO_SERVICE_RETRY_AFTER", "seconds > 0", "1",
           "repro.service",
           "Retry-After value advertised with a 429 backpressure "
           "response."),
    EnvVar("REPRO_SERVICE_STORE", "flag", "enabled",
           "repro.service",
           "Set to 0/off/false/no to disable the content-keyed result "
           "store (every request re-solves)."),
    EnvVar("REPRO_SERVICE_ISOLATION", "inline | process | fleet", "inline",
           "repro.service",
           "Job execution mode: 'inline' runs solves in the worker "
           "thread (fast; retries but no hard deadlines), 'process' "
           "runs each job in a worker process through the pool path "
           "(crash isolation and enforced REPRO_JOB_TIMEOUT "
           "deadlines), 'fleet' dispatches jobs to external worker "
           "nodes over the /fleet/v1 lease API (see docs/fleet.md)."),
)

_BY_NAME = {var.name: var for var in ENV_VARS}


def declared(name):
    """The :class:`EnvVar` entry for ``name`` (ReproError if unknown).

    Reading an undeclared variable is a programming error: every knob
    must appear in :data:`ENV_VARS` so it is documented and testable.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ReproError(
            f"environment variable {name!r} is not declared in repro.envcfg.ENV_VARS"
        ) from None


def raw(name, environ=None):
    """The stripped string value of a declared variable ('' when unset)."""
    declared(name)
    return (environ if environ is not None else os.environ).get(name, "").strip()


def number(name, parse, check, message, environ=None):
    """Parse a numeric variable; ``None`` when unset.

    ``parse`` converts the string (``int``/``float``), ``check``
    validates the parsed value, ``message`` names the expected shape in
    the error (``"an integer >= 1"``).  The raised message format —
    ``"<NAME> must be <message>, got <value!r>"`` — is stable; tests
    assert on it.
    """
    value = raw(name, environ)
    if not value:
        return None
    try:
        parsed = parse(value)
    except ValueError:
        raise ReproError(f"{name} must be {message}, got {value!r}") from None
    if not check(parsed):
        raise ReproError(f"{name} must be {message}, got {value!r}")
    return parsed


def flag_disabled(name, environ=None):
    """True when the variable is explicitly one of 0/off/false/no.

    Unset (or any other value) means *enabled* — this is the
    ``REPRO_CACHE`` convention: a switch that defaults on and is only
    turned off deliberately.
    """
    return raw(name, environ).lower() in DISABLED_VALUES


def flag_enabled(name, environ=None):
    """True when the variable is explicitly one of 1/true/yes/on.

    Unset (or any other value) means *disabled* — the mirror image of
    :func:`flag_disabled`, for opt-in switches such as
    ``REPRO_MEGABATCH`` that default off and are only turned on
    deliberately.
    """
    return raw(name, environ).lower() in TRUTHY_VALUES


def choice(name, allowed, default, environ=None):
    """A string variable constrained to ``allowed``; ``default`` when unset."""
    value = raw(name, environ)
    if not value:
        return default
    lowered = value.lower()
    if lowered not in allowed:
        raise ReproError(
            f"{name} must be one of {', '.join(sorted(allowed))}, got {value!r}"
        )
    return lowered


def render_table():
    """The documented variable table as aligned plain text."""
    headers = ("variable", "value", "default", "used by")
    rows = [(v.name, v.kind, v.default, v.used_by) for v in ENV_VARS]
    widths = [max(len(r[i]) for r in rows + [headers]) for i in range(4)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(4)))
    return "\n".join(lines)
