"""Message shapes and knob resolvers of the fleet lease protocol.

The coordinator and the worker node speak JSON over four routes of the
service HTTP server (see docs/fleet.md for the full lifecycle)::

    POST /fleet/v1/lease      {"worker", "max_jobs"?, "wait"?}
                              -> {"leases": [lease...], "draining": bool}
    POST /fleet/v1/heartbeat  {"worker", "leases": [id...]}
                              -> {"extended": [id...], "unknown": [id...]}
    POST /fleet/v1/complete   {"worker", "lease", "ok", "payload"? |
                               "kind"? + "message"?, "snapshot"?}
                              -> {"status": "accepted" | "requeued" |
                                  "failed" | "stale"}
    GET  /fleet/v1/workers    -> {"workers": [...], "pending", "leased"}

One lease grant is::

    {"lease": "<id>", "key": "<request key>", "attempt": n,
     "deadline_s": <ttl>, "heartbeat_s": <period>,
     "job": <repro.harness.wire.job_to_wire dict>}

The job travels in the :mod:`repro.harness.wire` form, so the worker
executes exactly the :class:`~repro.harness.runner.SuiteJob` the
coordinator built — the bitwise-parity guarantee of the whole fleet.
A deep-traced job carries its ``trace_context`` inside that form.
"""

import os
import socket

from repro import envcfg
from repro.utils.errors import ReproError

#: Version of the lease/heartbeat/complete message shapes.
FLEET_PROTOCOL_VERSION = 1

#: Default lease time-to-live in seconds.
DEFAULT_LEASE_TTL = 30.0

#: Default jobs a worker leases (and executes) per round trip.
DEFAULT_MAX_INFLIGHT = 2

#: Default long-poll wait of an idle worker's lease request.
DEFAULT_POLL = 2.0


def resolve_lease_ttl(lease_ttl=None, environ=None):
    """Lease TTL seconds: explicit > ``REPRO_FLEET_LEASE_TTL`` > 30."""
    if lease_ttl is not None:
        lease_ttl = float(lease_ttl)
        if not lease_ttl > 0:
            raise ReproError(f"lease_ttl must be > 0 seconds, got {lease_ttl}")
        return lease_ttl
    value = envcfg.number(
        "REPRO_FLEET_LEASE_TTL", float, lambda v: v > 0,
        "a number of seconds > 0", environ,
    )
    return DEFAULT_LEASE_TTL if value is None else value


def resolve_heartbeat(heartbeat=None, lease_ttl=None, environ=None):
    """Heartbeat period: explicit > ``REPRO_FLEET_HEARTBEAT`` > TTL / 3.

    Capped at half the lease TTL — a period at or beyond the TTL could
    never extend a lease in time, which would turn every slow job into
    a spurious requeue.
    """
    ttl = resolve_lease_ttl(lease_ttl, environ)
    if heartbeat is None:
        heartbeat = envcfg.number(
            "REPRO_FLEET_HEARTBEAT", float, lambda v: v > 0,
            "a number of seconds > 0", environ,
        )
    if heartbeat is None:
        return ttl / 3.0
    heartbeat = float(heartbeat)
    if not heartbeat > 0:
        raise ReproError(f"heartbeat must be > 0 seconds, got {heartbeat}")
    return min(heartbeat, ttl / 2.0)


def resolve_max_inflight(max_inflight=None, environ=None):
    """Jobs per lease call: explicit > ``REPRO_FLEET_MAX_INFLIGHT`` > 2."""
    if max_inflight is not None:
        max_inflight = int(max_inflight)
        if max_inflight < 1:
            raise ReproError(f"max_inflight must be >= 1, got {max_inflight}")
        return max_inflight
    value = envcfg.number(
        "REPRO_FLEET_MAX_INFLIGHT", int, lambda v: v >= 1,
        "an integer >= 1", environ,
    )
    return DEFAULT_MAX_INFLIGHT if value is None else value


def resolve_poll(poll=None, environ=None):
    """Idle lease long-poll seconds: explicit > ``REPRO_FLEET_POLL`` > 2."""
    if poll is not None:
        poll = float(poll)
        if poll < 0:
            raise ReproError(f"poll must be >= 0 seconds, got {poll}")
        return poll
    value = envcfg.number(
        "REPRO_FLEET_POLL", float, lambda v: v >= 0,
        "a number of seconds >= 0", environ,
    )
    return DEFAULT_POLL if value is None else value


def resolve_worker_id(worker_id=None, environ=None):
    """Worker id: explicit > ``REPRO_FLEET_WORKER_ID`` > ``<host>-<pid>``."""
    if worker_id:
        return str(worker_id)
    value = envcfg.raw("REPRO_FLEET_WORKER_ID", environ)
    if value:
        return value
    return f"{socket.gethostname()}-{os.getpid()}"
