"""Mega-batch grouping and execution for the suite runner.

This is the harness-side half of cross-job kernel packing
(:mod:`repro.core.megabatch` is the solver-side half): it decides which
:class:`~repro.harness.runner.SuiteJob` items may share one packed
solve (:func:`job_pack_key`), chunks them into bounded groups
(:func:`find_groups`) and executes a group through the packer with
payloads shaped exactly like :func:`~repro.harness.runner.execute_job`
(:func:`execute_group`).

Packing is opt-in (``REPRO_MEGABATCH``; default off) and strictly an
execution strategy: per-job payloads are bitwise-identical to solo
solves, so checkpoints, caches and the service result store never see
the difference.  Only jobs that the packer can prove compatible are
grouped — ``kind="partition"``, the gradient method, the batched
engine, the same circuit/planes/refine/pinned and the same config up to
``restarts``/``seed``.  Everything else (plan jobs, the multilevel
engine, mixed configs) falls through to the normal per-job path
untouched.
"""

import hashlib
import json

from repro import envcfg
from repro.cache.store import canonical_jsonable
from repro.core.config import PartitionConfig
from repro.core.megabatch import PACK_FREE_FIELDS, SolveSpec, partition_packed

#: Default maximum number of jobs packed into one group.
DEFAULT_MEGABATCH_LIMIT = 16


def megabatch_enabled(enabled=None, environ=None):
    """Effective packing switch: explicit > ``REPRO_MEGABATCH`` > off."""
    if enabled is not None:
        return bool(enabled)
    return envcfg.flag_enabled("REPRO_MEGABATCH", environ)


def resolve_megabatch_limit(limit=None, environ=None):
    """Group size cap: explicit > ``REPRO_MEGABATCH_LIMIT`` > 16."""
    if limit is not None:
        limit = int(limit)
    else:
        limit = envcfg.number(
            "REPRO_MEGABATCH_LIMIT", int, lambda v: v >= 1, "an integer >= 1", environ
        )
        if limit is None:
            limit = DEFAULT_MEGABATCH_LIMIT
    if limit < 1:
        limit = 1
    return limit


def _config_key(config):
    """Hashable view of a config with the pack-free fields dropped."""
    payload = canonical_jsonable(
        {
            name: getattr(config, name)
            for name in config.__dataclass_fields__
            if name not in PACK_FREE_FIELDS + ("extra",)
        }
    )
    return json.dumps(payload, sort_keys=True)


def job_pack_key(job):
    """Hashable grouping key for ``job``, or ``None`` when unpackable.

    Two jobs with equal keys are guaranteed compatible for
    :func:`repro.core.megabatch.partition_packed`: identical problem
    identity (circuit name or inline-netlist content hash), plane
    count, refine flag, pinned constraints and solver config up to
    ``restarts``/``seed``.
    """
    if job.kind != "partition" or job.method != "gradient":
        return None
    if job.num_planes is None or int(job.num_planes) < 2:
        return None
    config = job.config if job.config is not None else PartitionConfig()
    if config.engine != "batched":
        return None
    if job.netlist_json is not None:
        blob = json.dumps(canonical_jsonable(job.netlist_json), sort_keys=True)
        circuit_key = ("netlist", hashlib.sha256(blob.encode()).hexdigest())
    else:
        circuit_key = ("circuit", job.circuit)
    pinned = job.pinned or {}
    pinned_key = tuple(sorted((repr(gate), int(plane)) for gate, plane in pinned.items()))
    return (
        circuit_key,
        int(job.num_planes),
        bool(job.refine),
        pinned_key,
        _config_key(config),
    )


def find_groups(job_list, pending, limit=None):
    """Packable groups (lists of >= 2 job indices) among ``pending``.

    Jobs keep their submission order within a group; groups larger than
    ``limit`` are chunked.  Indices not covered by any returned group
    (unpackable jobs, singleton keys) are simply not in the output and
    run through the normal per-job path.
    """
    limit = resolve_megabatch_limit(limit)
    by_key = {}
    for index in pending:
        key = job_pack_key(job_list[index])
        if key is not None:
            by_key.setdefault(key, []).append(index)
    groups = []
    for indices in by_key.values():
        if len(indices) < 2:
            continue
        for start in range(0, len(indices), limit):
            chunk = indices[start:start + limit]
            if len(chunk) >= 2:
                groups.append(chunk)
    return groups


def execute_group(jobs):
    """Execute a packable group; one payload per job, in order.

    Payloads are structurally and bitwise identical to what
    :func:`repro.harness.runner.execute_job` returns for each job solo:
    the netlist is built once, the solves run packed, and per-job
    refinement/evaluation happens on each job's own result.
    """
    from repro.circuits.suite import build_circuit
    from repro.core.refinement import refine_greedy
    from repro.metrics.report import evaluate_partition

    first = jobs[0]
    if first.netlist_json is not None:
        from repro.netlist.library import default_library
        from repro.netlist.serialize import netlist_from_dict

        netlist = netlist_from_dict(first.netlist_json, default_library())
    else:
        netlist = build_circuit(first.circuit)

    specs = [
        SolveSpec(
            netlist=netlist,
            num_planes=job.num_planes,
            config=job.config,
            seed=job.seed,
            pinned=job.pinned,
        )
        for job in jobs
    ]
    results = partition_packed(specs)

    payloads = []
    for job, result in zip(jobs, results):
        if job.refine:
            result = refine_greedy(result)
        payloads.append(
            {
                "circuit": job.circuit,
                "report": evaluate_partition(result),
                "labels": result.labels,
            }
        )
    return payloads
