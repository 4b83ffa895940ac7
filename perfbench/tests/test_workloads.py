"""Generator tests: the workloads are fixed functions of their seed and
have the properties their rationale claims.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from perfbench.workloads import (
    FLEET_CIRCUITS,
    MULTILEVEL_CIRCUITS,
    PLAN_EXCLUDED,
    SERVICE_CIRCUITS,
    SERVICE_REPEATS_PER_BLOCK,
    WARMUP_SEED,
    fleet_lease_stream,
    paper_tables_jobs,
    service_mix_stream,
    warmup_requests,
)

LENGTH = 600


def _key(body):
    return (body["circuit"], body["seed"], body.get("engine", "batched"))


def test_paper_tables_pass_is_the_30_table_jobs():
    jobs = paper_tables_jobs(7)
    assert len(jobs) == 30
    assert [j.kind for j in jobs].count("plan") == 11
    assert not {j.circuit for j in jobs if j.kind == "plan"} & set(PLAN_EXCLUDED)
    assert sorted(j.num_planes for j in jobs if j.circuit == "KSA4" and j.kind == "partition") \
        == [5, 5, 6, 7, 8, 9, 10]
    assert {j.seed for j in jobs} == {7}
    assert paper_tables_jobs(7) == jobs
    assert paper_tables_jobs(8) != jobs


def test_streams_repeat_for_a_seed_and_differ_across_seeds():
    for stream in (service_mix_stream, fleet_lease_stream):
        assert stream(3, 0, LENGTH) == stream(3, 0, LENGTH)
        assert stream(3, 0, LENGTH) != stream(4, 0, LENGTH)
        assert stream(3, 0, LENGTH) != stream(3, 1, LENGTH)
        # A shorter run sends a prefix of the same requests.
        assert stream(3, 0, 50) == stream(3, 0, LENGTH)[:50]


def test_service_mix_repeats_are_answered_by_earlier_requests():
    block = 2 * len(SERVICE_CIRCUITS) + SERVICE_REPEATS_PER_BLOCK
    length = 55 * block
    for thread in range(2):
        ops = service_mix_stream(11, thread, length)
        assert {op["circuit"] for op in ops} == set(SERVICE_CIRCUITS)
        assert all(op["num_planes"] == 5 for op in ops)
        seen, repeats = set(), 0
        for op in ops:
            if _key(op) in seen:
                repeats += 1
            seen.add(_key(op))
        assert repeats == 55 * SERVICE_REPEATS_PER_BLOCK
        assert 0.25 < repeats / length < 0.35


def test_service_mix_multilevel_share():
    ops = service_mix_stream(5, 0, LENGTH)
    fresh = {}
    for op in ops:
        fresh.setdefault(_key(op), op)
    for circuit in MULTILEVEL_CIRCUITS:
        engines = [k[2] for k in fresh if k[0] == circuit]
        whole = len(engines) - len(engines) % 4  # complete groups of four
        assert engines[:whole].count("multilevel") * 4 == whole
        sent = [op.get("engine", "batched") for op in ops if op["circuit"] == circuit]
        assert 0.15 <= sent.count("multilevel") / len(sent) <= 0.35
    others = [op for op in ops if op["circuit"] not in MULTILEVEL_CIRCUITS]
    assert all("engine" not in op for op in others)


def test_fleet_lease_never_repeats_a_request():
    keys = [
        _key(op) for thread in range(2) for op in fleet_lease_stream(9, thread, LENGTH)
    ]
    assert len(set(keys)) == len(keys)
    assert {k[0] for k in keys} == set(FLEET_CIRCUITS)


def test_fresh_seeds_are_distinct_across_threads_and_avoid_warmup():
    owner = {}
    for thread in range(4):
        for op in service_mix_stream(2, thread, LENGTH):
            assert owner.setdefault(op["seed"], thread) == thread
    assert WARMUP_SEED not in owner
    assert all(body["seed"] == WARMUP_SEED for body in warmup_requests("service-mix"))
