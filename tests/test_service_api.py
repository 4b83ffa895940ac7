"""Tests for the service request schema, content keys and job building."""

import pytest

from repro.circuits.suite import build_circuit
from repro.core.config import PartitionConfig
from repro.harness.runner import SuiteJob
from repro.netlist.serialize import NETLIST_FORMAT_VERSION, netlist_to_dict
from repro.service.api import (
    request_key,
    request_to_job,
    schema_versions,
    validate_request,
)
from repro.service.errors import BadRequestError


def _req(**extra):
    base = {"circuit": "KSA4", "num_planes": 3, "seed": 5}
    base.update(extra)
    return base


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_minimal_request_normalizes_with_defaults():
    normalized = validate_request(_req())
    assert normalized == {
        "kind": "partition",
        "circuit": "KSA4",
        "num_planes": 3,
        "method": "gradient",
        "engine": "batched",
        "seed": 5,
        "refine": False,
    }


def test_rejects_non_object_and_unknown_fields():
    with pytest.raises(BadRequestError, match="JSON object"):
        validate_request([1, 2])
    with pytest.raises(BadRequestError, match="unknown request field.*numplanes"):
        validate_request({"circuit": "KSA4", "numplanes": 3, "seed": 1})


def test_requires_exactly_one_of_circuit_and_netlist():
    with pytest.raises(BadRequestError, match="exactly one"):
        validate_request({"num_planes": 3, "seed": 1})
    netlist = netlist_to_dict(build_circuit("KSA4"))
    with pytest.raises(BadRequestError, match="exactly one"):
        validate_request(_req(netlist=netlist))


def test_rejects_unknown_circuit_method_engine():
    with pytest.raises(BadRequestError, match="unknown circuit 'NOPE'"):
        validate_request(_req(circuit="NOPE"))
    with pytest.raises(BadRequestError, match="unknown method"):
        validate_request(_req(method="magic"))
    with pytest.raises(BadRequestError, match="engine must be one of"):
        validate_request(_req(engine="warp"))


def test_seed_must_be_integer():
    for bad in (None, "7", 1.5, True):
        with pytest.raises(BadRequestError, match="seed must be an integer"):
            validate_request(_req(seed=bad))


def test_num_planes_validation():
    for bad in (None, 0, -1, "3", 2.5, True):
        with pytest.raises(BadRequestError, match="num_planes"):
            validate_request(_req(num_planes=bad))


def test_netlist_requests_validate_format_and_name():
    netlist = netlist_to_dict(build_circuit("KSA4"))
    normalized = validate_request(
        {"netlist": netlist, "num_planes": 3, "seed": 5}
    )
    assert normalized["netlist"] is netlist
    bad_format = dict(netlist, format=NETLIST_FORMAT_VERSION + 1)
    with pytest.raises(BadRequestError, match="unsupported netlist format"):
        validate_request({"netlist": bad_format, "num_planes": 3, "seed": 5})
    with pytest.raises(BadRequestError, match="serialized netlist"):
        validate_request({"netlist": {"kind": "nope"}, "num_planes": 3, "seed": 5})


def test_pinned_validation():
    normalized = validate_request(_req(pinned={"g0": 0, "g1": 2}))
    assert normalized["pinned"] == {"g0": 0, "g1": 2}
    with pytest.raises(BadRequestError, match="only supported by the 'gradient'"):
        validate_request(_req(method="random", pinned={"g0": 0}))
    with pytest.raises(BadRequestError, match="out of range"):
        validate_request(_req(pinned={"g0": 3}))
    with pytest.raises(BadRequestError, match="non-empty object"):
        validate_request(_req(pinned={}))
    with pytest.raises(BadRequestError, match="integer >= 0"):
        validate_request(_req(pinned={"g0": -1}))


def test_plan_requests():
    normalized = validate_request({"kind": "plan", "circuit": "KSA4", "seed": 1})
    assert normalized["bias_limit_ma"] == 100.0
    assert "num_planes" not in normalized
    with pytest.raises(BadRequestError, match="num_planes does not apply"):
        validate_request({"kind": "plan", "circuit": "KSA4", "seed": 1,
                          "num_planes": 4})
    with pytest.raises(BadRequestError, match="bias_limit_ma"):
        validate_request({"kind": "plan", "circuit": "KSA4", "seed": 1,
                          "bias_limit_ma": 0})
    with pytest.raises(BadRequestError, match="bias_limit_ma only applies"):
        validate_request(_req(bias_limit_ma=50.0))


# ---------------------------------------------------------------------------
# content keys
# ---------------------------------------------------------------------------

def test_request_key_is_stable_and_sensitive():
    key = request_key(validate_request(_req()))
    assert key == request_key(validate_request(_req()))
    assert key != request_key(validate_request(_req(seed=6)))
    assert key != request_key(validate_request(_req(num_planes=4)))
    assert key != request_key(validate_request(_req(engine="multilevel")))
    assert key != request_key(validate_request(_req(refine=True)))


def test_request_key_covers_schema_versions(monkeypatch):
    before = request_key(validate_request(_req()))
    import repro.service.api as api

    monkeypatch.setattr(api, "SERVICE_API_VERSION", api.SERVICE_API_VERSION + 1)
    assert request_key(validate_request(_req())) != before


def test_schema_versions_fields():
    versions = schema_versions()
    assert set(versions) == {
        "package", "api", "trace_schema", "cache_schema",
        "checkpoint_schema", "netlist_format", "events_schema",
        "diff_format",
    }


# ---------------------------------------------------------------------------
# job building (the bitwise-parity contract)
# ---------------------------------------------------------------------------

def test_request_to_job_matches_cli_job():
    """The built job is field-for-field the one the CLI path builds."""
    job = request_to_job(validate_request(_req(engine="multilevel", refine=True)))
    cli_job = SuiteJob(
        kind="partition", circuit="KSA4", num_planes=3, method="gradient",
        seed=5, config=PartitionConfig(engine="multilevel"), refine=True,
    )
    assert job == cli_job


def test_loop_engine_request_is_a_400():
    """The serial ``loop`` engine is gone; asking for it is a bad request."""
    body = _req()
    body["engine"] = "loop"
    with pytest.raises(BadRequestError, match="engine must be one of") as excinfo:
        validate_request(body)
    assert excinfo.value.status == 400


def test_request_to_job_inline_netlist():
    netlist = netlist_to_dict(build_circuit("KSA4"))
    job = request_to_job(validate_request(
        {"netlist": netlist, "num_planes": 3, "seed": 5}
    ))
    assert job.circuit == netlist["name"]
    assert job.netlist_json is netlist


def test_request_to_job_plan():
    job = request_to_job(validate_request(
        {"kind": "plan", "circuit": "KSA4", "seed": 9, "bias_limit_ma": 40.0}
    ))
    assert job.kind == "plan"
    assert job.bias_limit_ma == 40.0
    assert job.num_planes is None
