"""Equivalence of the batched engine with the serial reference solver.

The batched fused-kernel engine must reproduce serial single-restart
descents (:func:`~repro.core.optimizer.minimize_assignment`) *exactly*:
for the same seeds, every restart's cost history is identical (the
margin stop is a knife-edge ratio comparison, so even a 1-ulp drift
could change the stop iteration) and the rounded labels are bitwise the
same.  These tests pin that contract across plane counts, row
renormalization, pinned gates and gradient flavors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PartitionConfig
from repro.core.optimizer import minimize_assignment, minimize_assignment_batch
from repro.core.partitioner import finalize_traces, partition
from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng, spawn_rngs


def _random_problem(num_gates, num_planes, num_edges, seed):
    rng = np.random.default_rng(seed)
    edges = []
    while len(edges) < num_edges:
        u, v = rng.integers(0, num_gates, size=2)
        if u != v:
            edges.append((u, v))
    edges = np.array(edges, dtype=np.intp).reshape(-1, 2)
    bias = rng.uniform(0.05, 2.0, size=num_gates)
    area = rng.uniform(10.0, 500.0, size=num_gates)
    return edges, bias, area


def _assert_traces_equal(trace_loop, trace_batch):
    # Histories equal within 1e-12 — and in fact exactly: both engines
    # run the same kernel arithmetic.
    hist_a = np.asarray(trace_loop.cost_history)
    hist_b = np.asarray(trace_batch.cost_history)
    assert hist_a.shape == hist_b.shape
    np.testing.assert_allclose(hist_a, hist_b, rtol=0.0, atol=1e-12)
    assert hist_a.tolist() == hist_b.tolist()
    assert trace_loop.converged == trace_batch.converged
    assert trace_loop.iterations == trace_batch.iterations
    assert np.array_equal(trace_loop.w, trace_batch.w)
    assert trace_loop.final_terms.total == trace_batch.final_terms.total


@pytest.mark.parametrize("num_planes", [2, 5, 8])
@pytest.mark.parametrize("renormalize", [False, True])
def test_optimizer_engines_identical(num_planes, renormalize):
    edges, bias, area = _random_problem(16, num_planes, 30, seed=num_planes)
    config = PartitionConfig(
        seed=11, restarts=3, max_iterations=200, renormalize_rows=renormalize
    )
    # Generators are stateful: spawn two identical stream sets from the
    # same root seed, one per engine.
    batched = minimize_assignment_batch(
        num_planes, edges, bias, area, config,
        rngs=spawn_rngs(make_rng(config.seed), config.restarts),
    )
    loop_streams = spawn_rngs(make_rng(config.seed), config.restarts)
    for stream, trace_batch in zip(loop_streams, batched):
        trace_loop = minimize_assignment(
            num_planes, edges, bias, area, config, rng=stream
        )
        _assert_traces_equal(trace_loop, trace_batch)


def test_optimizer_engines_identical_with_pinned():
    num_planes = 4
    edges, bias, area = _random_problem(14, num_planes, 25, seed=99)
    pinned = {0: 2, 5: 0, 13: 3}
    config = PartitionConfig(seed=3, restarts=3, max_iterations=150)
    batched = minimize_assignment_batch(
        num_planes, edges, bias, area, config, pinned=pinned,
        rngs=spawn_rngs(make_rng(config.seed), config.restarts),
    )
    loop_streams = spawn_rngs(make_rng(config.seed), config.restarts)
    for stream, trace_batch in zip(loop_streams, batched):
        trace_loop = minimize_assignment(
            num_planes, edges, bias, area, config, rng=stream, pinned=pinned
        )
        _assert_traces_equal(trace_loop, trace_batch)
        for gate, plane in pinned.items():
            assert trace_batch.w[gate, plane] == 1.0
            assert trace_batch.w[gate].sum() == 1.0


def _serial_partition(netlist, num_planes, config, pinned=None):
    """``partition()`` rebuilt from serial single-restart descents.

    Spawns the restart streams exactly as :func:`partition` does, runs
    one :func:`minimize_assignment` per stream and finalizes through the
    shared :func:`finalize_traces` tail.
    """
    pinned_index = {
        netlist.gate(gate).index: plane for gate, plane in (pinned or {}).items()
    }
    edges = netlist.edge_array()
    bias = netlist.bias_vector_ma()
    area = netlist.area_vector_um2()
    traces = [
        minimize_assignment(
            num_planes, edges, bias, area, config, rng=stream, pinned=pinned_index
        )
        for stream in spawn_rngs(make_rng(config.seed), config.restarts)
    ]
    return finalize_traces(
        netlist, num_planes, config, traces, dict(pinned_index), edges, bias, area
    )


def _assert_results_equal(serial, batched):
    assert np.array_equal(serial.labels, batched.labels)
    assert serial.restart_costs == batched.restart_costs
    assert serial.trace.cost_history == batched.trace.cost_history
    assert serial.repaired_gates == batched.repaired_gates


@pytest.mark.parametrize("num_planes", [2, 5, 8])
def test_partition_engines_identical(mixed_netlist, num_planes):
    config = PartitionConfig(seed=2020, restarts=4, max_iterations=300)
    serial = _serial_partition(mixed_netlist, num_planes, config)
    batched = partition(mixed_netlist, num_planes, config=config)
    _assert_results_equal(serial, batched)


def test_partition_engines_identical_with_pinned(mixed_netlist):
    config = PartitionConfig(seed=5, restarts=3, max_iterations=200)
    pinned = {0: 1, 3: 0}
    serial = _serial_partition(mixed_netlist, 4, config, pinned=pinned)
    batched = partition(mixed_netlist, 4, config=config, pinned=pinned)
    _assert_results_equal(serial, batched)
    for gate, plane in pinned.items():
        assert batched.labels[gate] == plane


@pytest.mark.parametrize("mode", ["paper", "exact"])
def test_engines_identical_across_gradient_modes(mixed_netlist, mode):
    config = PartitionConfig(
        seed=42, restarts=2, max_iterations=200, gradient_mode=mode
    )
    serial = _serial_partition(mixed_netlist, 3, config)
    batched = partition(mixed_netlist, 3, config=config)
    _assert_results_equal(serial, batched)


@pytest.mark.parametrize("engine", ["loop", "serial"])
def test_serial_engine_value_is_rejected(engine):
    """The serial reference is a function, not a ``PartitionConfig`` engine."""
    with pytest.raises(PartitionError, match="engine must be one of"):
        PartitionConfig(engine=engine)


@given(
    num_gates=st.integers(4, 18),
    num_planes=st.integers(2, 6),
    seed=st.integers(0, 2**31 - 1),
    renormalize=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_engine_equivalence_property(num_gates, num_planes, seed, renormalize):
    """Random problems: per-restart traces from the two engines agree."""
    if num_planes > num_gates:
        num_planes = num_gates
    edges, bias, area = _random_problem(num_gates, num_planes, 2 * num_gates, seed)
    config = PartitionConfig(
        seed=seed % 1000, restarts=2, max_iterations=60, renormalize_rows=renormalize
    )
    batched = minimize_assignment_batch(
        num_planes, edges, bias, area, config,
        rngs=spawn_rngs(make_rng(config.seed), config.restarts),
    )
    loop_streams = spawn_rngs(make_rng(config.seed), config.restarts)
    for stream, trace_batch in zip(loop_streams, batched):
        trace_loop = minimize_assignment(num_planes, edges, bias, area, config, rng=stream)
        _assert_traces_equal(trace_loop, trace_batch)
