"""High-level partitioning API.

:func:`partition` is the package's main entry point: it takes a netlist
and a plane count, runs Algorithm 1 from several random restarts, rounds
the best relaxed solution to integer plane labels and returns a
:class:`PartitionResult` that the metrics/recycling layers consume.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import round_assignment, round_assignment_balanced
from repro.core.config import PartitionConfig
from repro.core.cost import integer_cost
from repro.core.optimizer import minimize_assignment_batch
from repro.netlist.graph import undirected_degrees
from repro.obs import OBS
from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng, spawn_rngs


@dataclass
class PartitionResult:
    """A finished K-way ground-plane partition of a netlist.

    ``labels[i]`` is the zero-based plane of gate ``i``; plane 0 is the
    top plane of the serial bias chain (the one fed by the external
    supply), plane ``K-1`` the bottom one, matching Fig. 1 of the paper.
    """

    netlist: object
    num_planes: int
    labels: np.ndarray
    config: PartitionConfig
    trace: object = None
    restart_costs: list = field(default_factory=list)
    repaired_gates: int = 0
    pinned: dict = field(default_factory=dict)
    #: Per-restart solver diagnostics: one dict per restart with
    #: ``restart``, ``iterations``, ``converged``, ``relaxed_cost`` (the
    #: final descent cost) and ``integer_cost`` (the post-rounding score
    #: that picks the winner).  Lets benchmarks separate genuine speed
    #: from early convergence.  Empty for the trivial K == 1 partition.
    restart_stats: list = field(default_factory=list)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.labels.shape != (self.netlist.num_gates,):
            raise PartitionError(
                f"labels shape {self.labels.shape} does not match netlist "
                f"({self.netlist.num_gates} gates)"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_planes):
            raise PartitionError("labels out of range")

    # ------------------------------------------------------------------
    def planes(self):
        """List of K arrays of gate indices, one per plane."""
        return [np.flatnonzero(self.labels == k) for k in range(self.num_planes)]

    def plane_sizes(self):
        """Gate count per plane, shape ``(K,)``."""
        return np.bincount(self.labels, minlength=self.num_planes)

    def plane_bias_ma(self):
        """Per-plane bias current ``B_k`` in mA, shape ``(K,)``."""
        return np.bincount(
            self.labels, weights=self.netlist.bias_vector_ma(), minlength=self.num_planes
        )

    def plane_area_mm2(self):
        """Per-plane gate area ``A_k`` in mm^2, shape ``(K,)``."""
        return np.bincount(
            self.labels, weights=self.netlist.area_vector_mm2(), minlength=self.num_planes
        )

    def connection_distances(self):
        """``d = |l_i1 - l_i2|`` per connection, shape ``(|E|,)``."""
        edges = self.netlist.edge_array()
        if edges.shape[0] == 0:
            return np.zeros(0, dtype=np.intp)
        return np.abs(self.labels[edges[:, 0]] - self.labels[edges[:, 1]])

    def integer_cost(self):
        """Post-rounding cost ``c1 F1 + c2 F2 + c3 F3`` of this partition."""
        return integer_cost(
            self.labels,
            self.num_planes,
            self.netlist.edge_array(),
            self.netlist.bias_vector_ma(),
            self.netlist.area_vector_um2(),
            self.config,
        )

    def __repr__(self):
        sizes = ", ".join(str(int(s)) for s in self.plane_sizes())
        return (
            f"PartitionResult({self.netlist.name!r}, K={self.num_planes}, "
            f"plane sizes=[{sizes}])"
        )


def _repair_empty_planes(labels, num_planes, netlist, pinned=None):
    """Move low-connectivity gates from the heaviest plane into empty ones.

    Algorithm 1 can round to a solution with empty planes when K is large
    relative to the circuit; a serial bias chain with an empty plane is
    ill-defined (the chain would carry the full compensation current), so
    we repair by repeatedly taking the gate with the fewest incident
    connections out of the plane with the largest bias current.  Pinned
    gates are never moved.  Returns ``(labels, moved_count)``.
    """
    labels = labels.copy()
    bias = netlist.bias_vector_ma()
    degrees = undirected_degrees(netlist)
    movable = np.ones(labels.size, dtype=bool)
    for gate in (pinned or {}):
        movable[gate] = False
    moved = 0
    while True:
        sizes = np.bincount(labels, minlength=num_planes)
        empty = np.flatnonzero(sizes == 0)
        if empty.size == 0:
            return labels, moved
        plane_bias = np.bincount(labels, weights=bias, minlength=num_planes)
        movable_sizes = np.bincount(labels[movable], minlength=num_planes)
        donor_candidates = np.flatnonzero((sizes > 1) & (movable_sizes > 0))
        if donor_candidates.size == 0:
            raise PartitionError(
                f"cannot repair empty plane: no plane has a movable spare gate "
                f"(G={labels.size}, K={num_planes})"
            )
        donor = donor_candidates[np.argmax(plane_bias[donor_candidates])]
        members = np.flatnonzero((labels == donor) & movable)
        mover = members[np.argmin(degrees[members])]
        labels[mover] = empty[0]
        moved += 1


def partition(netlist, num_planes, config=None, seed=None, pinned=None):
    """Partition ``netlist`` into ``num_planes`` serially-biased planes.

    Runs ``config.restarts`` independent gradient-descent solves
    (Algorithm 1) and keeps the rounded solution with the lowest integer
    cost.  The solves run through the batched fused-kernel engine by
    default; ``config.engine == "multilevel"`` warm-starts the same
    descent from a coarsened solve (faster on >1k-gate circuits, same
    validity guarantees, different labels).  See
    :class:`~repro.core.config.PartitionConfig` for knobs.

    Parameters
    ----------
    netlist:
        A :class:`~repro.netlist.netlist.Netlist`.
    num_planes:
        K >= 1.  ``K == 1`` returns the trivial single-plane partition.
    config:
        Optional :class:`PartitionConfig`; defaults are calibrated for
        the reconstructed benchmark suite.
    seed:
        Overrides ``config.seed`` when given.
    pinned:
        Optional hard gate-to-plane constraints, ``{gate name/index/
        Gate: plane}`` (extension; e.g. pin I/O-adjacent gates to the
        perimeter planes).  Pinned gates never move — not in the
        descent, the rounding, or the empty-plane repair.

    Returns
    -------
    PartitionResult
    """
    if config is None:
        config = PartitionConfig()
    if netlist.num_gates == 0:
        raise PartitionError(f"netlist {netlist.name!r} has no gates")
    if num_planes < 1:
        raise PartitionError(f"num_planes must be >= 1, got {num_planes}")
    if num_planes > netlist.num_gates:
        raise PartitionError(
            f"cannot split {netlist.num_gates} gates into {num_planes} planes"
        )
    pinned_index = {}
    for gate_ref, plane in (pinned or {}).items():
        plane = int(plane)
        if not 0 <= plane < num_planes:
            raise PartitionError(f"pinned plane {plane} out of range for K={num_planes}")
        pinned_index[netlist.gate(gate_ref).index] = plane

    if num_planes == 1:
        labels = np.zeros(netlist.num_gates, dtype=np.intp)
        return PartitionResult(
            netlist=netlist, num_planes=1, labels=labels, config=config, pinned=pinned_index
        )

    edges = netlist.edge_array()
    bias = netlist.bias_vector_ma()
    area = netlist.area_vector_um2()

    rng = make_rng(config.seed if seed is None else seed)
    streams = spawn_rngs(rng, config.restarts)

    with OBS.trace.span(
        "partition", circuit=netlist.name, planes=num_planes,
        gates=netlist.num_gates, engine=config.engine,
    ):
        if OBS.enabled:
            OBS.metrics.counter("partition.calls").inc()
            OBS.metrics.counter("partition.restarts").inc(config.restarts)

        with OBS.trace.span("solve"):
            if config.engine == "multilevel":
                from repro.core.multilevel import minimize_assignment_multilevel

                traces = minimize_assignment_multilevel(
                    num_planes, edges, bias, area, config, rngs=streams,
                    pinned=pinned_index, coarsen_rng=rng,
                )
            else:
                traces = minimize_assignment_batch(
                    num_planes, edges, bias, area, config, rngs=streams, pinned=pinned_index
                )

        return finalize_traces(
            netlist, num_planes, config, traces, pinned_index, edges, bias, area
        )


def finalize_traces(netlist, num_planes, config, traces, pinned_index, edges, bias, area):
    """Score, round and repair solved traces into a :class:`PartitionResult`.

    The shared tail of :func:`partition` and the mega-batch packer
    (:mod:`repro.core.megabatch`): given per-restart descent traces this
    performs exactly the rounding, integer-cost scoring, empty-plane
    repair and observability accounting a solo :func:`partition` call
    would — which is what makes packed jobs finish bitwise identically
    to solo ones.
    """
    with OBS.trace.span("score"):
        best = None
        best_cost = np.inf
        best_labels = None
        restart_costs = []
        restart_stats = []
        for index, trace in enumerate(traces):
            if config.engine == "multilevel" and getattr(trace, "coarse_levels", 0):
                # Interpolated warm starts have supernode-constant
                # rows; argmax would round whole clusters onto one
                # plane, so use the capacity-aware rounding instead.
                # Traces without coarse_levels fell through to the
                # plain batched solve (sub-floor circuit or edgeless
                # graph); round those with the plain argmax so small
                # circuits match engine="batched" exactly.
                labels = round_assignment_balanced(
                    trace.w, bias,
                    slack=config.multilevel_round_slack,
                    pinned=pinned_index,
                )
            else:
                labels = round_assignment(trace.w)
            cost = integer_cost(labels, num_planes, edges, bias, area, config)
            restart_costs.append(cost)
            stats = {
                "restart": index,
                "iterations": trace.iterations,
                "converged": trace.converged,
                "relaxed_cost": trace.final_cost,
                "integer_cost": cost,
            }
            coarse_iterations = getattr(trace, "coarse_iterations", None)
            if coarse_iterations is not None:
                # engine="multilevel": cheap coarse-solve effort,
                # reported separately from the fine iterations above.
                stats["coarse_iterations"] = coarse_iterations
                stats["coarse_converged"] = trace.coarse_converged
            restart_stats.append(stats)
            if cost < best_cost:
                best, best_cost, best_labels = trace, cost, labels

    repaired = 0
    if config.ensure_nonempty:
        with OBS.trace.span("repair"):
            best_labels, repaired = _repair_empty_planes(
                best_labels, num_planes, netlist, pinned=pinned_index
            )
    if OBS.enabled:
        OBS.metrics.counter("partition.converged_restarts").inc(
            sum(1 for s in restart_stats if s["converged"])
        )
        OBS.metrics.counter("partition.repaired_gates").inc(repaired)
        OBS.metrics.histogram(
            "partition.restart_iterations", buckets=(10, 25, 50, 100, 250, 500, 1000, 2000)
        )
        for stats in restart_stats:
            OBS.metrics.histogram("partition.restart_iterations").observe(
                stats["iterations"]
            )

    return PartitionResult(
        netlist=netlist,
        num_planes=num_planes,
        labels=best_labels,
        config=config,
        trace=best,
        restart_costs=restart_costs,
        repaired_gates=repaired,
        pinned=pinned_index,
        restart_stats=restart_stats,
    )
