"""Fused batched cost/gradient kernel for Algorithm 1.

The solver loop evaluates the cost (Algorithm 1 line 13) and the
gradient (line 18) at the same ``w`` on every iteration.  The historical
implementation ran them as two independent passes through
:mod:`repro.core.cost` and :mod:`repro.core.gradients`, each recomputing
the relaxed labels, the per-edge label differences, the per-plane
bias/area sums and the row means — and re-validating the (constant)
problem arrays through ``_check_inputs`` on every call.

:class:`FusedKernel` removes all of that redundancy:

* the problem arrays (edges, bias, area) are validated **once** at
  construction, along with the normalizers ``N1``/``N4`` and the label
  coefficients;
* the ``np.add.at`` scatter of the F1 gradient is replaced by a
  precomputed CSR-style :class:`EdgeIncidence` segment-sum
  (``argsort`` once, ``np.add.reduceat`` per evaluation);
* :meth:`FusedKernel.cost_and_gradient` computes labels, edge
  differences, per-plane sums and row means **once** and returns both
  the four cost terms and the total gradient;
* every evaluation is batched over a leading restart axis: ``w`` of
  shape ``(R, G, K)`` evaluates all ``R`` restarts simultaneously.

Numerical-equivalence contract
------------------------------
The kernel is the arithmetic ground truth for **both** partitioner
engines: the batched engine calls it on ``(R, G, K)`` stacks, while the
sequential engine's entry points (:func:`repro.core.cost.cost_terms` and
:func:`repro.core.gradients.cost_gradient`) delegate to the same kernel
with a single-restart batch.  Equivalence therefore reduces to one
property: every operation in :meth:`FusedKernel.cost_and_gradient` must
produce, for each batch slice, bitwise the same floats it would produce
on that slice alone.  That holds because

* NumPy's reduction strategy (pairwise vs. sequential) depends only on
  the reduced axis and memory layout, not on the size of the leading
  batch axis;
* ``matmul`` on a stacked operand runs one identically-sized gemm/gemv
  per batch entry;
* intermediates produced by advanced indexing (which may come back
  Fortran-ordered) are forced C-contiguous before any last-axis
  reduction, keeping the layout part of the contract true.

The engine-equivalence tests pin this down by comparing the batched
engine against serial single-restart descents
(:func:`repro.core.optimizer.minimize_assignment`).  Because each batch
slice is self-contained, the contract extends across *jobs*: restarts
from many compatible jobs concatenated into one stack
(:mod:`repro.core.megabatch`) evaluate bitwise identically to each
job's solo stack.

Incidence variants
------------------
:class:`EdgeIncidence` (dense signed-buffer) materializes a
``(..., 2E)`` concatenated ``[values, -values]`` temporary per gradient
evaluation; :class:`SparseEdgeIncidence` replaces it with precomputed
CSR-style index/sign arrays and a single gather, cutting the temporary
count in half while staying bitwise identical.  :func:`build_incidence`
selects the sparse variant automatically above
:data:`SPARSE_INCIDENCE_THRESHOLD` gates (the >10k-gate regime).
"""

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import plane_coefficients
from repro.obs import OBS
from repro.utils.errors import PartitionError

#: Gate count above which :func:`build_incidence` picks the sparse
#: (index-array) incidence variant automatically.
SPARSE_INCIDENCE_THRESHOLD = 10_000


class EdgeIncidence:
    """CSR-style signed edge-incidence segment-sum.

    Precomputes, for a fixed edge list, the permutation that groups the
    ``2|E|`` signed edge endpoints by gate.  :meth:`scatter_signed` then
    turns per-edge values into per-gate sums

    ``out[i] = sum_{e: u_e == i} vals[e] - sum_{e: v_e == i} vals[e]``

    with one segment-sum (``np.add.reduceat``)
    instead of two ``np.add.at`` scatters.  The summation order within a
    gate's segment is fixed by the precomputed permutation, so results
    are reproducible and identical for batched and single evaluations.
    """

    __slots__ = (
        "num_gates",
        "num_edges",
        "u",
        "v",
        "_order",
        "_starts",
        "_touched",
    )

    #: Human-readable variant tag (benchmarks and repr).
    variant = "dense"

    def __init__(self, edges, num_gates):
        edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= num_gates):
            raise PartitionError("edge endpoints out of range")
        self.num_gates = int(num_gates)
        self.num_edges = int(edges.shape[0])
        self.u = np.ascontiguousarray(edges[:, 0])
        self.v = np.ascontiguousarray(edges[:, 1])
        # The grouping permutation is only needed by scatter_signed (the
        # gradient path); built lazily so cost-only users skip the sort.
        self._order = None
        self._starts = None
        self._touched = None

    def _ensure_permutation(self):
        if self._order is not None:
            return
        endpoints = np.concatenate([self.u, self.v])
        # Stable sort keeps a deterministic within-gate order (all +u
        # occurrences in edge order, then all -v occurrences).
        self._order = np.argsort(endpoints, kind="stable")
        counts = np.bincount(endpoints, minlength=self.num_gates)
        self._touched = np.flatnonzero(counts > 0)
        starts = np.zeros(self.num_gates + 1, dtype=np.intp)
        np.cumsum(counts, out=starts[1:])
        self._starts = starts[:-1][self._touched]

    def scatter_signed(self, values):
        """Per-gate signed sums of per-edge ``values``, shape ``(..., E)``.

        Returns shape ``(..., G)``; gates with no incident edge get 0.
        """
        values = np.asarray(values, dtype=float)
        out = np.zeros(values.shape[:-1] + (self.num_gates,), dtype=float)
        if self.num_edges == 0:
            return out
        self._ensure_permutation()
        if self._touched.size == 0:
            return out
        out[..., self._touched] = np.add.reduceat(
            self._ordered_summands(values), self._starts, axis=-1
        )
        return out

    def _ordered_summands(self, values):
        """Signed per-edge values in permutation order, C-contiguous."""
        signed = np.concatenate([values, -values], axis=-1)
        return np.ascontiguousarray(signed[..., self._order])


class SparseEdgeIncidence(EdgeIncidence):
    """Index-array incidence variant for large edge lists.

    The dense variant materializes two full ``(..., 2E)`` temporaries
    per gradient evaluation: the concatenated ``[values, -values]``
    buffer and its permuted copy.  This variant precomputes, for each
    permutation slot, which *edge* it reads (``_edge_of``) and with
    which sign (``+1.0`` for a ``u`` endpoint, ``-1.0`` for a ``v``
    endpoint), so one fancy gather straight from the raw values plus an
    in-place sign multiply produces the identical ordered buffer with a
    single temporary — the memory-traffic win that matters in the
    >10k-gate regime :func:`build_incidence` gates on.

    Bitwise identity with the dense variant: multiplying by ``±1.0`` is
    exact in IEEE-754 (``x * 1.0 == x`` and ``x * -1.0 == -x`` bit for
    bit), so the per-slot summands — and therefore the segment sums,
    which run over the same order with the same starts — are identical.
    """

    __slots__ = ("_edge_of", "_signs")

    variant = "sparse"

    def __init__(self, edges, num_gates):
        super().__init__(edges, num_gates)
        self._edge_of = None
        self._signs = None

    def _ensure_permutation(self):
        if self._order is not None:
            return
        super()._ensure_permutation()
        in_u = self._order < self.num_edges
        self._edge_of = np.where(in_u, self._order, self._order - self.num_edges)
        self._signs = np.where(in_u, 1.0, -1.0)

    def _ordered_summands(self, values):
        """Identical contract (and bits) as the dense variant."""
        gathered = np.ascontiguousarray(values[..., self._edge_of])
        gathered *= self._signs
        return gathered


def build_incidence(edges, num_gates, sparse=None):
    """The incidence structure for ``edges`` over ``num_gates`` gates.

    ``sparse=None`` (the default) selects the sparse variant
    automatically when ``num_gates`` exceeds
    :data:`SPARSE_INCIDENCE_THRESHOLD`; pass True/False to force a
    variant.  Both variants are bitwise-identical; only memory traffic
    differs.
    """
    if sparse is None:
        sparse = num_gates > SPARSE_INCIDENCE_THRESHOLD
    cls = SparseEdgeIncidence if sparse else EdgeIncidence
    return cls(edges, num_gates)


@dataclass(frozen=True)
class BatchedCostTerms:
    """The four cost terms and weighted totals of a restart batch.

    Every field is an array of shape ``(R,)`` — one entry per restart.
    """

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    f4: np.ndarray
    total: np.ndarray

    def term(self, index):
        """Scalar :class:`~repro.core.cost.CostTerms` of one restart."""
        from repro.core.cost import CostTerms  # local import to avoid cycle

        return CostTerms(
            f1=float(self.f1[index]),
            f2=float(self.f2[index]),
            f3=float(self.f3[index]),
            f4=float(self.f4[index]),
            total=float(self.total[index]),
        )


class FusedKernel:
    """One-pass batched evaluation of cost terms and total gradient.

    Validates and precomputes everything that is constant across
    iterations (and across restarts) at construction; per-iteration work
    is purely array arithmetic on the ``(R, G, K)`` assignment stack.
    """

    def __init__(self, num_planes, edges, bias, area, sparse=None):
        if num_planes < 1:
            raise PartitionError(f"num_planes must be >= 1, got {num_planes}")
        bias = np.asarray(bias, dtype=float)
        area = np.asarray(area, dtype=float)
        if bias.ndim != 1 or area.shape != bias.shape:
            raise PartitionError(
                f"bias/area must be equal-length 1-D vectors, got {bias.shape} and {area.shape}"
            )
        self.num_planes = int(num_planes)
        self.num_gates = int(bias.shape[0])
        self.bias = np.ascontiguousarray(bias)
        self.area = np.ascontiguousarray(area)
        self.incidence = build_incidence(edges, self.num_gates, sparse=sparse)
        self.num_edges = self.incidence.num_edges
        self.coeff = plane_coefficients(self.num_planes)
        # F1/F4 normalizers (zero when degenerate; guarded at use sites).
        self.n1 = self.num_edges * (self.num_planes - 1) ** 4
        self.n4 = self.num_gates * (self.num_planes - 1) ** 2

    # ------------------------------------------------------------------
    def check_w(self, w):
        """Validate an assignment stack; returns it as float ``(R, G, K)``.

        A 2-D ``(G, K)`` input is promoted to a single-restart batch.
        """
        w = np.asarray(w, dtype=float)
        if w.ndim == 2:
            w = w[None]
        if w.ndim != 3 or w.shape[1:] != (self.num_gates, self.num_planes):
            raise PartitionError(
                f"w must have shape (R, {self.num_gates}, {self.num_planes}) "
                f"or ({self.num_gates}, {self.num_planes}), got {w.shape}"
            )
        return np.ascontiguousarray(w)

    # ------------------------------------------------------------------
    def _variance_pieces(self, w, per_gate_weights):
        """Shared F2/F3 (eqs. (5)-(6)) pieces on the batch.

        Returns ``(term, deviation, scale)`` with shapes ``(R,)``,
        ``(R, K)`` and ``(R,)``: the cost term, the per-plane deviations
        ``B_k - Bbar`` and the gradient prefactor ``2 / (K N)``.
        Restarts whose mean per-plane sum is zero (degenerate
        normalizer) get term 0 and scale 0, so their gradient
        contribution vanishes — mirroring the scalar definition.
        """
        # Batched vec-mat product: one identically-sized gemv per restart,
        # bitwise equal to a single-restart ``weights @ w``.
        per_plane = np.matmul(per_gate_weights, w)  # (R, K)
        mean = per_plane.mean(axis=-1)  # (R,)
        degenerate = mean == 0.0
        safe_mean = np.where(degenerate, 1.0, mean)
        deviation = per_plane - mean[:, None]
        variance = (deviation * deviation).mean(axis=-1)
        normalizer = (self.num_planes - 1) * safe_mean**2
        term = np.where(degenerate, 0.0, variance / normalizer)
        scale = np.where(degenerate, 0.0, 2.0 / (self.num_planes * normalizer))
        return term, deviation, scale

    # ------------------------------------------------------------------
    def cost_and_gradient(self, w, config, want_gradient=True):
        """Evaluate all four cost terms and (optionally) the gradient.

        Parameters
        ----------
        w:
            Assignment stack ``(R, G, K)`` (or ``(G, K)``, treated as
            ``R == 1``).  Assumed already validated/contiguous when it
            comes from the solver loop; :meth:`check_w` is cheap either
            way.
        config:
            :class:`~repro.core.config.PartitionConfig` supplying the
            weights ``c1..c4`` and the F4 gradient flavor.
        want_gradient:
            Skip the gradient work entirely when False (cost-only
            callers such as restart scoring).

        Returns
        -------
        (BatchedCostTerms, gradient):
            ``gradient`` has shape ``(R, G, K)`` or is ``None``.
        """
        w = self.check_w(w)
        num_restarts = w.shape[0]
        num_planes = self.num_planes
        if OBS.enabled:
            # The hottest call site in the package: keep the disabled
            # path to the single attribute check above.
            OBS.metrics.counter("kernel.evaluations").inc()
            OBS.metrics.counter("kernel.restart_evaluations").inc(num_restarts)
            if not want_gradient:
                OBS.metrics.counter("kernel.cost_only_evaluations").inc()
        zeros_r = np.zeros(num_restarts)

        if num_planes == 1:
            # A single plane has no inter-plane cost, no imbalance and no
            # relaxed integer constraint; everything is exactly zero.
            terms = BatchedCostTerms(zeros_r, zeros_r, zeros_r, zeros_r, zeros_r.copy())
            return terms, (np.zeros_like(w) if want_gradient else None)

        # Shared intermediates, computed once per evaluation.
        labels = np.matmul(w, self.coeff)  # (R, G), batched gemv
        row_mean = w.mean(axis=-1)  # (R, G)

        # --- F1 (eq. (4)) cost ----------------------------------------
        per_gate = None
        if self.num_edges == 0:
            f1 = zeros_r
        else:
            # Advanced indexing may return Fortran-ordered buffers whose
            # last-axis reduction order differs from the 1-D case; force
            # C order to keep the bitwise equivalence contract.
            diff = np.ascontiguousarray(
                labels[:, self.incidence.u] - labels[:, self.incidence.v]
            )  # (R, E)
            # Pow-free factorization: diff^4 = (diff^2)^2 and
            # diff^3 = (diff^2) * diff — numpy's pow loop calls libm per
            # element, an order of magnitude slower.
            diff_sq = diff * diff
            f1 = (diff_sq * diff_sq).sum(axis=-1) / self.n1
            if want_gradient:
                per_gate = self.incidence.scatter_signed(diff_sq * diff)  # (R, G)

        # --- F2 / F3 (eqs. (5)-(6)) cost ------------------------------
        f2, dev2, scale2 = self._variance_pieces(w, self.bias)
        f3, dev3, scale3 = self._variance_pieces(w, self.area)

        # --- F4 (eq. (9)) cost ----------------------------------------
        # Row variance via E[w^2] - mean^2: one full-size elementwise
        # product instead of an (R, G, K) broadcast-subtract temporary.
        term_sum = (num_planes * row_mean - 1.0) ** 2
        term_var = (w * w).mean(axis=-1) - row_mean * row_mean
        f4 = (term_sum - term_var).sum(axis=-1) / self.n4

        total = config.c1 * f1 + config.c2 * f2 + config.c3 * f3 + config.c4 * f4
        terms = BatchedCostTerms(f1=f1, f2=f2, f3=f3, f4=f4, total=total)
        if not want_gradient:
            return terms, None

        # --- weighted total gradient (eq. (10)) -----------------------
        # Every term's gradient is (a column vector) x (a row vector),
        # except for F4's diagonal ``w`` part, so the weighted sum is a
        # single rank-4 batched gemm plus one diagonal update:
        #
        #   grad = left @ right + cw * w
        #     left[..., 0] = c1 (4/N1) pg_i     right[0] = [1..K]   (F1)
        #     left[..., 1] = b_i                right[1] = c2 (2/(K N2)) dev2
        #     left[..., 2] = a_i                right[2] = c3 (2/(K N3)) dev3
        #     left[..., 3] = a4 rm_i + b4       right[3] = 1        (F4)
        #
        # with the F4 flavor folded into (a4, b4, cw):
        #   paper  (2/N4)[(k + 1/k)(rm - w) + (k - 1)]:
        #          a4 = s(k + 1/k), b4 = s(k - 1),  cw = -a4
        #   exact  (2/N4)[(k rm - 1) + (rm - w)/k]:
        #          a4 = s(k + 1/k), b4 = -s,        cw = -s/k
        # where s = c4 (2/N4).
        k = float(num_planes)
        s4 = config.c4 * (2.0 / self.n4)
        if config.gradient_mode == "paper":
            a4 = s4 * (k + 1.0 / k)
            b4 = s4 * (k - 1.0)
            cw = -a4
        elif config.gradient_mode == "exact":
            a4 = s4 * (k + 1.0 / k)
            b4 = -s4
            cw = -s4 / k
        else:  # pragma: no cover - config validates this
            raise PartitionError(f"unknown gradient mode {config.gradient_mode!r}")

        left = np.empty((num_restarts, self.num_gates, 4))
        if per_gate is None:
            left[..., 0] = 0.0
        else:
            np.multiply(per_gate, config.c1 * (4.0 / self.n1), out=left[..., 0])
        left[..., 1] = self.bias
        left[..., 2] = self.area
        left[..., 3] = a4 * row_mean + b4

        right = np.empty((num_restarts, 4, num_planes))
        right[:, 0, :] = self.coeff
        right[:, 1, :] = config.c2 * scale2[:, None] * dev2
        right[:, 2, :] = config.c3 * scale3[:, None] * dev3
        right[:, 3, :] = 1.0

        # One (G, 4) x (4, K) gemm per restart.
        gradient = np.matmul(left, right)
        gradient += cw * w
        return terms, gradient
