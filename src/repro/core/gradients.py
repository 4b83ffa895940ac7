"""Analytic gradients of the cost terms (eq. (10) of the paper).

Two flavors are provided (selected by ``PartitionConfig.gradient_mode``):

* ``"paper"`` — the expressions printed in eq. (10), verbatim.  For F1,
  F2 and F3 these coincide with the true derivatives of eqs. (4)-(6)
  (treating the normalizers as constants); for F4 the printed expression
  ``(2/N4) [(K + 1/K)(wbar_i - w_ik) + K - 1]`` differs from the exact
  derivative of eq. (9).
* ``"exact"`` — identical for F1-F3, but F4 uses the re-derived gradient
  ``(2/N4) [(K wbar_i - 1) + (1/K)(wbar_i - w_ik)]``.

All functions are fully vectorized over the ``(G, K)`` assignment matrix.
"""

import numpy as np

from repro.core.assignment import labels_from_assignment, plane_coefficients
from repro.utils.errors import PartitionError


def grad_interconnection(w, edges):
    """``dF1/dw[i,k]`` (eq. (10), first line).

    With ``l_i = sum_k k w[i,k]`` the chain rule gives

    ``dF1/dw[i,k] = (4 k / N1) * sum over edges incident to i of
    (l_i - l_other)^3``

    which is exactly the paper's split into outgoing-minus-incoming
    signed cubes.
    """
    from repro.core.kernel import EdgeIncidence  # local import to avoid cycle

    w = np.asarray(w, dtype=float)
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    num_gates, num_planes = w.shape
    grad = np.zeros_like(w)
    if edges.shape[0] == 0 or num_planes == 1:
        return grad
    labels = labels_from_assignment(w)
    diff = labels[edges[:, 0]] - labels[edges[:, 1]]
    diff_cubed = diff * diff * diff
    # Same CSR-style segment-sum (and summation order) the fused kernel
    # precomputes; built on the fly here because this standalone entry
    # point has no state to cache it in.
    per_gate = EdgeIncidence(edges, num_gates).scatter_signed(diff_cubed)
    n1 = edges.shape[0] * (num_planes - 1) ** 4
    coeff = plane_coefficients(num_planes)
    return (4.0 / n1) * per_gate[:, None] * coeff[None, :]


def _grad_variance(w, weights_per_gate):
    """Shared gradient of the F2/F3 variance terms.

    ``dF/dw[i,k] = (2 b_i / (K N)) (B_k - Bbar)`` — the paper's second
    and third lines of eq. (10); exact because the mean-shift terms
    cancel (sum of deviations is zero).
    """
    num_planes = w.shape[1]
    if num_planes == 1:
        return np.zeros_like(w)
    per_plane = weights_per_gate @ w
    mean = per_plane.mean()
    if mean == 0.0:
        return np.zeros_like(w)
    normalizer = (num_planes - 1) * mean**2
    deviation = per_plane - mean
    return (2.0 / (num_planes * normalizer)) * np.outer(weights_per_gate, deviation)


def grad_bias(w, bias):
    """``dF2/dw[i,k]`` (eq. (10), second line)."""
    return _grad_variance(np.asarray(w, dtype=float), np.asarray(bias, dtype=float))


def grad_area(w, area):
    """``dF3/dw[i,k]`` (eq. (10), third line)."""
    return _grad_variance(np.asarray(w, dtype=float), np.asarray(area, dtype=float))


def grad_constraint_paper(w):
    """``dF4/dw[i,k]`` exactly as printed in eq. (10), fourth line:

    ``(2/N4) [(K + 1/K)(wbar_i - w[i,k]) + K - 1]``.
    """
    w = np.asarray(w, dtype=float)
    num_gates, num_planes = w.shape
    if num_planes == 1:
        return np.zeros_like(w)
    row_mean = w.mean(axis=1, keepdims=True)
    n4 = num_gates * (num_planes - 1) ** 2
    k = float(num_planes)
    return (2.0 / n4) * ((k + 1.0 / k) * (row_mean - w) + (k - 1.0))


def grad_constraint_exact(w):
    """Exact derivative of the F4 of eq. (9) (with ``1/N4``):

    ``(2/N4) [(K wbar_i - 1) + (1/K)(wbar_i - w[i,k])]``.
    """
    w = np.asarray(w, dtype=float)
    num_gates, num_planes = w.shape
    if num_planes == 1:
        return np.zeros_like(w)
    row_mean = w.mean(axis=1, keepdims=True)
    n4 = num_gates * (num_planes - 1) ** 2
    k = float(num_planes)
    return (2.0 / n4) * ((k * row_mean - 1.0) + (row_mean - w) / k)


def cost_gradient(w, edges, bias, area, config):
    """Weighted total gradient ``sum_j c_j dFj/dw`` (Algorithm 1, line 18).

    Delegates to :class:`repro.core.kernel.FusedKernel` with a
    single-restart batch, so the serial reference solver
    (:func:`~repro.core.optimizer.minimize_assignment`) runs bitwise
    the same arithmetic as the batched engine — the per-term
    ``grad_*`` functions above stay as the readable reference
    implementations (equal to the kernel within floating-point
    reassociation).
    """
    from repro.core.kernel import FusedKernel  # local import to avoid cycle

    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise PartitionError(f"w must be (G, K), got shape {w.shape}")
    kernel = FusedKernel(w.shape[1], edges, bias, area)
    _, gradient = kernel.cost_and_gradient(w, config)
    return gradient[0]
