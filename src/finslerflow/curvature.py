"""Berwald hh-curvature and the Ricci-type scalars built on it.

Conventions (verified against the Riemannian reduction, a projectively flat
disk metric, and constant-curvature sphere patches):

* ``H^i_jkl = delta_k G^i_jl - delta_l G^i_jk + G^m_jl G^i_mk - G^m_jk G^i_ml``
  with ``delta_k = d/dx^k - G^m_k d/dy^m``; antisymmetric in (k, l).
* ``H_ij = g^{ks} H_ikjs`` with the first index lowered by g; reduces to the
  (positive-on-spheres) Ricci tensor for Riemannian metrics.
* ``H(u,u) = g^{ik} H_ijkl u^j u^l = H^k_jkl u^j u^l`` with ``u = y/F``;
  equals the Gauss curvature on Riemannian surfaces.
* ``Htilde_ij = 1/2 d^2(H_rs y^r y^s)/dy^i dy^j`` and ``Htilde = g^{ij} Htilde_ij``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, workers
from .connections import PointAssembly
from .structures import FinslerStructure, check_at_least_1

__all__ = [
    "CurvatureBundle",
    "curvature_bundle",
    "hh_curvature",
    "ricci_tensors",
    "ricci_directional",
    "hat_scalars",
    "gem_residual",
]


@dataclass
class CurvatureBundle:
    """All curvature data at one batch of (x, y) points."""

    g: np.ndarray
    ginv: np.ndarray
    H: np.ndarray          # H^i_jkl, shape (..., n, n, n, n)
    ricci: np.ndarray      # H_ij
    ricci_tilde: np.ndarray  # Htilde_ij
    huu: np.ndarray        # H(u, u)
    h_tilde: np.ndarray    # Htilde scalar
    h_hat: np.ndarray      # Htilde - c(x) H(u,u)


# The bundle's jet orders.  Htilde_ij = 1/2 d^2 R^k_k / dy dy, and R^k_k is valid
# to fiber order forder - 4: order 6.  H and H_ij need 5; order 7 fed only the
# contraction H_ij y y, which needs hh 2 deeper.
_BUNDLE_ORDERS = {"forder": 6, "border": 2}


def curvature_bundle(fs: FinslerStructure, x, y, c_fun=None) -> CurvatureBundle:
    """Full curvature stack at (x, y); x, y shaped (..., n)."""
    pa = PointAssembly(fs, x, y, **_BUNDLE_ORDERS)
    return CurvatureBundle(
        g=pa.values(pa.g), ginv=pa.values(pa.ginv), H=pa.values(pa.hh), ricci=pa.values(pa.ricci),
        ricci_tilde=pa.ricci_tilde, huu=pa.huu, h_tilde=pa.h_tilde, h_hat=pa.h_hat(c_fun),
    )


def hh_curvature(fs: FinslerStructure, x, y) -> np.ndarray:
    """Berwald hh-curvature H^i_jkl, shape (..., n, n, n, n)."""
    pa = PointAssembly(fs, x, y, forder=5, border=2)
    return pa.values(pa.hh)


def ricci_tensors(fs: FinslerStructure, x, y):
    """(H_ij, Htilde_ij) at (x, y)."""
    cb = curvature_bundle(fs, x, y)
    return cb.ricci, cb.ricci_tilde


# Points per part of a large ricci_directional batch.  Each part stays far
# above jets._GROUPED_MAX_POINTS, so it takes the triplet product the whole
# batch takes; smaller parts lose to the GIL hand-offs between the parts'
# Python loops.
_PART_POINTS = 16384


def ricci_directional(fs: FinslerStructure, x, y, base_mode: str = "analytic") -> np.ndarray:
    """H(u,u) with u = y/F: a 0-homogeneous scalar.

    Read off the spray-curvature trace, R^k_k / F^2, which needs only
    4th-order fiber jets; it equals the ``g^{ik} H_ijkl u^j u^l``
    contraction of the hh-curvature, the form the test suite checks it by.
    Base derivatives are always analytic jets: ``base_mode`` is kept only for
    callers that still pass it, and any value but ``"analytic"`` raises
    ``ValueError``.

    A batch of at least 2 * 16384 points is cut along its first axis into
    ``points // 16384`` contiguous parts, run on the package's worker pool
    (``workers.run``).  No jet operation reduces across points, so the
    result is bit-identical to one unsplit assembly.  If a part raises, the
    whole batch is rerun unsplit, so an error is the unsplit call's.
    """
    if base_mode != "analytic":
        raise ValueError(f"unknown base mode {base_mode!r}: pointwise jets are analytic only")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    try:
        lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    except ValueError:  # the unsplit call raises its own error
        lead = ()
    k = min(math.prod(lead) // _PART_POINTS, lead[0]) if lead else 1
    if k < 2:
        return _huu(fs, x, y)
    out = np.empty(lead)

    def cut(a, rows):  # an input without the batch's first axis broadcasts whole
        return a[rows] if a.ndim - 1 == len(lead) and a.shape[0] == lead[0] else a

    def task(rows):
        out[rows] = _huu(fs, cut(x, rows), cut(y, rows))

    try:
        workers.run(task, [slice(lead[0] * i // k, lead[0] * (i + 1) // k) for i in range(k)])
    except Exception:
        # a part's error names points by their index in the part, and an f2
        # that holds batch-sized arrays fails in every part: the unsplit call
        # raises the error (or returns the values) a caller expects
        return _huu(fs, x, y)
    return out


def _huu(fs: FinslerStructure, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return PointAssembly(fs, x, y, forder=4, border=2).huu


def hat_scalars(fs: FinslerStructure, x, y, c_fun=None):
    """(Htilde, Hhat) with Hhat = Htilde - c(x) H(u,u); c defaults to 0."""
    cb = curvature_bundle(fs, x, y, c_fun=c_fun)
    return cb.h_tilde, cb.h_hat


def gem_residual(fs: FinslerStructure, x, n_theta: int = 64) -> float:
    """Sup over the fiber of the metric-normalized gap Htilde_ij - (Htilde/n) g_ij.

    Zero (to numerical precision) exactly on generalized Einstein metrics.
    Raises ``ValueError`` unless ``n_theta`` is at least 1.
    """
    check_at_least_1("n_theta", n_theta)
    x = np.asarray(x, dtype=float)
    th = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    y = np.stack([np.cos(th), np.sin(th)], axis=-1)
    # the bundle's Htilde_ij, g and g^-1, without its H and H_ij
    pa = PointAssembly(fs, np.broadcast_to(x, (n_theta, 2)), y, **_BUNDLE_ORDERS)
    return float(np.max(algebra.gem_gap(pa.ricci_tilde, pa.values(pa.g), pa.values(pa.ginv))))
