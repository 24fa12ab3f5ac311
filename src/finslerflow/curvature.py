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

from dataclasses import dataclass

import numpy as np

from . import algebra
from .connections import PointAssembly
from .structures import FinslerStructure

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


def _hh_jets(pa: PointAssembly) -> np.ndarray:
    """H^i_jkl as jets (valid fiber order = input order - 5)."""
    Gjk = pa.Gjk_jets
    return algebra.hh_curvature(pa.Gj_jets, Gjk, pa.base(Gjk), pa.fiber(Gjk))


def _ricci_shen(pa: PointAssembly) -> np.ndarray:
    """Trace R^k_k of the spray curvature (light route, fiber order 4)."""
    return algebra.spray_trace(
        pa.y, pa.spray_values(), pa.values(pa.G_jets, base_deriv=True),
        pa.Gj_values(), pa.values(pa.Gj_jets, base_deriv=True), pa.Gjk_values(),
    )


def curvature_bundle(
    fs: FinslerStructure,
    x,
    y,
    c_fun=None,
    base_mode: str = "auto",
    fd_step: float | None = None,
) -> CurvatureBundle:
    """Full curvature stack at (x, y); x, y shaped (..., n)."""
    pa = PointAssembly(fs, x, y, forder=7, border=2, base_mode=base_mode, fd_step=fd_step)
    Hjets = _hh_jets(pa)
    g = pa.g()
    gi = pa.ginv()
    u = pa.y / np.sqrt(pa.F2.value())[..., None]
    Hval = pa.values(Hjets)
    huu = algebra.huu(Hval, u)

    # Q = H_rs y^r y^s as a jet --> Htilde_ij = 1/2 * d^2 Q
    ricci_jets = algebra.ricci(pa.g_jets, pa.ginv_jets, Hjets)
    Q = np.einsum("rs,r,s->", ricci_jets, pa.ys, pa.ys)
    rt = 0.5 * pa.values(pa.fiber(pa.fiber(Q)))
    h_tilde = np.einsum("...ij,...ij->...", gi, rt)

    if c_fun is None:
        cx = 0.0
    elif callable(c_fun):
        cx = c_fun(pa.x)
    else:
        cx = float(c_fun)
    h_hat = h_tilde - cx * huu
    return CurvatureBundle(
        g=g, ginv=gi, H=Hval, ricci=pa.values(ricci_jets), ricci_tilde=rt,
        huu=huu, h_tilde=h_tilde, h_hat=h_hat,
    )


def hh_curvature(fs: FinslerStructure, x, y, base_mode: str = "auto") -> np.ndarray:
    """Berwald hh-curvature H^i_jkl, shape (..., n, n, n, n)."""
    pa = PointAssembly(fs, x, y, forder=5, border=2, base_mode=base_mode)
    return pa.values(_hh_jets(pa))


def ricci_tensors(fs: FinslerStructure, x, y, base_mode: str = "auto"):
    """(H_ij, Htilde_ij) at (x, y)."""
    cb = curvature_bundle(fs, x, y, base_mode=base_mode)
    return cb.ricci, cb.ricci_tilde


def ricci_directional(fs: FinslerStructure, x, y, base_mode: str = "auto",
                      fd_step: float | None = None) -> np.ndarray:
    """H(u,u) with u = y/F: a 0-homogeneous scalar.

    Computed through the spray-curvature trace, which needs only 4th-order
    fiber jets; agrees with the full ``g^{ik} H_ijkl u^j u^l`` contraction.
    """
    pa = PointAssembly(fs, x, y, forder=4, border=2, base_mode=base_mode,
                       fd_step=fd_step)
    return _ricci_shen(pa) / pa.F2.value()


def hat_scalars(fs: FinslerStructure, x, y, c_fun=None, base_mode: str = "auto"):
    """(Htilde, Hhat) with Hhat = Htilde - c(x) H(u,u); c defaults to 0."""
    cb = curvature_bundle(fs, x, y, c_fun=c_fun, base_mode=base_mode)
    return cb.h_tilde, cb.h_hat


def gem_residual(
    fs: FinslerStructure,
    x,
    n_theta: int = 64,
    base_mode: str = "auto",
) -> float:
    """Sup over the fiber of the metric-normalized gap Htilde_ij - (Htilde/n) g_ij.

    Zero (to numerical precision) exactly on generalized Einstein metrics.
    Raises ``ValueError`` unless ``n_theta`` is at least 1.
    """
    if n_theta < 1:
        raise ValueError(f"n_theta must be at least 1, got {n_theta}")
    x = np.asarray(x, dtype=float)
    th = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    y = np.stack([np.cos(th), np.sin(th)], axis=-1)
    cb = curvature_bundle(fs, np.broadcast_to(x, (n_theta, 2)), y, base_mode=base_mode)
    return float(np.max(algebra.gem_gap(cb.ricci_tilde, cb.g, cb.ginv)))
