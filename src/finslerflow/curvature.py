"""Berwald hh-curvature and the Ricci-type scalars built on it.

Conventions (verified against the Riemannian reduction, a projectively flat
disk metric, and constant-curvature sphere patches):

* ``H^i_jkl = delta_k G^i_jl - delta_l G^i_jk + G^m_jl G^i_mk - G^m_jk G^i_ml``
  with ``delta_k = d/dx^k - G^m_k d/dy^m``; antisymmetric in (k, l).
* ``H_ij = g^{ks} H_ikjs`` with the first index lowered by g; reduces to the
  (positive-on-spheres) Ricci tensor for Riemannian metrics.
* ``H(u,u) = g^{ik} H_ijkl u^j u^l`` with ``u = y/F``; equals the Gauss
  curvature on Riemannian surfaces.
* ``Htilde_ij = 1/2 d^2(H_rs y^r y^s)/dy^i dy^j`` and ``Htilde = g^{ij} Htilde_ij``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import spray_trace
from .connections import PointAssembly
from .jets import Jet
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
    H_low: np.ndarray      # H_ijkl (first index lowered)
    ricci: np.ndarray      # H_ij
    ricci_tilde: np.ndarray  # Htilde_ij
    huu: np.ndarray        # H(u, u)
    h_tilde: np.ndarray    # Htilde scalar
    h_hat: np.ndarray      # Htilde - c(x) H(u,u)


def _curvature_jets(pa: PointAssembly):
    """H^i_jkl as jets (valid fiber order = input order - 5)."""
    n = pa.n
    Gj = pa.Gj_jets
    Gjl = pa.Gjk_jets

    def delta(obj: Jet, k: int) -> Jet:
        out = obj.base_deriv(k)
        for m in range(n):
            out = out - Gj[m][k] * obj.fiber_deriv(m)
        return out

    H = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k + 1, n):
                    t = delta(Gjl[i][j][l], k) - delta(Gjl[i][j][k], l)
                    for m in range(n):
                        t = t + Gjl[m][j][l] * Gjl[i][m][k] - Gjl[m][j][k] * Gjl[i][m][l]
                    H[i][j][k][l] = t
                    H[i][j][l][k] = -1.0 * t
                H[i][j][k][k] = Jet.constant(pa.F2.spec, 0.0, pa.F2.shape)
    return H


def _ricci_shen(pa: PointAssembly) -> np.ndarray:
    """Trace R^k_k of the spray curvature (light route, fiber order 4)."""
    return spray_trace(
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
    n = fs.n
    pa = PointAssembly(fs, x, y, forder=7, border=2, base_mode=base_mode, fd_step=fd_step)
    Hjets = _curvature_jets(pa)
    g = pa.g()
    gi = pa.ginv()
    F = np.sqrt(pa.F2.value())
    u = pa.y / F[..., None]

    Hval = pa.values(Hjets)
    H_low = np.einsum("...ir,...rjkl->...ijkl", g, Hval)
    ricci = np.einsum("...ks,...ikjs->...ij", gi, H_low)
    huu = np.einsum("...ik,...ijkl,...j,...l->...", gi, H_low, u, u)

    # Q = H_rs y^r y^s as a jet --> Htilde_ij = 1/2 * d^2 Q
    gjets = pa.g_jets
    gijets = pa.ginv_jets
    ylow = []
    for r in range(n):
        acc = gjets[r][0] * pa.ys[0]
        for m in range(1, n):
            acc = acc + gjets[r][m] * pa.ys[m]
        ylow.append(acc)
    Q = Jet.constant(pa.F2.spec, 0.0, pa.F2.shape)
    for k in range(n):
        for s in range(n):
            for r in range(n):
                for j in range(n):
                    Q = Q + gijets[k][s] * ylow[r] * Hjets[r][k][j][s] * pa.ys[j]
    rt = 0.5 * pa.values([[Q.fiber_deriv(i).fiber_deriv(j) for j in range(n)]
                          for i in range(n)])
    h_tilde = np.einsum("...ij,...ij->...", gi, rt)

    if c_fun is None:
        cx = 0.0
    elif callable(c_fun):
        cx = c_fun(pa.x)
    else:
        cx = float(c_fun)
    h_hat = h_tilde - cx * huu
    return CurvatureBundle(
        g=g, ginv=gi, H=Hval, H_low=H_low, ricci=ricci, ricci_tilde=rt,
        huu=huu, h_tilde=h_tilde, h_hat=h_hat,
    )


def hh_curvature(fs: FinslerStructure, x, y, base_mode: str = "auto") -> np.ndarray:
    """Berwald hh-curvature H^i_jkl, shape (..., n, n, n, n)."""
    pa = PointAssembly(fs, x, y, forder=5, border=2, base_mode=base_mode)
    return pa.values(_curvature_jets(pa))


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
    """
    n = fs.n
    if n != 2:
        raise NotImplementedError("fiber sweep implemented for n = 2")
    x = np.asarray(x, dtype=float)
    th = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    y = np.stack([np.cos(th), np.sin(th)], axis=-1)
    xs = np.broadcast_to(x, (n_theta, n))
    cb = curvature_bundle(fs, xs, y, base_mode=base_mode)
    gap = cb.ricci_tilde - (cb.h_tilde[..., None, None] / n) * cb.g
    mixed = np.einsum("...ia,...aj->...ij", cb.ginv, gap)
    return float(np.max(np.abs(mixed)))
