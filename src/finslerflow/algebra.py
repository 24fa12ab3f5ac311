"""Connection and curvature algebra on component arrays.

Each formula is written once, on numpy arrays whose trailing axes carry the
tensor indices.  The two derivative back-ends feed it: exact jets at points
(:class:`finslerflow.connections.PointAssembly`, numpy object arrays of
:class:`~finslerflow.jets.Jet`) and spectral-fiber/FD4 grids
(:class:`finslerflow.fields.GridStructure`, float arrays).  Base and fiber
derivatives always sit on the last axis: ``dT[..., idx, k] = d T_idx / dx^k``
and ``fT[..., idx, m] = d T_idx / dy^m``.  The structures are 2-dimensional.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "christoffel", "cartan_hcoeffs", "spray_trace", "hh_curvature", "ricci", "huu",
    "gem_gap",
]


def christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Formal Christoffel symbols gamma^i_jk of g taken in x."""
    return 0.5 * (
        np.einsum("...im,...mjk->...ijk", ginv, dg)
        + np.einsum("...im,...mkj->...ijk", ginv, dg)
        - np.einsum("...im,...jkm->...ijk", ginv, dg)
    )


def cartan_hcoeffs(gamma, C, ginv, Gj) -> np.ndarray:
    """Horizontal Cartan coefficients Gamma^i_jk = gamma^i_jk - torsion corrections."""
    Cup = np.einsum("...im,...mjs->...ijs", ginv, C)
    corr = (
        np.einsum("...ijs,...sk->...ijk", Cup, Gj)
        + np.einsum("...iks,...sj->...ijk", Cup, Gj)
        - np.einsum("...kjs,...sm,...mi->...ijk", C, Gj, ginv)
    )
    return gamma - corr


def spray_trace(y, G, dG, Gj, dGj, Gjk) -> np.ndarray:
    """Trace R^k_k of the spray curvature.

    R^i_k = 2 d_k G^i - y^j d_j G^i_k + 2 G^j G^i_jk - G^i_j G^j_k.
    """
    ric = dG[..., 0, 0]
    for k in range(1, G.shape[-1]):
        ric = ric + dG[..., k, k]
    ric = 2.0 * ric
    ric -= np.einsum("...j,...iij->...", y, dGj)
    ric += 2.0 * np.einsum("...j,...iji->...", G, Gjk)
    ric -= np.einsum("...ij,...ji->...", Gj, Gj)
    return ric


def hh_curvature(Gj, Gjk, dGjk, Gjkm):
    """Berwald hh-curvature H^i_jkl = P^i_jlk - P^i_jkl.

    P^i_jlk = delta_k G^i_jl + G^m_jl G^i_mk with
    delta_k = d/dx^k - G^m_k d/dy^m.  H is antisymmetric in (k, l), so on a
    surface only H^i_j01 is formed.
    """
    def P(l, k):
        return (
            dGjk[..., l, k]
            - np.einsum("...ijm,...m->...ij", Gjkm[..., l, :], Gj[..., :, k])
            + np.einsum("...mj,...im->...ij", Gjk[..., :, :, l], Gjk[..., :, :, k])
        )

    K = P(1, 0) - P(0, 1)
    zero = K - K
    return np.stack([np.stack([zero, K], axis=-1), np.stack([-K, zero], axis=-1)], axis=-2)


def ricci(g, ginv, H) -> np.ndarray:
    """Akbar-Zadeh Ricci tensor H_ij = g_ir g^{ks} H^r_kjs."""
    M = np.einsum("...ks,...rkjs->...rj", ginv, H)
    return np.einsum("...ir,...rj->...ij", g, M)


def huu(H, y) -> np.ndarray:
    """H^k_jkl y^j y^l; with y = u = y/F this is H(u,u) = g^{ik} H_ijkl u^j u^l."""
    return np.einsum("...kjkl,...j,...l->...", H, y, y)


def gem_gap(rt, g, ginv) -> np.ndarray:
    """Max over (i, j) of |g^{ia}(Htilde_aj - (Htilde/2) g_aj)|; zero on GEM metrics."""
    ht = np.einsum("...ij,...ij->...", ginv, rt)
    gap = rt - 0.5 * ht[..., None, None] * g
    mixed = np.einsum("...ia,...aj->...ij", ginv, gap)
    return np.max(np.abs(mixed), axis=(-1, -2))
