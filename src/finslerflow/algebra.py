"""Connection and curvature algebra on component arrays.

Each formula is written once, on numpy arrays whose trailing axes carry the
tensor indices.  The two derivative back-ends feed it: exact jets at points
(:class:`finslerflow.connections.PointAssembly`) and spectral-fiber/FD4
grids (:class:`finslerflow.fields.GridStructure`).  Base derivatives always
sit on the last axis: ``dT[..., idx, k] = d T_idx / dx^k``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["christoffel", "cartan_hcoeffs", "spray_trace"]


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
