"""Indicatrix (Liouville) measure, integrals over SM, and the curvature functional.

For n = 2 the volume form of the indicatrix bundle pulls back along the
section (x, theta) -> (x, r(x,theta) e(theta)) to

    rho(x, theta) dx^1 dx^2 dtheta,   rho = p_1 dp_2/dtheta - p_2 dp_1/dtheta,

with p_i = dF/dy^i evaluated at e(theta) (0-homogeneous, so the radius drops
out).  The sign is fixed by rho = 1 for the Euclidean structure; for any
Riemannian surface metric the fiber total is 2*pi*sqrt(det a(x)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import contract
from .connections import PointAssembly
from .fields import GridStructure
from .grids import GridError
from .structures import FinslerStructure

__all__ = [
    "liouville_density",
    "FunctionalReport",
    "functional_report",
    "global_inner",
    "pair_inner",
]


def liouville_density(fs: FinslerStructure, x, theta) -> np.ndarray:
    """Pointwise Liouville density rho(x, theta) (analytic structures).

    ``x`` has shape (..., 2) and ``theta`` broadcasts against its leading
    shape.  Raises unless g is positive definite, where rho is positive.
    """
    theta = np.asarray(theta, dtype=float)
    y = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pa = PointAssembly(fs, x, y, forder=2, border=0)
    pa.require_spd()
    return pa.rho


@dataclass
class FunctionalReport:
    """Indicatrix volume, functional value, normalization, and average."""

    volume: float
    I: float
    I_normalized: float
    average: float
    grid_shape: tuple[int, ...]
    n_theta: int
    base_mode: str

    def as_dict(self) -> dict:
        return {
            "V": self.volume,
            "I": self.I,
            "I_norm": self.I_normalized,
            "average": self.average,
            "grid": list(self.grid_shape),
            "n_theta": self.n_theta,
            "base_mode": self.base_mode,
        }


def functional_report(gs: GridStructure, c_fun=None) -> FunctionalReport:
    """Evaluate I = integral_SM Hhat eta and its scale normalization.

    The normalized value is V^((2-n)/n) I, which for n = 2 equals I itself.
    """
    V = gs.volume
    if V <= 0:
        raise GridError("indicatrix volume must be positive")
    I = gs.integrate(gs.h_hat(c_fun))
    return FunctionalReport(
        volume=V,
        I=I,
        I_normalized=I,  # n = 2: normalization exponent vanishes
        average=I / V,
        grid_shape=gs.bgrid.shape,
        n_theta=gs.fgrid.n_theta,
        base_mode=gs.base_mode,
    )


def global_inner(a: np.ndarray, b: np.ndarray, gs: GridStructure) -> float:
    """Global inner product (a, b)_g = integral g^{ik} g^{jl} a_ij b_kl eta.

    ``a`` and ``b`` are (0,2) fields on SM as arrays of shape
    ``gs.F2.shape + (2, 2)``, i.e. (N1, N2, Ntheta, 2, 2).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    want = gs.F2.shape + (2, 2)
    if a.shape != want or b.shape != want:
        raise GridError(f"field shapes {a.shape}, {b.shape} do not match the grid {want}")
    gi = gs.ginv
    dens = contract("...ik,...jl,...ij,...kl->...", gi, gi, a, b)
    return gs.integrate(dens)


def pair_inner(X: np.ndarray, xi: np.ndarray, gs: GridStructure) -> float:
    """Global pairing integral X^k xi_k eta of a vector with a 1-form.

    Both fields live on SM: a base field must be lifted to shape
    ``gs.F2.shape + (2,)`` first, or it would broadcast along the wrong axes.
    """
    X, xi = np.asarray(X, dtype=float), np.asarray(xi, dtype=float)
    want = gs.F2.shape + (2,)
    if X.shape != want or xi.shape != want:
        raise GridError(f"field shapes {X.shape}, {xi.shape} do not match the grid {want}")
    dens = contract("...k,...k->...", X, xi)
    return gs.integrate(dens)
