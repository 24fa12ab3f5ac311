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

from .fields import GridStructure, TensorField, theta_derivative
from .grids import GridError
from .structures import FinslerStructure, _check_spd, _metric_from_jets, f2_jets

__all__ = [
    "liouville_density",
    "sm_integrate",
    "FunctionalReport",
    "functional_report",
    "global_inner",
    "pair_inner",
]


def liouville_density(fs: FinslerStructure, x, theta, base_mode: str = "auto") -> np.ndarray:
    """Pointwise Liouville density rho(x, theta) (analytic structures).

    ``x`` has shape (..., 2) and ``theta`` broadcasts against its leading
    shape.  Positive wherever g is positive definite.
    """
    from .jets import sqrt_

    theta = np.asarray(theta, dtype=float)
    y = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    F2 = f2_jets(fs, x, y, forder=2, base_mode=base_mode)
    _check_spd(_metric_from_jets(F2, 2))
    F = sqrt_(F2)
    p = [F.fiber_deriv(i) for i in range(2)]
    # dp_i/dtheta = d2F/dy^i dy^j * e'(theta)^j
    ep = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    dp = [
        p[i].fiber_deriv(0).value() * ep[..., 0]
        + p[i].fiber_deriv(1).value() * ep[..., 1]
        for i in range(2)
    ]
    return p[0].value() * dp[1] - p[1].value() * dp[0]


def sm_integrate(field: np.ndarray, gs: GridStructure) -> float:
    """Integral of a scalar field over SM against the Liouville measure."""
    return gs.integrate(np.asarray(field, dtype=float))


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
    n = 2
    I_norm = V ** ((2 - n) / n) * I
    return FunctionalReport(
        volume=V,
        I=I,
        I_normalized=I_norm,
        average=I / V,
        grid_shape=gs.bgrid.shape,
        n_theta=gs.fgrid.n_theta,
        base_mode=gs.base_mode,
    )


def _as_02(field) -> np.ndarray:
    if isinstance(field, TensorField):
        if field.valence != (0, 2):
            raise ValueError("expected a (0,2) tensor field")
        return field.data
    return np.asarray(field, dtype=float)


def global_inner(a, b, gs: GridStructure) -> float:
    """Global inner product (a, b)_g = integral g^{ik} g^{jl} a_ij b_kl eta."""
    a = _as_02(a)
    b = _as_02(b)
    if a.shape != b.shape or a.shape[:3] != gs.F2.shape:
        raise GridError("field shapes do not match the grid")
    gi = gs.ginv
    dens = np.einsum("...ik,...jl,...ij,...kl->...", gi, gi, a, b)
    return gs.integrate(dens)


def pair_inner(X: np.ndarray, xi: np.ndarray, gs: GridStructure) -> float:
    """Global pairing integral X^k xi_k eta of a vector with a 1-form."""
    dens = np.einsum("...k,...k->...", X, xi)
    return gs.integrate(dens)
