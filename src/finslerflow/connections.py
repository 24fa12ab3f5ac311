"""Pointwise metric and connection quantities on jets, and geodesics.

The fundamental tensor, Cartan tensor and mean Cartan torsion, the geodesic
spray, nonlinear connection and Berwald/Cartan coefficients are each read
off one :class:`PointAssembly`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algebra
from .jets import Jet, sqrt_
from .structures import DomainError, FinslerStructure, f2_jets

__all__ = [
    "PointAssembly",
    "fundamental_tensor",
    "cartan_tensor",
    "mean_cartan",
    "spray",
    "nonlinear_connection",
    "berwald_coeffs",
    "cartan_hcoeffs",
    "geodesic_integrate",
    "GeodesicPath",
]


class PointAssembly(algebra.ConnectionStack):
    """The connection stack on exact jets of F^2 at a batch of points.

    Fiber and base derivatives are exact Taylor coefficients of
    :func:`~finslerflow.structures.f2_jets`.
    Component jets are numpy object arrays with the component axes last, the
    layout of the grid fields, so :class:`~finslerflow.algebra.ConnectionStack`
    and the :mod:`finslerflow.algebra` formulas take either.
    """

    def __init__(self, fs: FinslerStructure, x, y, forder: int, border: int = 1):
        self.fs = fs
        self.n = fs.n
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self.F2 = f2_jets(fs, x, y, forder=forder, border=border)
        self.y = np.array(
            [Jet.variable(self.F2.valid_spec, "y", a, y[..., a]) for a in range(self.n)],
            dtype=object,
        )
        self._cache: dict = {}

    def _append(self, jets, diff) -> np.ndarray:
        jets = np.asarray(jets, dtype=object)
        out = np.empty(jets.shape + (self.n,), dtype=object)
        for idx in np.ndindex(jets.shape):
            for k in range(self.n):
                out[idx + (k,)] = diff(jets[idx], k)
        return out

    def fiber(self, jets, d: int = 0) -> np.ndarray:
        """d/dy^m of each component jet, on a new last axis m (exact for any d)."""
        return self._append(jets, Jet.fiber_deriv)

    def base(self, jets) -> np.ndarray:
        """d/dx^k of each component jet, on a new last axis k."""
        return self._append(jets, Jet.base_deriv)

    def dx(self, jet: Jet, k: int) -> Jet:
        return jet.base_deriv(k)

    @property
    def F(self) -> Jet:
        """F = sqrt(F^2) as a jet."""
        return self._get("F", lambda: sqrt_(self.F2))

    def dtheta(self, jets) -> np.ndarray:
        """d/dtheta of each component jet along y = |y| e(theta): y-derivatives on (-y^1, y^0)."""
        y0, y1 = self.y[0].value(), self.y[1].value()
        return self._collect(
            jets, lambda j: j.fiber_deriv(0).value() * -y1 + j.fiber_deriv(1).value() * y0
        )

    def _collect(self, jets, read) -> np.ndarray:
        comps = np.asarray(jets, dtype=object)
        out = np.empty(self.F2.shape + comps.shape)
        for idx in np.ndindex(comps.shape):
            out[(...,) + idx] = read(comps[idx])
        return out

    def values(self, jets) -> np.ndarray:
        """Values of an array of jets as one float array, component axes last."""
        return self._collect(jets, Jet.value)

    def base_values(self, jets) -> np.ndarray:
        """Values of d/dx^k of each component jet (new last axis k), read off its coefficients."""
        units = [tuple(int(t == k) for t in range(self.n)) for k in range(self.n)]
        return np.stack(
            [self._collect(jets, lambda j, u=u: j.deriv(bmon=u)) for u in units], axis=-1
        )

    def tilde(self, q) -> np.ndarray:
        """1/2 d^2 q / dy^i dy^j as values."""
        return 0.5 * self.values(self.fiber(self.fiber(q)))


# ---------------------------------------------------------------------------
# public pointwise operations
# ---------------------------------------------------------------------------

def fundamental_tensor(fs: FinslerStructure, x, y) -> np.ndarray:
    """g_ij = 1/2 d^2 F^2 / dy^i dy^j, shape (..., 2, 2); raises unless positive definite."""
    pa = PointAssembly(fs, x, y, forder=2, border=0)
    pa.require_spd()
    return pa.values(pa.g)


def cartan_tensor(fs: FinslerStructure, x, y) -> np.ndarray:
    """C_ijk = 1/4 d^3 F^2 / dy^i dy^j dy^k, totally symmetric, (..., 2, 2, 2)."""
    pa = PointAssembly(fs, x, y, forder=3, border=0)
    pa.require_spd()
    return pa.values(pa.cartan)


def mean_cartan(fs: FinslerStructure, x, y) -> np.ndarray:
    """C_k = g^{ij} C_ijk, a (-1)-homogeneous covector."""
    return PointAssembly(fs, x, y, forder=3, border=0).mean_cartan


def spray(fs: FinslerStructure, x, y) -> np.ndarray:
    """Geodesic spray coefficients G^i(x, y), 2-homogeneous in y."""
    pa = PointAssembly(fs, x, y, forder=2, border=1)
    return pa.values(pa.G)


def nonlinear_connection(fs: FinslerStructure, x, y) -> np.ndarray:
    """G^i_j = dG^i/dy^j, 1-homogeneous."""
    pa = PointAssembly(fs, x, y, forder=3, border=1)
    return pa.values(pa.Gj)


def berwald_coeffs(fs: FinslerStructure, x, y) -> np.ndarray:
    """Berwald connection coefficients G^i_jk = d^2 G^i / dy^j dy^k."""
    pa = PointAssembly(fs, x, y, forder=4, border=1)
    return pa.values(pa.Gjk)


def cartan_hcoeffs(fs: FinslerStructure, x, y) -> np.ndarray:
    """Horizontal Cartan connection coefficients Gamma^i_jk."""
    pa = PointAssembly(fs, x, y, forder=3, border=1)
    return pa.Gamma


@dataclass
class GeodesicPath:
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    complete: bool

    @property
    def left_chart(self) -> bool:
        return not self.complete


def _rk4_stages(f: Callable, y, dt: float, k1) -> tuple:
    """(k2, k3, k4) of a classical Runge-Kutta step of y' = f(y), given k1 = f(y)."""
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    return k2, k3, f(y + dt * k3)


def _rk4_update(y, dt: float, k1, k2, k3, k4):
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4(f: Callable, y, dt: float, k1):
    """One classical Runge-Kutta step of y' = f(y), given k1 = f(y)."""
    return _rk4_update(y, dt, k1, *_rk4_stages(f, y, dt, k1))


def geodesic_integrate(fs: FinslerStructure, x0, y0, T: float, dt: float) -> GeodesicPath:
    """Integrate x'' + 2G(x, x') = 0 with classical RK4 at fixed step, on z = (x, x').

    If the path, or one of its RK stages, leaves a non-periodic chart the
    result is truncated and flagged (``complete = False``).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")

    def f(z):
        return np.concatenate([z[2:], -2.0 * spray(fs, z[:2], z[2:])])

    z = np.concatenate([np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)])
    zs = [z]
    complete = True
    for _ in range(int(round(T / dt))):
        k1 = f(z)
        try:  # k1 ran at x, so a DomainError here means a stage left the chart
            z = _rk4(f, z, dt, k1)
        except DomainError:
            complete = False
            break
        if not fs.chart.contains(z[:2]):
            complete = False
            break
        zs.append(z)
    zs = np.asarray(zs)
    return GeodesicPath(dt * np.arange(len(zs)), zs[:, :2], zs[:, 2:], complete)
