"""Geodesic spray, nonlinear connection, Berwald/Cartan coefficients, geodesics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .jets import Jet
from .structures import FinslerStructure, SingularMetricError, f2_jets

__all__ = [
    "PointAssembly",
    "spray",
    "nonlinear_connection",
    "berwald_coeffs",
    "cartan_hcoeffs",
    "geodesic_integrate",
    "GeodesicPath",
]


def _inv_jets(g):
    """Inverse of a symmetric 2 x 2 matrix of jets via adjugate/determinant."""
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[0, 1]
    inv_det = 1.0 / det
    off = -1.0 * g[0, 1] * inv_det
    return np.array([[g[1, 1] * inv_det, off], [off, g[0, 0] * inv_det]], dtype=object), det


class PointAssembly:
    """Pointwise connection/curvature ingredients from joint jets of F^2.

    Everything is lazy and cached; all fiber derivatives are exact Taylor
    coefficients, base derivatives come from the jet provider (analytic base
    jets or 4th-order FD stations).  Component jets are numpy object arrays
    with the component axes last, the layout of the grid fields, so the
    :mod:`finslerflow.algebra` functions take either.
    """

    def __init__(
        self,
        fs: FinslerStructure,
        x,
        y,
        forder: int,
        border: int = 1,
        base_mode: str = "auto",
        fd_step: float | None = None,
    ):
        self.fs = fs
        self.n = fs.n
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.F2 = f2_jets(fs, x, y, forder=forder, border=border,
                          base_mode=base_mode, fd_step=fd_step)
        spec = self.F2.spec
        self.ys = np.array(
            [Jet.variable(spec, "y", a, self.y[..., a]) for a in range(self.n)], dtype=object
        )
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def _append(self, jets, diff) -> np.ndarray:
        jets = np.asarray(jets, dtype=object)
        out = np.empty(jets.shape + (self.n,), dtype=object)
        for idx in np.ndindex(jets.shape):
            for k in range(self.n):
                out[idx + (k,)] = diff(jets[idx], k)
        return out

    def fiber(self, jets) -> np.ndarray:
        """d/dy^m of each component jet, on a new last axis m."""
        return self._append(jets, Jet.fiber_deriv)

    def base(self, jets) -> np.ndarray:
        """d/dx^k of each component jet, on a new last axis k."""
        return self._append(jets, Jet.base_deriv)

    def values(self, jets, base_deriv: bool = False) -> np.ndarray:
        """Values of an array of jets as one array, component axes last.

        With ``base_deriv`` a further last axis k holds the values of d/dx^k.
        """
        comps = np.asarray(jets, dtype=object)
        n = self.n
        out = np.empty(self.F2.shape + comps.shape + ((n,) if base_deriv else ()))
        for idx in np.ndindex(comps.shape):
            if base_deriv:
                for k in range(n):
                    e_k = tuple(int(t == k) for t in range(n))
                    out[(...,) + idx + (k,)] = comps[idx].deriv(bmon=e_k)
            else:
                out[(...,) + idx] = comps[idx].value()
        return out

    # -- metric --------------------------------------------------------
    @property
    def g_jets(self):
        return self._get("g_jets", lambda: 0.5 * self.fiber(self.fiber(self.F2)))

    @property
    def ginv_jets(self):
        def build():
            gi, det = _inv_jets(self.g_jets)
            mn = float(np.min(det.value()))
            if mn <= 0.0:
                raise SingularMetricError(mn)
            return gi
        return self._get("ginv_jets", build)

    def g(self) -> np.ndarray:
        return self.values(self.g_jets)

    def ginv(self) -> np.ndarray:
        return self.values(self.ginv_jets)

    # -- spray stack -----------------------------------------------------
    @property
    def A_jets(self):
        """A_h = y^j d(d F^2/dy^h)/dx^j - d F^2/dx^h (lowered spray, x4)."""
        def build():
            n = self.n
            out = []
            for h in range(n):
                acc = -1.0 * self.F2.base_deriv(h)
                dFh = self.F2.fiber_deriv(h)
                for j in range(n):
                    acc = acc + self.ys[j] * dFh.base_deriv(j)
                out.append(acc)
            return out
        return self._get("A_jets", build)

    @property
    def G_jets(self):
        def build():
            n = self.n
            gi = self.ginv_jets
            A = self.A_jets
            out = []
            for i in range(n):
                acc = gi[i][0] * A[0]
                for h in range(1, n):
                    acc = acc + gi[i][h] * A[h]
                out.append(acc * 0.25)
            return np.array(out, dtype=object)
        return self._get("G_jets", build)

    @property
    def Gj_jets(self):
        return self._get("Gj_jets", lambda: self.fiber(self.G_jets))

    @property
    def Gjk_jets(self):
        return self._get("Gjk_jets", lambda: self.fiber(self.Gj_jets))

    def spray_values(self) -> np.ndarray:
        return self.values(self.G_jets)

    def Gj_values(self) -> np.ndarray:
        return self.values(self.Gj_jets)

    def Gjk_values(self) -> np.ndarray:
        return self.values(self.Gjk_jets)

    # -- Cartan horizontal coefficients ---------------------------------
    @property
    def C_jets(self):
        return self._get("C_jets", lambda: 0.5 * self.fiber(self.g_jets))

    def cartan_values(self) -> np.ndarray:
        return self.values(self.C_jets)

    def gamma_values(self) -> np.ndarray:
        """Formal Christoffel symbols of g in x (base partials of g)."""
        return algebra.christoffel(self.ginv(), self.values(self.g_jets, base_deriv=True))

    def cartan_hcoeff_values(self) -> np.ndarray:
        """Horizontal Cartan coefficients Gamma^i_jk (with torsion corrections)."""
        return algebra.cartan_hcoeffs(
            self.gamma_values(), self.cartan_values(), self.ginv(), self.Gj_values()
        )


# ---------------------------------------------------------------------------
# public pointwise operations
# ---------------------------------------------------------------------------

def spray(fs: FinslerStructure, x, y, base_mode: str = "auto") -> np.ndarray:
    """Geodesic spray coefficients G^i(x, y), 2-homogeneous in y."""
    pa = PointAssembly(fs, x, y, forder=2, border=1, base_mode=base_mode)
    return pa.spray_values()


def nonlinear_connection(fs: FinslerStructure, x, y, base_mode: str = "auto") -> np.ndarray:
    """G^i_j = dG^i/dy^j, 1-homogeneous."""
    pa = PointAssembly(fs, x, y, forder=3, border=1, base_mode=base_mode)
    return pa.Gj_values()


def berwald_coeffs(fs: FinslerStructure, x, y, base_mode: str = "auto") -> np.ndarray:
    """Berwald connection coefficients G^i_jk = d^2 G^i / dy^j dy^k."""
    pa = PointAssembly(fs, x, y, forder=4, border=1, base_mode=base_mode)
    return pa.Gjk_values()


def cartan_hcoeffs(fs: FinslerStructure, x, y, base_mode: str = "auto") -> np.ndarray:
    """Horizontal Cartan connection coefficients Gamma^i_jk."""
    pa = PointAssembly(fs, x, y, forder=3, border=1, base_mode=base_mode)
    return pa.cartan_hcoeff_values()


@dataclass
class GeodesicPath:
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    complete: bool

    @property
    def left_chart(self) -> bool:
        return not self.complete


def geodesic_integrate(
    fs: FinslerStructure, x0, y0, T: float, dt: float, base_mode: str = "auto"
) -> GeodesicPath:
    """Integrate x'' + 2G(x, x') = 0 with classical RK4 at fixed step.

    If the path leaves a non-periodic chart the result is truncated and
    flagged (``complete = False``).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(y0, dtype=float).copy()

    def acc(xc, vc):
        return -2.0 * spray(fs, xc, vc, base_mode=base_mode)

    steps = int(round(T / dt))
    ts = [0.0]
    xs = [x.copy()]
    vs = [v.copy()]
    complete = True
    for k in range(steps):
        k1x, k1v = v, acc(x, v)
        k2x, k2v = v + 0.5 * dt * k1v, acc(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
        k3x, k3v = v + 0.5 * dt * k2v, acc(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
        k4x, k4v = v + dt * k3v, acc(x + dt * k3x, v + dt * k3v)
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not fs.chart.contains(x):
            complete = False
            break
        ts.append((k + 1) * dt)
        xs.append(x.copy())
        vs.append(v.copy())
    return GeodesicPath(np.asarray(ts), np.asarray(xs), np.asarray(vs), complete)

