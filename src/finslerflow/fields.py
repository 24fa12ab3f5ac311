"""Tensor fields on base x fiber grids and the grid curvature pipeline.

Fields sample geometric objects on the section y = e(theta) of the slit
bundle (unit-radius section; homogeneity recovers everything else).  Fiber
derivatives are exact derivatives of the trigonometric interpolant in
theta: for a d-homogeneous W(y) = r^d w(theta),

    dW/dy^j |_(r=1) = d * e_j * w + eperp_j * w'

with e = (cos, sin), eperp = (-sin, cos), and w' spectral.  Base derivatives
go through the configured grid engine (4th-order periodic FD by default,
spectral opt-in).

``GridStructure`` reads g, the smallest eigenvalue of g, the Liouville
density, the spray trace R^k_k, Htilde and the GEM gap in closed form in the
frame (e, eperp), from u = log F and its derivatives, so the flow's route
(``huu``, ``h_tilde``, ``gem_field``, ``min_eig_g``, ``require_spd``) builds
no spray tensor and no 2 x 2 field.  The Cartesian g, ``ginv``,
``ricci_tilde``, the spray G, G^i_j, G^i_jk and the covariant derivatives
stay lazy for the variational side.  ``theta_derivative`` takes a tuple of
orders, so that u', u'' (and R', R'', Q', Q'') share one rfft.

The closed forms are built in x1-slabs of about 32768 points (8 rows at
64^2 x 64), each written into preallocated full-size fields, so that a
formula's temporaries stay in cache.  Slabs run through ``workers.run``, on
the worker pool that ``curvature.ricci_directional``'s batch parts share;
with one CPU or one slab they run inline.  A slab keeps the whole fiber axis
and the whole x2 axis, so theta- and x2-derivatives are taken inside it; an
FD4 d/dx1 reads a two-row periodic halo around the slab, and a spectral
d/dx1 is one whole-field transform taken before the slab pass.  Every
element is computed by the same operations in the same order as on the
whole field, so the fields are bit-identical for any slab count or worker
count.  The slab tasks call only ``grids._spectral`` and the padded FD4
stencil, never a cache builder or a traced function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra, workers
from .grids import (
    BaseGrid, FiberGrid, GridError, _fd4_padded, _spectral, _wrap_rows, base_derivative,
)
from .structures import FinslerStructure

__all__ = [
    "TensorField",
    "GridStructure",
    "horizontal_cov_deriv",
    "fiber_partials",
    "theta_derivative",
]


def theta_derivative(w: np.ndarray, order=1, axis: int = 2):
    """Spectral derivative along the fiber angle axis (period 2*pi).

    A tuple of orders gives one array per order from a single rfft.
    """
    return _spectral(w, axis, 2.0 * np.pi, order)


def _dtheta(w: np.ndarray, order=1):
    """``theta_derivative`` on the last axis, for the slab workers."""
    return _spectral(w, 2, 2.0 * np.pi, order)


# Points per x1-slab of the polar closed forms (8 rows at 64^2 x 64): the
# few slab-sized temporaries a formula keeps live fit in a core's L2 cache.
_SLAB_POINTS = 32768


def fiber_partials(w: np.ndarray, d: int, thetas: np.ndarray) -> np.ndarray:
    """d/dy^j of a d-homogeneous field sampled at y = e(theta); new last axis j."""
    sh = (1, 1, len(thetas)) + (1,) * (w.ndim - 3)
    c, s = np.cos(thetas).reshape(sh), np.sin(thetas).reshape(sh)
    wt = theta_derivative(w, 1)
    out = np.empty(w.shape + (2,))
    out[..., 0] = d * c * w - s * wt
    out[..., 1] = d * s * w + c * wt
    return out


@dataclass
class TensorField:
    """Grid-sampled tensor components, contravariant indices first."""

    data: np.ndarray  # (N1, N2, Ntheta, [n]*rank)
    valence: tuple[int, int]
    homogeneity: int = 0

    @property
    def rank(self) -> int:
        return self.valence[0] + self.valence[1]

    def __post_init__(self):
        if self.data.ndim != 3 + self.rank:
            raise ValueError("data rank does not match declared valence")


class GridStructure(algebra.ConnectionStack):
    """The connection stack on float fields at y = e(theta), plus grid-only quantities.

    ``source`` is either a :class:`FinslerStructure` on a periodic chart or
    a log F array of shape ``bgrid.shape + (n_theta,)`` (a flow state).
    """

    def __init__(
        self,
        source,
        bgrid: BaseGrid,
        fgrid: FiberGrid,
        base_mode: str = "fd4",
    ):
        self.bgrid = bgrid
        self.fgrid = fgrid
        self.base_mode = base_mode
        self.thetas = fgrid.thetas
        self._cache: dict = {}
        nodes = bgrid.nodes()  # (N1, N2, 2)
        self.x_nodes = nodes
        self.x = nodes[:, :, None, :]  # (N1, N2, 1, 2)
        th = self.thetas
        self.e = np.stack([np.cos(th), np.sin(th)], axis=-1)  # (Ntheta, 2)
        self.eperp = np.stack([-np.sin(th), np.cos(th)], axis=-1)
        self.y = self.e[None, None, :, :]  # (1, 1, Ntheta, 2)
        if isinstance(source, FinslerStructure):
            if not source.chart.periodic:
                raise GridError(f"{source.name}: non-periodic chart cannot be grid-sampled")
            self.structure = source
            F2 = source.F2(self.x, self.y)
            self.F2 = np.broadcast_to(F2, bgrid.shape + (fgrid.n_theta,)).copy()
            self.logF = 0.5 * np.log(self.F2)
        else:
            self.structure = None
            logF = np.asarray(source, dtype=float)
            want = bgrid.shape + (fgrid.n_theta,)
            if logF.shape != want:
                raise GridError(f"logF shape {logF.shape} != {want}")
            self.logF = logF
            with np.errstate(over="ignore"):
                self.F2 = np.exp(2.0 * logF)
        if not np.all(np.isfinite(self.F2)) or np.any(self.F2 <= 0):
            raise GridError("F^2 must be finite and positive on the grid")
        N1, N2, n_theta = self.F2.shape
        step = max(1, _SLAB_POINTS // (N2 * n_theta))
        self._slab_rows = [slice(i, min(i + step, N1)) for i in range(0, N1, step)]

    @cached_property
    def F(self) -> np.ndarray:
        return np.sqrt(self.F2)

    # -- engine ------------------------------------------------------------
    def dx(self, field: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
        return base_derivative(field, self.bgrid, axis, order, self.base_mode)

    def base(self, field: np.ndarray) -> np.ndarray:
        """d/dx^k of a field, on a new last axis k."""
        return np.stack([self.dx(field, 0), self.dx(field, 1)], axis=-1)

    def fiber(self, w: np.ndarray, d: int) -> np.ndarray:
        return fiber_partials(w, d, self.thetas)

    def dtheta(self, w: np.ndarray) -> np.ndarray:
        return theta_derivative(w, 1)

    def values(self, field: np.ndarray) -> np.ndarray:
        return field

    def base_values(self, field: np.ndarray) -> np.ndarray:
        return self.base(field)

    def tilde(self, q: np.ndarray) -> np.ndarray:
        """1/2 d^2(r^2 q)/dy^i dy^j at r = 1 from exact interpolant derivatives.

        Htilde = q I + q'/2 (e ox eperp + eperp ox e) + q''/2 (eperp ox eperp),
        summed by component plane.
        """
        h1, h2 = (0.5 * d for d in theta_derivative(q, (1, 2)))
        e, ep = self.e, self.eperp
        out = np.empty(q.shape + (2, 2))
        for i, j in ((0, 0), (0, 1), (1, 1)):
            t = h1 * (e[:, i] * ep[:, j] + e[:, j] * ep[:, i])
            if i == j:
                t = q + t
            out[..., i, j] = out[..., j, i] = t + h2 * (ep[:, i] * ep[:, j])
        return out

    # -- polar closed forms ---------------------------------------------------
    # With u = log F(x, theta), primes for d/dtheta, D = cos d_1 + sin d_2 and
    # Dperp = -sin d_1 + cos d_2 at fixed theta, and W = 1 + u'' + u'^2, the
    # metric, the Liouville density, the spray trace and Htilde_ij are
    # scalars of u in the frame (e, eperp) at y = e(theta) (Bao, Chern &
    # Shen, GTM 200, ch. 4), so the flow's route builds no tensor field.
    # Each one is built by ``_slabwise``: its builder fetches the cached
    # fields first, so the slab formula calls no traced or cached helper.

    def _slabwise(self, formula, n: int = 1):
        """A preallocated field (a tuple of n), filled x1-slab by x1-slab with ``formula(rows)``."""
        outs = [np.empty(self.F2.shape) for _ in range(n)]

        def task(rows):
            values = formula(rows)
            for out, value in zip(outs, values if n > 1 else (values,)):
                out[rows] = value

        workers.run(task, self._slab_rows)
        return tuple(outs) if n > 1 else outs[0]

    def _x1_source(self, *fields) -> tuple:
        """What a slab's d/dx1 reads: the field itself in fd4 (its halo rows
        are gathered per slab), its whole-field transform in spectral mode."""
        if self.base_mode == "fd4":
            return fields
        return tuple(self.dx(f, 0) for f in fields)

    def _slab_frame_dx(self, f: np.ndarray, f_x1: np.ndarray, rows: slice):
        """(D f, Dperp f) on ``rows``; ``f_x1`` is ``_x1_source(f)``."""
        c, s = self.e.T
        if self.base_mode == "fd4":
            h1, h2 = self.bgrid.spacing
            d1 = _fd4_padded(_wrap_rows(f_x1, 0, rows.start - 2, rows.stop + 2), 0, h1, 1)
            d2 = _fd4_padded(_wrap_rows(f[rows], 1, -2, f.shape[1] + 2), 1, h2, 1)
        else:
            d1 = f_x1[rows]
            d2 = _spectral(f[rows], 1, self.bgrid.lengths[1], 1)
        return c * d1 + s * d2, c * d2 - s * d1

    @property
    def _u_theta(self):
        """(u', u'', a) with a = 1 + u'' + 2u'^2, so that g = e^{2u} [[1, u'], [u', a]]."""
        def formula(rows):
            u1, u2 = _dtheta(self.logF[rows], (1, 2))
            return u1, u2, 1.0 + u2 + 2.0 * u1 * u1
        return self._get("u_theta", lambda: self._slabwise(formula, 3))

    @property
    def _u_frame(self):
        """(D u, Dperp u, D u').

        d_k u is taken as d_k(F^2) / 2F^2: FD4 on F^2 is 3x closer than FD4 on
        u on randers-torus, and the tensor route differentiates F^2 too.
        """
        def build():
            F2 = self.F2
            (F2_x1,) = self._x1_source(F2)

            def formula(rows):
                Du, Dpu = (d / (2.0 * F2[rows]) for d in self._slab_frame_dx(F2, F2_x1, rows))
                return Du, Dpu, _dtheta(Du) - Dpu
            return self._slabwise(formula, 3)
        return self._get("u_frame", build)

    @property
    def g(self):
        """e^{2u} [[1, u'], [u', 1 + u'' + 2u'^2]] in the frame, in Cartesian components."""
        def build():
            u1, _, a = self._u_theta
            gee, gep, gpp = self.F2, self.F2 * u1, self.F2 * a
            c, s = self.e.T
            cc, cs, ss = c * c, c * s, s * s
            out = np.empty(self.F2.shape + (2, 2))
            out[..., 0, 0] = gee * cc - 2.0 * gep * cs + gpp * ss
            out[..., 0, 1] = out[..., 1, 0] = (gee - gpp) * cs + gep * (cc - ss)
            out[..., 1, 1] = gee * ss + 2.0 * gep * cs + gpp * cc
            return out
        return self._get("g", build)

    @property
    def rho(self) -> np.ndarray:
        """Liouville density e^{2u} W."""
        def build():
            F2, (u1, u2, _) = self.F2, self._u_theta
            return self._slabwise(lambda r: F2[r] * (1.0 + u2[r] + u1[r] * u1[r]))
        return self._get("rho", build)

    @property
    def ricci_scalar(self) -> np.ndarray:
        """R^k_k of the spray G = P e + Q eperp.

        R^k_k = -D P + 2 Dperp Q - D Q' + P^2 + 2 Q P' + 2 Q Q'' + 4 Q^2 - Q'^2,
        with P = [(1 + u'') Du - u' Du' + u' Dperp u] / 2W and
        Q = [u' Du + Du' - Dperp u] / 2W.  Raises unless g is positive
        definite, as the tensor route does through g^-1.  P and Q are built
        on every slab before R, whose base derivatives read their neighbours.
        """
        def build():
            self.require_spd()
            (u1, u2, _), (Du, Dpu, Du1) = self._u_theta, self._u_frame

            def spray(r):
                W2 = 2.0 * (1.0 + u2[r] + u1[r] * u1[r])
                return (
                    ((1.0 + u2[r]) * Du[r] - u1[r] * Du1[r] + u1[r] * Dpu[r]) / W2,
                    (u1[r] * Du[r] + Du1[r] - Dpu[r]) / W2,
                )
            P, Q = self._slabwise(spray, 2)
            P_x1, Q_x1 = self._x1_source(P, Q)

            def trace(r):
                p, q = P[r], Q[r]
                DP, _ = self._slab_frame_dx(P, P_x1, r)
                DQ, DpQ = self._slab_frame_dx(Q, Q_x1, r)
                Q1, Q2 = _dtheta(q, (1, 2))
                return (
                    -DP + 2.0 * DpQ - (_dtheta(DQ) - DpQ) + p * p
                    + 2.0 * q * _dtheta(p) + 2.0 * q * Q2
                    + 4.0 * q * q - Q1 * Q1
                )
            return self._slabwise(trace)
        return self._get("ricci_scalar", build)

    @property
    def huu(self) -> np.ndarray:
        """H(u,u) = R^k_k / F^2."""
        def build():
            R, F2 = self.ricci_scalar, self.F2
            return self._slabwise(lambda r: R[r] / F2[r])
        return self._get("huu", build)

    @property
    def min_eig_field(self) -> np.ndarray:
        """e^{2u} lambda_min([[1, u'], [u', a]]), as (e, eperp) is orthonormal."""
        def build():
            F2, (u1, _, a) = self.F2, self._u_theta
            return self._slabwise(lambda r: F2[r] * algebra.sym2_min_eig(1.0, u1[r], a[r]))
        return self._get("min_eig_field", build)

    @property
    def _R_theta(self):
        """(R', R'') of R = R^k_k.

        In the frame, Htilde_ij = [[R, R'/2], [R'/2, R + R''/2]] and
        g^-1 = [[a, -u'], [-u', 1]] / rho.
        """
        def build():
            R = self.ricci_scalar
            return self._slabwise(lambda r: _dtheta(R[r], (1, 2)), 2)
        return self._get("R_theta", build)

    @property
    def h_tilde(self) -> np.ndarray:
        """Htilde = [(2 + u'' + 2u'^2) R - u'R' + R''/2] / rho, with R = R^k_k."""
        def build():
            (u1, _, a), rho = self._u_theta, self.rho
            R, (R1, R2) = self.ricci_scalar, self._R_theta
            return self._slabwise(
                lambda r: ((1.0 + a[r]) * R[r] - u1[r] * R1[r] + 0.5 * R2[r]) / rho[r])
        return self._get("h_tilde", build)

    @property
    def gem_field(self) -> np.ndarray:
        """Max over (i, j) of |g^{ia} Htilde_aj - (Htilde/2) delta^i_j|, in Cartesian components.

        In the frame this mixed tensor is [[m, p], [q, -m]] / rho with
        m = ((a - 1) R - R''/2) / 2, p = aR'/2 - u'(R + R''/2) and
        q = R'/2 - u'R.  Its symmetric part turns by 2 theta into Cartesian
        components and its skew part (p - q)/2 by nothing; the max over
        components is not rotation-invariant, so it is taken there, as
        max(|M_00|, |M_01| + |skew|) with M_01 the symmetric off-diagonal.
        """
        def build():
            (u1, _, a), rho = self._u_theta, self.rho
            R, (R1, R2) = self.ricci_scalar, self._R_theta
            c2, s2 = np.cos(2.0 * self.thetas), np.sin(2.0 * self.thetas)

            def formula(r):
                h = 0.5 * R2[r]
                m = 0.5 * ((a[r] - 1.0) * R[r] - h)
                p = 0.5 * a[r] * R1[r] - u1[r] * (R[r] + h)
                q = 0.5 * R1[r] - u1[r] * R[r]
                k, skew = 0.5 * (p + q), np.abs(0.5 * (p - q))
                diag = np.abs(m * c2 - k * s2)
                off = np.abs(m * s2 + k * c2)
                return np.maximum(diag, off + skew) / rho[r]
            return self._slabwise(formula)
        return self._get("gem_field", build)

    @property
    def weight(self) -> float:
        h1, h2 = self.bgrid.spacing
        return h1 * h2 * self.fgrid.spacing

    # -- grid-only quantities ------------------------------------------------
    def integrate(self, field: np.ndarray) -> float:
        """Integral over SM against the Liouville measure (deterministic order)."""
        if field.shape != self.F2.shape:
            raise GridError("field shape does not match the grid")
        return float(np.sum(field * self.rho) * self.weight)

    @property
    def volume(self) -> float:
        return self._get("volume", lambda: self.integrate(np.ones_like(self.F2)))

    @property
    def Q(self) -> np.ndarray:
        """H_rs y^r y^s, read as the spray trace R^k_k.

        The Berwald-curvature identity H_rs y^r y^s = R^k_k (checked in the
        test suite against the H_ij contraction) lets ``ricci_tilde``,
        ``h_tilde`` and ``h_hat`` skip the 4-index hh field.
        """
        return self.ricci_scalar

    def gem_residual(self, stride: int = 1) -> float:
        """Sup over (sub-sampled) base nodes and the full fiber."""
        if stride < 1:
            raise ValueError(f"gem stride must be at least 1, got {stride}")
        return float(np.max(self.gem_field[::stride, ::stride, :]))

    @property
    def nabla0_mean_cartan(self) -> np.ndarray:
        """(nabla_0 C^j) with C^j = g^{jk} C_k, at y = e(theta)."""
        def build():
            Cup = algebra.contract("...jk,...k->...j", self.ginv, self.mean_cartan)
            return cov_deriv_0(TensorField(Cup, (1, 0), homogeneity=-1), self).data
        return self._get("nabla0_mean_cartan", build)

    @property
    def nabla0_cartan(self) -> np.ndarray:
        """nabla_0 C_kij at y = e(theta)."""
        return self._get("nabla0_cartan", lambda: cov_deriv_0(
            TensorField(self.cartan, (0, 3), homogeneity=-1), self).data)


def horizontal_cov_deriv(field: TensorField, gs: GridStructure) -> TensorField:
    """Horizontal Cartan covariant derivative; appends one covariant slot.

    nabla_m T = delta_m T + Gamma-corrections, with
    delta_m = d/dx^m - G^r_m d/dy^r acting through the grid engines.
    """
    p, q = field.valence
    if p > 1 or q > 3:
        raise ValueError(f"unsupported valence {field.valence}")
    T = field.data
    rank = field.rank
    d = field.homogeneity
    fT = gs.fiber(T, d)  # (..., idx..., r)
    idx = "ijkl"[:rank]
    out = gs.base(T) - algebra.contract(f"...{idx}r,...rm->...{idx}m", fT, gs.Gj)
    Gam = gs.Gamma
    # contravariant slots: + T^{r...} Gamma^i_rm
    for s in range(p):
        pre, post = idx[:s], idx[s + 1:]
        out += algebra.contract(f"...{pre}r{post},...{idx[s]}rm->...{idx}m", T, Gam)
    # covariant slots: - T_{...r...} Gamma^r_jm
    for s in range(p, rank):
        pre, post = idx[:s], idx[s + 1:]
        out -= algebra.contract(f"...{pre}r{post},...r{idx[s]}m->...{idx}m", T, Gam)
    return TensorField(out, (p, q + 1), homogeneity=d)


def cov_deriv_0(field: TensorField, gs: GridStructure) -> TensorField:
    """nabla_0 T = y^m nabla_m T evaluated at y = e(theta)."""
    nab = horizontal_cov_deriv(field, gs)
    idx = "ijklm"[: field.rank]
    data = algebra.contract(f"...{idx}t,...t->...{idx}", nab.data, gs.y)
    return TensorField(data, field.valence, homogeneity=field.homogeneity + 1)
