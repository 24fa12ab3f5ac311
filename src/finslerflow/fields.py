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
64^2 x 64), so that a formula's temporaries stay in cache, by four passes,
one per dependency boundary:

* ``_metric``: u', 1 + u'', a, the smallest eigenvalue of g and rho, with
  the per-slab sum of rho and minimum of the eigenvalue;
* ``_spray``, only once g is positive definite: P and Q of the spray, from
  D u, Dperp u and D u' taken on the slab (not cached: only ``_trace``
  reads them);
* ``_trace``: R^k_k and H(u,u), with the per-slab sum of H(u,u) rho and max
  |H(u,u)|; its d/dx reads P and Q on the neighbouring slabs;
* ``_htilde_gem``: R' and R'' on the slab, Htilde and the GEM gap, with the
  per-slab sum of Htilde rho.

So ``rho`` alone builds no spray, and an rk4 stage, which reads H(u,u) and
its integral, builds no Htilde.  ``volume``, ``huu_integral``,
``h_tilde_integral``, ``max_abs_huu`` and ``min_eig_g`` reduce the per-slab
values in slab order; with 8 slabs of 32768 points (64^3) ``np.sum`` of the 8
sums runs numpy's pairwise tree, so the integrals equal ``integrate``'s bit
for bit, and at other shapes they differ in the last digits.  F^2 and the
flow's update and fiber projection are slab passes too.

Each pass writes into preallocated full-size fields, in the source's dtype;
slabs run through ``slabwise`` and ``workers.run``, on the worker pool that
``curvature.ricci_directional``'s batch parts share; with one CPU or one
slab they run inline.  A slab keeps the whole fiber axis and the whole x2
axis, so theta- and x2-derivatives are taken inside it; an FD4 d/dx1 reads a
two-row periodic halo around the slab, and a spectral d/dx1 is one
whole-field transform taken before the slab pass.  Every element is computed
by the same operations in the same order as on the whole field, so the
fields are bit-identical for any slab count or worker count.  The slab tasks
call only ``grids._spectral``, the padded FD4 stencil and
``algebra.sym2_min_eig``, never a cache builder or a traced function.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import algebra, workers
from .grids import (
    BaseGrid, FiberGrid, GridError, _fd4_padded, _spectral, _wrap_rows, base_derivative,
    check_base_mode,
)
from .structures import FinslerStructure

__all__ = [
    "GridStructure",
    "sample_logF",
    "horizontal_cov_deriv",
    "fiber_partials",
    "theta_derivative",
]


def theta_derivative(w: np.ndarray, order=1):
    """Spectral derivative along the fiber angle axis 2 (period 2*pi).

    A tuple of orders gives one array per order from a single rfft.
    """
    return _spectral(w, 2, 2.0 * np.pi, order)


# The slab workers' name for it: perfbench's tracer patches the name
# ``theta_derivative`` only, so the slab workers stay untraced.
_dtheta = theta_derivative


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


def sample_logF(fs: FinslerStructure, bgrid: BaseGrid, fgrid: FiberGrid) -> np.ndarray:
    """log F of ``fs`` at the base nodes and y = e(theta), the one sampler of
    ``GridStructure`` and ``flow.encode_state``.

    Raises ``GridError`` unless the chart is a torus whose lengths, when it
    states them, are the grid's to a relative 1e-12.
    """
    L = fs.chart.lengths
    if not fs.chart.periodic:
        raise GridError(f"{fs.name}: non-periodic chart cannot be grid-sampled "
                        "(pointwise curvature remains available)")
    if L is not None and not np.allclose(bgrid.lengths, L, rtol=1e-12, atol=0.0):
        raise GridError(f"{fs.name}: grid lengths {bgrid.lengths} are not the torus's {L}")
    e = np.stack([np.cos(fgrid.thetas), np.sin(fgrid.thetas)], axis=-1)
    F = fs.F(bgrid.nodes()[:, :, None, :], e[None, None])
    return np.log(np.broadcast_to(F, bgrid.shape + (fgrid.n_theta,)).copy())


class GridStructure(algebra.ConnectionStack):
    """The connection stack on float fields at y = e(theta), plus grid-only quantities.

    ``source`` is a log F array of shape ``bgrid.shape + (n_theta,)`` or a
    :class:`FinslerStructure`, sampled by :func:`sample_logF` as in
    ``flow.encode_state``; F^2 is e^{2 log F}, so the two agree bit for bit.
    """

    def __init__(
        self,
        source,
        bgrid: BaseGrid,
        fgrid: FiberGrid,
        base_mode: str = "fd4",
    ):
        check_base_mode(base_mode)
        self.bgrid = bgrid
        self.fgrid = fgrid
        self.base_mode = base_mode
        self.thetas = fgrid.thetas
        self._cache: dict = {}
        self.x_nodes = bgrid.nodes()  # (N1, N2, 2)
        self.x = self.x_nodes[:, :, None, :]  # (N1, N2, 1, 2)
        th = self.thetas
        self.e = np.stack([np.cos(th), np.sin(th)], axis=-1)  # (Ntheta, 2)
        self.eperp = np.stack([-np.sin(th), np.cos(th)], axis=-1)
        self.y = self.e[None, None, :, :]  # (1, 1, Ntheta, 2)
        want = bgrid.shape + (fgrid.n_theta,)
        step = max(1, _SLAB_POINTS // (want[1] * want[2]))
        self._slab_rows = [slice(i, min(i + step, want[0])) for i in range(0, want[0], step)]
        if isinstance(source, FinslerStructure):
            source = sample_logF(source, bgrid, fgrid)
        logF = np.asarray(source, dtype=float)
        if logF.shape != want:
            raise GridError(f"logF shape {logF.shape} != {want}")
        self.logF = logF

        def formula(r, F2):
            np.exp(2.0 * logF[r], out=F2)
            return np.min(F2), np.max(F2)
        with np.errstate(over="ignore"):
            self.F2, lows, highs = self.slabwise(formula, 1, 2)
        lo, hi = np.min(lows), np.max(highs)
        # false for a NaN, as np.min and np.max pass it on
        if not (lo > 0.0 and hi < np.inf):
            raise GridError("F^2 must be finite and positive on the grid")
        self._cos_sin = self._slab_tile(*self.e.T)

    @cached_property
    def F(self) -> np.ndarray:
        return np.sqrt(self.F2)

    # -- engine ------------------------------------------------------------
    def dx(self, field: np.ndarray, axis: int) -> np.ndarray:
        return base_derivative(field, self.bgrid, axis, 1, self.base_mode)

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
    # They are built by four slab passes (``_metric``, ``_spray``, ``_trace``
    # and ``_htilde_gem``), each at a dependency boundary: a pass's builder
    # fetches the fields it reads first, so the slab formula calls no traced
    # or cached helper.

    def slabwise(self, formula, n: int, m: int = 0) -> tuple:
        """Run ``formula(rows, *outs)`` on every x1-slab, on the worker pool.

        ``outs`` are the slab's views of n full-size fields, preallocated in
        the source's dtype (contiguous, as x1 is the outer axis): the formula
        writes its fields there and returns a tuple of m scalars.  This
        returns the n fields, then m arrays holding each scalar per slab, in
        slab order.
        """
        dtype, slabs = self.logF.dtype, self._slab_rows
        fields = [np.empty(self.logF.shape, dtype) for _ in range(n)]
        scalars = [np.empty(len(slabs), dtype) for _ in range(m)]

        def task(i):
            rows = slabs[i]
            for out, value in zip(scalars, formula(rows, *(f[rows] for f in fields))):
                out[i] = value

        workers.run(task, list(range(len(slabs))))
        return (*fields, *scalars)

    def _slab_tile(self, *vectors) -> np.ndarray:
        """Functions of theta tiled over the first slab, stacked on a new first axis.

        A product with a full slab runs as one long loop, where a (n_theta,)
        operand runs one short loop per (x1, x2) row; rows[:k] serves a
        slab of k rows.
        """
        return np.broadcast_to(
            np.stack(vectors)[:, None, None, :],
            (len(vectors), self._slab_rows[0].stop) + self.logF.shape[1:],
        ).copy()

    def _x1_source(self, *fields) -> tuple:
        """What a slab's d/dx1 reads: the field itself in fd4 (its halo rows
        are gathered per slab), its whole-field transform in spectral mode."""
        if self.base_mode == "fd4":
            return fields
        return tuple(self.dx(f, 0) for f in fields)

    def _slab_frame_dx(self, f: np.ndarray, f_x1: np.ndarray, rows: slice, perp: bool = True):
        """(D f, Dperp f) on ``rows``, or (D f,) without ``perp``; ``f_x1`` is ``_x1_source(f)``."""
        c, s = self._cos_sin[:, : rows.stop - rows.start]
        if self.base_mode == "fd4":
            h1, h2 = self.bgrid.spacing
            d1 = _fd4_padded(_wrap_rows(f_x1, 0, rows.start - 2, rows.stop + 2), 0, h1, 1)
            d2 = _fd4_padded(_wrap_rows(f[rows], 1, -2, f.shape[1] + 2), 1, h2, 1)
        else:
            d1 = f_x1[rows]
            d2 = _spectral(f[rows], 1, self.bgrid.lengths[1], 1)
        D = c * d1 + s * d2
        return (D, c * d2 - s * d1) if perp else (D,)

    @property
    def _metric(self):
        """(u', 1 + u'', a, lambda_min, rho, sum of rho, min of lambda_min), the last two per slab.

        a = 1 + u'' + 2u'^2, so that g = e^{2u} [[1, u'], [u', a]];
        lambda_min = e^{2u} lambda_min([[1, u'], [u', a]]), as (e, eperp) is
        orthonormal, and rho = e^{2u} W.
        """
        def formula(r, u1, b, a, lam, rho):
            u1[...], u2 = _dtheta(self.logF[r], (1, 2))
            np.add(1.0, u2, out=b)
            np.add(b, 2.0 * u1 * u1, out=a)
            F2 = self.F2[r]
            np.multiply(F2, algebra.sym2_min_eig(1.0, u1, a), out=lam)
            np.multiply(F2, b + u1 * u1, out=rho)
            return np.sum(rho), np.min(lam)
        return self._get("metric", lambda: self.slabwise(formula, 5, 2))

    def _spray(self):
        """(P, Q) of the spray G = P e + Q eperp, built only on a positive definite g.

        P = [(1 + u'') Du - u' Du' + u' Dperp u] / 2W and
        Q = [u' Du + Du' - Dperp u] / 2W.  d_k u is taken as d_k(F^2) / 2F^2
        on each slab: FD4 on F^2 is 3x closer than FD4 on u on randers-torus,
        and the tensor route differentiates F^2 too.  Not cached: only the
        trace pass reads P and Q.
        """
        self.require_spd()
        u1, b = self._metric[:2]
        F2 = self.F2
        (F2_x1,) = self._x1_source(F2)

        def formula(r, P, Q):
            twoF2 = 2.0 * F2[r]
            Du, Dpu = (d / twoF2 for d in self._slab_frame_dx(F2, F2_x1, r))
            Du1 = _dtheta(Du) - Dpu
            W2 = 2.0 * (b[r] + u1[r] * u1[r])
            np.divide(b[r] * Du - u1[r] * Du1 + u1[r] * Dpu, W2, out=P)
            np.divide(u1[r] * Du + Du1 - Dpu, W2, out=Q)
            return ()
        return self.slabwise(formula, 2)

    @property
    def _trace(self):
        """(R, H(u,u), sum of H(u,u) rho, max |H(u,u)|), the last two per slab.

        R^k_k = -D P + 2 Dperp Q - D Q' + P^2 + 2 Q P' + 2 Q Q'' + 4 Q^2 - Q'^2
        and H(u,u) = R^k_k / F^2.  A pass of its own, as its base derivatives
        read the neighbouring slabs of P and Q.
        """
        def build():
            P, Q = self._spray()
            P_x1, Q_x1 = self._x1_source(P, Q)
            F2, rho = self.F2, self.rho

            def formula(r, R, huu):
                p, q = P[r], Q[r]
                (DP,) = self._slab_frame_dx(P, P_x1, r, perp=False)
                DQ, DpQ = self._slab_frame_dx(Q, Q_x1, r)
                Q1, Q2 = _dtheta(q, (1, 2))
                twoq = 2.0 * q
                np.subtract(
                    -DP + 2.0 * DpQ - (_dtheta(DQ) - DpQ) + p * p
                    + twoq * _dtheta(p) + twoq * Q2 + 4.0 * q * q,
                    Q1 * Q1, out=R,
                )
                np.divide(R, F2[r], out=huu)
                return np.sum(huu * rho[r]), np.max(np.abs(huu))
            return self.slabwise(formula, 2, 2)
        return self._get("trace", build)

    @property
    def _htilde_gem(self):
        """(Htilde, the GEM gap, sum of Htilde rho), the last per slab.

        In the frame, Htilde_ij = [[R, R'/2], [R'/2, R + R''/2]] and
        g^-1 = [[a, -u'], [-u', 1]] / rho, so
        Htilde = [(2 + u'' + 2u'^2) R - u'R' + R''/2] / rho.  The GEM gap is
        the max over (i, j) of |g^{ia} Htilde_aj - (Htilde/2) delta^i_j| in
        Cartesian components: in the frame this mixed tensor is
        [[m, p], [q, -m]] / rho with m = ((a - 1) R - R''/2) / 2,
        p = aR'/2 - u'(R + R''/2) and q = R'/2 - u'R.  Its symmetric part
        turns by 2 theta into Cartesian components and its skew part
        (p - q)/2 by nothing; the max over components is not
        rotation-invariant, so it is taken there, as
        max(|M_00|, |M_01| + |skew|) with M_01 the symmetric off-diagonal.
        """
        def build():
            u1, _, a, _, rho = self._metric[:5]
            R = self.ricci_scalar
            cos_sin_2 = self._slab_tile(np.cos(2.0 * self.thetas), np.sin(2.0 * self.thetas))

            def formula(r, ht, gem):
                R0, u, ar, rh = R[r], u1[r], a[r], rho[r]
                c2, s2 = cos_sin_2[:, : r.stop - r.start]
                R1, R2 = _dtheta(R0, (1, 2))
                h = 0.5 * R2
                np.divide((1.0 + ar) * R0 - u * R1 + h, rh, out=ht)
                m = 0.5 * ((ar - 1.0) * R0 - h)
                p = 0.5 * ar * R1 - u * (R0 + h)
                q = 0.5 * R1 - u * R0
                k, skew = 0.5 * (p + q), np.abs(0.5 * (p - q))
                diag = np.abs(m * c2 - k * s2)
                off = np.abs(m * s2 + k * c2)
                np.divide(np.maximum(diag, off + skew), rh, out=gem)
                return (np.sum(ht * rh),)
            return self.slabwise(formula, 2, 1)
        return self._get("htilde_gem", build)

    @property
    def g(self):
        """e^{2u} [[1, u'], [u', 1 + u'' + 2u'^2]] in the frame, in Cartesian components."""
        def build():
            u1, _, a = self._metric[:3]
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
    def min_eig_field(self) -> np.ndarray:
        """e^{2u} lambda_min([[1, u'], [u', a]]) from the metric pass."""
        return self._get("min_eig_field", lambda: self._metric[3])

    @property
    def min_eig_g(self) -> float:
        """The smallest of the metric pass's per-slab minima; NaN if g is NaN anywhere."""
        return self._get("min_eig_g", lambda: float(np.min(self._metric[6])))

    @property
    def rho(self) -> np.ndarray:
        """Liouville density e^{2u} W."""
        return self._get("rho", lambda: self._metric[4])

    @property
    def ricci_scalar(self) -> np.ndarray:
        """R^k_k of the spray G = P e + Q eperp (``_trace``).

        Raises unless g is positive definite, as the tensor route does
        through g^-1.
        """
        return self._get("ricci_scalar", lambda: self._trace[0])

    @property
    def huu(self) -> np.ndarray:
        """H(u,u) = R^k_k / F^2."""
        return self._get("huu", lambda: self._trace[1])

    @property
    def h_tilde(self) -> np.ndarray:
        """Htilde = [(2 + u'' + 2u'^2) R - u'R' + R''/2] / rho, with R = R^k_k."""
        return self._get("h_tilde", lambda: self._htilde_gem[0])

    @property
    def gem_field(self) -> np.ndarray:
        """Max over (i, j) of |g^{ia} Htilde_aj - (Htilde/2) delta^i_j| (``_htilde_gem``)."""
        return self._get("gem_field", lambda: self._htilde_gem[1])

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

    def _slab_integral(self, partials: np.ndarray) -> float:
        """An integral from its per-slab sums: with 8 slabs of 32768 points
        (64^3) ``np.sum`` adds them in the pairwise tree ``integrate`` runs."""
        return float(np.sum(partials) * self.weight)

    @property
    def volume(self) -> float:
        """V = the integral of rho, from the metric pass's per-slab sums."""
        return self._get("volume", lambda: self._slab_integral(self._metric[5]))

    # The scalars below read their field first, so that its pass is built as
    # that field's cache entry (perfbench's tracer times builds by cache key).

    @property
    def huu_integral(self) -> float:
        """The integral of H(u,u) eta, from the trace pass's per-slab sums."""
        def build():
            self.huu
            return self._slab_integral(self._trace[2])
        return self._get("huu_integral", build)

    @property
    def max_abs_huu(self) -> float:
        """max |H(u,u)|, from the trace pass's per-slab maxima."""
        def build():
            self.huu
            return float(np.max(self._trace[3]))
        return self._get("max_abs_huu", build)

    @property
    def h_tilde_integral(self) -> float:
        """I = the integral of Htilde eta, from the Htilde/GEM pass's per-slab sums."""
        def build():
            self.h_tilde
            return self._slab_integral(self._htilde_gem[2])
        return self._get("h_tilde_integral", build)

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
            return cov_deriv_0(Cup, self, (1, 0), homogeneity=-1)
        return self._get("nabla0_mean_cartan", build)

    @property
    def nabla0_cartan(self) -> np.ndarray:
        """nabla_0 C_kij at y = e(theta)."""
        return self._get("nabla0_cartan", lambda: cov_deriv_0(
            self.cartan, self, (0, 3), homogeneity=-1))


def horizontal_cov_deriv(
    T: np.ndarray, gs: GridStructure, valence: tuple[int, int], homogeneity: int = 0
) -> np.ndarray:
    """Horizontal Cartan covariant derivative; appends one covariant slot.

    ``T`` holds the components (N1, N2, Ntheta, [n] * rank) of a tensor of
    ``valence`` (p, q), contravariant indices first, that is ``homogeneity``-
    homogeneous in y.  nabla_m T = delta_m T + Gamma-corrections, with
    delta_m = d/dx^m - G^r_m d/dy^r acting through the grid engines.
    """
    p, q = valence
    if p > 1 or q > 3:
        raise ValueError(f"unsupported valence {valence}")
    rank = p + q
    if T.ndim != 3 + rank:
        raise ValueError("data rank does not match declared valence")
    fT = gs.fiber(T, homogeneity)  # (..., idx..., r)
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
    return out


def cov_deriv_0(
    T: np.ndarray, gs: GridStructure, valence: tuple[int, int], homogeneity: int = 0
) -> np.ndarray:
    """nabla_0 T = y^m nabla_m T evaluated at y = e(theta); ``homogeneity`` + 1."""
    nab = horizontal_cov_deriv(T, gs, valence, homogeneity)
    idx = "ijklm"[: sum(valence)]
    return algebra.contract(f"...{idx}t,...t->...{idx}", nab, gs.y)
