"""The connection and curvature stack of F^2, written once for two engines.

:class:`ConnectionStack` says which quantity is built from which; the
formulas it calls sit below it, on numpy arrays whose trailing axes carry
the tensor indices.  Its engines are
:class:`finslerflow.connections.PointAssembly` (exact jets in numpy object
arrays) and :class:`finslerflow.fields.GridStructure` (floats on a spectral
fiber grid with FD4 or spectral base derivatives).  Base and fiber
derivatives always sit on the last axis: ``dT[..., idx, k] = d T_idx / dx^k``
and ``fT[..., idx, m] = d T_idx / dy^m``.  The structures are 2-dimensional.

Index contractions go through :func:`contract`, which takes ``einsum``'s
``'...'`` subscripts and sums products of component planes: on many 2 x 2
blocks ``einsum`` costs several times the arithmetic.  The spray ``G`` and
:func:`spray_trace` keep their ``einsum`` forms, :func:`gem_gap` and the
grid ``tilde`` are written out by component, and :mod:`finslerflow.oracles`
stays on ``np.einsum`` so that its cross-checks share no code with this one.

H(u,u), Htilde_ij and Htilde are read off the spray trace
R^k_k = H_rs y^r y^s on both engines; the hh-curvature and Ricci tensor
serve the pointwise bundle's ``H`` and ``H_ij`` and the tests.  The grid
overrides ``g``, ``min_eig_field``, ``rho``, ``ricci_scalar``, ``huu``,
``h_tilde`` and ``Q`` with closed forms on a surface, GEM gap included
(see :mod:`finslerflow.fields`); :func:`spray_trace`, :func:`gem_gap` and
:func:`min_eig` serve the jets and are the tests' references for them.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from math import prod
from operator import mul

import numpy as np

from .structures import SingularMetricError

__all__ = [
    "ConnectionStack", "christoffel", "cartan_hcoeffs", "spray_trace", "hh_curvature",
    "ricci", "gem_gap", "min_eig", "sym2_min_eig",
]


def _at(T, *idx):
    """Component ``idx`` over the trailing axes; a single jet comes out bare."""
    out = T[(...,) + idx]
    return out[()] if out.ndim == 0 else out


# Lead points contracted per block, so that a block's operand planes, read
# once per term, stay in a core's L2 cache: on a 2-core Xeon with 2 MB of L2
# per core this halves the time of a rank-4 contraction at 48^3 and 96^3
# against whole planes.
_BLOCK_POINTS = 8192


@lru_cache(maxsize=None)
def _plan(subscripts: str):
    """Contraction plan of ``'...ij,...jk->...ik'``.

    Returns the operand ranks, the output rank and, per output component,
    the operand components of each product term, the contracted letters
    running in order of first appearance, the first outermost.
    """
    lhs, out = subscripts.replace("...", "").split("->")
    subs = lhs.split(",")
    summed = "".join(dict.fromkeys(ch for s in subs for ch in s if ch not in out))
    plan = []
    for oidx in product((0, 1), repeat=len(out)):
        terms = []
        for sidx in product((0, 1), repeat=len(summed)):
            at = dict(zip(out + summed, oidx + sidx))
            terms.append(tuple(tuple(at[ch] for ch in s) for s in subs))
        plan.append((oidx, tuple(terms)))
    return tuple(len(s) for s in subs), len(out), tuple(plan)


def contract(subscripts: str, *ops):
    """``np.einsum(subscripts, *ops)`` over size-2 index axes, summed by component planes.

    Every operand has its indices on trailing axes of size 2 after leads
    that broadcast, and there are at least two operands.  Each output
    component is a sum of products of planes read with :func:`_at`: factors
    multiply left to right, and terms are added one after another (see
    :func:`_plan` for the order).  A contraction over one index thus gives
    ``einsum``'s bits; over more, ``einsum`` may group the same sum
    otherwise.  The leads are cut into blocks of about ``_BLOCK_POINTS``
    points along their first axis.  Takes floats or jets.
    """
    ranks, nout, plan = _plan(subscripts)
    lead = np.broadcast_shapes(*(op.shape[:op.ndim - r] for op, r in zip(ops, ranks)))
    out = np.empty(lead + (2,) * nout, dtype=np.result_type(*ops))
    blocks = [...]
    if lead:
        ops = [np.broadcast_to(op, lead + op.shape[op.ndim - r:]) for op, r in zip(ops, ranks)]
        step = max(1, _BLOCK_POINTS // max(1, prod(lead[1:])))
        blocks = [np.s_[a:a + step] for a in range(0, lead[0], step)]
    for blk in blocks:
        planes, dest = [op[blk] for op in ops], out[blk]
        for oidx, terms in plan:
            acc = None
            for comps in terms:
                term = reduce(mul, (_at(op, *c) for op, c in zip(planes, comps)))
                if acc is None:
                    acc = term
                else:
                    acc += term
            dest[(...,) + oidx] = acc
    return out[()] if out.ndim == 0 else out


class ConnectionStack:
    """Lazily cached connection and curvature quantities of F^2.

    A subclass supplies the engine: ``F2``, ``F``, ``x``, ``y`` (the fiber
    point, as the engine's variables), an empty ``_cache`` dict and

    * ``fiber(T, d)``: d/dy^m of a d-homogeneous T on a new last axis m;
    * ``base(T)``: d/dx^k on a new last axis k; ``dx(T, k)``: one of them;
    * ``dtheta(T)``: d/dtheta of T along y = |y| e(theta), as floats;
    * ``values(T)``, ``base_values(T)``: T and ``base(T)`` as float arrays;
    * ``tilde(q)``: 1/2 d^2 q / dy^i dy^j of a 2-homogeneous scalar, as floats.

    Jets keep every quantity up to ``ricci``, and ``Q`` and ``p``, as jets;
    ``gamma``, ``Gamma``, ``mean_cartan``, ``rho``, ``ricci_scalar`` and the
    other scalars are float arrays on either engine.
    """

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # -- metric ------------------------------------------------------------
    @property
    def g(self):
        """g_ij = 1/2 d^2 F^2 / dy^i dy^j."""
        return self._get("g", lambda: 0.5 * self.fiber(self.fiber(self.F2, 2), 1))

    @property
    def min_eig_field(self) -> np.ndarray:
        """Smallest eigenvalue of g at each point, as floats."""
        return self._get("min_eig_field", lambda: min_eig(self.values(self.g)))

    @property
    def min_eig_g(self) -> float:
        """Smallest eigenvalue of g over all points; NaN if g is NaN anywhere."""
        return self._get("min_eig_g", lambda: float(np.min(self.min_eig_field)))

    def require_spd(self) -> None:
        """Raise SingularMetricError unless g is positive definite at every point.

        The error names the worst point, a NaN one first.
        """
        if self.min_eig_g > 0.0:
            return
        lam = self.min_eig_field
        k = np.unravel_index(np.argmin(np.where(np.isnan(lam), -np.inf, lam)), lam.shape)
        raise SingularMetricError(float(lam[k]), where=tuple(map(int, k)) or None)

    @property
    def ginv(self):
        """g^ij by adjugate over determinant; raises unless g is positive definite."""
        def build():
            self.require_spd()
            g = self.g
            a, b, d = _at(g, 0, 0), _at(g, 0, 1), _at(g, 1, 1)
            det = a * d - b * b
            off = -b / det
            out = np.empty_like(g)
            out[..., 0, 0] = d / det
            out[..., 0, 1] = off
            out[..., 1, 0] = off
            out[..., 1, 1] = a / det
            return out
        return self._get("ginv", build)

    @property
    def cartan(self):
        """C_ijk = 1/2 d g_ij / dy^k."""
        return self._get("cartan", lambda: 0.5 * self.fiber(self.g, 0))

    @property
    def mean_cartan(self):
        """C_k = g^{ij} C_ijk, a (-1)-homogeneous covector."""
        return self._get("mean_cartan", lambda: contract(
            "...ij,...ijk->...k", self.values(self.ginv), self.values(self.cartan)))

    # -- Liouville measure -----------------------------------------------------
    @property
    def p(self):
        """Hilbert form p_i = dF/dy^i (0-homogeneous)."""
        return self._get("p", lambda: self.fiber(self.F, 1))

    @property
    def rho(self):
        """Liouville density rho = p_1 dp_2/dtheta - p_2 dp_1/dtheta.

        On the grid, integral f rho dx dtheta = integral_SM f eta.
        """
        def build():
            p, pt = self.values(self.p), self.dtheta(self.p)
            return p[..., 0] * pt[..., 1] - p[..., 1] * pt[..., 0]
        return self._get("rho", build)

    # -- spray stack ---------------------------------------------------------
    @property
    def A(self):
        """A_h = y^j d(dF^2/dy^h)/dx^j - dF^2/dx^h (the lowered spray, times 4).

        Built one component at a time, so no whole base-derivative array of
        dF^2/dy is held.
        """
        def build():
            dF2 = self.fiber(self.F2, 2)
            out = np.empty_like(dF2)
            for h in range(2):
                acc = -self.dx(self.F2, h)
                for j in range(2):
                    acc = acc + _at(self.y, j) * self.dx(_at(dF2, h), j)
                out[..., h] = acc
            return out
        return self._get("A", build)

    @property
    def G(self):
        """Spray G^i, 2-homogeneous."""
        def build():
            # A first, while the cache holds little: on jets its build holds
            # both dF^2/dy^h and, after g and g^-1, set the memory peak
            A = self.A
            return 0.25 * np.einsum("...ih,...h->...i", self.ginv, A)
        return self._get("G", build)

    @property
    def Gj(self):
        """Nonlinear connection G^i_j."""
        return self._get("Gj", lambda: self.fiber(self.G, 2))

    @property
    def Gjk(self):
        """Berwald coefficients G^i_jk."""
        return self._get("Gjk", lambda: self.fiber(self.Gj, 1))

    @property
    def Gjkm(self):
        """d G^i_jk / dy^m."""
        return self._get("Gjkm", lambda: self.fiber(self.Gjk, 0))

    @property
    def gamma(self):
        """Formal Christoffel symbols of g taken in x."""
        return self._get(
            "gamma", lambda: christoffel(self.values(self.ginv), self.base_values(self.g))
        )

    @property
    def Gamma(self):
        """Horizontal Cartan coefficients Gamma^i_jk."""
        return self._get("Gamma", lambda: cartan_hcoeffs(
            self.gamma, self.values(self.cartan), self.values(self.ginv), self.values(self.Gj)
        ))

    # -- curvature -------------------------------------------------------------
    @property
    def hh(self):
        """Berwald hh-curvature H^i_jkl."""
        return self._get(
            "hh", lambda: hh_curvature(self.Gj, self.Gjk, self.base(self.Gjk), self.Gjkm)
        )

    @property
    def ricci(self):
        """Akbar-Zadeh Ricci H_ij = g^{ks} H_ikjs."""
        return self._get("ricci", lambda: ricci(self.g, self.ginv, self.hh))

    def _spray_trace(self, read, dread):
        """R^k_k of the spray stack, each array read by ``read`` and its d/dx by ``dread``."""
        G, Gj = self.G, self.Gj
        return spray_trace(read(self.y), read(G), dread(G), read(Gj), dread(Gj), read(self.Gjk))

    @property
    def Q(self):
        """H_rs y^r y^s = R^k_k, a 2-homogeneous scalar (jets on jets): ``tilde``'s argument."""
        return self._get("Q", lambda: self._spray_trace(lambda T: T, self.base))

    @property
    def ricci_scalar(self):
        """Trace R^k_k of the spray curvature, which equals H_rs y^r y^s, as floats."""
        return self._get("ricci_scalar", lambda: self._spray_trace(self.values, self.base_values))

    @property
    def ricci_tilde(self):
        """Htilde_ij = 1/2 d^2(H_rs y^r y^s)/dy^i dy^j."""
        return self._get("ricci_tilde", lambda: self.tilde(self.Q))

    @property
    def huu(self):
        """Ricci-directional curvature H(u,u) = H^k_jkl y^j y^l / F^2 = R^k_k / F^2."""
        return self._get("huu", lambda: self.ricci_scalar / self.values(self.F2))

    @property
    def h_tilde(self):
        """Second-type scalar curvature Htilde = g^{ij} Htilde_ij."""
        return self._get("h_tilde", lambda: contract(
            "...ij,...ij->...", self.values(self.ginv), self.ricci_tilde))

    def h_hat(self, c_fun=None):
        """Hhat = Htilde - c(x) H(u,u), the functional integrand; c defaults to 0."""
        if c_fun is None:
            return self.h_tilde
        cx = np.asarray(c_fun(self.x), dtype=float) if callable(c_fun) else float(c_fun)
        return self.h_tilde - cx * self.huu


def min_eig(g: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of symmetric 2 x 2 matrices, in closed form."""
    return sym2_min_eig(g[..., 0, 0], g[..., 0, 1], g[..., 1, 1])


def sym2_min_eig(a, b, d):
    """Smallest eigenvalue of [[a, b], [b, d]], componentwise.

    The discriminant is summed as ((a - d)/2)^2 + b^2, not tr^2/4 - det,
    which cancels to half its digits on near-isotropic matrices.
    """
    h = 0.5 * (a - d)
    return 0.5 * (a + d) - np.sqrt(h * h + b * b)


def christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Formal Christoffel symbols gamma^i_jk of g taken in x."""
    return 0.5 * (
        contract("...im,...mjk->...ijk", ginv, dg)
        + contract("...im,...mkj->...ijk", ginv, dg)
        - contract("...im,...jkm->...ijk", ginv, dg)
    )


def cartan_hcoeffs(gamma, C, ginv, Gj) -> np.ndarray:
    """Horizontal Cartan coefficients Gamma^i_jk = gamma^i_jk - torsion corrections."""
    Cup = contract("...im,...mjs->...ijs", ginv, C)
    corr = (
        contract("...ijs,...sk->...ijk", Cup, Gj)
        + contract("...iks,...sj->...ijk", Cup, Gj)
        - contract("...kjs,...sm,...mi->...ijk", C, Gj, ginv)
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
            - contract("...ijm,...m->...ij", Gjkm[..., l, :], Gj[..., :, k])
            + contract("...mj,...im->...ij", Gjk[..., :, :, l], Gjk[..., :, :, k])
        )

    K = P(1, 0) - P(0, 1)
    zero = K - K
    return np.stack([np.stack([zero, K], axis=-1), np.stack([-K, zero], axis=-1)], axis=-2)


def ricci(g, ginv, H) -> np.ndarray:
    """Akbar-Zadeh Ricci tensor H_ij = g_ir g^{ks} H^r_kjs."""
    M = contract("...ks,...rkjs->...rj", ginv, H)
    return contract("...ir,...rj->...ij", g, M)


def gem_gap(rt, g, ginv) -> np.ndarray:
    """Max over (i, j) of |g^{ia}(Htilde_aj - (Htilde/2) g_aj)|; zero on GEM metrics.

    Written out by component: on many 2 x 2 blocks ``einsum`` costs several
    times the arithmetic.  The trace is summed pairwise, as ``einsum`` sums
    it, so the result is bit-identical to the ``einsum`` form.
    """
    ht = (ginv[..., 0, 0] * rt[..., 0, 0] + ginv[..., 0, 1] * rt[..., 0, 1]) + (
        ginv[..., 1, 0] * rt[..., 1, 0] + ginv[..., 1, 1] * rt[..., 1, 1])
    gap = rt - 0.5 * ht[..., None, None] * g
    out = None
    for i in range(2):
        for j in range(2):
            m = np.abs(ginv[..., i, 0] * gap[..., 0, j] + ginv[..., i, 1] * gap[..., 1, j])
            out = m if out is None else np.maximum(out, m)
    return out
