"""Truncated multivariate Taylor ("jet") arithmetic.

This is the differentiation engine of the package.  A :class:`Jet` stores the
Taylor coefficients of a smooth quantity at an expansion point, split into
"base" variables (chart coordinates x) and "fiber" variables (tangent
coordinates y), each with its own truncation order.  Arithmetic on jets is
exact up to the tracked truncation orders, so fiber derivatives of anything
built from jet-safe primitives (`+ - * /`, `sqrt`, `exp`, `log`, `sin`,
`cos`, `arctan`, real powers) come out at machine precision -- no
finite-difference noise.

Coefficients are stored in Taylor convention, ``c_alpha = d^alpha f / alpha!``,
so multiplication is plain truncated polynomial convolution.  Coefficient
arrays are stored coefficient-first, ``(ncoeff,) + leading_shape``: each
Taylor coefficient is one contiguous plane over an arbitrary leading shape,
and all operations broadcast over that shape, which is how grid sweeps
vectorize.

A jet has a valid box: the orders ``bvalid``/``fvalid`` up to which its
inputs determine it.  They shrink under differentiation, and a sum or
product is valid on the smaller of its operands' boxes, so no coefficient is
computed that the inputs do not support, and reading a derivative beyond
the valid box is an error instead of silent garbage.

Inside it a jet stores only its support box, its spec's orders: every
coefficient outside is exactly zero.  Constants store (0, 0), x seeds
(1, 0) and y seeds (0, 1); a product stores the sum of its operands' boxes
and a sum the larger one, each clipped to the valid box; a derivative
lowers its own kind by one.  So x-only and y-only factors, such as a
conformal factor and |y|^2, multiply on their small boxes, and a product
skips exactly the terms with a zero factor, summing the others in the same
order as a product over the whole valid box.  A sum or product cuts each
operand to their common valid box, copying coefficients only where the
stored box exceeds it, and broadcasts leading shapes only where they
differ.

A product runs one of three paths by the number of points P in its
leading shape: at P = 1 one ``np.bincount`` of the gathered products over
the plan's flat triplet arrays; below ``_GROUPED_MAX_POINTS`` one
fancy-indexed update per left monomial (a group); above it one
multiply-add per triplet on contiguous planes.  Each adds a coefficient's
terms in triplet order starting from 0.0, so the three agree bit for bit.
A constant added to a jet goes into its value coefficient, and a series
runs Horner only up to the last power of the nilpotent part that can be
nonzero (:meth:`Jet._series_orders`).

A :class:`JetSpec` addresses a monomial by one mixed-radix key of its
exponents, from which it builds the index maps of smaller boxes, of
derivatives and of seeds, and each product plan, when a jet first asks for
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

__all__ = [
    "JetSpec",
    "Jet",
    "jet_variables",
    "sqrt_",
    "exp_",
    "log_",
    "sin_",
    "cos_",
    "atan_",
    "power_",
    "JetOrderError",
]


class JetOrderError(ValueError):
    """A derivative was requested beyond the valid truncation order."""


def _multi_indices(nvars: int, max_total: int) -> list[tuple[int, ...]]:
    if nvars == 0:
        return [()]
    out = []
    for alpha in product(range(max_total + 1), repeat=nvars):
        if sum(alpha) <= max_total:
            out.append(alpha)
    out.sort(key=lambda a: (sum(a), a))
    return out


# One point multiplies by one bincount; batches below this many points by
# whole left-index groups (few large numpy calls); larger batches loop over
# triplets on contiguous planes.  A bincount over a whole lead also keeps the
# bits, but its temporaries at 64 points raised the peak memory of
# single-point reports with 64-angle GEM sweeps from 38.6 to 44.5 MB, and
# above about 256 points it is slower than the groups.
_GROUPED_MAX_POINTS = 512


def _lift(c: np.ndarray, ndim: int) -> np.ndarray:
    """View of a coefficient array with its leading shape padded to ``ndim`` axes."""
    pad = ndim - (c.ndim - 1)
    if pad <= 0:
        return c
    return c.reshape(c.shape[:1] + (1,) * pad + c.shape[1:])


@lru_cache(maxsize=None)
def jet_spec(nbase: int, border: int, nfiber: int, forder: int) -> "JetSpec":
    return JetSpec(nbase, border, nfiber, forder)


class JetSpec:
    """Monomial tables for one (nbase, border, nfiber, forder) signature.

    Instances are cached; construct through :func:`jet_spec`.  Monomials are
    ordered base-major, each part by (total degree, exponents), so the spec
    of any smaller box orders its monomials as the restriction of this order.
    A monomial's address is its mixed-radix key, the exponents as digits of
    radix border+1 (base) and forder+1 (fiber), and ``_slot`` maps a key to
    its position.  No exponent in the box reaches its radix, so a smaller
    box's monomial has its key here, and a product's key is its factors' sum.
    """

    def __init__(self, nbase: int, border: int, nfiber: int, forder: int):
        self.nbase = nbase
        self.border = border
        self.nfiber = nfiber
        self.forder = forder
        self.bmons = _multi_indices(nbase, border)
        self.fmons = _multi_indices(nfiber, forder)
        self.nb = len(self.bmons)
        self.nf = len(self.fmons)
        self.ncoeff = self.nb * self.nf

        # flat monomial -> (base multi-index, fiber multi-index)
        self.mons = [(bm, fm) for bm in self.bmons for fm in self.fmons]
        self.factorials = np.array(
            [math.prod(map(math.factorial, bm + fm)) for bm, fm in self.mons], dtype=float
        )
        radix = [border + 1] * nbase + [forder + 1] * nfiber
        self._exps = np.array([bm + fm for bm, fm in self.mons], dtype=np.int64)
        self._place = np.cumprod([1] + radix[:-1])
        self._slot = np.full(math.prod(radix), -1, dtype=np.int64)
        self._slot[self._exps @ self._place] = np.arange(self.ncoeff)
        self._boxes: dict = {}
        self._dmaps: dict = {}
        self._plans: dict = {}
        self._seeds: dict = {}
        # (other, bvalid, fvalid) -> the mul_plan of this box times other's, so
        # that a product finds its plan in one lookup
        self._products: dict = {}

    def box(self, border: int, forder: int) -> tuple["JetSpec", np.ndarray]:
        """The spec of the (border, forder) box and the indices of its monomials here."""
        key = (border, forder)
        if key not in self._boxes:
            if border > self.border or forder > self.forder:
                raise ValueError(f"box ({border},{forder}) exceeds {self!r}")
            sub = jet_spec(self.nbase, border, self.nfiber, forder)
            self._boxes[key] = (sub, self._slot[sub._exps @ self._place])
        return self._boxes[key]

    def mul_plan(self, sa: tuple[int, int], sb: tuple[int, int]):
        """(spec, triplets, groups, (ii, jj, kk)) of a product valid here, on boxes ``sa``, ``sb``.

        A triplet (i, j, k) adds a[i] * b[j] to c[k], for each i of the ``sa``
        box and j of the ``sb`` box whose product stays in this spec's box,
        i-major and each in its box's order: the whole-box triplets with both
        factors in the stored boxes, in the same order, so every dropped term
        has an exactly zero factor.  Indices are local to the operands' boxes
        and to the product's box ``spec``.  A group (i, js, ks) holds one i's
        pairs; its k's are distinct, so it applies in one fancy-indexed
        update without changing any summation order.  ``ii``, ``jj``, ``kk``
        are the triplets' columns as int arrays, for one ``np.bincount``.
        """
        key = (sa, sb)
        if key not in self._plans:
            n = self.nbase
            a, b = (jet_spec(n, bo, self.nfiber, fo) for bo, fo in (sa, sb))
            spec = jet_spec(n, min(sa[0] + sb[0], self.border), self.nfiber,
                            min(sa[1] + sb[1], self.forder))
            (ab, af), (bb, bf) = ((e[:, :n].sum(axis=1), e[:, n:].sum(axis=1))
                                  for e in (a._exps, b._exps))
            keep = (ab[:, None] + bb <= self.border) & (af[:, None] + bf <= self.forder)
            ii, jj = np.nonzero(keep)
            kk = spec._slot[(a._exps @ spec._place)[ii] + (b._exps @ spec._place)[jj]]
            triplets = list(zip(ii.tolist(), jj.tolist(), kk.tolist()))
            ends = np.cumsum(keep.sum(axis=1)).tolist()
            groups = [(i, jj[s:e], kk[s:e])
                      for i, (s, e) in enumerate(zip([0] + ends[:-1], ends)) if e > s]
            self._plans[key] = (spec, triplets, groups, (ii, jj, kk))
        return self._plans[key]

    @property
    def mul_triplets(self) -> list[tuple[int, int, int]]:
        """The whole box's product triplets (``mul_plan`` of two whole-box operands)."""
        return self.mul_plan((self.border, self.forder), (self.border, self.forder))[1]

    @property
    def mul_groups(self) -> list:
        """The whole box's product groups (``mul_plan`` of two whole-box operands)."""
        return self.mul_plan((self.border, self.forder), (self.border, self.forder))[2]

    def seed(self, kind: str, var: int) -> tuple["JetSpec", int | None]:
        """(box, k) of the ``kind`` ('x' or 'y') seed of variable ``var``: its unit slot k in box.

        ``k`` is None where that kind has order 0 and the seed is a constant.
        """
        key = (kind, var)
        if key not in self._seeds:
            if kind not in ("x", "y"):
                raise ValueError(f"unknown variable kind {kind!r}")
            base = kind == "x"
            sub = self.box(*((min(self.border, 1), 0) if base else (0, min(self.forder, 1))))[0]
            k = None
            if sub.ncoeff > 1:
                unit = tuple(int(t == var) for t in range(self.nbase if base else self.nfiber))
                zero = (0,) * (self.nfiber if base else self.nbase)
                k = sub.index(*((unit, zero) if base else (zero, unit)))
            self._seeds[key] = (sub, k)
        return self._seeds[key]

    def dmap(self, var: int, base: bool) -> tuple["JetSpec", np.ndarray, np.ndarray]:
        """(spec, src, factor) of d/dx_var (``base``) or d/dy_var.

        The derivative lives on the box one order lower in that kind of
        variable, where (d_v f)_beta = (beta_v + 1) * f_{beta + e_v} with
        ``f_{beta + e_v} = c[src]``.
        """
        key = (var, base)
        if key not in self._dmaps:
            sub = jet_spec(self.nbase, self.border - base, self.nfiber,
                           self.forder - (not base))
            col = var if base else self.nbase + var
            up = sub._exps.copy()
            up[:, col] += 1
            self._dmaps[key] = (sub, self._slot[up @ self._place], sub._exps[:, col] + 1.0)
        return self._dmaps[key]

    def index(self, bmon: tuple[int, ...], fmon: tuple[int, ...]) -> int:
        """Position of the monomial (bmon, fmon); ``LookupError`` unless it lies in this box."""
        k = int(self._slot[np.dot((*bmon, *fmon), self._place)])
        if self.mons[k] != (tuple(bmon), tuple(fmon)):
            raise KeyError(f"monomial {bmon}+{fmon} is not in {self!r}")
        return k

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"JetSpec(nbase={self.nbase}, border={self.border}, "
            f"nfiber={self.nfiber}, forder={self.forder})"
        )


@dataclass
class Jet:
    """Truncated Taylor expansion that stores only its support box.

    ``c`` has shape ``(spec.ncoeff,) + leading_shape``.  ``bvalid`` and
    ``fvalid`` are the orders up to which coefficients are trustworthy;
    ``spec`` is the support box inside them, outside which every coefficient
    is exactly zero.  A jet built with a spec larger than its valid box
    keeps only the coefficients of the valid box.
    """

    spec: JetSpec
    c: np.ndarray
    bvalid: int
    fvalid: int
    # a jet is a value (its c is not written once it is shared), so every
    # quotient by it reuses one reciprocal: the three entries of g^-1 do
    _recip: "Jet | None" = field(default=None, init=False, repr=False, compare=False)

    # keep numpy from absorbing us into object arrays; reflected ops run here
    __array_ufunc__ = None

    def __post_init__(self):
        if self.spec.border > self.bvalid or self.spec.forder > self.fvalid:
            self.spec, self.c = self._cut(self.bvalid, self.fvalid)

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(spec: JetSpec, value, shape=()) -> "Jet":
        """A constant valid on ``spec``'s orders (it stores one coefficient)."""
        value = np.asarray(value, dtype=float)
        lead = np.broadcast_shapes(value.shape, shape)
        c = np.zeros((1,) + lead)
        c[0] = value
        return Jet(spec.box(0, 0)[0], c, spec.border, spec.forder)

    @staticmethod
    def variable(spec: JetSpec, kind: str, var: int, value) -> "Jet":
        """Seed jet for a base ('x') or fiber ('y') coordinate, valid on ``spec``'s orders."""
        sub, k = spec.seed(kind, var)
        value = np.asarray(value, dtype=float)
        c = np.zeros((sub.ncoeff,) + value.shape)
        c[0] = value
        if k is not None:
            c[k] = 1.0
        return Jet(sub, c, spec.border, spec.forder)

    # -- inspection ----------------------------------------------------
    @property
    def shape(self):
        return self.c.shape[1:]

    @property
    def valid_spec(self) -> JetSpec:
        """The spec of the valid box."""
        return jet_spec(self.spec.nbase, self.bvalid, self.spec.nfiber, self.fvalid)

    def value(self) -> np.ndarray:
        return self.c[0]

    def deriv(self, bmon: Sequence[int] = (), fmon: Sequence[int] = ()) -> np.ndarray:
        """Partial derivative value d^(bmon,fmon) f (not Taylor-normalized)."""
        bmon = tuple(bmon) if bmon else (0,) * self.spec.nbase
        fmon = tuple(fmon) if fmon else (0,) * self.spec.nfiber
        if sum(bmon) > self.bvalid or sum(fmon) > self.fvalid:
            raise JetOrderError(
                f"derivative {bmon}+{fmon} beyond valid orders "
                f"({self.bvalid},{self.fvalid})"
            )
        if sum(bmon) > self.spec.border or sum(fmon) > self.spec.forder:
            return np.zeros(self.shape)[()]
        k = self.spec.index(bmon, fmon)
        return self.c[k] * self.spec.factorials[k]

    def base_deriv(self, var: int) -> "Jet":
        """d/dx_var as a jet (base order drops by one)."""
        if self.bvalid < 1:
            raise JetOrderError("no base order left to differentiate")
        return self._differentiate(var, True)

    def fiber_deriv(self, var: int) -> "Jet":
        """d/dy_var as a jet (fiber order drops by one)."""
        if self.fvalid < 1:
            raise JetOrderError("no fiber order left to differentiate")
        return self._differentiate(var, False)

    def _differentiate(self, var: int, base: bool) -> "Jet":
        bvalid, fvalid = self.bvalid - base, self.fvalid - (not base)
        if (self.spec.border if base else self.spec.forder) == 0:
            valid = jet_spec(self.spec.nbase, bvalid, self.spec.nfiber, fvalid)
            return Jet.constant(valid, 0.0, self.shape)
        spec, src, fac = self.spec.dmap(var, base)
        return Jet(spec, self.c[src] * _lift(fac, self.c.ndim - 1), bvalid, fvalid)

    # -- arithmetic ----------------------------------------------------
    def _check_vars(self, other: "Jet") -> None:
        if (other.spec.nbase, other.spec.nfiber) != (self.spec.nbase, self.spec.nfiber):
            raise ValueError("jet spec mismatch")

    def _cut(self, bvalid: int, fvalid: int) -> tuple[JetSpec, np.ndarray]:
        """The stored box and coefficients cut to the (bvalid, fvalid) box; a copy only if cut."""
        if self.spec.border <= bvalid and self.spec.forder <= fvalid:
            return self.spec, self.c
        spec, idx = self.spec.box(min(self.spec.border, bvalid), min(self.spec.forder, fvalid))
        return spec, self.c[idx]

    def _combine(self, other, op) -> "Jet":
        """``op`` of the coefficients of both operands, zero-padded to the larger stored box."""
        if not isinstance(other, Jet):
            return self._shift(other, op, False)
        self._check_vars(other)
        bvalid, fvalid = min(self.bvalid, other.bvalid), min(self.fvalid, other.fvalid)
        (sa, ac), (sb, bc) = self._cut(bvalid, fvalid), other._cut(bvalid, fvalid)
        spec = jet_spec(sa.nbase, max(sa.border, sb.border), sa.nfiber, max(sa.forder, sb.forder))
        ndim = max(ac.ndim, bc.ndim) - 1
        c = op(_embed(sa, ac, spec, ndim), _embed(sb, bc, spec, ndim))
        return Jet(spec, c, bvalid, fvalid)

    def _shift(self, other, op, flip: bool) -> "Jet":
        """``op`` of this jet and a constant (its first operand if ``flip``).

        The constant sits in the value coefficient: the others are ``op`` of
        a coefficient and 0.0, which keeps the bits (signed zeros included)
        of ``op`` with the constant zero-padded to this jet's box.
        """
        v = np.asarray(other, dtype=float)
        c = self.c
        if v.ndim and v.shape != self.shape:  # a constant over more points than the jet
            lead = np.broadcast_shapes(self.shape, v.shape)
            c = np.broadcast_to(_lift(c, len(lead)), c.shape[:1] + lead)
        out = op(0.0, c) if flip else op(c, 0.0)
        out[0] = op(v, c[0]) if flip else op(c[0], v)
        return Jet(self.spec, out, self.bvalid, self.fvalid)

    def __add__(self, other):
        return self._combine(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rsub__(self, other):
        return self._shift(other, np.subtract, True)

    def __neg__(self):
        return Jet(self.spec, -self.c, self.bvalid, self.fvalid)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            other = np.asarray(other, dtype=float)
            return Jet(self.spec, _lift(self.c, other.ndim) * other, self.bvalid, self.fvalid)
        # The valid spec's triplets restricted to the stored boxes drop only
        # terms with an exactly zero factor and keep the others in order, so
        # each coefficient is summed exactly as a product over the valid box.
        # All three paths add each coefficient's terms in triplet order,
        # starting from 0.0, so they agree bit for bit.
        self._check_vars(other)
        # conditional expressions, not min(): at one point each call counts
        bvalid = self.bvalid if self.bvalid < other.bvalid else other.bvalid
        fvalid = self.fvalid if self.fvalid < other.fvalid else other.fvalid
        (sa, ac), (sb, bc) = self._cut(bvalid, fvalid), other._cut(bvalid, fvalid)
        plan = sa._products.get((sb, bvalid, fvalid))
        if plan is None:
            valid = jet_spec(sa.nbase, bvalid, sa.nfiber, fvalid)
            plan = valid.mul_plan((sa.border, sa.forder), (sb.border, sb.forder))
            sa._products[sb, bvalid, fvalid] = plan
        spec, triplets, groups, (ii, jj, kk) = plan
        lead = ac.shape[1:]
        if bc.shape[1:] != lead:
            ndim = max(ac.ndim, bc.ndim) - 1
            ac, bc = _lift(ac, ndim), _lift(bc, ndim)
            lead = np.broadcast_shapes(ac.shape[1:], bc.shape[1:])
            ac, bc = (np.broadcast_to(m, m.shape[:1] + lead) for m in (ac, bc))
        points = math.prod(lead)
        if points == 1:
            # bincount adds each bin's weights in input order, starting from 0.0
            if lead:  # unit axes: flat operands, and the axes back on the result
                ac, bc = ac.reshape(-1), bc.reshape(-1)
            out = np.bincount(kk, ac[ii] * bc[jj], spec.ncoeff)
            return Jet(spec, out.reshape((spec.ncoeff,) + lead), bvalid, fvalid)
        out = np.zeros((spec.ncoeff,) + lead)
        if points < _GROUPED_MAX_POINTS:
            for i, js, ks in groups:
                out[ks] += ac[i] * bc[js]
        else:
            for i, j, k in triplets:
                out[k] += ac[i] * bc[j]
        return Jet(spec, out, bvalid, fvalid)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / np.asarray(other, dtype=float))
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            p = int(p)
            if p < 0:
                return (self._reciprocal()) ** (-p)
            out = Jet.constant(self.valid_spec, 1.0, self.shape)
            base = self
            while p:
                if p & 1:
                    out = out * base
                p >>= 1
                if p:
                    base = base * base
            return out
        return power_(self, float(p))

    # -- series composition --------------------------------------------
    def _nilpotent(self):
        n = self.c.copy()
        n[0] = 0.0
        return Jet(self.spec, n, self.bvalid, self.fvalid)

    def compose(self, series: np.ndarray) -> "Jet":
        """Evaluate sum_j series[j] * (self - value)^j by Horner.

        ``series[j]`` must be f^(j)(value)/j!; leading axis j, remaining axes
        broadcast against the jet's leading shape.
        """
        nil = self._nilpotent()
        m = min(series.shape[0] - 1, self._series_orders())
        out = Jet.constant(self.valid_spec, series[m], self.shape)
        for j in range(m - 1, -1, -1):
            out = out * nil
            out.c[0] += series[j]
        return out

    def _series_orders(self) -> int:
        """The last power of the nilpotent part that can be nonzero in the valid box.

        A kind of variable the jet does not store adds no order.  A jet that
        stores its value alone still takes one step, so that its value comes
        out as 0.0 + series[0], signed zeros included, as from a longer series.
        """
        orders = self.bvalid + self.fvalid
        stored = self.bvalid * (self.spec.border > 0) + self.fvalid * (self.spec.forder > 0)
        return min(orders, max(stored, 1))

    def _reciprocal(self):
        if self._recip is None:
            v = self.value()
            m = self._series_orders()
            series = np.empty((m + 1,) + np.shape(v))
            for j in range(m + 1):
                series[j] = (-1.0) ** j * v ** (-(j + 1))
            self._recip = self.compose(series)
        return self._recip


def _embed(box: JetSpec, c: np.ndarray, spec: JetSpec, ndim: int) -> np.ndarray:
    """Coefficients ``c`` on ``box`` zero-padded to the box ``spec``, leads lifted to ``ndim``."""
    if box is spec:
        return _lift(c, ndim)
    out = np.zeros((spec.ncoeff,) + c.shape[1:])
    out[spec.box(box.border, box.forder)[1]] = c
    return _lift(out, ndim)


def _pow_series(v: np.ndarray, p: float, m: int) -> np.ndarray:
    """Coefficients binom(p, j) * v^(p-j) for j = 0..m."""
    out = np.empty((m + 1,) + v.shape)
    coef = 1.0
    for j in range(m + 1):
        out[j] = coef * v ** (p - j)
        coef *= (p - j) / (j + 1)
    return out


def power_(x, p: float):
    if not isinstance(x, Jet):
        return np.power(x, p)
    return x.compose(_pow_series(x.value(), p, x._series_orders()))


def sqrt_(x):
    if not isinstance(x, Jet):
        return np.sqrt(x)
    return x.compose(_pow_series(x.value(), 0.5, x._series_orders()))


def exp_(x):
    if not isinstance(x, Jet):
        return np.exp(x)
    v = np.exp(x.value())
    m = x._series_orders()
    series = np.empty((m + 1,) + v.shape)
    f = 1.0
    for j in range(m + 1):
        series[j] = v / f
        f *= j + 1
    return x.compose(series)


def log_(x):
    if not isinstance(x, Jet):
        return np.log(x)
    v = x.value()
    m = x._series_orders()
    series = np.empty((m + 1,) + v.shape)
    series[0] = np.log(v)
    for j in range(1, m + 1):
        series[j] = (-1.0) ** (j + 1) / (j * v**j)
    return x.compose(series)


def _trig_series(v: np.ndarray, m: int, start_sin: bool) -> np.ndarray:
    s, c = np.sin(v), np.cos(v)
    cycle = [s, c, -s, -c] if start_sin else [c, -s, -c, s]
    out = np.empty((m + 1,) + v.shape)
    f = 1.0
    for j in range(m + 1):
        out[j] = cycle[j % 4] / f
        f *= j + 1
    return out


def sin_(x):
    if not isinstance(x, Jet):
        return np.sin(x)
    return x.compose(_trig_series(x.value(), x._series_orders(), True))


def cos_(x):
    if not isinstance(x, Jet):
        return np.cos(x)
    return x.compose(_trig_series(x.value(), x._series_orders(), False))


def atan_(x):
    if not isinstance(x, Jet):
        return np.arctan(x)
    v = x.value()
    m = x._series_orders()
    # Taylor of arctan at v by integrating the reciprocal series of 1+(v+s)^2.
    g = np.zeros((max(m, 2) + 1,) + v.shape)
    g[0], g[1], g[2] = 1.0 + v * v, 2.0 * v, 1.0
    r = np.empty((m + 1,) + v.shape)
    r[0] = 1.0 / g[0]
    for k in range(1, m + 1):
        acc = np.zeros_like(v)
        for i in range(1, min(k, 2) + 1):
            acc = acc + g[i] * r[k - i]
        r[k] = -acc / g[0]
    series = np.empty((m + 1,) + v.shape)
    series[0] = np.arctan(v)
    for j in range(1, m + 1):
        series[j] = r[j - 1] / j
    return x.compose(series)


def jet_variables(
    x: np.ndarray,
    y: np.ndarray,
    border: int,
    forder: int,
) -> tuple[list, list]:
    """Seed joint (x, y) jets at points.

    ``x``/``y`` have shape (..., n).  With ``border == 0`` the x's are plain
    arrays (constants from the jet algebra's point of view).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if border > 0:
        spec = jet_spec(n, border, n, forder)
        xs = [Jet.variable(spec, "x", a, x[..., a]) for a in range(n)]
    else:
        spec = jet_spec(0, 0, n, forder)
        xs = [x[..., a] for a in range(n)]
    ys = [Jet.variable(spec, "y", a, y[..., a]) for a in range(n)]
    return xs, ys
