"""Finsler structures, the fundamental tensor, Cartan torsion, validity checks.

A :class:`FinslerStructure` wraps an evaluator of F^2(x, y) written in the
generic scalar algebra of :mod:`finslerflow.jets` (so the same closure
evaluates on floats, arrays, and jets).  All pointwise tensors here are
obtained from exact fiber jets; base derivatives are exact when the
structure supports base jets (closed-form x-dependence) and 4th-order
finite differences otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grids import FD4_FIRST, FD4_SECOND
from .jets import Jet, jet_spec, jet_variables

__all__ = [
    "Chart",
    "FinslerStructure",
    "SingularMetricError",
    "DomainError",
    "JetRequest",
    "fiber_jet",
    "f2_jets",
    "fundamental_tensor",
    "cartan_tensor",
    "mean_cartan",
    "validate_structure",
    "ValidityReport",
    "halton",
]


class SingularMetricError(ArithmeticError):
    """The fundamental tensor failed to be positive definite."""

    def __init__(self, min_eig: float, where=None):
        self.min_eig = float(min_eig)
        self.where = where
        msg = f"singular fundamental tensor (min eigenvalue {self.min_eig:.3e})"
        if where is not None:
            msg += f" at {where}"
        super().__init__(msg)


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    """Chart metadata: periodic torus, open disk, or plane patch."""

    kind: str  # 'torus' | 'disk' | 'plane'
    lengths: tuple[float, ...] | None = None  # torus axis lengths
    bound: float | None = None  # |x| < bound for disk/plane patches

    @property
    def periodic(self) -> bool:
        return self.kind == "torus"

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "torus":
            return np.ones(x.shape[:-1], dtype=bool)
        r = np.sqrt(np.sum(x * x, axis=-1))
        return r < (self.bound if self.bound is not None else np.inf)

    def describe(self) -> str:
        if self.kind == "torus":
            ls = "x".join(f"{L:g}" for L in (self.lengths or ()))
            return f"torus[{ls}]"
        return f"{self.kind}[|x|<{self.bound:g}]"


@dataclass
class FinslerStructure:
    """Evaluator of a Finsler structure on a chart.

    ``f2`` computes F^2 from sequences of per-component x and y scalars
    using the generic operations of :mod:`finslerflow.jets`; it must be
    1-homogeneous in y after the square root.
    """

    n: int
    name: str
    chart: Chart
    f2: Callable
    mode: str = "analytic"  # 'analytic' | 'grid'
    supports_base_jets: bool = True
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n != 2:
            raise ValueError(f"{self.name}: structures are 2-dimensional, got n = {self.n}")

    def F2(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        xs = [x[..., a] for a in range(self.n)]
        ys = [y[..., a] for a in range(self.n)]
        return self.f2(xs, ys)

    def F(self, x, y):
        return np.sqrt(self.F2(x, y))


# ---------------------------------------------------------------------------
# jet providers
# ---------------------------------------------------------------------------

def _check_slit(y: np.ndarray):
    if np.any(np.sum(np.asarray(y, dtype=float) ** 2, axis=-1) == 0.0):
        raise DomainError("slit tangent bundle only: y = 0 is excluded")


def f2_jets(
    fs: FinslerStructure,
    x,
    y,
    forder: int,
    border: int = 0,
    base_mode: str = "auto",
    fd_step: float | None = None,
) -> Jet:
    """Joint Taylor jets of F^2 at (x, y).

    With ``border > 0`` the base coefficients come either from evaluating the
    structure on base jets (analytic mode) or from 4th-order finite
    differences with step ``fd_step`` (default 1e-3).
    """
    if fs.mode != "analytic":
        raise DomainError("pointwise jets need an analytic-mode structure")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_slit(y)
    if base_mode == "auto":
        base_mode = "analytic" if fs.supports_base_jets else "fd"
    if border == 0:
        xs, ys = jet_variables(x, y, 0, forder)
        return fs.f2(xs, ys)
    if base_mode == "analytic":
        if not fs.supports_base_jets:
            raise DomainError(f"{fs.name} does not provide analytic base partials")
        xs, ys = jet_variables(x, y, border, forder)
        return fs.f2(xs, ys)
    if base_mode != "fd":
        raise ValueError(f"unknown base mode {base_mode!r}")
    return _f2_jets_fd(fs, x, y, forder, border, fd_step or 1e-3)


def _fiber_only(fs, x, y, forder) -> Jet:
    xs, ys = jet_variables(x, y, 0, forder)
    return fs.f2(xs, ys)


def _f2_jets_fd(fs, x, y, forder, border, h) -> Jet:
    """Assemble joint jets with FD base coefficients from fiber-only jets."""
    n = fs.n
    spec = jet_spec(n, border, n, forder)
    lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    out = np.zeros((spec.ncoeff,) + lead)
    fspec = jet_spec(0, 0, n, forder)

    def station(dx):
        return _fiber_only(fs, x + np.asarray(dx) * h, y, forder).c

    center = station((0.0,) * n)
    zero_b = (0,) * n

    def put(bmon, coeffs, bfact):
        for fi, fmon in enumerate(fspec.fmons):
            out[spec.index(bmon, fmon)] = coeffs[fi] / bfact

    put(zero_b, center, 1.0)
    if border >= 1:
        for a in range(n):
            acc = np.zeros_like(center)
            for s, w in FD4_FIRST.items():
                dx = [0.0] * n
                dx[a] = s
                acc += w * station(dx)
            bmon = tuple(1 if t == a else 0 for t in range(n))
            put(bmon, acc / h, 1.0)
    if border >= 2:
        for a in range(n):
            acc = np.zeros_like(center)
            for s, w in FD4_SECOND.items():
                if s == 0:
                    acc += w * center
                else:
                    dx = [0.0] * n
                    dx[a] = s
                    acc += w * station(dx)
            bmon = tuple(2 if t == a else 0 for t in range(n))
            put(bmon, acc / h**2, 2.0)
        for a in range(n):
            for b in range(a + 1, n):
                acc = np.zeros_like(center)
                for sa, wa in FD4_FIRST.items():
                    for sb, wb in FD4_FIRST.items():
                        dx = [0.0] * n
                        dx[a], dx[b] = sa, sb
                        acc += wa * wb * station(dx)
                bmon = tuple(
                    1 if t in (a, b) else 0 for t in range(n)
                )
                put(bmon, acc / h**2, 1.0)
    return Jet(spec, out, border, forder)


# ---------------------------------------------------------------------------
# public jet requests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JetRequest:
    """A mixed partial-derivative request: base order <= 2, fiber <= 4, total <= 5."""

    base: tuple[int, ...]
    fiber: tuple[int, ...]
    of_f2: bool = False

    def validate(self, n: int):
        if len(self.base) != n or len(self.fiber) != n:
            raise ValueError("multi-index length does not match dimension")
        kb, kf = sum(self.base), sum(self.fiber)
        if kb > 2 or kf > 4 or kb + kf > 5:
            raise ValueError(
                f"jet request out of bounds: base order {kb} (max 2), "
                f"fiber order {kf} (max 4), total {kb + kf} (max 5)"
            )


def fiber_jet(fs: FinslerStructure, x, y, req: JetRequest, base_mode: str = "auto"):
    """Mixed partial of F (or F^2) at (x, y); fiber part exact via jets."""
    req.validate(fs.n)
    kb, kf = sum(req.base), sum(req.fiber)
    j = f2_jets(fs, x, y, forder=kf, border=kb, base_mode=base_mode)
    if not req.of_f2:
        from .jets import sqrt_

        j = sqrt_(j)
    return j.deriv(bmon=req.base if kb else (), fmon=req.fiber)


# ---------------------------------------------------------------------------
# fundamental and Cartan tensors
# ---------------------------------------------------------------------------

def _metric_from_jets(F2: Jet, n: int) -> np.ndarray:
    g = np.empty(F2.shape + (n, n))
    for idx in np.ndindex(n, n):
        g[(...,) + idx] = 0.5 * F2.deriv(fmon=tuple(idx.count(t) for t in range(n)))
    return g


def _cartan_from_jets(F2: Jet, n: int) -> np.ndarray:
    C = np.empty(F2.shape + (n, n, n))
    for idx in np.ndindex(n, n, n):
        C[(...,) + idx] = 0.25 * F2.deriv(fmon=tuple(idx.count(t) for t in range(n)))
    return C


def _check_spd(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of g; raises at the node of the smallest one unless g is SPD."""
    eig = np.linalg.eigvalsh(g)
    mn = float(np.min(eig))
    if mn <= 0.0:
        low = eig[..., 0]
        raise SingularMetricError(mn, where=np.unravel_index(np.argmin(low), low.shape))
    return eig


def fundamental_tensor(fs: FinslerStructure, x, y, base_mode: str = "auto") -> np.ndarray:
    """g_ij = 1/2 d^2 F^2 / dy^i dy^j, shape (..., n, n); raises if not SPD."""
    F2 = f2_jets(fs, x, y, forder=2, base_mode=base_mode)
    g = _metric_from_jets(F2, fs.n)
    _check_spd(g)
    return g


def cartan_tensor(fs: FinslerStructure, x, y, base_mode: str = "auto") -> np.ndarray:
    """C_ijk = 1/4 d^3 F^2 / dy^i dy^j dy^k, totally symmetric, (..., n, n, n)."""
    n = fs.n
    F2 = f2_jets(fs, x, y, forder=3, base_mode=base_mode)
    _check_spd(_metric_from_jets(F2, n))
    return _cartan_from_jets(F2, n)


def mean_cartan(fs: FinslerStructure, x, y, base_mode: str = "auto") -> np.ndarray:
    """C_k = g^{ij} C_ijk, a (-1)-homogeneous covector."""
    g = fundamental_tensor(fs, x, y, base_mode)
    C = cartan_tensor(fs, x, y, base_mode)
    return np.einsum("...ij,...ijk->...k", np.linalg.inv(g), C)


# ---------------------------------------------------------------------------
# validity checks (sampled)
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11)


def halton(count: int, dims: int, skip: int = 20) -> np.ndarray:
    """Low-discrepancy Halton points in [0,1)^dims (deterministic)."""
    out = np.empty((count, dims))
    for d in range(dims):
        b = _PRIMES[d]
        for i in range(count):
            k = i + skip + 1
            f, r = 1.0, 0.0
            while k > 0:
                f /= b
                r += f * (k % b)
                k //= b
            out[i, d] = r
    return out


@dataclass
class ValidityReport:
    checks: dict[str, tuple[bool, float]]
    samples: int

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def worst(self, name: str) -> float:
        return self.checks[name][1]

    def summary(self) -> str:
        lines = []
        for name, (ok, worst) in self.checks.items():
            lines.append(f"{'PASS' if ok else 'FAIL'}  {name:28s} worst={worst:.3e}")
        return "\n".join(lines)


def sample_points(fs: FinslerStructure, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-random (x, y) samples over chart x fiber, |y| = 1."""
    n = fs.n
    u = halton(count, 2 * n - 1)
    if fs.chart.kind == "torus":
        L = np.asarray(fs.chart.lengths)
        x = u[:, :n] * L
    else:
        # stay inside 80% of the patch radius
        r = (fs.chart.bound or 1.0) * 0.8 * np.sqrt(u[:, 0])
        phi = 2.0 * np.pi * u[:, 1]
        x = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
    th = 2.0 * np.pi * u[:, n:]
    y = np.concatenate([np.cos(th), np.sin(th)], axis=-1)
    return x, y


def validate_structure(
    fs: FinslerStructure,
    sample_count: int = 64,
    tol: float = 1e-8,
    tol_positivity: float = 1e-6,
) -> ValidityReport:
    """Sampled validity checks: homogeneity, positivity, integrability.

    Failures are reported, never raised.
    """
    if sample_count < 10:
        raise ValueError("need at least 10 samples")
    n = fs.n
    x, y = sample_points(fs, sample_count)
    F2 = f2_jets(fs, x, y, forder=3)
    F2v = F2.value()
    Fv = np.sqrt(F2v)

    # (a) Euler / 1-homogeneity of F: y^i d_i F^2 = 2 F^2
    euler = np.zeros_like(F2v)
    for i in range(n):
        euler += y[:, i] * F2.deriv(fmon=tuple(1 if t == i else 0 for t in range(n)))
    res_a = float(np.max(np.abs(euler - 2.0 * F2v) / (2.0 * F2v)))

    g = _metric_from_jets(F2, n)
    C = _cartan_from_jets(F2, n)

    # (b) zero-homogeneity of g: y^k d g_ij/dy^k = 2 C_ijk y^k
    res_b = float(np.max(np.abs(2.0 * np.einsum("...ijk,...k->...ij", C, y))))

    # (c) positivity margin of g
    eig = np.linalg.eigvalsh(g)
    min_eig = float(np.min(eig))

    # (d) total symmetry of d_k g_ij (integrability)
    sym = np.abs(C - np.swapaxes(C, -1, -2)) + np.abs(C - np.swapaxes(C, -2, -3))
    res_d = float(np.max(sym))

    checks = {
        "F 1-homogeneity (Euler)": (res_a <= tol, res_a),
        "g 0-homogeneity": (res_b <= max(tol, 1e-9 * float(np.max(np.abs(g)))), res_b),
        "g positive definite": (min_eig > tol_positivity, min_eig),
        "Cartan total symmetry": (res_d <= tol, res_d),
    }
    return ValidityReport(checks=checks, samples=sample_count)
