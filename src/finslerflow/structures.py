"""Finsler structures, their jets of F^2, and sampled validity checks.

A :class:`FinslerStructure` wraps an evaluator of F^2(x, y) written in the
generic scalar algebra of :mod:`finslerflow.jets` (so the same closure
evaluates on floats, arrays, and jets).  :func:`f2_jets` gives its joint
Taylor jets, exact in fiber and base: ``f2`` is evaluated on jets in x as
well as y, so it must use :mod:`finslerflow.jets` operations in both, and
one that does not raises :class:`DomainError`.  The pointwise tensors
built from them (g, Cartan, mean Cartan, spray, ...) are read off
:class:`finslerflow.connections.PointAssembly`; the Liouville density is
:func:`finslerflow.measure.liouville_density`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .jets import Jet, jet_variables, sqrt_

__all__ = [
    "Chart",
    "FinslerStructure",
    "SingularMetricError",
    "DomainError",
    "JetRequest",
    "fiber_jet",
    "f2_jets",
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
    """A point off the chart, y = 0, or an ``f2`` that cannot be evaluated on jets."""


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


def _check_chart(fs: FinslerStructure, x: np.ndarray):
    inside = fs.chart.contains(x)
    if not inside.all():
        k = np.unravel_index(np.argmin(inside), inside.shape)
        raise DomainError(
            f"{fs.name}: x = {x[k].tolist()} lies outside the chart {fs.chart.describe()}"
            + (f" (point {tuple(map(int, k))})" if k else "")
        )


def f2_jets(fs: FinslerStructure, x, y, forder: int, border: int = 0) -> Jet:
    """Joint Taylor jets of F^2 at (x, y), exact in fiber and base.

    ``fs.f2`` is evaluated on jets in x and y.  Raises :class:`DomainError`
    for y = 0, for x off the chart, and when ``f2`` is not jet-safe (it
    calls a numpy function on a jet instead of a :mod:`finslerflow.jets`
    operation).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_slit(y)
    _check_chart(fs, x)
    xs, ys = jet_variables(x, y, border, forder)
    try:
        return fs.f2(xs, ys)
    except TypeError as exc:
        raise DomainError(
            f"{fs.name}: f2 must use finslerflow.jets operations in x and y ({exc})"
        ) from exc


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


def fiber_jet(fs: FinslerStructure, x, y, req: JetRequest):
    """Mixed partial of F (or F^2) at (x, y); fiber part exact via jets."""
    req.validate(fs.n)
    kb, kf = sum(req.base), sum(req.fiber)
    j = f2_jets(fs, x, y, forder=kf, border=kb)
    if not req.of_f2:
        j = sqrt_(j)
    return j.deriv(bmon=req.base if kb else (), fmon=req.fiber)


# ---------------------------------------------------------------------------
# validity checks (sampled)
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11)


def halton(count: int, dims: int) -> np.ndarray:
    """Low-discrepancy Halton points in [0,1)^dims (deterministic), from index 21 on."""
    out = np.empty((count, dims))
    for d in range(dims):
        b = _PRIMES[d]
        for i in range(count):
            k = i + 21
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
    from .connections import PointAssembly  # connections imports this module

    x, y = sample_points(fs, sample_count)
    pa = PointAssembly(fs, x, y, forder=3, border=0)
    F2v = pa.values(pa.F2)

    # (a) Euler / 1-homogeneity of F: y^i d_i F^2 = 2 F^2
    dF2 = pa.values(pa.fiber(pa.F2, 2))
    euler = np.zeros_like(F2v)
    for i in range(fs.n):
        euler += y[:, i] * dF2[..., i]
    res_a = float(np.max(np.abs(euler - 2.0 * F2v) / (2.0 * F2v)))

    g = pa.values(pa.g)
    C = pa.values(pa.cartan)

    # (b) zero-homogeneity of g: y^k d g_ij/dy^k = 2 C_ijk y^k
    res_b = float(np.max(np.abs(2.0 * np.einsum("...ijk,...k->...ij", C, y))))

    # (c) positivity margin of g
    min_eig = pa.min_eig_g

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
