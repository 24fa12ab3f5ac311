"""Tangent vectors of the space of Finsler metrics and variation identities.

A variation h is a plain (N1, N2, Ntheta, 2, 2) array of h_ij on the grid.
The constructors realize it from metric families (Randers-parameter paths,
conformal paths), conformal rescalings and Lie derivatives, so membership in
the tangent space (zero-homogeneity, total symmetry of the fiber derivative)
holds by construction; ``membership_residuals`` measures it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import contract
from .fields import GridStructure, horizontal_cov_deriv
from .measure import global_inner, pair_inner
from .structures import FinslerStructure, check_positive_finite

__all__ = [
    "membership_residuals",
    "conformal_variation",
    "lie_derivative_metric",
    "divergence_delta",
    "codifferential",
    "trace_split",
    "adjointness_residual",
    "MetricFamily",
    "randers_family",
    "conformal_family",
    "family_variation",
    "variation_residuals",
    "VariationReport",
]


def membership_residuals(h: np.ndarray, gs: GridStructure) -> tuple[float, float]:
    """Residuals of y^k d_k h_ij = 0 and of the total symmetry of d_k h_ij.

    Both are maxima over the grid relative to 1 + max|h|, returned as
    (zero_homogeneity, symmetry).
    """
    dh = gs.fiber(h, 0)  # (..., i, j, k)
    scale = 1.0 + float(np.max(np.abs(h)))
    zh = float(np.max(np.abs(contract("...ijk,...k->...ij", dh, gs.y)))) / scale
    sym = (
        np.abs(dh - np.swapaxes(dh, -1, -2))
        + np.abs(dh - np.swapaxes(dh, -2, -3))
    )
    return zh, float(np.max(sym)) / scale


def conformal_variation(k_fun: Callable, gs: GridStructure) -> np.ndarray:
    """h = k(x) g: the pointwise-conformal tangent direction."""
    kx = np.asarray(k_fun(gs.x_nodes), dtype=float)
    return kx[..., None, None, None] * gs.g


def _vector_field(X, gs: GridStructure) -> np.ndarray:
    """Sample a base vector field on the grid, broadcast over the fiber."""
    if callable(X):
        Xv = np.asarray(X(gs.x_nodes), dtype=float)  # (N1, N2, 2)
    else:
        Xv = np.asarray(X, dtype=float)
    if Xv.shape == gs.bgrid.shape + (2,):
        Xv = np.broadcast_to(Xv[:, :, None, :], gs.F2.shape + (2,)).copy()
    return Xv


def lie_derivative_metric(X, gs: GridStructure) -> np.ndarray:
    """(L_X^ g)_ij = nabla_i X_j + nabla_j X_i + 2 (nabla_0 X^k) C_kij.

    ``X`` is a vector field on the base (callable of the node array or a
    sampled array); X^ is its complete lift.
    """
    Xv = _vector_field(X, gs)
    nabX = horizontal_cov_deriv(Xv, gs, (1, 0))  # (..., k, i) = nabla_i X^k
    low = contract("...jk,...ki->...ij", gs.g, nabX)  # nabla_i X_j
    nab0X = contract("...ki,...i->...k", nabX, gs.y)  # nabla_0 X^k at y = e
    return low + np.swapaxes(low, -1, -2) + 2.0 * contract("...k,...kij->...ij", nab0X, gs.cartan)


def divergence_delta(h: np.ndarray, gs: GridStructure) -> np.ndarray:
    """Adjoint of the Lie-derivative operator:

    (delta h)_k = -(nabla^i h_ik - h_kj nabla_0 C^j
                    + (nabla_0 C_kij) h^{ij} + C_kij nabla_0 h^{ij}).
    """
    gi = gs.ginv
    # nabla^i h_ik
    nabh = horizontal_cov_deriv(h, gs, (0, 2))  # (...,i,k,m)
    div = contract("...im,...ikm->...k", gi, nabh)
    # h_kj nabla_0 C^j
    t2 = contract("...kj,...j->...k", h, gs.nabla0_mean_cartan)
    # (nabla_0 C_kij) h^{ij}
    hup = contract("...ia,...jb,...ab->...ij", gi, gi, h)
    t3 = contract("...kij,...ij->...k", gs.nabla0_cartan, hup)
    # C_kij nabla_0 h^{ij}: metric compatibility lets nabla_0 act on h then raise
    nab0h = contract("...ikm,...m->...ik", nabh, gs.y)
    nab0hup = contract("...ia,...jb,...ab->...ij", gi, gi, nab0h)
    t4 = contract("...kij,...ij->...k", gs.cartan, nab0hup)
    return -(div - t2 + t3 + t4)


def codifferential(
    a: np.ndarray, gs: GridStructure, kind: str, homogeneity: int = 0
) -> np.ndarray:
    """Codifferential of a ``homogeneity``-homogeneous 1-form a_i on SM.

    horizontal: delta a = -(nabla^j a_j - a_j nabla_0 C^j)
    vertical:   delta b = -F g^{ij} db_i/dy^j
    """
    if a.ndim != 4:
        raise ValueError("codifferential expects a 1-form field")
    gi = gs.ginv
    if kind == "horizontal":
        nab = horizontal_cov_deriv(a, gs, (0, 1), homogeneity)  # (..., j, m)
        div = contract("...jm,...jm->...", gi, nab)
        corr = contract("...j,...j->...", a, gs.nabla0_mean_cartan)
        return -(div - corr)
    if kind == "vertical":
        da = gs.fiber(a, homogeneity)  # (..., i, j)
        return -gs.F * contract("...ij,...ij->...", gi, da)
    raise ValueError(f"unknown codifferential kind {kind!r}")


def trace_split(h: np.ndarray, gs: GridStructure) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise decomposition h = (tr_g h / n) g + h_perp with tr_g h_perp = 0."""
    tr = contract("...ij,...ij->...", gs.ginv, h)
    conf = (tr / 2.0)[..., None, None] * gs.g
    return conf, h - conf


def adjointness_residual(X, h: np.ndarray, gs: GridStructure) -> float:
    """|1/2 (L_X^ g, h) - (X, delta h)| / (1 + |(X, delta h)|)."""
    lhs = 0.5 * global_inner(lie_derivative_metric(X, gs), h, gs)
    rhs = pair_inner(_vector_field(X, gs), divergence_delta(h, gs), gs)
    return abs(lhs - rhs) / (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# metric families (curves in the space of Finsler metrics)
# ---------------------------------------------------------------------------

@dataclass
class MetricFamily:
    """One-parameter family t -> FinslerStructure, valid for |t| <= t_max.

    ``k_fun`` is set for a conformal family F_t = exp(t k) F_0 only."""

    make: Callable[[float], FinslerStructure]
    t_max: float = 1e-2
    k_fun: Callable | None = None

    def structure(self, t: float) -> FinslerStructure:
        if abs(t) > self.t_max:
            raise ValueError(f"family parameter {t} beyond validity {self.t_max}")
        return self.make(t)


def conformal_family(fs: FinslerStructure, k_fun: Callable, t_max: float = 0.5) -> MetricFamily:
    """F_t = exp(t k(x)) F_0, i.e. g_t = exp(2 t k) g_0."""
    from .jets import exp_

    def make(t: float) -> FinslerStructure:
        def f2(xs, ys):
            base = fs.f2(xs, ys)
            return exp_(2.0 * t * k_fun(xs)) * base

        return FinslerStructure(
            n=fs.n, name=f"{fs.name}+conformal(t={t:g})", chart=fs.chart, f2=f2
        )

    return MetricFamily(make=make, t_max=t_max, k_fun=k_fun)


def randers_family(
    fs: FinslerStructure, db_fun: Callable, t_max: float = 0.1
) -> MetricFamily:
    """F_t = F_0 + t * db(x) . y (Randers-type drift path)."""
    from .jets import sqrt_

    def make(t: float) -> FinslerStructure:
        def f2(xs, ys):
            F = sqrt_(fs.f2(xs, ys))
            db = db_fun(xs)
            F = F + t * (db[0] * ys[0] + db[1] * ys[1])
            return F * F

        return FinslerStructure(
            n=fs.n, name=f"{fs.name}+randers(t={t:g})", chart=fs.chart, f2=f2
        )

    return MetricFamily(make=make, t_max=t_max)


def _centred(family: MetricFamily, gs0: GridStructure, t_step: float):
    """The family's grid structures at t = +t_step, -t_step and h = dg_t/dt by
    centered differencing of their metrics; raises unless t_step is positive and finite."""
    check_positive_finite("t_step", t_step)
    gp = GridStructure(family.structure(+t_step), gs0.bgrid, gs0.fgrid, gs0.base_mode)
    gm = GridStructure(family.structure(-t_step), gs0.bgrid, gs0.fgrid, gs0.base_mode)
    return gp, gm, (gp.g - gm.g) / (2.0 * t_step)


def family_variation(
    family: MetricFamily, gs0: GridStructure, t_step: float = 1e-4
) -> np.ndarray:
    """h = d g_t / dt |_0 by centered differencing of the family metric.

    Raises ``ValueError`` unless ``t_step`` is positive and finite.
    """
    return _centred(family, gs0, t_step)[2]


@dataclass
class VariationReport:
    """Residuals of the first-variation identities along a metric family."""

    residuals: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def worst(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    def summary(self) -> str:
        lines = [f"{k:34s} {v:.3e}" for k, v in sorted(self.residuals.items())]
        return "\n".join(lines)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(b))


def variation_residuals(
    family: MetricFamily,
    gs0: GridStructure,
    t_step: float = 1e-4,
) -> VariationReport:
    """Check the first-variation identities against centered differences.

    (a) dV/dt against both closed forms 1/2 int tr(h) eta = n/2 int h(u,u) eta;
    (b) d eta/dt nodewise against (g^{ij} - (n/2) u^i u^j) h_ij eta;
    (c) dG^i_k/dt against the covariant-derivative expression (with the spray
        variation G'^s itself taken by centered differences);
    (d) for conformal families (``k_fun`` set), dI/dt against int H(u,u) tr_g(h) eta.

    Raises ``ValueError`` unless ``t_step`` is positive and finite.
    """
    rep = VariationReport()
    n = 2
    gp, gm, h = _centred(family, gs0, t_step)
    zh, sym = membership_residuals(h, gs0)
    rep.values["membership_zero_homog"] = zh
    rep.values["membership_symmetry"] = sym

    gi = gs0.ginv
    e = gs0.y
    tr_h = contract("...ij,...ij->...", gi, h)
    huu_dir = contract("...ij,...i,...j->...", h, e, e) / gs0.F2  # h(u,u)

    # (a) volume variation, both closed forms
    dV = (gp.volume - gm.volume) / (2.0 * t_step)
    closed1 = 0.5 * gs0.integrate(tr_h)
    closed2 = (n / 2.0) * gs0.integrate(huu_dir)
    rep.residuals["V'(FD) vs 1/2 int tr(h)"] = _rel(dV, closed1)
    rep.residuals["V'(FD) vs n/2 int h(u,u)"] = _rel(dV, closed2)
    rep.residuals["tr-form vs h(u,u)-form"] = _rel(closed1, closed2)
    rep.values["dV_dt"] = dV

    # (b) measure variation nodewise
    drho = (gp.rho - gm.rho) / (2.0 * t_step)
    pref = tr_h - (n / 2.0) * huu_dir
    closed = pref * gs0.rho
    scale = float(np.max(np.abs(closed))) + 1e-30
    rep.residuals["eta' nodewise"] = float(np.max(np.abs(drho - closed))) / max(scale, 1.0)

    # (c) nonlinear-connection variation (spray variation by FD on the right)
    dGj = (gp.Gj - gm.Gj) / (2.0 * t_step)
    dG = (gp.G - gm.G) / (2.0 * t_step)
    nab_h = horizontal_cov_deriv(h, gs0, (0, 2))  # (...,i,j,m)
    # nabla_k h^i_o = g^{im} (nabla_k h_mj) y^j etc., using metric compatibility
    nab_h_up0 = contract("...im,...mjk,...j->...ik", gi, nab_h, e)  # nabla_k h^i_o
    nab_0h_up = contract("...im,...mkj,...j->...ik", gi, nab_h, e)  # nabla_o h^i_k
    nab_up_h0 = contract("...im,...kjm,...j->...ik", gi, nab_h, e)  # nabla^i h_ok
    rhs = 0.5 * (nab_h_up0 + nab_0h_up - nab_up_h0) - 2.0 * contract(
        "...iks,...s->...ik", contract("...im,...mks->...iks", gi, gs0.cartan), dG
    )
    scale = float(np.max(np.abs(rhs))) + 1e-30
    rep.residuals["G'^i_k relation"] = float(np.max(np.abs(dGj - rhs))) / max(scale, 1.0)

    # (d) conformal-direction functional variation
    if family.k_fun is not None:
        dI = (gp.h_tilde_integral - gm.h_tilde_integral) / (2.0 * t_step)
        closed = gs0.integrate(gs0.huu * tr_h)
        rep.residuals["conformal dI/dt"] = _rel(dI, closed)
        rep.values["dI_dt"] = dI
        rep.values["int Huu tr(h)"] = closed
    return rep
