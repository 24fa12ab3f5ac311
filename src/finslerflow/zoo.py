"""Named analytic Finsler structures with closed-form reference data.

Every entry is built from jet-safe primitives, so exact fiber (and base)
jets are available everywhere.  Reference scalars marked here are
re-derived by independent oracles in the test suite before being trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .jets import cos_, exp_, sin_, sqrt_
from .structures import Chart, FinslerStructure, validate_structure

__all__ = ["ZooEntry", "get_entry", "list_entries", "reference_check", "ZOO_NAMES"]

TWO_PI = 2.0 * np.pi


@dataclass
class ZooEntry:
    """A catalogue structure plus reference tensors/scalars for oracles."""

    structure: FinslerStructure
    flags: frozenset = frozenset()
    # Riemannian data a_ij(x), d a_ij/dx^k (None for non-Riemannian entries)
    a_fun: Callable | None = None
    da_fun: Callable | None = None
    # reference scalars
    expected_huu: Callable | float | None = None
    expected_cartan_norm: float | None = None
    fiber_measure: Callable | None = None  # x -> integral rho dtheta

    def __getattr__(self, item):
        return getattr(self.structure, item)

    def describe(self) -> str:
        fl = ",".join(sorted(self.flags)) or "-"
        return f"{self.structure.name}  n={self.structure.n}  {self.structure.chart.describe()}  [{fl}]"


def _torus_chart() -> Chart:
    return Chart("torus", lengths=(TWO_PI, TWO_PI))


def _euclidean() -> ZooEntry:
    def f2(xs, ys):
        return ys[0] * ys[0] + ys[1] * ys[1]

    fs = FinslerStructure(n=2, name="euclidean", chart=_torus_chart(), f2=f2)
    eye = np.eye(2)
    return ZooEntry(
        structure=fs,
        flags=frozenset({"riemannian", "locally-minkowski", "gem"}),
        a_fun=lambda x: np.broadcast_to(eye, np.shape(x)[:-1] + (2, 2)),
        da_fun=lambda x: np.zeros(np.shape(x)[:-1] + (2, 2, 2)),
        expected_huu=0.0,
        expected_cartan_norm=0.0,
        fiber_measure=lambda x: TWO_PI * np.ones(np.shape(x)[:-1]),
    )


def _aniso_quadratic(a1: float = 2.0, a2: float = 3.0) -> ZooEntry:
    if a1 <= 0 or a2 <= 0:
        raise ValueError("aniso-quadratic needs positive coefficients")

    def f2(xs, ys):
        return a1 * ys[0] * ys[0] + a2 * ys[1] * ys[1]

    fs = FinslerStructure(
        n=2, name="aniso-quadratic", chart=_torus_chart(), f2=f2,
        params={"a1": a1, "a2": a2},
    )
    a = np.diag([a1, a2])
    return ZooEntry(
        structure=fs,
        flags=frozenset({"riemannian", "locally-minkowski", "gem"}),
        a_fun=lambda x: np.broadcast_to(a, np.shape(x)[:-1] + (2, 2)),
        da_fun=lambda x: np.zeros(np.shape(x)[:-1] + (2, 2, 2)),
        expected_huu=0.0,
        expected_cartan_norm=0.0,
        fiber_measure=lambda x: TWO_PI * np.sqrt(a1 * a2) * np.ones(np.shape(x)[:-1]),
    )


def _quartic_minkowski(cross: float = 1.0) -> ZooEntry:
    # F^4 = y1^4 + cross*y1^2 y2^2 + y2^4; cross in (0, 2) keeps g positive
    # definite on the whole slit plane (the bare quartic degenerates on the axes).
    if not (0.0 < cross < 2.0):
        raise ValueError("quartic cross term must lie in (0, 2)")

    def f2(xs, ys):
        q = ys[0] ** 4 + cross * ys[0] * ys[0] * ys[1] * ys[1] + ys[1] ** 4
        return sqrt_(q)

    fs = FinslerStructure(
        n=2, name="quartic-minkowski", chart=_torus_chart(), f2=f2,
        params={"cross": cross},
    )
    return ZooEntry(
        structure=fs,
        flags=frozenset({"locally-minkowski", "gem"}),
        expected_huu=0.0,
    )


def _conformal_torus(amp: float = 0.2, p: int = 1, q: int = 1) -> ZooEntry:
    def u(xs):
        return amp * sin_(p * xs[0]) * cos_(q * xs[1])

    def f2(xs, ys):
        return exp_(2.0 * u(xs)) * (ys[0] * ys[0] + ys[1] * ys[1])

    fs = FinslerStructure(
        n=2, name="conformal-torus", chart=_torus_chart(), f2=f2,
        params={"amp": amp, "p": p, "q": q},
    )

    def ux(x):
        return amp * np.sin(p * x[..., 0]) * np.cos(q * x[..., 1])

    def a_fun(x):
        e2u = np.exp(2.0 * ux(x))
        return e2u[..., None, None] * np.eye(2)

    def da_fun(x):
        e2u = np.exp(2.0 * ux(x))
        du = np.stack(
            [
                amp * p * np.cos(p * x[..., 0]) * np.cos(q * x[..., 1]),
                -amp * q * np.sin(p * x[..., 0]) * np.sin(q * x[..., 1]),
            ],
            axis=-1,
        )
        return 2.0 * e2u[..., None, None, None] * np.einsum(
            "ij,...k->...ijk", np.eye(2), du
        )

    def gauss(x):
        # K = -e^{-2u} Lap(u); for the product mode Lap(u) = -(p^2+q^2) u
        uv = ux(x)
        return (p * p + q * q) * uv * np.exp(-2.0 * uv)

    return ZooEntry(
        structure=fs,
        flags=frozenset({"riemannian", "gem"}),
        a_fun=a_fun,
        da_fun=da_fun,
        expected_huu=gauss,
        expected_cartan_norm=0.0,
        fiber_measure=lambda x: TWO_PI * np.exp(2.0 * ux(x)),
    )


def _sphere_patch(r: float = 1.0) -> ZooEntry:
    if r <= 0:
        raise ValueError("sphere radius must be positive")

    def conf(xs):
        return 2.0 / (1.0 + (xs[0] * xs[0] + xs[1] * xs[1]) / (r * r))

    def f2(xs, ys):
        c = conf(xs)
        return c * c * (ys[0] * ys[0] + ys[1] * ys[1])

    fs = FinslerStructure(
        n=2, name="sphere-patch", chart=Chart("plane", bound=3.0), f2=f2,
        params={"r": r},
    )

    def cx(x):
        return 2.0 / (1.0 + np.sum(x * x, axis=-1) / (r * r))

    def a_fun(x):
        c = cx(x)
        return (c * c)[..., None, None] * np.eye(2)

    def da_fun(x):
        c = cx(x)
        dc = -(c * c)[..., None] * x / (r * r)
        return 2.0 * np.einsum("...,ij,...k->...ijk", c, np.eye(2), dc)

    return ZooEntry(
        structure=fs,
        flags=frozenset({"riemannian", "gem"}),
        a_fun=a_fun,
        da_fun=da_fun,
        expected_huu=1.0 / (r * r),
        expected_cartan_norm=0.0,
        fiber_measure=lambda x: TWO_PI * cx(x) ** 2,
    )


def _randers_torus(b: float = 0.3, profile: str = "wave") -> ZooEntry:
    if not (0.0 <= b < 1.0):
        raise ValueError(
            f"Randers drift must satisfy ||b|| < 1 for strong convexity, got {b}"
        )
    if profile not in ("constant", "wave"):
        raise ValueError(f"unknown Randers profile {profile!r}")

    if profile == "constant":
        def b_fun(xs):
            return (b, 0.0 * xs[0])
    else:
        s = b / np.sqrt(2.0)

        def b_fun(xs):
            return (s * cos_(xs[1]), s * sin_(xs[0]))

    def f2(xs, ys):
        b1, b2 = b_fun(xs)
        F = sqrt_(ys[0] * ys[0] + ys[1] * ys[1]) + b1 * ys[0] + b2 * ys[1]
        return F * F

    flags = {"randers"}
    if profile == "constant":
        flags |= {"locally-minkowski", "gem"}
    fs = FinslerStructure(
        n=2, name="randers-torus", chart=_torus_chart(), f2=f2,
        params={"b": b, "profile": profile},
    )
    return ZooEntry(structure=fs, flags=frozenset(flags))


def _funk_disk() -> ZooEntry:
    def f2(xs, ys):
        xy = xs[0] * ys[0] + xs[1] * ys[1]
        x2 = xs[0] * xs[0] + xs[1] * xs[1]
        y2 = ys[0] * ys[0] + ys[1] * ys[1]
        F = (sqrt_(xy * xy + y2 * (1.0 - x2)) + xy) / (1.0 - x2)
        return F * F

    fs = FinslerStructure(
        n=2, name="funk-disk", chart=Chart("disk", bound=1.0), f2=f2,
    )
    return ZooEntry(
        structure=fs,
        flags=frozenset({"funk", "gem"}),
        expected_huu=-0.25,
    )


_BUILDERS = {
    "euclidean": _euclidean,
    "aniso-quadratic": _aniso_quadratic,
    "quartic-minkowski": _quartic_minkowski,
    "conformal-torus": _conformal_torus,
    "sphere-patch": _sphere_patch,
    "randers-torus": _randers_torus,
    "funk-disk": _funk_disk,
}

ZOO_NAMES = tuple(sorted(_BUILDERS))


def get_entry(name: str, **params) -> ZooEntry:
    """Look up a zoo entry by name; parameters are validated eagerly."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown metric {name!r}; available: {', '.join(ZOO_NAMES)}")
    return _BUILDERS[name](**params)


def list_entries() -> list[str]:
    """One line per entry: name, dimension, chart, flags."""
    return [get_entry(name).describe() for name in ZOO_NAMES]


def reference_check(entry: ZooEntry, samples: int = 12) -> dict:
    """Compare pipeline outputs against every reference the entry supplies.

    Returns worst residual per quantity (reported, nothing raised).
    """
    from .connections import cartan_hcoeffs, cartan_tensor, fundamental_tensor, spray
    from .curvature import gem_residual, hat_scalars, ricci_directional
    from .measure import liouville_density
    from .structures import sample_points
    from .oracles import riemannian_christoffel

    fs = entry.structure
    x, y = sample_points(fs, samples)
    report: dict[str, float] = {}

    vr = validate_structure(fs, sample_count=max(16, samples))
    report["validity_worst_homogeneity"] = max(
        vr.worst("F 1-homogeneity (Euler)"), vr.worst("g 0-homogeneity")
    )

    if entry.a_fun is not None:
        a = entry.a_fun(x)
        g = fundamental_tensor(fs, x, y)
        report["g_vs_reference"] = float(np.max(np.abs(g - a)))
        gam = riemannian_christoffel(entry, x)
        G = spray(fs, x, y)
        Gref = 0.5 * np.einsum("...ijk,...j,...k->...i", gam, y, y)
        report["spray_vs_christoffel"] = float(np.max(np.abs(G - Gref)))
        Gamma = cartan_hcoeffs(fs, x, y)
        report["cartan_coeffs_vs_christoffel"] = float(np.max(np.abs(Gamma - gam)))

    if entry.expected_cartan_norm is not None:
        C = cartan_tensor(fs, x, y)
        report["cartan_norm"] = float(np.max(np.abs(C))) - entry.expected_cartan_norm

    if entry.expected_huu is not None:
        huu = ricci_directional(fs, x, y)
        ref = (
            entry.expected_huu(x)
            if callable(entry.expected_huu)
            else entry.expected_huu
        )
        report["huu_vs_reference"] = float(np.max(np.abs(huu - ref)))

    if "gem" in entry.flags:
        xs = x[: min(4, len(x))]
        worst = 0.0
        for xi in xs:
            worst = max(worst, gem_residual(fs, xi, n_theta=32))
        ht, _ = hat_scalars(fs, x, y)
        huu = ricci_directional(fs, x, y)
        worst_eq6 = float(np.max(np.abs(ht - fs.n * huu)))
        report["gem_residual"] = worst
        report["htilde_vs_n_huu"] = worst_eq6

    if entry.fiber_measure is not None:
        th = np.arange(256) * (TWO_PI / 256)
        worst = 0.0
        for xi in x[:4]:
            rho = liouville_density(fs, np.broadcast_to(xi, (256, 2)), th)
            total = float(np.sum(rho) * (TWO_PI / 256))
            ref = float(entry.fiber_measure(xi))
            worst = max(worst, abs(total - ref) / abs(ref))
        report["fiber_measure_rel"] = worst

    return report
