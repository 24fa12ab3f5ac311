"""Output checks of the benchmark.

Each check compares a program output with a value computed here, apart from
the program, or with a property the method must have, and returns
``(ok, measure)``.  None of them compares with a stored copy of an earlier
output.  Tolerances are those of the acceptance criteria named beside them.
"""

from __future__ import annotations

import numpy as np

HUU_REL_TOL = 1e-6          # C1, analytic base jets
DECAY_TOL = 5e-3            # C8
MONOTONE_TOL = 1e-10        # C8: sup|H(u,u)| may not rise by more per step
IDENTITY_TOL = 1e-3         # C7
CONFORMAL_DI_TOL = 1e-2     # C7, conformal dI/dt
ADJOINT_TOL = 1e-3          # C6 at 48^3
SCALE_TOL = 1e-6            # C10
GAUSS_BONNET_FRACTION = 1e-3  # C9
POINT_TOL = 1e-6            # C2 / C5, single-point curvature scalars
GEM_ROUNDOFF = 1e-9         # GEM residual on a generalized-Einstein entry
F_DRIFT_TOL = 1e-7          # RK4 at 16 steps per eighth of the equator
CLOSURE_TOL = 1e-5          # same, closure of the equator relative to r
VOLUME_TOL = 1e-9           # fiber total of a conformal metric is exact


def conformal_gauss(x: np.ndarray, amp: float, p: int, q: int) -> np.ndarray:
    """K = (p^2 + q^2) u e^{-2u}, u = amp sin(p x1) cos(q x2): F = e^u |y|."""
    u = amp * np.sin(p * x[..., 0]) * np.cos(q * x[..., 1])
    return (p * p + q * q) * u * np.exp(-2.0 * u)


def huu_matches(huu: np.ndarray, K: np.ndarray, tol: float = HUU_REL_TOL):
    """H(u,u) equals the Gauss curvature, relative to 1 + |K|."""
    err = float(np.max(np.abs(huu - K) / (1.0 + np.abs(K))))
    return err <= tol, err


def scalar_matches(value: float, expected: float, tol: float = POINT_TOL):
    """A curvature scalar equals its closed form, relative to 1 + |expected|."""
    err = abs(float(value) - expected) / (1.0 + abs(expected))
    return err <= tol, err


def at_roundoff(residual: float, tol: float = GEM_ROUNDOFF):
    return abs(residual) <= tol, abs(residual)


def sphere_F(x: np.ndarray, v: np.ndarray, r: float) -> np.ndarray:
    """F(x, v) of the stereographic sphere patch, 2|v| / (1 + |x|^2 / r^2)."""
    return 2.0 * np.linalg.norm(v, axis=-1) / (1.0 + np.sum(x * x, axis=-1) / (r * r))


def F_conserved(F: np.ndarray, tol: float = F_DRIFT_TOL):
    """A geodesic keeps F(x, x') at its initial value (relative drift)."""
    drift = float(np.max(np.abs(F - F[0]))) / abs(float(F[0]))
    return drift <= tol, drift


def equator_closed(x_end: np.ndarray, x_start: np.ndarray, r: float, tol: float = CLOSURE_TOL):
    """After arc length 2 pi r along the equator the geodesic is back at its start."""
    gap = float(np.linalg.norm(np.asarray(x_end) - np.asarray(x_start))) / r
    return gap <= tol, gap


def decay_matches(ratio: float, reference: float, tol: float = DECAY_TOL):
    """sup|H(u,u)| decay ratio against the conformal-factor PDE at the same time."""
    gap = abs(ratio - reference)
    return gap <= tol, gap


def never_rises(sup: np.ndarray, tol: float = MONOTONE_TOL):
    rise = float(np.max(np.diff(sup), initial=0.0))
    return rise <= tol, rise


def volume_kept(V: np.ndarray, sup_huu: np.ndarray, c: np.ndarray, dt: float):
    """The normalized flow keeps V; an euler step may move it by its local error.

    With u -> u - dt (K - c) and c the weighted mean of K, the first-order
    change of V = int e^{2u} vanishes and the second-order one is
    2 dt^2 <(K - c)^2> V <= 2 dt^2 (sup|H| + |c|)^2 V per step.
    """
    V = np.asarray(V, dtype=float)
    bound = 2.0 * dt * dt * (np.asarray(sup_huu)[:-1] + np.abs(c)[:-1]) ** 2 * V[:-1]
    excess = float(np.max(np.abs(np.diff(V)) / bound))
    return excess <= 1.0, excess


def positive(values: np.ndarray):
    low = float(np.min(values))
    return low > 0.0, low


def below(value: float, bound: float):
    return abs(value) <= bound, abs(value)


def conformal_volume(amp: float, p: int, q: int, shape, lengths) -> float:
    """V = 2 pi sum e^{2u} dx dy: the fiber total of e^u|y| is 2 pi e^{2u}."""
    x = [np.arange(n) * (L / n) for n, L in zip(shape, lengths)]
    X1, X2 = np.meshgrid(x[0], x[1], indexing="ij")
    u = amp * np.sin(p * X1) * np.cos(q * X2)
    return float(2.0 * np.pi * np.sum(np.exp(2.0 * u)) * (lengths[0] / shape[0]) * (lengths[1] / shape[1]))


def relative_gap(value: float, reference: float, tol: float):
    gap = abs(value - reference) / abs(reference)
    return gap <= tol, gap


def gauss_bonnet(I: float, V: float, sup_curvature: float):
    """|I| <= 1e-3 V sup|curvature| (+ 1e-12 V for flat roundoff), as in C9."""
    bound = GAUSS_BONNET_FRACTION * V * sup_curvature + 1e-12 * V
    return abs(I) <= bound, abs(I) / bound
