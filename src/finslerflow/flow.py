"""Time integration of the scalar curvature flow d/dt log F = -H(u,u).

The flow evolves log F(x, theta) directly on the base x fiber grid, so every
state reconstructs a genuinely 1-homogeneous Finsler structure
F(x, y) = |y| exp(logF(x, angle(y))) by construction; positive definiteness
of g is monitored each step.  The normalized mode subtracts the Liouville
average c(t) of H(u,u), which is the volume-preserving choice (constant
curvature states are stationary for it).

Stability note: linearized about a flat structure the flow is strictly
parabolic along conformal (theta-independent) perturbations but carries
anti-diffusive growth ~ (k.e)^2 m^2 / 2 on fiber modes m >= 3, so explicit
stepping amplifies fiber roundoff on long runs.  ``fiber_cut`` projects the
evolved state onto fiber modes <= cut each step; it is exact for conformal
and Riemannian states and a documented band-limitation otherwise.  With
``fiber_cut=None`` the flow is unfiltered and is allowed to fail loudly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .fields import GridStructure
from .grids import BaseGrid, FiberGrid, GridError
from .structures import FinslerStructure, SingularMetricError

__all__ = [
    "FlowState",
    "FlowDiagnostics",
    "FlowError",
    "Trajectory",
    "encode_state",
    "curvature_field",
    "flow_rhs",
    "dt_policy",
    "step",
    "run_flow",
    "diagnostics",
    "tensor_flow_gap",
    "uniform_scaling_flow",
    "write_checkpoint",
    "read_checkpoint",
]

CHECKPOINT_FORMAT = "finslerflow-checkpoint"
CHECKPOINT_VERSION = 1


class FlowError(RuntimeError):
    pass


@dataclass
class FlowState:
    """Discretized log F on the grid plus time and configuration."""

    bgrid: BaseGrid
    fgrid: FiberGrid
    logF: np.ndarray
    t: float = 0.0
    step_index: int = 0
    mode: str = "unnormalized"  # | "normalized"
    stepper: str = "euler"  # | "rk4"
    base_mode: str = "fd4"
    safety: float = 0.25
    fiber_cut: int | None = None
    name: str = "state"

    def grid_structure(self) -> GridStructure:
        """Grid pipeline for this state (cached; logF is never mutated in place)."""
        gs = getattr(self, "_gs", None)
        if gs is None:
            gs = GridStructure(self.logF, self.bgrid, self.fgrid, self.base_mode)
            object.__setattr__(self, "_gs", gs)
        return gs

    def structure_F(self, x, y) -> np.ndarray:
        """Reconstructed F(x, y) via trigonometric interpolation in theta.

        Base positions are collocated: x must sit on grid nodes.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.sqrt(np.sum(y * y, axis=-1))
        ang = np.arctan2(y[..., 1], y[..., 0])
        N = self.fgrid.n_theta
        coeff = np.fft.rfft(self.logF, axis=-1) / N
        idx = []
        for a in range(2):
            ia = np.rint(x[..., a] / self.bgrid.spacing[a]).astype(int)
            off = x[..., a] - ia * self.bgrid.spacing[a]
            if np.any(np.abs(off) > 1e-9 * max(self.bgrid.lengths)):
                raise GridError("grid-mode structures evaluate on base nodes only")
            idx.append(ia % self.bgrid.shape[a])
        ch = coeff[idx[0], idx[1], :]
        k = np.arange(ch.shape[-1])
        phase = np.exp(1j * np.asarray(ang)[..., None] * k)
        terms = np.real(ch * phase)
        # real-FFT reconstruction: double interior modes, not DC / Nyquist
        u = 2.0 * np.sum(terms, axis=-1) - terms[..., 0] - (terms[..., -1] if N % 2 == 0 else 0.0)
        return r * np.exp(u)


def _check_fiber_cut(cut: int | None) -> int | None:
    if cut is not None and cut < 0:
        raise ValueError(f"fiber_cut must be >= 0 or None, got {cut}")
    return cut


def _fiber_project(logF: np.ndarray, cut: int | None) -> np.ndarray:
    if cut is None:
        return logF
    c = np.fft.rfft(logF, axis=-1)
    c[..., cut + 1:] = 0.0
    return np.fft.irfft(c, n=logF.shape[-1], axis=-1)


def encode_state(
    entry: FinslerStructure,
    bgrid: BaseGrid,
    fgrid: FiberGrid,
    mode: str = "unnormalized",
    stepper: str = "euler",
    base_mode: str = "fd4",
    safety: float = 0.25,
    fiber_cut: int | None = None,
) -> FlowState:
    """Sample log F on the section y = e(theta) of an analytic structure."""
    _check_fiber_cut(fiber_cut)
    if not entry.chart.periodic:
        raise GridError(
            f"{entry.name}: non-periodic chart; grid flow needs a torus "
            "(pointwise curvature remains available)"
        )
    nodes = bgrid.nodes()[:, :, None, :]
    th = fgrid.thetas
    e = np.stack([np.cos(th), np.sin(th)], axis=-1)[None, None, :, :]
    F = entry.F(nodes, e)
    logF = np.log(np.broadcast_to(F, bgrid.shape + (fgrid.n_theta,)).copy())
    return FlowState(
        bgrid=bgrid, fgrid=fgrid, logF=logF, mode=mode, stepper=stepper,
        base_mode=base_mode, safety=safety, fiber_cut=fiber_cut, name=entry.name,
    )


def curvature_field(state: FlowState) -> np.ndarray:
    """H(u,u)(x, theta) of the current state through the full grid pipeline."""
    return state.grid_structure().huu


def flow_rhs(state: FlowState) -> np.ndarray:
    """d log F / dt = -(H(u,u) - c), with c = 0 in unnormalized mode."""
    gs = state.grid_structure()
    huu = gs.huu_light
    if state.mode == "normalized":
        c = gs.integrate(huu) / gs.volume
    else:
        c = 0.0
    return -(huu - c)


def dt_policy(state: FlowState) -> float:
    """Stable explicit step: safety * min(h)^2 / (2 n (1 + max|H(u,u)|))."""
    if state.safety <= 0:
        raise ValueError("safety factor must be positive")
    gs = state.grid_structure()
    pre = float(np.max(np.abs(gs.huu_light)))
    h = min(state.bgrid.spacing)
    n = state.bgrid.n
    return state.safety * h * h / (2.0 * n * (1.0 + pre))


def _advance(state: FlowState, dt: float) -> np.ndarray:
    if state.stepper == "euler":
        return state.logF + dt * flow_rhs(state)
    if state.stepper == "rk4":
        k1 = flow_rhs(state)
        s2 = replace(state, logF=state.logF + 0.5 * dt * k1)
        k2 = flow_rhs(s2)
        s3 = replace(state, logF=state.logF + 0.5 * dt * k2)
        k3 = flow_rhs(s3)
        s4 = replace(state, logF=state.logF + dt * k3)
        k4 = flow_rhs(s4)
        return state.logF + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    raise ValueError(f"unknown stepper {state.stepper!r}")


def step(state: FlowState, dt: float, max_retries: int = 5) -> FlowState:
    """One explicit step; on convexity loss the step is rejected and dt halved."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    for attempt in range(max_retries + 1):
        try:
            logF1 = _fiber_project(_advance(state, dt), state.fiber_cut)
            cand = replace(
                state, logF=logF1, t=state.t + dt, step_index=state.step_index + 1
            )
            gs = cand.grid_structure()
            if gs.min_eig_g <= 0.0 or not np.isfinite(gs.min_eig_g):
                raise SingularMetricError(gs.min_eig_g)
            return cand
        except (SingularMetricError, GridError):
            dt *= 0.5
    raise FlowError(
        f"step rejected {max_retries + 1} times (convexity loss) at t={state.t:.6g}"
    )


@dataclass
class FlowDiagnostics:
    step: int
    time: float
    V: float
    I: float
    I_norm: float
    c: float
    min_eig_g: float
    max_abs_huu: float
    gem_residual: float
    accepted: bool = True

    CSV_HEADER = "step,time,V,I,I_norm,c,min_eig_g,max_abs_Huu,gem_residual"

    def csv_row(self) -> str:
        vals = [
            str(self.step),
            repr(self.time),
            repr(self.V),
            repr(self.I),
            repr(self.I_norm),
            repr(self.c),
            repr(self.min_eig_g),
            repr(self.max_abs_huu),
            repr(self.gem_residual),
        ]
        return ",".join(vals)


def diagnostics(state: FlowState, gem_stride: int = 8) -> FlowDiagnostics:
    gs = state.grid_structure()
    huu = gs.huu_light
    V = gs.volume
    I = gs.integrate(gs.h_tilde_light)
    c = gs.integrate(huu) / V
    return FlowDiagnostics(
        step=state.step_index,
        time=state.t,
        V=V,
        I=I,
        I_norm=I,  # n = 2: normalization exponent vanishes
        c=c,
        min_eig_g=gs.min_eig_g,
        max_abs_huu=float(np.max(np.abs(huu))),
        gem_residual=gs.gem_residual(stride=gem_stride),
    )


def state_validity(state: FlowState, tol: float = 1e-6) -> dict:
    """Structure-preservation checks for a grid state (spot discretization error).

    1-homogeneity of the reconstructed F is exact by construction; the checks
    guard positivity of g and the fiber identities of the sampled tensors.
    """
    gs = state.grid_structure()
    e = gs.e[None, None, :, :]
    cy = np.einsum("...ijk,...k->...ij", gs.cartan, e)
    scale = 1.0 + float(np.max(np.abs(gs.g)))
    checks = {
        "g positive definite": (gs.min_eig_g > 0.0, gs.min_eig_g),
        "C_ijk y^k = 0": (
            float(np.max(np.abs(cy))) / scale <= tol,
            float(np.max(np.abs(cy))) / scale,
        ),
        "F reconstruction positive": (
            bool(np.all(np.isfinite(gs.F2)) and np.all(gs.F2 > 0)),
            float(np.min(gs.F2)),
        ),
    }
    checks["passed"] = all(ok for ok, _ in checks.values())
    return checks


def tensor_flow_gap(state: FlowState) -> float:
    """Max metric-normalized gap between the two tensor-level flow drivers.

    Compares -Htilde_ij (4th-order driver) with -H(u,u) g_ij (the conformal
    gradient driver whose scalar form this engine integrates).
    """
    gs = state.grid_structure()
    gap = gs.ricci_tilde - gs.huu[..., None, None] * gs.g
    mixed = np.einsum("...ia,...aj->...ij", gs.ginv, gap)
    return float(np.max(np.abs(mixed)))


@dataclass
class Trajectory:
    rows: list
    final_state: FlowState
    failure: str | None = None


def run_flow(
    state: FlowState,
    steps: int,
    dt: float | None = None,
    sink: Callable[[FlowDiagnostics], None] | None = None,
    gem_stride: int = 8,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | None = None,
) -> Trajectory:
    """Apply ``step`` repeatedly, emitting diagnostics per step.

    Emits steps + 1 diagnostic rows (including the initial state).  ``dt``
    fixed if given, else from :func:`dt_policy` each step.  Deterministic for
    identical configuration.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    rows = []

    def emit(d: FlowDiagnostics):
        rows.append(d)
        if sink is not None:
            sink(d)

    emit(diagnostics(state, gem_stride))
    failure = None
    for k in range(steps):
        try:
            dtk = dt if dt is not None else dt_policy(state)
            state = step(state, dtk)
        except (FlowError, SingularMetricError, GridError) as exc:
            failure = f"step {k + 1}: {exc}"
            break
        emit(diagnostics(state, gem_stride))
        if checkpoint_every and checkpoint_dir and (k + 1) % checkpoint_every == 0:
            write_checkpoint(
                os.path.join(checkpoint_dir, f"checkpoint_{state.step_index:06d}.json"),
                state,
            )
    if checkpoint_dir:
        write_checkpoint(os.path.join(checkpoint_dir, "checkpoint_final.json"), state)
    return Trajectory(rows=rows, final_state=state, failure=failure)


# ---------------------------------------------------------------------------
# spatially uniform mode (non-periodic charts, scaling ansatz)
# ---------------------------------------------------------------------------

def uniform_scaling_flow(
    entry: FinslerStructure,
    x0,
    theta0: float,
    T: float,
    dt: float,
    normalized: bool = False,
    base_mode: str = "auto",
):
    """Integrate the flow under the uniform scaling ansatz F_t = phi(t) F_0.

    d log(phi)/dt = -(H(u,u)[phi F_0] - c);  the curvature of the scaled
    structure is evaluated pointwise at (x0, e(theta0)) each stage.  Returns
    (times, phis).
    """
    from .curvature import ricci_directional

    x0 = np.asarray(x0, dtype=float)
    y0 = np.array([np.cos(theta0), np.sin(theta0)])

    def scaled(phi: float) -> FinslerStructure:
        def f2(xs, ys):
            return (phi * phi) * entry.f2(xs, ys)

        return FinslerStructure(
            n=entry.n, name=f"{entry.name}*{phi:g}", chart=entry.chart, f2=f2,
            supports_base_jets=entry.supports_base_jets,
        )

    def rhs(phi: float) -> float:
        huu = float(ricci_directional(scaled(phi), x0, y0, base_mode=base_mode))
        c = huu if normalized else 0.0
        return -(huu - c) * phi

    steps = int(round(T / dt))
    ts = np.empty(steps + 1)
    phis = np.empty(steps + 1)
    ts[0], phis[0] = 0.0, 1.0
    phi = 1.0
    for k in range(steps):
        k1 = rhs(phi)
        k2 = rhs(phi + 0.5 * dt * k1)
        k3 = rhs(phi + 0.5 * dt * k2)
        k4 = rhs(phi + dt * k3)
        phi = phi + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        ts[k + 1] = (k + 1) * dt
        phis[k + 1] = phi
    return ts, phis


# ---------------------------------------------------------------------------
# checkpoints (versioned single text record, atomic write)
# ---------------------------------------------------------------------------

def write_checkpoint(path: str, state: FlowState) -> None:
    record = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "grid": {
            "n": state.bgrid.n,
            "shape": list(state.bgrid.shape),
            "lengths": list(state.bgrid.lengths),
            "n_theta": state.fgrid.n_theta,
        },
        "time": state.t,
        "step": state.step_index,
        "mode": state.mode,
        "stepper": state.stepper,
        "base_mode": state.base_mode,
        "safety": state.safety,
        "fiber_cut": state.fiber_cut,
        "name": state.name,
        # row-major: x1 outer, x2 middle, theta inner
        "logF": state.logF.ravel(order="C").tolist(),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_checkpoint(path: str) -> FlowState:
    with open(path) as fh:
        record = json.load(fh)
    if record.get("format") != CHECKPOINT_FORMAT:
        raise FlowError(f"not a checkpoint file: {path}")
    if record.get("version") != CHECKPOINT_VERSION:
        raise FlowError(f"unsupported checkpoint version {record.get('version')}")
    g = record["grid"]
    bgrid = BaseGrid(g["n"], tuple(g["shape"]), tuple(g["lengths"]), (True,) * g["n"])
    fgrid = FiberGrid(g["n_theta"])
    logF = np.asarray(record["logF"], dtype=float).reshape(
        tuple(g["shape"]) + (g["n_theta"],)
    )
    return FlowState(
        bgrid=bgrid, fgrid=fgrid, logF=logF, t=record["time"],
        step_index=record["step"], mode=record["mode"], stepper=record["stepper"],
        base_mode=record["base_mode"], safety=record.get("safety", 0.25),
        fiber_cut=_check_fiber_cut(record.get("fiber_cut")),
        name=record.get("name", "state"),
    )
