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

import base64
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fields import GridStructure
from .grids import BASE_MODES, BaseGrid, FiberGrid, GridError
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

MODES = ("unnormalized", "normalized")
STEPPERS = ("euler", "rk4")

CHECKPOINT_FORMAT = "finslerflow-checkpoint"
CHECKPOINT_VERSION = 2


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
    mode: str = "unnormalized"  # one of MODES
    stepper: str = "euler"  # one of STEPPERS
    base_mode: str = "fd4"  # one of grids.BASE_MODES
    safety: float = 0.25
    fiber_cut: int | None = None
    name: str = "state"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.stepper not in STEPPERS:
            raise ValueError(f"stepper must be one of {STEPPERS}, got {self.stepper!r}")
        if self.base_mode not in BASE_MODES:
            raise ValueError(f"base_mode must be one of {BASE_MODES}, got {self.base_mode!r}")
        if not self.safety > 0:
            raise ValueError(f"safety factor must be positive, got {self.safety}")
        if self.fiber_cut is not None and self.fiber_cut < 0:
            raise ValueError(f"fiber_cut must be >= 0 or None, got {self.fiber_cut}")

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
    huu = gs.huu
    c = gs.huu_integral / gs.volume if state.mode == "normalized" else 0.0
    return -(huu - c)


def dt_policy(state: FlowState) -> float:
    """Stable explicit step: safety * min(h)^2 / (2 n (1 + max|H(u,u)|))."""
    pre = state.grid_structure().max_abs_huu
    h = min(state.bgrid.spacing)
    n = state.bgrid.n
    return state.safety * h * h / (2.0 * n * (1.0 + pre))


def _rk4_stages(f: Callable, y, dt: float, k1) -> tuple:
    """(k2, k3, k4) of a classical Runge-Kutta step of y' = f(y), given k1 = f(y)."""
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    return k2, k3, f(y + dt * k3)


def _rk4_update(y, dt: float, k1, k2, k3, k4):
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4(f: Callable, y, dt: float, k1):
    """One classical Runge-Kutta step of y' = f(y), given k1 = f(y)."""
    return _rk4_update(y, dt, k1, *_rk4_stages(f, y, dt, k1))


def _advance(state: FlowState, dt: float) -> np.ndarray:
    """The next log F, projected onto fiber modes <= ``fiber_cut``.

    The update and the projection are theta-local, so they run as one
    x1-slab pass of the state's grid structure.
    """
    y, cut = state.logF, state.fiber_cut
    k1 = flow_rhs(state)
    if state.stepper == "euler":
        def update(r):
            return y[r] + dt * k1[r]
    else:
        k = (k1,) + _rk4_stages(lambda logF: flow_rhs(replace(state, logF=logF)), y, dt, k1)

        def update(r):
            return _rk4_update(y[r], dt, *(ki[r] for ki in k))

    def formula(r, out):
        out[...] = _fiber_project(update(r), cut)
        return ()
    (logF1,) = state.grid_structure().slabwise(formula, 1)
    return logF1


def step(state: FlowState, dt: float, max_retries: int = 5) -> FlowState:
    """One explicit step; a candidate whose g is not positive definite, or whose
    F^2 is not finite and positive, is rejected and dt halved.

    After ``max_retries`` halvings the ``FlowError`` names the last rejection.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    for attempt in range(max_retries + 1):
        try:
            logF1 = _advance(state, dt)
            cand = replace(
                state, logF=logF1, t=state.t + dt, step_index=state.step_index + 1
            )
            cand.grid_structure().require_spd()
            return cand
        except (SingularMetricError, GridError) as exc:
            last = exc
            dt *= 0.5
    raise FlowError(
        f"step rejected {max_retries + 1} times at t={state.t:.6g}; "
        f"the last rejection: {type(last).__name__}: {last}"
    ) from last


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
    V = gs.volume
    I = gs.h_tilde_integral
    return FlowDiagnostics(
        step=state.step_index,
        time=state.t,
        V=V,
        I=I,
        I_norm=I,  # n = 2: normalization exponent vanishes
        c=gs.huu_integral / V,
        min_eig_g=gs.min_eig_g,
        max_abs_huu=gs.max_abs_huu,
        gem_residual=gs.gem_residual(stride=gem_stride),
    )


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
    """The diagnostics rows, the last accepted state and, on failure, its record.

    ``failure_detail`` holds the failed step, its start time t and the type
    of the last rejection; a ``SingularMetricError`` adds its ``min_eig`` and
    the grid index ``where`` of that eigenvalue.
    """

    rows: list
    final_state: FlowState
    failure: str | None = None
    failure_detail: dict | None = None


def _failure_detail(k: int, state: FlowState, exc: Exception) -> dict:
    last = exc.__cause__ if isinstance(exc, FlowError) and exc.__cause__ is not None else exc
    detail = {"step": k, "t": state.t, "error": type(last).__name__}
    if isinstance(last, SingularMetricError):
        detail["min_eig"] = last.min_eig
        detail["where"] = None if last.where is None else [int(i) for i in last.where]
    return detail


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
    fixed if given, else from :func:`dt_policy` each step.  A failure ends
    the run and is recorded, as step 0 if the initial state fails its
    diagnostics.  Deterministic for identical configuration.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    rows = []

    def emit(d: FlowDiagnostics):
        rows.append(d)
        if sink is not None:
            sink(d)

    failure = detail = None
    k = 0
    try:
        emit(diagnostics(state, gem_stride))
        for k in range(1, steps + 1):
            dtk = dt if dt is not None else dt_policy(state)
            state = step(state, dtk)
            emit(diagnostics(state, gem_stride))
            if checkpoint_every and checkpoint_dir and k % checkpoint_every == 0:
                write_checkpoint(
                    os.path.join(checkpoint_dir, f"checkpoint_{state.step_index:06d}.json"),
                    state,
                )
    except (FlowError, SingularMetricError, GridError) as exc:
        failure = f"step {k}: {exc}"
        detail = _failure_detail(k, state, exc)
    if checkpoint_dir:
        write_checkpoint(os.path.join(checkpoint_dir, "checkpoint_final.json"), state)
    return Trajectory(rows=rows, final_state=state, failure=failure, failure_detail=detail)


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
):
    """Integrate the flow under the uniform scaling ansatz F_t = phi(t) F_0.

    d log(phi)/dt = -(H(u,u)[phi F_0] - c);  the curvature of the scaled
    structure is evaluated pointwise at (x0, e(theta0)) each stage.  Returns
    (times, phis).
    """
    from .curvature import ricci_directional

    if dt <= 0:
        raise ValueError("dt must be positive")
    x0 = np.asarray(x0, dtype=float)
    y0 = np.array([np.cos(theta0), np.sin(theta0)])

    def scaled(phi: float) -> FinslerStructure:
        def f2(xs, ys):
            return (phi * phi) * entry.f2(xs, ys)

        return FinslerStructure(n=entry.n, name=f"{entry.name}*{phi:g}", chart=entry.chart, f2=f2)

    def rhs(phi: float) -> float:
        huu = float(ricci_directional(scaled(phi), x0, y0))
        c = huu if normalized else 0.0
        return -(huu - c) * phi

    steps = int(round(T / dt))
    ts = np.empty(steps + 1)
    phis = np.empty(steps + 1)
    ts[0], phis[0] = 0.0, 1.0
    phi = 1.0
    for k in range(steps):
        phi = _rk4(rhs, phi, dt, rhs(phi))
        ts[k + 1] = (k + 1) * dt
        phis[k + 1] = phi
    return ts, phis


# ---------------------------------------------------------------------------
# checkpoints (versioned single text record, atomic write)
# ---------------------------------------------------------------------------

def write_checkpoint(path: str, state: FlowState) -> None:
    """Write ``state`` as one JSON record, atomically (temporary file + rename).

    Version 2 stores ``logF`` as the base64 of its float64 little-endian
    bytes in C order (x1 outer, x2 middle, theta inner), so it reads back
    exactly; version 1 stored the same values as a JSON list.  Base64 needs
    no JSON escaping, so its bytes go to the file as they are, after the
    rest of the record: the file is what ``json.dump`` of the whole record
    writes, without escaping 2.8 MB of text at 64^3.
    """
    header = {
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
    }
    head = json.dumps(header)[:-1] + ', "logF": "'  # ASCII: non-ASCII is escaped
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(head.encode("ascii"))
        fh.write(base64.b64encode(np.asarray(state.logF, dtype="<f8").tobytes()))
        fh.write(b'"}')
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _decode_logF(path: str, record: dict) -> np.ndarray:
    """The flat logF of a version 1 (JSON list) or version 2 (base64) record."""
    if record["version"] == 1:
        return np.asarray(record["logF"], dtype=float)
    try:
        raw = base64.b64decode(record["logF"], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise FlowError(f"{path}: logF is not valid base64 ({exc})") from exc
    if len(raw) % 8:
        raise FlowError(f"{path}: logF holds {len(raw)} bytes, not a whole number of float64")
    return np.frombuffer(raw, dtype="<f8").astype(float)


def read_checkpoint(path: str) -> FlowState:
    """Read a version 1 or 2 checkpoint; a damaged logF raises ``FlowError``."""
    with open(path) as fh:
        record = json.load(fh)
    if record.get("format") != CHECKPOINT_FORMAT:
        raise FlowError(f"not a checkpoint file: {path}")
    if record.get("version") not in (1, CHECKPOINT_VERSION):
        raise FlowError(f"{path}: unsupported checkpoint version {record.get('version')}")
    g = record["grid"]
    bgrid = BaseGrid(g["n"], tuple(g["shape"]), tuple(g["lengths"]), (True,) * g["n"])
    fgrid = FiberGrid(g["n_theta"])
    shape = tuple(g["shape"]) + (g["n_theta"],)
    logF = _decode_logF(path, record)
    if logF.shape != (math.prod(shape),):
        raise FlowError(
            f"{path}: logF holds {logF.size} values, the {shape} grid needs "
            f"{math.prod(shape)}"
        )
    if not np.isfinite(logF).all():
        raise FlowError(f"{path}: logF holds non-finite values")
    logF = logF.reshape(shape)
    fiber_cut, safety = record.get("fiber_cut"), record.get("safety", 0.25)
    if fiber_cut is not None and (isinstance(fiber_cut, bool) or not isinstance(fiber_cut, int)):
        raise FlowError(f"{path}: fiber_cut must be an integer or null, got {fiber_cut!r}")
    if isinstance(safety, bool) or not isinstance(safety, (int, float)):
        raise FlowError(f"{path}: safety must be a number, got {safety!r}")
    return FlowState(
        bgrid=bgrid, fgrid=fgrid, logF=logF, t=record["time"],
        step_index=record["step"], mode=record["mode"], stepper=record["stepper"],
        base_mode=record["base_mode"], safety=safety, fiber_cut=fiber_cut,
        name=record.get("name", "state"),
    )
