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

import numpy as np

from .connections import _rk4, _rk4_stages, _rk4_update
from .fields import GridStructure, sample_logF
from .grids import BaseGrid, FiberGrid, GridError, check_base_mode
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

# The settings of a run, in FlowState field order: the one list that
# encode_state, write_checkpoint and read_checkpoint read.
_CONFIG = ("mode", "stepper", "base_mode", "safety", "fiber_cut", "name")


class FlowError(RuntimeError):
    pass


@dataclass
class FlowState:
    """Discretized log F on the grid plus time and configuration.

    The run settings are the fields named in ``_CONFIG``; a mistyped one
    raises ``TypeError`` and an unknown or out-of-range one ``ValueError``.
    """

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
        # bool is an int; a JSON checkpoint holds only int, float and str
        if isinstance(self.safety, bool) or not isinstance(self.safety, (int, float)):
            raise TypeError(f"safety must be a number, got {self.safety!r}")
        if self.fiber_cut is not None and (
            isinstance(self.fiber_cut, bool) or not isinstance(self.fiber_cut, int)
        ):
            raise TypeError(f"fiber_cut must be an integer or None, got {self.fiber_cut!r}")
        if not isinstance(self.name, str):
            raise TypeError(f"name must be a string, got {self.name!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.stepper not in STEPPERS:
            raise ValueError(f"stepper must be one of {STEPPERS}, got {self.stepper!r}")
        check_base_mode(self.base_mode)
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
    entry: FinslerStructure, bgrid: BaseGrid, fgrid: FiberGrid, **config
) -> FlowState:
    """The flow state of an analytic structure, sampled by ``fields.sample_logF``
    as ``GridStructure(entry, ...)`` is, so their grid fields agree bit for bit.

    ``config`` holds the run settings of :class:`FlowState` (``mode``,
    ``stepper``, ``base_mode``, ``safety``, ``fiber_cut``) and is checked
    there; the state is named after ``entry``.
    """
    unknown = set(config).difference(_CONFIG)
    if unknown:
        raise TypeError(f"encode_state got unknown settings {sorted(unknown)}")
    return FlowState(bgrid=bgrid, fgrid=fgrid, logF=sample_logF(entry, bgrid, fgrid),
                     name=entry.name, **config)


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
    gem_stride: int = 8,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | None = None,
) -> Trajectory:
    """Apply ``step`` repeatedly, with a diagnostics row per state.

    Keeps steps + 1 rows (including the initial state).  ``dt``
    fixed if given, else from :func:`dt_policy` each step.  A failure ends
    the run and is recorded, as step 0 if the initial state fails its
    diagnostics.  Deterministic for identical configuration.  A bad argument
    raises ``ValueError`` naming it before anything is computed or written.
    """
    for name, value in (("steps", steps), ("gem_stride", gem_stride),
                        ("checkpoint_every", checkpoint_every)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if dt is not None and not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    rows = []
    failure = detail = None
    k = 0
    try:
        rows.append(diagnostics(state, gem_stride))
        for k in range(1, steps + 1):
            dtk = dt if dt is not None else dt_policy(state)
            state = step(state, dtk)
            rows.append(diagnostics(state, gem_stride))
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

    phis = [1.0]
    for _ in range(int(round(T / dt))):
        phis.append(_rk4(rhs, phis[-1], dt, rhs(phis[-1])))
    return dt * np.arange(len(phis)), np.asarray(phis)


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
        **{key: getattr(state, key) for key in _CONFIG},
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
    try:
        if record["version"] == 1:
            return np.asarray(record["logF"], dtype=float)
        raw = base64.b64decode(record["logF"], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        kind = "a list of numbers" if record["version"] == 1 else "valid base64"
        raise FlowError(f"{path}: logF is not {kind} ({exc})") from exc
    if len(raw) % 8:
        raise FlowError(f"{path}: logF holds {len(raw)} bytes, not a whole number of float64")
    return np.frombuffer(raw, dtype="<f8").astype(float)


def read_checkpoint(path: str) -> FlowState:
    """Read a version 1 or 2 checkpoint.

    ``time``, ``step``, ``grid``, ``mode``, ``stepper`` and ``base_mode`` are
    required; ``safety``, ``fiber_cut`` and ``name`` keep the defaults of
    :class:`FlowState` when absent.  A file that is not JSON or holds no
    JSON object, a missing key (``logF`` too), a grid other than n = 2 or
    one that :class:`BaseGrid` or :class:`FiberGrid` refuses, a mistyped
    grid or setting and a damaged logF raise a ``FlowError`` naming the
    file, with the error it caught as its cause; an unknown setting value
    raises the ``ValueError`` of ``FlowState``.
    """
    try:
        with open(path) as fh:
            record = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise FlowError(f"{path}: not a JSON record ({exc})") from exc
    if not isinstance(record, dict) or record.get("format") != CHECKPOINT_FORMAT:
        raise FlowError(f"not a checkpoint file: {path}")
    if record.get("version") not in (1, CHECKPOINT_VERSION):
        raise FlowError(f"{path}: unsupported checkpoint version {record.get('version')}")
    required = ("mode", "stepper", "base_mode")
    try:
        g = record["grid"]
        if g["n"] != BaseGrid.n:
            raise GridError(f"base dimension must be 2, got {g['n']}")
        bgrid, fgrid = BaseGrid(tuple(g["shape"]), tuple(g["lengths"])), FiberGrid(g["n_theta"])
        t, step_index = record["time"], record["step"]
        config = {key: record[key] for key in _CONFIG if key in record or key in required}
        logF = _decode_logF(path, record)
    except KeyError as exc:
        raise FlowError(f"{path}: the record has no {exc.args[0]!r}") from exc
    except (GridError, TypeError) as exc:
        raise FlowError(f"{path}: grid: {exc}") from exc
    shape = bgrid.shape + (fgrid.n_theta,)
    if logF.shape != (math.prod(shape),):
        raise FlowError(
            f"{path}: logF holds {logF.size} values, the {shape} grid needs "
            f"{math.prod(shape)}"
        )
    if not np.isfinite(logF).all():
        raise FlowError(f"{path}: logF holds non-finite values")
    try:
        return FlowState(bgrid=bgrid, fgrid=fgrid, logF=logF.reshape(shape),
                         t=t, step_index=step_index, **config)
    except TypeError as exc:
        raise FlowError(f"{path}: {exc}") from exc
