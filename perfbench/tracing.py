"""Span tracing of the calls into each finslerflow module.

The wrappers live here, not in the program: ``install`` replaces functions,
methods and the ``GridStructure``/``PointAssembly`` cache builders with
traced versions, in every ``finslerflow`` module that holds the name, so
that callers inside the package pick them up where they look them up.

Two kinds of span:

* stage spans (module entry points, cached property builds): the self time
  of a stage is its duration minus the stage spans nested in it;
* kernel spans (jet products, derivative maps, series composition, spec
  tables, grid derivatives, theta FFTs): the self time of a kernel is its
  duration minus the kernel spans directly inside it.  Kernel time is not
  subtracted from the stages around it, so a property build keeps the FFTs
  and stencils it runs.

Spans stay in memory as tuples and are written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import os
import sys
from time import perf_counter

STAGE = 0
KERNEL = 1


class Tracer:
    """In-memory spans ``(name, start, end, self_s, parent, op, n)``.

    ``op`` is the operation index during timed operations and a phase name
    (``"setup"``, ``"check"``) otherwise; ``n`` is a per-span count (points,
    multiply-adds, bytes) or 0.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = "setup"
        self.counters: dict = {}

    def count(self, name: str, k: int = 1) -> None:
        key = (self.op if isinstance(self.op, str) else "op", name)
        self.counters[key] = self.counters.get(key, 0) + k

    def wrap(self, name: str, kind: int, fn, weigh=None):
        """Traced version of ``fn``; ``weigh(args, kwargs, result)`` gives ``n``."""
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, kind, 0.0]
            stack.append(frame)
            done = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if kind == STAGE:
                    for outer in reversed(stack):
                        if outer[1] == STAGE:
                            outer[2] += dur
                            break
                elif stack and stack[-1][1] == KERNEL:
                    stack[-1][2] += dur
                n = weigh(args, kwargs, result) if done and weigh is not None else 0
                spans[sid] = (name, t0, t1, dur - frame[2], parent, tracer.op, n)

        return traced

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "self_s", "parent", "op", "n"],
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
            )


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _package_modules():
    return [m for k, m in sys.modules.items() if k == "finslerflow" or k.startswith("finslerflow.")]


def _patch_function(home, name: str, new_fn) -> None:
    """Replace ``home.name`` in every package module that holds the same object."""
    orig = getattr(home, name)
    for mod in _package_modules():
        if getattr(mod, name, None) is orig:
            setattr(mod, name, new_fn)


def _points(x, y):
    x = getattr(x, "shape", None)
    y = getattr(y, "shape", None)
    lead = ()
    for s in (x, y):
        if s:
            lead = _broadcast(lead, s[:-1])
    return math.prod(lead)


def _broadcast(a, b):
    n = max(len(a), len(b))
    a = (1,) * (n - len(a)) + tuple(a)
    b = (1,) * (n - len(b)) + tuple(b)
    return tuple(max(p, q) for p, q in zip(a, b))


def install(tracer: Tracer) -> None:
    """Install the traced wrappers; call once, right after importing the package."""
    import finslerflow  # noqa: F401  (loads every submodule)
    from finslerflow import (
        cli, connections, curvature, fields, flow, grids, jets, measure, structures,
        variations,
    )

    wrap = tracer.wrap
    Jet = jets.Jet

    # -- jets ---------------------------------------------------------------
    def mul_madds(args, kwargs, result):
        a, b = args[0], args[1]
        points = math.prod(result.c.shape[1:])
        if isinstance(b, Jet):
            return len(a.spec.mul_triplets) * points
        return a.spec.ncoeff * points

    mul = wrap("jets.mul", KERNEL, Jet.__mul__, mul_madds)
    Jet.__mul__ = mul
    Jet.__rmul__ = mul
    Jet.base_deriv = wrap("jets.deriv", KERNEL, Jet.base_deriv)
    Jet.fiber_deriv = wrap("jets.deriv", KERNEL, Jet.fiber_deriv)
    Jet.compose = wrap("jets.compose", KERNEL, Jet.compose)
    jets.JetSpec.__init__ = wrap("jets.spec_build", KERNEL, jets.JetSpec.__init__)
    for name in ("sqrt_", "exp_", "log_", "sin_", "cos_", "atan_", "power_"):
        orig = getattr(jets, name)
        traced = wrap("jets.compose", KERNEL, orig)

        def series(x, *rest, _orig=orig, _traced=traced):
            # plain arrays go straight to numpy and are not jet work
            return (_traced if isinstance(x, Jet) else _orig)(x, *rest)

        _patch_function(jets, name, functools.wraps(orig)(series))

    # -- structures / connections / curvature --------------------------------
    _patch_function(structures, "f2_jets", wrap("structures.f2_jets", STAGE, structures.f2_jets))

    PA = connections.PointAssembly
    PA.__init__ = wrap("connections.point_assembly", STAGE, PA.__init__)
    pa_get = PA._get

    def pa_traced_get(self, key, builder):
        if key in self._cache:
            return self._cache[key]
        return pa_get(self, key, wrap("connections.point_assembly", STAGE, builder))

    PA._get = pa_traced_get
    _patch_function(connections, "spray", wrap("connections.spray", STAGE, connections.spray))
    _patch_function(
        connections, "geodesic_integrate",
        wrap("connections.geodesic_integrate", STAGE, connections.geodesic_integrate),
    )

    def xy_points(args, kwargs, result):
        return _points(args[1], kwargs.get("y", args[2] if len(args) > 2 else None))

    def sweep_points(args, kwargs, result):
        return int(kwargs.get("n_theta", args[2] if len(args) > 2 else 64))

    for name, weigh in (
        ("ricci_directional", xy_points),
        ("curvature_bundle", xy_points),
        ("gem_residual", sweep_points),
    ):
        _patch_function(
            curvature, name, wrap(f"curvature.{name}", STAGE, getattr(curvature, name), weigh)
        )

    # -- grids / fields -------------------------------------------------------
    _patch_function(
        grids, "base_derivative",
        wrap("grids.base_derivative", KERNEL, grids.base_derivative,
             lambda a, k, r: 2 * a[0].nbytes),
    )
    _patch_function(fields, "theta_derivative",
                    wrap("fields.theta_derivative", KERNEL, fields.theta_derivative))
    _patch_function(fields, "fiber_partials",
                    wrap("fields.fiber_partials", KERNEL, fields.fiber_partials))
    _patch_function(fields, "horizontal_cov_deriv",
                    wrap("fields.horizontal_cov_deriv", STAGE, fields.horizontal_cov_deriv))

    GS = fields.GridStructure
    gs_init = GS.__init__

    def gs_traced_init(self, *args, **kwargs):
        tracer.count("fields.grid_structures")
        gs_init(self, *args, **kwargs)

    GS.__init__ = functools.wraps(gs_init)(gs_traced_init)
    gs_get = GS._get

    def gs_traced_get(self, key, builder):
        if key in self._cache:
            return self._cache[key]
        out = gs_get(self, key, wrap(f"fields.{key}", STAGE, builder))
        if key == "gem_field":
            tracer.count("fields.gem_nodes_built", out.size)
        return out

    GS._get = gs_traced_get
    GS.integrate = wrap("fields.integrate", STAGE, GS.integrate)
    gem_res = GS.gem_residual

    def gs_traced_gem_residual(self, stride=1):
        out = gem_res(self, stride)
        tracer.count("fields.gem_nodes_read", self._cache["gem_field"][::stride, ::stride, :].size)
        return out

    GS.gem_residual = functools.wraps(gem_res)(gs_traced_gem_residual)

    # -- measure / variations -------------------------------------------------
    for name in ("functional_report", "global_inner"):
        _patch_function(measure, name, wrap(f"measure.{name}", STAGE, getattr(measure, name)))
    for name in (
        "variation_residuals", "adjointness_residual", "family_variation",
        "lie_derivative_metric", "divergence_delta",
    ):
        _patch_function(
            variations, name, wrap(f"variations.{name}", STAGE, getattr(variations, name))
        )

    # -- flow / cli -------------------------------------------------------------
    for name in ("encode_state", "step", "flow_rhs", "diagnostics", "read_checkpoint", "run_flow"):
        _patch_function(flow, name, wrap(f"flow.{name}", STAGE, getattr(flow, name)))
    _patch_function(
        flow, "write_checkpoint",
        wrap("flow.write_checkpoint", STAGE, flow.write_checkpoint,
             lambda a, k, r: os.path.getsize(a[0])),
    )
    advance = flow._advance

    def counted_advance(*args, **kwargs):
        tracer.count("flow.advance_calls")
        return advance(*args, **kwargs)

    flow._advance = counted_advance
    _patch_function(cli, "main", wrap("cli.main", STAGE, cli.main))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

GRID_PROPERTIES = (
    "g", "ginv", "min_eig_g", "cartan", "mean_cartan", "p", "rho", "volume",
    "A", "G", "Gj", "Gjk", "Gjkm", "gamma", "Gamma", "hh", "ricci", "Q", "huu",
    "ricci_scalar", "ricci_tilde", "ricci_tilde_light", "huu_light", "h_tilde",
    "h_tilde_light", "gem_field", "nabla0_mean_cartan",
)

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "jets.mul_s": ("s", "lower"),
    "jets.mul_calls": ("count", "lower"),
    "jets.mul_madds": ("count", "lower"),
    "jets.mul_gmadds_per_s": ("Gmadd/s", "higher"),
    "jets.mul_bytes": ("B", "lower"),
    "jets.deriv_s": ("s", "lower"),
    "jets.compose_s": ("s", "lower"),
    "jets.spec_build_s": ("s", "lower"),
    "structures.f2_jets_s": ("s", "lower"),
    "structures.f2_jets_calls": ("count", "lower"),
    "connections.point_assembly_s": ("s", "lower"),
    "connections.spray_calls": ("count", "lower"),
    "connections.geodesic_integrate_s": ("s", "lower"),
    "curvature.ricci_directional_s": ("s", "lower"),
    "curvature.curvature_bundle_s": ("s", "lower"),
    "curvature.gem_residual_s": ("s", "lower"),
    "curvature.points_per_s": ("1/s", "higher"),
    "grids.base_derivative_s": ("s", "lower"),
    "grids.base_derivative_calls": ("count", "lower"),
    "grids.base_derivative_bytes": ("B", "lower"),
    "fields.theta_derivative_s": ("s", "lower"),
    "fields.fiber_partials_s": ("s", "lower"),
    "fields.fiber_partials_calls": ("count", "lower"),
    **{f"fields.{p}_s": ("s", "lower") for p in GRID_PROPERTIES},
    "fields.horizontal_cov_deriv_s": ("s", "lower"),
    "fields.integrate_s": ("s", "lower"),
    "fields.grid_structures": ("count", "lower"),
    "fields.gem_nodes_read_ratio": ("ratio", "higher"),
    "measure.functional_report_s": ("s", "lower"),
    "measure.global_inner_s": ("s", "lower"),
    "variations.variation_residuals_s": ("s", "lower"),
    "variations.adjointness_residual_s": ("s", "lower"),
    "variations.family_variation_s": ("s", "lower"),
    "variations.lie_derivative_metric_s": ("s", "lower"),
    "variations.divergence_delta_s": ("s", "lower"),
    "flow.encode_state_s": ("s", "lower"),
    "flow.step_s": ("s", "lower"),
    "flow.flow_rhs_s": ("s", "lower"),
    "flow.diagnostics_s": ("s", "lower"),
    "flow.dt_halvings": ("count", "lower"),
    "flow.write_checkpoint_s": ("s", "lower"),
    "flow.checkpoint_bytes": ("B", "lower"),
    "flow.read_checkpoint_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "traced_ops_per_s": ("1/s", "higher"),
}

# bytes a jet multiply-add moves at least: two operand reads and one read
# plus one write of the accumulator, 8 bytes each (computed, not measured)
MUL_BYTES_PER_MADD = 32


def per_layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-operation layer figures from the spans of the timed operations.

    Exceptions: ``jets.spec_build_s`` is the process's spec-table time (it is
    set-up work), ``flow.read_checkpoint_s`` is per checkpoint read (the reads
    happen in the check phase), and the rates and ratios are not per operation.
    """
    self_s: dict = {}
    calls: dict = {}
    weight: dict = {}
    spans = tracer.spans
    top_curv_s = 0.0
    top_curv_pts = 0
    for s in spans:
        if s is None:
            continue
        name, t0, t1, own, parent, op, n = s
        if name == "jets.spec_build" or (name == "flow.read_checkpoint" and op == "check"):
            key = name + "@all"
        elif isinstance(op, int):
            key = name
        else:
            continue
        self_s[key] = self_s.get(key, 0.0) + own
        calls[key] = calls.get(key, 0) + 1
        weight[key] = weight.get(key, 0) + n
        if key.startswith("curvature."):
            p = parent
            while p >= 0 and not spans[p][0].startswith("curvature."):
                p = spans[p][4]
            if p < 0:
                top_curv_s += t1 - t0
                top_curv_pts += n

    def counter(name, phase="op"):
        return tracer.counters.get((phase, name), 0)

    per = 1.0 / ops
    out = {}
    for metric in PER_LAYER:
        base = metric.rsplit("_", 1)[0]
        if metric.endswith("_s") and not metric.endswith("per_s"):
            out[metric] = self_s.get(base, 0.0) * per
        elif metric.endswith("_calls"):
            out[metric] = calls.get(base, 0) * per
    mul_s = self_s.get("jets.mul", 0.0)
    madds = weight.get("jets.mul", 0)
    out["jets.mul_madds"] = madds * per
    out["jets.mul_bytes"] = MUL_BYTES_PER_MADD * madds * per
    out["jets.mul_gmadds_per_s"] = madds / mul_s / 1e9 if mul_s else 0.0
    out["jets.spec_build_s"] = self_s.get("jets.spec_build@all", 0.0)
    out["connections.spray_calls"] = calls.get("connections.spray", 0) * per
    out["curvature.points_per_s"] = top_curv_pts / top_curv_s if top_curv_s else 0.0
    out["grids.base_derivative_bytes"] = weight.get("grids.base_derivative", 0) * per
    out["fields.grid_structures"] = counter("fields.grid_structures") * per
    built = counter("fields.gem_nodes_built")
    out["fields.gem_nodes_read_ratio"] = counter("fields.gem_nodes_read") / built if built else 0.0
    out["flow.dt_halvings"] = (counter("flow.advance_calls") - calls.get("flow.step", 0)) * per
    out["flow.checkpoint_bytes"] = weight.get("flow.write_checkpoint", 0) * per
    reads = calls.get("flow.read_checkpoint@all", 0)
    out["flow.read_checkpoint_s"] = (
        self_s.get("flow.read_checkpoint@all", 0.0) / reads if reads else 0.0
    )
    out["traced_ops_per_s"] = 0.0  # filled in by the parent, which calibrates
    return {k: out[k] for k in PER_LAYER}
