"""Command-line surface: validation, curvature reports, functionals, flows.

Exit codes: 0 success, 1 numerical failure (e.g. convexity loss), 2 usage or
configuration error.  Errors also emit a machine-readable JSON record on
stderr.  Identical invocations with identical configuration produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .flow import STEPPERS, FlowDiagnostics, FlowError, encode_state, run_flow
from .grids import BASE_MODES, build_grid
from .structures import (
    check_at_least_1, check_finite, check_positive_finite, validate_structure,
)
from .zoo import get_entry, list_entries

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

DEFAULT_TOLERANCES = {
    "validity_homogeneity": 1e-8,
    "validity_positivity": 1e-6,
    "identity_residual": 1e-3,
    "conformal_dI_residual": 1e-2,
}


class UsageError(Exception):
    pass


def _error_record(code: int, message: str, detail=None):
    rec = {"error": message, "code": code}
    if detail is not None:
        rec["detail"] = detail
    print(json.dumps(rec), file=sys.stderr)


def _parse_floats(text: str, count: int | None = None):
    vals = [float(v) for v in text.split(",") if v != ""]
    if count is not None and len(vals) != count:
        raise UsageError(f"expected {count} comma-separated values, got {text!r}")
    return vals


def _grid(args, entry):
    """The (base, fiber) grids of ``--grid`` N1,N2,Ntheta (or N) on the entry's chart."""
    parts = [int(v) for v in args.grid.split(",")]
    if len(parts) == 1:
        parts = [parts[0], parts[0], parts[0]]
    if len(parts) != 3:
        raise UsageError(f"--grid wants N1,N2,Ntheta, got {args.grid!r}")
    n1, n2, nt = parts
    return build_grid(2, (n1, n2), entry.structure.chart.lengths or 2 * np.pi, nt)


def _metric(args) -> object:
    if not getattr(args, "metric", None):
        raise UsageError("--metric is required (flag or config file)")
    params = getattr(args, "metric_params", None)
    if params and isinstance(params, str):
        try:
            params = json.loads(params)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad --metric-params JSON: {exc}")
    try:
        return get_entry(args.metric, **(params or {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(str(exc))


def _write_manifest(out_dir: str, args) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func",)
        },
        "versions": {
            "finslerflow": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "tolerances": DEFAULT_TOLERANCES,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_record(args, filename: str, record) -> None:
    """With ``--out``, write the manifest and ``record`` as ``filename`` there."""
    if args.out:
        _write_manifest(args.out, args)
        with open(os.path.join(args.out, filename), "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _load_config_defaults(argv):
    """Pre-scan for --config and return its JSON contents (flags override)."""
    cfg = {}
    if argv and "--config" in argv:
        at = argv.index("--config") + 1
        if at == len(argv):
            raise UsageError("--config needs a path")
        path = argv[at]
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}")
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
    return cfg


def _config_value(action, key: str, value):
    """A config ``value`` through its flag's ``type`` and ``choices``, as a flag would go.

    argparse converts only string defaults, so a config number or list would
    reach a command unchecked.  A bool, or a float with a fraction for an int
    flag, is refused rather than converted.
    """
    if value is None:
        return value
    try:
        out = value
        if action.type is not None:
            if isinstance(value, bool) or (
                    action.type is int and isinstance(value, float) and not value.is_integer()):
                raise ValueError(value)
            out = action.type(value)
        if action.choices is not None and out not in action.choices:
            raise ValueError(value)
    except (TypeError, ValueError):
        raise UsageError(f"config key {key!r} is not a valid {action.option_strings[0]} "
                         f"value: {value!r}") from None
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_zoo(args) -> int:
    for line in list_entries():
        print(line)
    return EXIT_OK


def cmd_validate(args) -> int:
    for flag, value in (("--tol", args.tol), ("--tol-positivity", args.tol_positivity)):
        if not 0 <= value < np.inf:  # false for a NaN
            raise UsageError(f"{flag} must be finite and non-negative, got {value}")
    entry = _metric(args)
    report = validate_structure(
        entry.structure,
        sample_count=args.samples,
        tol=args.tol,
        tol_positivity=args.tol_positivity,
    )
    print(report.summary())
    _write_record(args, "validity.json",
                  {k: {"passed": ok, "worst": w} for k, (ok, w) in report.checks.items()})
    if not report.passed:
        failed = {k: w for k, (ok, w) in report.checks.items() if not ok}
        _error_record(EXIT_NUMERICAL, "validity checks failed", detail=failed)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_report(args) -> int:
    from .curvature import curvature_bundle, gem_residual

    check_at_least_1("--n-theta", args.n_theta)
    check_finite("--theta", args.theta)
    if args.c is not None:
        check_finite("--c", args.c)
    entry = _metric(args)
    fs = entry.structure
    x = np.asarray(_parse_floats(args.x, fs.n))
    for value in x:
        check_finite("--x", value)
    if not fs.chart.contains(x):
        raise UsageError(f"--x {args.x} lies outside the chart {fs.chart.describe()}")
    theta = float(args.theta)
    y = np.array([np.cos(theta), np.sin(theta)])
    cb = curvature_bundle(fs, x, y, c_fun=args.c)
    record = {
        "metric": fs.name,
        "params": fs.params,
        "x": x.tolist(),
        "theta": theta,
        "F": float(fs.F(x, y)),
        "g": cb.g.tolist(),
        "H_uu": float(cb.huu),
        "H_tilde": float(cb.h_tilde),
        "H_hat": float(cb.h_hat),
        "gem_residual": gem_residual(fs, x, n_theta=args.n_theta),
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    _write_record(args, "report.json", record)
    return EXIT_OK


def cmd_functional(args) -> int:
    from .fields import GridStructure
    from .measure import functional_report

    if args.c is not None:
        check_finite("--c", args.c)
    entry = _metric(args)
    gs = GridStructure(entry.structure, *_grid(args, entry), base_mode=args.base_mode)
    rep = functional_report(gs, c_fun=args.c)
    print(json.dumps(rep.as_dict(), indent=2, sort_keys=True))
    _write_record(args, "functional.json", rep.as_dict())
    return EXIT_OK


def cmd_verify_identities(args) -> int:
    from .fields import GridStructure
    from .variations import (
        adjointness_residual,
        conformal_family,
        lie_derivative_metric,
        randers_family,
        family_variation,
        variation_residuals,
    )

    check_positive_finite("--t-step", args.t_step)
    entry = _metric(args)
    gs = GridStructure(entry.structure, *_grid(args, entry), base_mode=args.base_mode)

    from .jets import cos_, sin_

    results = {}
    # Lemma 4.1 adjointness on a fixed (X, h) pair
    def X(xn):
        return np.stack([np.sin(xn[..., 0]), np.cos(xn[..., 1])], axis=-1)

    fam = randers_family(entry.structure, lambda xs: (0.05 * cos_(xs[1]), 0.05 * sin_(xs[0])))
    h = family_variation(fam, gs)
    results["adjointness_randers_h"] = adjointness_residual(X, h, gs)
    hL = lie_derivative_metric(lambda xn: np.stack(
        [np.cos(xn[..., 1]), np.sin(xn[..., 0])], axis=-1), gs)
    results["adjointness_lie_h"] = adjointness_residual(X, hL, gs)

    rep = variation_residuals(fam, gs, t_step=args.t_step)
    for k, v in rep.residuals.items():
        results[f"randers-path: {k}"] = v
    cfam = conformal_family(entry.structure, lambda xs: 0.3 + 0.0 * xs[0])
    crep = variation_residuals(cfam, gs, t_step=args.t_step)
    for k, v in crep.residuals.items():
        results[f"conformal-path: {k}"] = v

    tol = DEFAULT_TOLERANCES["identity_residual"]
    ctol = DEFAULT_TOLERANCES["conformal_dI_residual"]
    failures = {
        k: v
        for k, v in results.items()
        if v > (ctol if "dI/dt" in k else tol)
    }
    print(json.dumps(results, indent=2, sort_keys=True))
    _write_record(args, "identities.json", results)
    if failures:
        _error_record(EXIT_NUMERICAL, "identity residuals over tolerance", detail=failures)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_flow(args) -> int:
    entry = _metric(args)
    bgrid, fgrid = _grid(args, entry)
    # checked before anything is written; --checkpoint-every and --dt may be unset
    for flag, value in (("--gem-stride", args.gem_stride), ("--steps", args.steps),
                        ("--checkpoint-every", args.checkpoint_every)):
        if value is not None:
            check_at_least_1(flag, value)
    for flag, value in (("--dt", args.dt), ("--safety", args.safety)):
        if value is not None:
            check_positive_finite(flag, value)
    state = encode_state(
        entry.structure,
        bgrid,
        fgrid,
        mode="normalized" if args.normalized else "unnormalized",
        stepper=args.stepper,
        base_mode=args.base_mode,
        safety=args.safety,
        fiber_cut=args.fiber_cut,
    )
    out_dir = args.out or "."
    _write_manifest(out_dir, args)
    traj = run_flow(
        state,
        steps=args.steps,
        dt=args.dt,
        gem_stride=args.gem_stride,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=out_dir,
    )
    csv_path = os.path.join(out_dir, "diagnostics.csv")
    rows = [FlowDiagnostics.CSV_HEADER] + [d.csv_row() for d in traj.rows]
    tmp = csv_path + ".tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    os.replace(tmp, csv_path)
    if traj.failure:
        _error_record(EXIT_NUMERICAL, traj.failure, detail=traj.failure_detail)
        return EXIT_NUMERICAL
    print(f"wrote {csv_path} ({len(traj.rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``finsler`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="finsler",
        description="Numerical Finsler geometry: curvature, functionals, flows.",
    )
    parser.add_argument("--config", help="JSON config file (flags override it)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False):
        p.add_argument("--metric")
        p.add_argument("--metric-params", help="JSON object of entry parameters")
        p.add_argument("--out", help="output directory (manifest + records)")
        if grid:
            p.add_argument("--base-mode", default="fd4", choices=BASE_MODES)
            p.add_argument("--grid", default="48,48,48", help="N1,N2,Ntheta")

    p = sub.add_parser("zoo", help="list catalogue entries")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("validate", help="sampled structure validity checks")
    common(p)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCES["validity_homogeneity"])
    p.add_argument(
        "--tol-positivity", type=float, default=DEFAULT_TOLERANCES["validity_positivity"]
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="pointwise curvature record at (x, theta)")
    common(p)
    p.add_argument("--x", required=True, help="comma-separated chart coordinates")
    p.add_argument("--theta", required=True, type=float)
    p.add_argument("--c", type=float, default=None, help="constant weight c(x)")
    p.add_argument("--n-theta", type=int, default=64, help="fiber sweep for GEM residual")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("functional", help="indicatrix volume and curvature functional")
    common(p, grid=True)
    p.add_argument("--c", type=float, default=None)
    p.set_defaults(func=cmd_functional)

    p = sub.add_parser("verify-identities", help="variational identity residuals")
    common(p, grid=True)
    p.add_argument("--t-step", type=float, default=1e-4)
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("flow", help="grid curvature flow with CSV diagnostics")
    common(p, grid=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--dt", type=float, default=None, help="fixed step (default: policy)")
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--stepper", default="euler", choices=STEPPERS)
    p.add_argument("--safety", type=float, default=0.25)
    p.add_argument(
        "--fiber-cut", type=int, default=None,
        help="project evolved states onto fiber modes <= cut (stabilizes long runs)",
    )
    p.add_argument("--gem-stride", type=int, default=8)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.set_defaults(func=cmd_flow)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subcommands = build_parser()
    try:
        defaults = _load_config_defaults(argv)
        if defaults:
            # a key applies to the subcommands that declare it; null means
            # "unset", so it is refused where unset is not the option's default
            declared = {p: {a.dest: a for a in p._actions} for p in subcommands.values()}
            bad = set(defaults).difference(*declared.values())
            if bad:
                raise UsageError(f"unknown config keys: {sorted(bad)}")
            null = sorted(k for k, v in defaults.items() if v is None
                          and any(k in d and d[k].default is not None for d in declared.values()))
            if null:
                raise UsageError(f"config keys {null} are null, but their options have defaults")
            for p, actions in declared.items():
                p.set_defaults(**{k: _config_value(actions[k], k, v)
                                  for k, v in defaults.items() if k in actions})
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            if exc.code not in (0, None):
                _error_record(EXIT_USAGE, "argument parsing failed")
                return EXIT_USAGE
            return EXIT_OK
        return args.func(args)
    except (UsageError, ValueError, KeyError) as exc:  # GridError is a ValueError
        _error_record(EXIT_USAGE, str(exc))
        return EXIT_USAGE
    except (FlowError, ArithmeticError) as exc:  # SingularMetricError is an ArithmeticError
        _error_record(EXIT_NUMERICAL, str(exc))
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
