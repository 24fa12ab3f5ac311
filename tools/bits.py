"""Compare the pointwise outputs of this checkout with those of a git revision, bit for bit.

    python3 tools/bits.py REV

builds REV's tree with ``git archive`` under ``runs/bits/`` (ignored by
git), evaluates one list of named entries with each tree's ``src/`` in its
own process, and prints one line per entry: ``identical`` when the two
arrays have the same shape, dtype and bytes (signed zeros included), else
the largest absolute and relative difference and the index where each
occurs.  It exits 1 if any entry differs.

The entries, on sphere-patch, funk-disk, randers-torus (b = 0.3),
quartic-minkowski and conformal-torus: ``spray`` and ``berwald_coeffs`` at
1 and 7 points; ``ricci_directional`` at 1 and 7 points, one x against 7 y,
and 32768 points; every ``curvature_bundle`` array at 7 points (c = 0.3);
``gem_residual`` over 64 angles; ``hh_curvature`` at 7 points; and two
geodesic paths (sphere-patch, funk-disk).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
METRICS = (
    ("sphere-patch", {}),
    ("funk-disk", {}),
    ("randers-torus", {"b": 0.3}),
    ("quartic-minkowski", {}),
    ("conformal-torus", {}),
)
BUNDLE_FIELDS = ("g", "ginv", "H", "ricci", "ricci_tilde", "huu", "h_tilde", "h_hat")


def _points(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n base points with |x| <= 0.5 (inside every chart) and fiber points of norm 0.5-1.5."""
    r, a = 0.5 * np.sqrt(rng.uniform(size=n)), rng.uniform(0, 2 * np.pi, n)
    s, b = rng.uniform(0.5, 1.5, n), rng.uniform(0, 2 * np.pi, n)
    return (np.stack([r * np.cos(a), r * np.sin(a)], -1),
            np.stack([s * np.cos(b), s * np.sin(b)], -1))


def entries() -> dict[str, np.ndarray]:
    """Every entry of the protocol, from the ``finslerflow`` on the import path."""
    from finslerflow import connections, curvature, zoo

    out = {}
    for name, params in METRICS:
        fs = zoo.get_entry(name, **params).structure
        rng = np.random.default_rng(2601)
        x7, y7 = _points(rng, 7)
        xb, yb = _points(rng, 32768)
        x1, y1 = x7[0], y7[0]
        for n, (x, y) in (("1", (x1, y1)), ("7", (x7, y7))):
            out[f"{name}/spray/{n}"] = connections.spray(fs, x, y)
            out[f"{name}/berwald_coeffs/{n}"] = connections.berwald_coeffs(fs, x, y)
        for n, (x, y) in (("1", (x1, y1)), ("7", (x7, y7)), ("1x7", (x1, y7)),
                          ("32768", (xb, yb))):
            out[f"{name}/ricci_directional/{n}"] = curvature.ricci_directional(fs, x, y)
        cb = curvature.curvature_bundle(fs, x7, y7, c_fun=0.3)
        for field in BUNDLE_FIELDS:
            out[f"{name}/curvature_bundle/{field}"] = getattr(cb, field)
        out[f"{name}/gem_residual"] = np.array(curvature.gem_residual(fs, x1, n_theta=64))
        out[f"{name}/hh_curvature"] = curvature.hh_curvature(fs, x7, y7)
    for name, x0, y0, T in (("sphere-patch", (0.3, -0.2), (0.6, 0.8), 1.0),
                            ("funk-disk", (0.1, 0.2), (0.5, -0.3), 0.8)):
        path = connections.geodesic_integrate(zoo.get_entry(name).structure, x0, y0, T, 0.05)
        out[f"{name}/geodesic/x"], out[f"{name}/geodesic/v"] = path.x, path.v
    return out


def compare(a: dict, b: dict) -> list[tuple[str, str]]:
    """(entry, verdict) for every entry of ``a`` or ``b``, in ``a``'s order, then ``b``'s."""
    rows = []
    for key in list(a) + [k for k in b if k not in a]:
        if key not in a or key not in b:
            rows.append((key, f"only in {'the first' if key in a else 'the second'} tree"))
            continue
        p, q = np.asarray(a[key]), np.asarray(b[key])
        if p.shape != q.shape or p.dtype != q.dtype:
            rows.append((key, f"shape/dtype {p.shape} {p.dtype} vs {q.shape} {q.dtype}"))
        elif p.tobytes() == q.tobytes():
            rows.append((key, "identical"))
        else:
            # elements whose bytes differ; a signed zero differs at abs 0
            differs = (p.reshape(p.size, -1).view(np.uint8)
                       != q.reshape(q.size, -1).view(np.uint8)).any(axis=1).reshape(p.shape)
            with np.errstate(divide="ignore", invalid="ignore"):
                d = np.nan_to_num(np.abs(p - q), nan=np.inf)
                rel = np.nan_to_num(d / np.maximum(np.abs(p), np.abs(q)), nan=0.0)
            ia, ir = (np.unravel_index(int(np.argmax(np.where(differs, m, -1.0))), p.shape)
                      for m in (d, rel))
            rows.append((key, f"{int(differs.sum())} of {p.size} differ: "
                              f"max abs {d[ia]:.3e} at {tuple(map(int, ia))}, "
                              f"max rel {rel[ir]:.3e} at {tuple(map(int, ir))}"))
    return rows


def _evaluate(tree: Path, out: Path) -> dict:
    """Run ``entries`` with ``tree/src`` first on the import path; the arrays it saved."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump", str(out)],
                   env=env, check=True)
    with np.load(out) as data:
        return {k: data[k] for k in data.files}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", nargs="?", help="the git revision to compare this checkout with")
    ap.add_argument("--dump", help=argparse.SUPPRESS)  # the child process's output file
    args = ap.parse_args(argv)
    if args.dump:
        np.savez(args.dump, **entries())
        return 0
    if not args.rev:
        ap.error("REV is required")
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.rev],
                         check=True, capture_output=True, text=True).stdout.strip()
    base = ROOT / "runs" / "bits"
    tree = base / sha
    if not (tree / "src").is_dir():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        theirs = _evaluate(tree, Path(tmp) / "rev.npz")
        ours = _evaluate(ROOT, Path(tmp) / "checkout.npz")
    rows = compare(theirs, ours)
    width = max(len(k) for k, _ in rows)
    for key, verdict in rows:
        print(f"{key:<{width}}  {verdict}")
    same = sum(v == "identical" for _, v in rows)
    print(f"{same} of {len(rows)} entries identical ({sha} against this checkout)")
    return 0 if same == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
