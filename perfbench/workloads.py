"""The four workloads: seeded inputs, one round of operations, output checks.

A workload object is built once per process.  ``setup`` makes the inputs
from the seed and runs a small warm-up, ``round_ops`` gives the operations of
one round as callables that each return ``(attempted, failed)``, and
``check`` verifies every output kept from the rounds after the timing has
ended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from . import checks

TWO_PI = 2.0 * np.pi


def _fold(res: dict, key: str, result) -> None:
    """Record a check met several times: whether every instance passed, and the worst value."""
    ok, val = res.get(key, (True, 0.0))
    res[key] = (ok and result[0], max(val, result[1]))


class PointwiseBatch:
    """C1's analytic H(u,u) sweep over the 64^3 conformal-torus grid.

    Batches of 32768 points take the triplet path of the jet product.  The
    seed permutes the grid nodes, so each chunk holds different nodes; one
    operation is one chunk, and the rounds walk through the eight chunks.
    """

    name = "pointwise-batch"
    calibration = "planes"
    # the first full-size chunk of a process runs 10-20% slower than the
    # later ones, so it is checked but not timed
    warmup_rounds = 1
    N = 64
    CHUNK = 32768
    AMP, P, Q = 0.2, 1, 1

    def setup(self, seed: int, work_dir: str) -> None:
        from finslerflow import curvature, grids, zoo

        self.curvature = curvature
        self.fs = zoo.get_entry("conformal-torus", amp=self.AMP, p=self.P, q=self.Q).structure
        bg, fg = grids.build_grid(2, self.N, TWO_PI, self.N)
        shape = (self.N, self.N, self.N, 2)
        X = np.broadcast_to(bg.nodes()[:, :, None, :], shape).reshape(-1, 2)
        e = np.stack([np.cos(fg.thetas), np.sin(fg.thetas)], -1)
        Y = np.broadcast_to(e[None, None, :, :], shape).reshape(-1, 2)
        order = np.random.default_rng(seed).permutation(len(X))
        self.X = np.ascontiguousarray(X[order])
        self.Y = np.ascontiguousarray(Y[order])
        self.chunks = len(self.X) // self.CHUNK
        self.outputs = []
        # warm-up on the triplet path (>= 512 points): builds the jet tables
        curvature.ricci_directional(self.fs, self.X[:512], self.Y[:512], base_mode="analytic")

    def round_ops(self):
        return [self._chunk]

    def _chunk(self):
        i = len(self.outputs) % self.chunks
        sl = slice(i * self.CHUNK, (i + 1) * self.CHUNK)
        huu = self.curvature.ricci_directional(self.fs, self.X[sl], self.Y[sl], base_mode="analytic")
        self.outputs.append((sl, huu))
        return 1, 0

    def check(self) -> dict:
        res = {}
        for sl, huu in self.outputs:
            K = checks.conformal_gauss(self.X[sl], self.AMP, self.P, self.Q)
            _fold(res, "H(u,u) vs closed-form Gauss curvature", checks.huu_matches(huu, K))
        return res


class PointwiseScalar:
    """Single-point curvature reports and geodesic segments.

    Leads under 512 points take the grouped jet product.  A round is the
    work of ``finsler report`` (curvature bundle and 64-angle GEM sweep) at a
    seeded point of funk-disk and of sphere-patch, then one closed equator of
    the sphere in eight RK4 segments: 12 operations.
    """

    name = "pointwise-scalar"
    calibration = "small"
    warmup_rounds = 0
    SEGMENTS = 8
    STEPS_PER_SEGMENT = 16
    N_THETA = 64

    def setup(self, seed: int, work_dir: str) -> None:
        from finslerflow import connections, curvature, zoo

        self.curvature = curvature
        self.connections = connections
        rng = np.random.default_rng(seed)
        rad, phi, th = 0.8 * np.sqrt(rng.uniform()), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
        self.x_funk = np.array([rad * np.cos(phi), rad * np.sin(phi)])
        self.y_funk = np.array([np.cos(th), np.sin(th)])
        self.r = float(rng.uniform(0.8, 1.25))
        rad, phi, th = 2.0 * np.sqrt(rng.uniform()), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
        self.x_sph = np.array([rad * np.cos(phi), rad * np.sin(phi)])
        self.y_sph = np.array([np.cos(th), np.sin(th)])
        phi0, sense = rng.uniform(0, TWO_PI), rng.choice([-1.0, 1.0])
        self.x0 = self.r * np.array([np.cos(phi0), np.sin(phi0)])
        self.v0 = sense * np.array([-np.sin(phi0), np.cos(phi0)])
        self.funk = zoo.get_entry("funk-disk").structure
        self.sphere = zoo.get_entry("sphere-patch", r=self.r).structure
        self.outputs = []
        # warm-up: the order-7 curvature and order-2 spray jet tables
        curvature.curvature_bundle(self.funk, self.x_funk, self.y_funk)
        connections.spray(self.sphere, self.x0, self.v0)

    def round_ops(self):
        cv = self.curvature
        out = {"paths": []}
        self.outputs.append(out)

        def keep(key, fn, *args, **kwargs):
            def op():
                out[key] = fn(*args, **kwargs)
                return 1, 0
            return op

        ops = [
            keep("funk", cv.curvature_bundle, self.funk, self.x_funk, self.y_funk),
            keep("funk_gem", cv.gem_residual, self.funk, self.x_funk, n_theta=self.N_THETA),
            keep("sphere", cv.curvature_bundle, self.sphere, self.x_sph, self.y_sph),
            keep("sphere_gem", cv.gem_residual, self.sphere, self.x_sph, n_theta=self.N_THETA),
        ]
        seg = TWO_PI * self.r / self.SEGMENTS

        def segment():
            paths = out["paths"]
            x, v = (paths[-1].x[-1], paths[-1].v[-1]) if paths else (self.x0, self.v0)
            paths.append(self.connections.geodesic_integrate(
                self.sphere, x, v, seg, seg / self.STEPS_PER_SEGMENT
            ))
            return 1, 0

        return ops + [segment] * self.SEGMENTS

    def check(self) -> dict:
        res = {}

        r2 = self.r * self.r
        for out in self.outputs:
            _fold(res, "funk-disk H(u,u) = -1/4", checks.scalar_matches(out["funk"].huu, -0.25))
            _fold(res, "funk-disk Htilde = -1/2", checks.scalar_matches(out["funk"].h_tilde, -0.5))
            _fold(res, "sphere-patch H(u,u) = 1/r^2", checks.scalar_matches(out["sphere"].huu, 1.0 / r2))
            _fold(res, "sphere-patch Htilde = 2/r^2", checks.scalar_matches(out["sphere"].h_tilde, 2.0 / r2))
            _fold(res, "GEM residual at roundoff", checks.at_roundoff(out["funk_gem"]))
            _fold(res, "GEM residual at roundoff", checks.at_roundoff(out["sphere_gem"]))
            paths = out["paths"]
            complete = all(p.complete for p in paths)
            _fold(res, "geodesic stays in the chart", (complete, 0.0 if complete else 1.0))
            xs = np.concatenate([p.x for p in paths])
            vs = np.concatenate([p.v for p in paths])
            _fold(res, "F(x, x') constant along the geodesic",
                 checks.F_conserved(checks.sphere_F(xs, vs, self.r)))
            _fold(res, "equator closes after 2 pi r", checks.equator_closed(xs[-1], self.x0, self.r))
        return res


class GridFlow:
    """C8's normalized conformal-torus flow at 64^3, started as a user starts it.

    One round is one ``finsler flow`` command run in process: ten euler steps
    of 1.45e-3 with periodic checkpoints every five steps and a final one.
    One operation is one accepted step with its diagnostics row.  The seed
    sets the amplitude of the conformal factor.
    """

    name = "grid-flow"
    # no reference kernel: in three sets of runs, scaling by the grid
    # kernel widened this workload's spread
    calibration = None
    warmup_rounds = 0
    N = 64
    STEPS = 10
    DT = 1.45e-3
    GEM_STRIDE = 16
    CHECKPOINT_EVERY = 5

    def setup(self, seed: int, work_dir: str) -> None:
        from finslerflow import cli, flow, grids, zoo

        self.cli = cli
        self.flow = flow
        self.work_dir = work_dir
        self.amp = round(float(np.random.default_rng(seed).uniform(0.15, 0.25)), 6)
        self.argv = [
            "flow", "--metric", "conformal-torus",
            "--metric-params", json.dumps({"amp": self.amp}),
            "--grid", f"{self.N},{self.N},{self.N}",
            "--steps", str(self.STEPS), "--dt", repr(self.DT), "--normalized",
            "--stepper", "euler", "--fiber-cut", "2",
            "--gem-stride", str(self.GEM_STRIDE),
            "--checkpoint-every", str(self.CHECKPOINT_EVERY),
        ]
        self.rounds = []
        # the first grid state at full size, then a small command end to end
        entry = zoo.get_entry("conformal-torus", amp=self.amp)
        bg, fg = grids.build_grid(2, self.N, TWO_PI, self.N)
        self.bgrid = bg
        flow.diagnostics(flow.encode_state(entry.structure, bg, fg, mode="normalized",
                                           fiber_cut=2), self.GEM_STRIDE)
        self._command(["--grid", "16,16,16", "--steps", "1"], os.path.join(work_dir, "warmup"))

    def _command(self, extra, out_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(self.argv + extra + ["--out", out_dir])

    def round_ops(self):
        return [self._run]

    def _run(self):
        out_dir = os.path.join(self.work_dir, f"round{len(self.rounds):03d}")
        code = self._command([], out_dir)
        self.rounds.append((code, out_dir))
        with open(os.path.join(out_dir, "diagnostics.csv")) as fh:
            steps = len(fh.read().splitlines()) - 2
        return self.STEPS, self.STEPS - steps

    def check(self) -> dict:
        from finslerflow import oracles

        res = {}

        reference = None
        first_csv = None
        for code, out_dir in self.rounds:
            _fold(res, "command exit code 0", (code == 0, float(code)))
            with open(os.path.join(out_dir, "diagnostics.csv")) as fh:
                text = fh.read()
            first_csv = text if first_csv is None else first_csv
            _fold(res, "rounds write identical CSVs", (text == first_csv, float(text != first_csv)))
            lines = text.splitlines()
            cols = lines[0].split(",")
            rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
            col = {name: rows[:, i] for i, name in enumerate(cols)}
            sup = col["max_abs_Huu"]
            if reference is None:
                reference = oracles.conformal_flow_decay_ratio(
                    self.amp, 1, 1, self.bgrid, float(col["time"][-1])
                )
            _fold(res, "decay ratio vs conformal-factor PDE",
                 checks.decay_matches(sup[-1] / sup[0], reference))
            _fold(res, "sup|H(u,u)| never rises", checks.never_rises(sup))
            _fold(res, "V within the euler error", checks.volume_kept(col["V"], sup, col["c"], self.DT))
            _fold(res, "min_eig_g > 0", checks.positive(col["min_eig_g"]))
            periodic = all(
                os.path.exists(os.path.join(out_dir, f"checkpoint_{k:06d}.json"))
                for k in range(self.CHECKPOINT_EVERY, self.STEPS + 1, self.CHECKPOINT_EVERY)
            )
            _fold(res, "periodic checkpoints written", (periodic, 0.0 if periodic else 1.0))
            state = self.flow.read_checkpoint(os.path.join(out_dir, "checkpoint_final.json"))
            row = self.flow.diagnostics(state, self.GEM_STRIDE).csv_row()
            _fold(res, "final checkpoint reproduces the last CSV row",
                 (row == lines[-1], 0.0 if row == lines[-1] else 1.0))
        return res


class GridAnalysis:
    """The variational side at 48^3: functional, identities, adjointness.

    A round builds fresh grid structures and runs ten operations: three
    functional reports (conformal-torus, randers-torus and its double),
    C7's identity residuals along a Randers path and a constant-k conformal
    path, and the five pairs of C6's adjointness corpus, each with the
    construction of its variation.  The seed sets the conformal amplitude,
    the Randers path's drift, the conformal k and the order of the pairs.
    """

    name = "grid-analysis"
    calibration = "grid"
    warmup_rounds = 0
    N = 48
    B = 0.3
    T_STEP = 1e-4

    def setup(self, seed: int, work_dir: str) -> None:
        from finslerflow import fields, grids, jets, measure, structures, variations, zoo

        self.fields = fields
        self.measure = measure
        self.variations = variations
        rng = np.random.default_rng(seed)
        self.amp = float(rng.uniform(0.15, 0.25))
        self.drift = (float(rng.uniform(0.04, 0.07)), float(rng.uniform(0.04, 0.07)))
        self.k = float(rng.uniform(0.2, 0.4))
        self.order = [int(i) for i in rng.permutation(5)]
        self.conf = zoo.get_entry("conformal-torus", amp=self.amp).structure
        self.randers = zoo.get_entry("randers-torus", b=self.B).structure
        randers = self.randers
        self.doubled = structures.FinslerStructure(
            n=2, name="2F", chart=randers.chart,
            f2=lambda xs, ys: 4.0 * randers.f2(xs, ys),
        )
        cos_, sin_ = jets.cos_, jets.sin_
        d1, d2 = self.drift
        self.path_drift = lambda xs: (d1 * cos_(xs[1]), d2 * sin_(xs[0]))
        self.corpus = _adjointness_corpus(randers, variations, jets)
        self.outputs = []
        self.grid = grids.build_grid(2, 16, TWO_PI, 16)
        for op in self.round_ops():
            op()
        self.outputs.clear()
        self.grid = grids.build_grid(2, self.N, TWO_PI, self.N)

    def round_ops(self):
        """Ten operations on grid structures that this round builds afresh."""
        GS = self.fields.GridStructure
        bg, fg = self.grid
        v = self.variations
        structures = {"conf": self.conf, "randers": self.randers, "doubled": self.doubled}
        grids = {}
        out = {"adjointness": []}
        self.outputs.append(out)

        def grid(key):
            if key not in grids:
                grids[key] = GS(structures[key], bg, fg)
            return grids[key]

        def functional(key):
            def op():
                out["I_" + key] = self.measure.functional_report(grid(key))
                return 1, 0
            return op

        def randers_path():
            fam = v.randers_family(self.randers, self.path_drift)
            out["randers_path"] = v.variation_residuals(fam, grid("randers"), t_step=self.T_STEP).residuals
            return 1, 0

        def conformal_path():
            fam = v.conformal_family(self.conf, lambda xs, k=self.k: k + 0.0 * xs[0])
            out["conformal_path"] = v.variation_residuals(fam, grid("conf"), t_step=self.T_STEP).residuals
            return 1, 0

        def adjointness(i):
            def op():
                X, make_h = self.corpus[i]
                gs = grid("randers")
                out["adjointness"].append(v.adjointness_residual(X, make_h(gs), gs))
                return 1, 0
            return op

        return (
            [functional(k) for k in structures]
            + [randers_path, conformal_path]
            + [adjointness(i) for i in self.order]
        )

    def check(self) -> dict:
        res = {}

        bg, _ = self.grid
        nodes = bg.nodes()
        supK = float(np.max(np.abs(checks.conformal_gauss(nodes, self.amp, 1, 1))))
        V_ref = checks.conformal_volume(self.amp, 1, 1, bg.shape, bg.lengths)
        for out in self.outputs:
            for path in ("randers_path", "conformal_path"):
                for key, val in out[path].items():
                    tol = checks.CONFORMAL_DI_TOL if "dI/dt" in key else checks.IDENTITY_TOL
                    _fold(res, f"{path}: {key}", checks.below(val, tol))
            for val in out["adjointness"]:
                _fold(res, "adjointness residual", checks.below(val, checks.ADJOINT_TOL))
            rc = out["I_conf"]
            _fold(res, "conformal-torus V vs 2 pi sum e^{2u}",
                 checks.relative_gap(rc.volume, V_ref, checks.VOLUME_TOL))
            _fold(res, "Gauss-Bonnet |I| on conformal-torus", checks.gauss_bonnet(rc.I, rc.volume, 2.0 * supK))
            _fold(res, "I[2F] = I[F]",
                 checks.relative_gap(out["I_doubled"].I, out["I_randers"].I, checks.SCALE_TOL))
        return res


def _adjointness_corpus(randers, variations, jets):
    """C6's five (X, h) pairs; each h is built on the grid it is paired on."""
    cos_, sin_ = jets.cos_, jets.sin_
    fam1 = variations.randers_family(randers, lambda xs: (0.05 * cos_(xs[1]), 0.05 * sin_(xs[0])))
    fam2 = variations.randers_family(
        randers, lambda xs: (0.04 * sin_(xs[0]) * sin_(xs[1]), 0.06 * cos_(xs[0]))
    )
    hs = [
        lambda gs: variations.family_variation(fam1, gs),
        lambda gs: variations.family_variation(fam2, gs),
        lambda gs: variations.conformal_variation(lambda xn: np.sin(xn[..., 0] + xn[..., 1]), gs),
        lambda gs: variations.lie_derivative_metric(
            lambda xn: np.stack([np.cos(2 * xn[..., 1]), np.sin(xn[..., 0])], -1), gs),
        lambda gs: variations.conformal_variation(lambda xn: np.cos(xn[..., 1]), gs),
    ]
    Xs = [
        lambda xn: np.stack([np.sin(xn[..., 0]), np.cos(xn[..., 1])], -1),
        lambda xn: np.stack([np.sin(xn[..., 1]), np.sin(xn[..., 0])], -1),
        lambda xn: np.stack([np.cos(xn[..., 0]) * np.sin(xn[..., 1]), np.cos(xn[..., 1])], -1),
        lambda xn: np.stack([np.sin(xn[..., 0]), np.cos(xn[..., 1])], -1),
        lambda xn: np.stack([np.cos(xn[..., 1]), np.sin(2 * xn[..., 0])], -1),
    ]
    return list(zip(Xs, hs))


WORKLOADS = {w.name: w for w in (PointwiseBatch, PointwiseScalar, GridFlow, GridAnalysis)}
