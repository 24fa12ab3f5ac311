"""Acceptance suite: one test per criterion, pinned tolerances, verdict lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Wall-clock clauses read ``time.perf_counter()``.

Criterion 8's decay clause compares the 64^3 flow against an independent
solve of the same PDE (``oracles.conformal_flow_decay_ratio``): the pinned
euler steps (dt = 1.45e-3, 200 steps) stop the flow at t = 0.29, where the
exact decay ratio is 0.372; the 0.1 target is first reached near t = 1.0.
That target is asserted where the flow reaches it, in
``test_flow.py::test_normalized_decay_reference_resolution``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import finslerflow as ff
from finslerflow.cli import main as cli_main
from finslerflow.fields import GridStructure
from finslerflow.flow import encode_state, run_flow, uniform_scaling_flow
from finslerflow.jets import cos_, sin_
from finslerflow.measure import functional_report, liouville_density
from finslerflow.oracles import (
    conformal_flow_decay_ratio,
    funk_ricci_projective,
    gauss_curvature_spectral,
)
from finslerflow.structures import halton, sample_points
from finslerflow.variations import (
    adjointness_residual,
    conformal_family,
    conformal_variation,
    family_variation,
    lie_derivative_metric,
    randers_family,
    variation_residuals,
)

TWO_PI = 2.0 * np.pi
pytestmark = pytest.mark.acceptance


def verdict(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPT {name}: {'pass' if ok else 'FAIL'}  {detail}")


# ---------------------------------------------------------------------------

def test_c1_riemannian_reduction_conformal_torus():
    """C1: H(u,u) vs -e^{-2u} Lap(u) on a 64x64x64 grid, both base modes."""
    t_start = time.perf_counter()
    entry = ff.get_entry("conformal-torus")
    bg, fg = ff.build_grid(2, 64, TWO_PI, 64)
    u = 0.2 * np.sin(bg.nodes()[..., 0]) * np.cos(bg.nodes()[..., 1])
    K = gauss_curvature_spectral(u, bg)[:, :, None]

    gs = GridStructure(entry.structure, bg, fg, base_mode="fd4")
    err_fd = float(np.max(np.abs(gs.huu - K) / (1.0 + np.abs(K))))

    nodes = bg.nodes()
    th = fg.thetas
    X = np.broadcast_to(nodes[:, :, None, :], (64, 64, 64, 2)).reshape(-1, 2)
    Y = np.broadcast_to(
        np.stack([np.cos(th), np.sin(th)], -1)[None, None, :, :], (64, 64, 64, 2)
    ).reshape(-1, 2)
    out = np.empty(len(X))
    CH = 32768
    for i in range(0, len(X), CH):
        out[i : i + CH] = ff.ricci_directional(
            entry.structure, X[i : i + CH], Y[i : i + CH], base_mode="analytic"
        )
    Kflat = np.broadcast_to(K, (64, 64, 64)).reshape(-1)
    err_an = float(np.max(np.abs(out - Kflat) / (1.0 + np.abs(Kflat))))
    elapsed = time.perf_counter() - t_start
    ok = err_fd <= 1e-3 and err_an <= 1e-6 and elapsed <= 120.0
    verdict("C1 Riemannian reduction", ok,
            f"fd={err_fd:.2e} (<=1e-3) analytic={err_an:.2e} (<=1e-6) t={elapsed:.0f}s")
    assert err_fd <= 1e-3
    assert err_an <= 1e-6
    assert elapsed <= 120.0


def test_c2_funk_flag_curvature():
    """C2: H(u,u) = -1/4 at 20 quasi-random points with |x| <= 0.8."""
    entry = ff.get_entry("funk-disk")
    u = halton(20, 3)
    r = 0.8 * np.sqrt(u[:, 0])
    phi = TWO_PI * u[:, 1]
    x = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
    th = TWO_PI * u[:, 2]
    y = np.stack([np.cos(th), np.sin(th)], axis=-1)
    got = ff.ricci_directional(entry.structure, x, y, base_mode="analytic")
    worst = float(np.max(np.abs(got + 0.25)))
    # independent oracle from the projectively flat spray
    oracle = funk_ricci_projective(entry.structure, x, y)
    worst_oracle = float(np.max(np.abs(oracle + 0.25)))
    ok = worst <= 1e-6 and worst_oracle <= 1e-9
    verdict("C2 Funk curvature -1/4", ok, f"pipeline={worst:.2e} oracle={worst_oracle:.2e}")
    assert worst <= 1e-6
    assert worst_oracle <= 1e-9


def test_c3_locally_minkowski():
    """C3: quartic entry has vanishing spray and hh-curvature at 100 samples."""
    entry = ff.get_entry("quartic-minkowski")
    xs, ys = sample_points(entry.structure, 100)
    G = ff.spray(entry.structure, xs, ys)
    H = ff.hh_curvature(entry.structure, xs, ys)
    gnorm = float(np.max(np.abs(G)))
    hnorm = float(np.max(np.abs(H)))
    ok = gnorm <= 1e-10 and hnorm <= 1e-10
    verdict("C3 locally Minkowski", ok, f"|G|={gnorm:.2e} |H|={hnorm:.2e}")
    assert gnorm <= 1e-10
    assert hnorm <= 1e-10


def test_c4_indicatrix_calibration():
    """C4: fiber measure total = 2 pi sqrt(det a(x)) at N_theta = 256."""
    th = np.arange(256) * (TWO_PI / 256)
    worst = {}
    for name in ("euclidean", "aniso-quadratic", "conformal-torus", "sphere-patch"):
        entry = ff.get_entry(name)
        xs, _ = sample_points(entry.structure, 6)
        w = 0.0
        for xi in xs:
            rho = liouville_density(entry.structure, np.broadcast_to(xi, (256, 2)), th)
            total = float(np.sum(rho) * (TWO_PI / 256))
            ref = float(entry.fiber_measure(xi))
            w = max(w, abs(total - ref) / abs(ref))
        worst[name] = w
    ok = all(v <= 1e-6 for v in worst.values())
    verdict("C4 indicatrix calibration", ok,
            " ".join(f"{k}={v:.1e}" for k, v in worst.items()))
    for name, v in worst.items():
        assert v <= 1e-6, name


def test_c5_gem_identity():
    """C5: |Htilde - n H(u,u)| <= 1e-5 on the GEM entries."""
    worst = {}
    for name in ("sphere-patch", "euclidean"):
        entry = ff.get_entry(name)
        xs, ys = sample_points(entry.structure, 12)
        ht, _ = ff.hat_scalars(entry.structure, xs, ys)
        huu = ff.ricci_directional(entry.structure, xs, ys)
        worst[name] = float(np.max(np.abs(ht - 2.0 * huu)))
    ok = all(v <= 1e-5 for v in worst.values())
    verdict("C5 GEM identity", ok, " ".join(f"{k}={v:.1e}" for k, v in worst.items()))
    for name, v in worst.items():
        assert v <= 1e-5, name


def _adjointness_corpus(structure, gs):
    """The fixed 5-pair (X, h) corpus of criterion 6."""
    fams = [
        randers_family(structure, lambda xs: (0.05 * cos_(xs[1]), 0.05 * sin_(xs[0]))),
        randers_family(structure, lambda xs: (0.04 * sin_(xs[0]) * sin_(xs[1]),
                                              0.06 * cos_(xs[0]))),
    ]
    hs = [family_variation(f, gs) for f in fams]
    hs.append(conformal_variation(lambda xn: np.sin(xn[..., 0] + xn[..., 1]), gs))
    hs.append(lie_derivative_metric(
        lambda xn: np.stack([np.cos(2 * xn[..., 1]), np.sin(xn[..., 0])], -1), gs))
    hs.append(conformal_variation(lambda xn: np.cos(xn[..., 1]), gs))
    Xs = [
        lambda xn: np.stack([np.sin(xn[..., 0]), np.cos(xn[..., 1])], -1),
        lambda xn: np.stack([np.sin(xn[..., 1]), np.sin(xn[..., 0])], -1),
        lambda xn: np.stack([np.cos(xn[..., 0]) * np.sin(xn[..., 1]),
                             np.cos(xn[..., 1])], -1),
        lambda xn: np.stack([np.sin(xn[..., 0]), np.cos(xn[..., 1])], -1),
        lambda xn: np.stack([np.cos(xn[..., 1]), np.sin(2 * xn[..., 0])], -1),
    ]
    return list(zip(Xs, hs))


@pytest.mark.slow
def test_c6_adjointness():
    """C6: Lemma-4.1 adjointness residual <= 1e-3 at 48^3 and <= 2.5e-4 at 96^3."""
    entry = ff.get_entry("randers-torus", b=0.3)
    results = {}
    for N, tol in ((48, 1e-3), (96, 2.5e-4)):
        bg, fg = ff.build_grid(2, N, TWO_PI, N)
        gs = GridStructure(entry.structure, bg, fg, base_mode="fd4")
        rs = [
            adjointness_residual(X, h, gs)
            for X, h in _adjointness_corpus(entry.structure, gs)
        ]
        results[N] = max(rs)
    ok = results[48] <= 1e-3 and results[96] <= 2.5e-4
    verdict("C6 adjointness", ok,
            f"48^3={results[48]:.2e} (<=1e-3) 96^3={results[96]:.2e} (<=2.5e-4)")
    assert results[48] <= 1e-3
    assert results[96] <= 2.5e-4


def test_c7_variation_identities():
    """C7: first-variation identities against centered differences at 48^3."""
    entry = ff.get_entry("randers-torus", b=0.3)
    bg, fg = ff.build_grid(2, 48, TWO_PI, 48)
    gs = GridStructure(entry.structure, bg, fg, base_mode="fd4")
    fam = randers_family(
        entry.structure, lambda xs: (0.06 * cos_(xs[1]), 0.06 * sin_(xs[0]))
    )
    rep = variation_residuals(fam, gs, t_step=1e-4)
    r14 = rep.residuals["eta' nodewise"]
    r15a = rep.residuals["V'(FD) vs 1/2 int tr(h)"]
    r15b = rep.residuals["V'(FD) vs n/2 int h(u,u)"]
    r16 = rep.residuals["G'^i_k relation"]

    conf_entry = ff.get_entry("conformal-torus")
    gsc = GridStructure(conf_entry.structure, bg, fg, base_mode="fd4")
    cfam = conformal_family(conf_entry.structure, lambda xs: 0.3 + 0.0 * xs[0])
    crep = variation_residuals(cfam, gsc, t_step=1e-4)
    rI = crep.residuals["conformal dI/dt"]
    ok = max(r14, r15a, r15b, r16) <= 1e-3 and rI <= 1e-2
    verdict("C7 variation identities", ok,
            f"eta'={r14:.1e} V'={max(r15a, r15b):.1e} G'={r16:.1e} dI={rI:.1e}")
    assert r14 <= 1e-3
    assert r15a <= 1e-3 and r15b <= 1e-3
    assert r16 <= 1e-3
    assert rI <= 1e-2


@pytest.mark.slow
def test_c8_flow_sanity():
    """C8: flat stationarity, sphere scaling law, normalized decay at 64^3.

    The decay clause checks sup|H(u,u)| at the end of the run against the
    reference ratio of the conformal-factor PDE at the same flow time.
    """
    t_start = time.perf_counter()
    # (a) flat torus stationary, 100 steps
    flat = ff.get_entry("euclidean")
    bg, fg = ff.build_grid(2, 32, TWO_PI, 32)
    st = encode_state(flat.structure, bg, fg)
    traj = run_flow(st, steps=100, dt=1e-3)
    drift = max(
        abs(b.max_abs_huu - a.max_abs_huu)
        for a, b in zip(traj.rows[:-1], traj.rows[1:])
    )
    flat_dlog = float(np.max(np.abs(traj.final_state.logF)))
    assert traj.failure is None
    assert flat_dlog <= 1e-12 and drift <= 1e-12

    # (b) spatially uniform sphere mode reproduces phi(t)^2 = 1 - 2 K0 t
    sphere = ff.get_entry("sphere-patch", r=1.0)
    ts, phis = uniform_scaling_flow(sphere.structure, [0.2, 0.1], 0.4, T=0.1, dt=1e-3)
    sphere_err = float(np.max(np.abs(phis**2 - (1.0 - 2.0 * ts))))
    assert sphere_err <= 1e-6

    # (c) normalized conformal-torus run at 64x64x64
    conf = ff.get_entry("conformal-torus")
    bg64, fg64 = ff.build_grid(2, 64, TWO_PI, 64)
    st = encode_state(
        conf.structure, bg64, fg64, mode="normalized", stepper="euler", fiber_cut=2
    )
    traj = run_flow(st, steps=200, dt=1.45e-3, gem_stride=16)
    assert traj.failure is None
    sup = [r.max_abs_huu for r in traj.rows]
    increases = max(
        (b - a for a, b in zip(sup[:-1], sup[1:])), default=0.0
    )
    ratio = sup[-1] / sup[0]
    params = conf.structure.params
    ratio_ref = conformal_flow_decay_ratio(
        params["amp"], params["p"], params["q"], bg64, traj.rows[-1].time
    )
    elapsed = time.perf_counter() - t_start
    ok = (
        flat_dlog <= 1e-12
        and sphere_err <= 1e-6
        and increases <= 1e-10
        and abs(ratio - ratio_ref) <= 5e-3
        and elapsed <= 600.0
    )
    verdict("C8 flow sanity", ok,
            f"flat={flat_dlog:.1e} sphere={sphere_err:.1e} monotone_incr={increases:.1e} "
            f"decay_ratio={ratio:.5f} (ref {ratio_ref:.5f} +-5e-3) t={elapsed:.0f}s")
    assert increases <= 1e-10
    assert elapsed <= 600.0
    # Decay clause.  200 euler steps of 1.45e-3 end at t = 0.29; the exact
    # flow has decayed to 0.372 there and reaches 0.1 only near t = 1.0, so
    # the run is held to the reference decay at its own end time.  The gap
    # allowed covers euler's O(dt) and FD4's O(h^4) errors (measured 7e-4);
    # a flipped sign, or a rate off by a factor of 2 (ratio 0.225) or 1/2
    # (0.560), misses it by far more.
    assert abs(ratio - ratio_ref) <= 5e-3, (
        f"sup|H(u,u)| decay ratio {ratio:.5f} vs reference {ratio_ref:.5f} "
        f"at t={traj.rows[-1].time:.4f}"
    )


def test_c9_gauss_bonnet():
    """C9: |int H(u,u) eta| <= 1e-3 V max|K| on Riemannian torus entries.

    For flat entries both sides are FFT roundoff (~1e-27), so the bound
    carries a machine-epsilon floor of 1e-12 V.
    """
    results = {}
    for name in ("euclidean", "aniso-quadratic", "conformal-torus"):
        entry = ff.get_entry(name)
        bg, fg = ff.build_grid(2, 48, TWO_PI, 64)
        gs = GridStructure(entry.structure, bg, fg, base_mode="fd4")
        total = gs.integrate(gs.huu)
        maxK = float(np.max(np.abs(gs.huu)))
        bound = 1e-3 * gs.volume * maxK + 1e-12 * gs.volume
        results[name] = (abs(total), bound)
    ok = all(v <= b for v, b in results.values())
    verdict("C9 Gauss-Bonnet", ok,
            " ".join(f"{k}:{v:.1e}<={b:.1e}" for k, (v, b) in results.items()))
    for name, (v, b) in results.items():
        assert v <= b, name


def test_c10_scale_invariance():
    """C10: I[2F] = I[F] (rel 1e-6) and H(u,u)[2F] = H(u,u)[F]/4 (1e-9)."""
    entry = ff.get_entry("randers-torus", b=0.3)
    doubled = ff.FinslerStructure(
        n=2, name="2F", chart=entry.structure.chart,
        f2=lambda xs, ys: 4.0 * entry.structure.f2(xs, ys),
    )
    bg, fg = ff.build_grid(2, 32, TWO_PI, 48)
    I1 = functional_report(GridStructure(entry.structure, bg, fg)).I
    I2 = functional_report(GridStructure(doubled, bg, fg)).I
    rel = abs(I2 - I1) / max(abs(I1), 1e-30)
    xs, ys = sample_points(entry.structure, 24)
    h1 = ff.ricci_directional(entry.structure, xs, ys)
    h2 = ff.ricci_directional(doubled, xs, ys)
    point = float(np.max(np.abs(h2 - h1 / 4.0)))
    ok = rel <= 1e-6 and point <= 1e-9
    verdict("C10 scale invariance", ok, f"I rel={rel:.2e} pointwise={point:.2e}")
    assert rel <= 1e-6
    assert point <= 1e-9


def test_c11_determinism(tmp_path, capsys):
    """C11: two identical flow invocations produce byte-identical CSVs."""
    blobs = []
    for tag in ("r1", "r2"):
        out = str(tmp_path / tag)
        code = cli_main([
            "flow", "--metric", "conformal-torus", "--grid", "24,24,32",
            "--steps", "6", "--normalized", "--fiber-cut", "4", "--out", out,
        ])
        assert code == 0
        blobs.append(Path(out, "diagnostics.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    verdict("C11 determinism", ok, f"{len(blobs[0])} bytes")
    assert blobs[0] == blobs[1]
