"""Curvature stack: hh-curvature, Ricci scalars, GEM residuals."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finslerflow as ff
from finslerflow.connections import PointAssembly
from finslerflow.curvature import curvature_bundle
from finslerflow.jets import Jet
from finslerflow.oracles import funk_pde_residual, funk_ricci_projective
from finslerflow.structures import Chart, FinslerStructure, SingularMetricError, sample_points

X0 = np.array([0.9, 2.1])
Y0 = np.array([1.3, 0.2])


def test_flat_curvature_zero(euclidean, quartic):
    for e in (euclidean, quartic):
        H = ff.hh_curvature(e.structure, X0, Y0)
        assert np.max(np.abs(H)) <= 1e-10
        Hij, Ht = ff.ricci_tensors(e.structure, X0, Y0)
        assert np.max(np.abs(Hij)) <= 1e-10
        assert np.max(np.abs(Ht)) <= 1e-10
        assert abs(ff.ricci_directional(e.structure, X0, Y0)) <= 1e-12


def test_antisymmetry(randers):
    xs, ys = sample_points(randers.structure, 8)
    H = ff.hh_curvature(randers.structure, xs, ys)
    assert np.max(np.abs(H + np.swapaxes(H, -1, -2))) <= 1e-12


def test_conformal_torus_gauss_reduction(conformal):
    xs, ys = sample_points(conformal.structure, 20)
    K = conformal.expected_huu(xs)
    got = ff.ricci_directional(conformal.structure, xs, ys)
    assert np.max(np.abs(got - K) / (1.0 + np.abs(K))) <= 1e-9


def test_sphere_constant_curvature(sphere):
    xs, ys = sample_points(sphere.structure, 12)
    got = ff.ricci_directional(sphere.structure, xs, ys)
    np.testing.assert_allclose(got, 1.0, atol=1e-9)
    g = ff.fundamental_tensor(sphere.structure, X0 * 0.2, Y0)
    _, Ht = ff.ricci_tensors(sphere.structure, X0 * 0.2, Y0)
    np.testing.assert_allclose(Ht, g, atol=1e-5)


def test_ricci_tilde_homogeneous(randers):
    _, Ht1 = ff.ricci_tensors(randers.structure, X0, Y0)
    _, Ht2 = ff.ricci_tensors(randers.structure, X0, 3.0 * Y0)
    np.testing.assert_allclose(Ht1, Ht2, atol=1e-9)
    assert np.max(np.abs(Ht1 - Ht1.T)) <= 1e-12


def test_euler_consistency_and_q_identity(randers):
    """Htilde(u,u) = H(u,u), and H_rs y^r y^s equals the spray-curvature trace."""
    xs, ys = sample_points(randers.structure, 12)
    cb = curvature_bundle(randers.structure, xs, ys)
    F2 = randers.structure.F2(xs, ys)
    u = ys / np.sqrt(F2)[..., None]
    htuu = np.einsum("...ij,...i,...j->...", cb.ricci_tilde, u, u)
    assert np.max(np.abs(htuu - cb.huu) / (1.0 + np.abs(cb.huu))) <= 1e-8
    # H(u,u) is read off the spray trace; check it against the hh contraction
    full = np.einsum("...kjkl,...j,...l->...", cb.H, u, u)
    np.testing.assert_allclose(cb.huu, full, rtol=1e-9, atol=1e-11)
    # Euler for the 2-homogeneous quadratic form
    Q = np.einsum("...ij,...i,...j->...", cb.ricci, ys, ys)
    np.testing.assert_allclose(
        np.einsum("...ij,...i,...j->...", cb.ricci_tilde, ys, ys), Q, rtol=1e-8
    )


def test_funk_flag_curvature(funk):
    assert funk_pde_residual(funk.structure, np.array([0.3, -0.2]), Y0) <= 1e-10
    xs, ys = sample_points(funk.structure, 10)
    # within 2e-3 of the rim: base derivatives must not read F^2 off the disk
    rim = np.array([[0.9985, 0.0], [0.9995, 0.0]])
    xs = np.concatenate([xs, rim])
    ys = np.concatenate([ys, np.tile([np.cos(1.3), np.sin(1.3)], (2, 1))])
    oracle = funk_ricci_projective(funk.structure, xs, ys)
    np.testing.assert_allclose(oracle, -0.25, atol=1e-12)
    got = ff.ricci_directional(funk.structure, xs, ys)
    np.testing.assert_allclose(got, -0.25, atol=1e-6)


def test_huu_scaling(randers):
    base = ff.ricci_directional(randers.structure, X0, Y0)
    scaled = ff.FinslerStructure(
        n=2, name="2F", chart=randers.structure.chart,
        f2=lambda xs, ys: 4.0 * randers.structure.f2(xs, ys),
    )
    got = ff.ricci_directional(scaled, X0, Y0)
    assert got == pytest.approx(base / 4.0, rel=1e-9, abs=1e-12)


def test_hat_scalars_sphere(sphere):
    ht, hh0 = ff.hat_scalars(sphere.structure, X0 * 0.1, Y0, c_fun=None)
    assert ht == pytest.approx(2.0, abs=1e-6)
    assert hh0 == pytest.approx(2.0, abs=1e-6)
    ht, hh1 = ff.hat_scalars(sphere.structure, X0 * 0.1, Y0, c_fun=1.0)
    assert hh1 == pytest.approx(1.0, abs=1e-6)
    huu = ff.ricci_directional(sphere.structure, X0 * 0.1, Y0)
    assert ht == pytest.approx(2.0 * huu, abs=1e-8)


def test_hat_scalars_flat_any_c(euclidean):
    ht, hh = ff.hat_scalars(euclidean.structure, X0, Y0, c_fun=lambda x: np.sin(x[..., 0]))
    assert abs(ht) <= 1e-12 and abs(hh) <= 1e-12


def test_gem_residual_flat_and_constant_curvature(euclidean, sphere):
    assert ff.gem_residual(euclidean.structure, X0) <= 1e-12
    assert ff.gem_residual(sphere.structure, np.array([0.2, 0.1])) <= 1e-5


def test_gem_residual_generic_randers_positive():
    e = ff.get_entry("randers-torus", b=0.4, profile="wave")
    # regression scale for a genuinely direction-dependent Ricci tensor
    assert ff.gem_residual(e.structure, np.array([1.1, 0.4])) > 1e-3


def test_funk_is_gem(funk):
    assert ff.gem_residual(funk.structure, np.array([0.25, -0.15])) <= 1e-5
    ht, _ = ff.hat_scalars(funk.structure, np.array([0.25, -0.15]), Y0)
    assert ht == pytest.approx(-0.5, abs=1e-6)


def test_ricci_directional_base_mode_analytic_only(conformal):
    xs, ys = sample_points(conformal.structure, 6)
    with pytest.raises(ValueError, match="analytic only"):
        ff.ricci_directional(conformal.structure, xs, ys, base_mode="fd")
    a = ff.ricci_directional(conformal.structure, xs, ys, base_mode="analytic")
    assert a.tobytes() == ff.ricci_directional(conformal.structure, xs, ys).tobytes()


def test_f2_not_jet_safe_in_x_raises_domain_error():
    """An f2 calling numpy on x fails with DomainError wherever base jets are taken."""

    def f2(xs, ys):
        return (2.0 + np.sin(xs[0])) * (ys[0] * ys[0] + ys[1] * ys[1])

    fs = FinslerStructure(2, "numpy-in-x", Chart("torus", lengths=(2 * np.pi, 2 * np.pi)), f2)
    for op in (ff.ricci_directional, ff.spray):
        with pytest.raises(ff.DomainError, match="numpy-in-x.*finslerflow.jets") as info:
            op(fs, X0, Y0)
        assert isinstance(info.value.__cause__, TypeError)
    # at base order 0, x enters f2 as floats, so the metric itself works
    g = ff.fundamental_tensor(fs, X0, Y0)
    np.testing.assert_allclose(g, (2.0 + np.sin(X0[0])) * np.eye(2), rtol=1e-14)


def test_spray_trace_matches_jet_loop(randers, funk):
    """R^k_k from component values equals the term-by-term jet sum."""
    for e in (randers, funk):
        xs, ys = sample_points(e.structure, 16)
        pa = PointAssembly(e.structure, xs, ys, forder=4, border=2)
        Gj, Gjk = pa.Gj, pa.Gjk
        ref = _spray_trace_jet_loop(pa).value()
        got = pa.ricci_scalar
        # only the summation order differs
        assert np.max(np.abs(got - ref)) <= 1e-14 * (1.0 + np.max(np.abs(ref)))
        # the values helper reads each component as its own jet value
        dGj = pa.base_values(Gj)
        for i in range(pa.n):
            for j in range(pa.n):
                for k in range(pa.n):
                    assert np.array_equal(dGj[..., i, j, k], Gj[i][j].base_deriv(k).value())
                    assert np.array_equal(pa.values(Gjk)[..., i, j, k], Gjk[i][j][k].value())


def _spray_trace_jet_loop(pa):
    """Reference R^k_k as a jet: the spray-curvature trace summed term by term."""
    n = pa.n
    G, Gj, Gjk = pa.G, pa.Gj, pa.Gjk
    Q = None
    for i in range(n):
        t = 2.0 * G[i].base_deriv(i)
        for j in range(n):
            t = (
                t
                - pa.y[j] * Gj[i][i].base_deriv(j)
                + 2.0 * G[j] * Gjk[i][j][i]
                - Gj[i][j] * Gj[j][i]
            )
        Q = t if Q is None else Q + t
    return Q


def _tilde_jet(pa, Q):
    """1/2 d^2 Q / dy^i dy^j of a jet Q, as values."""
    return 0.5 * pa.values([[Q.fiber_deriv(i).fiber_deriv(j) for j in range(pa.n)]
                            for i in range(pa.n)])


def _hh_jet_loop(pa):
    """Reference H^i_jkl: the delta_k G^i_jl loop over jets, term by term."""
    n = pa.n
    Gj = pa.Gj
    Gjl = pa.Gjk

    def delta(obj, k):
        out = obj.base_deriv(k)
        for m in range(n):
            out = out - Gj[m][k] * obj.fiber_deriv(m)
        return out

    H = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k + 1, n):
                    t = delta(Gjl[i][j][l], k) - delta(Gjl[i][j][k], l)
                    for m in range(n):
                        t = t + Gjl[m][j][l] * Gjl[i][m][k] - Gjl[m][j][k] * Gjl[i][m][l]
                    H[i][j][k][l] = t
                    H[i][j][l][k] = -1.0 * t
                H[i][j][k][k] = Jet.constant(pa.F2.spec, 0.0, pa.F2.shape)
    return H


def _hh_contraction_jet_loop(pa, H):
    """H_rs y^r y^s = g^{ks} y_r H^r_kjs y^j as a jet, summed term by term."""
    n = pa.n
    g, gi, ys = pa.g, pa.ginv, pa.y
    ylow = []
    for r in range(n):
        acc = g[r][0] * ys[0]
        for m in range(1, n):
            acc = acc + g[r][m] * ys[m]
        ylow.append(acc)
    Q = Jet.constant(pa.F2.spec, 0.0, pa.F2.shape)
    for k in range(n):
        for s in range(n):
            for r in range(n):
                for j in range(n):
                    Q = Q + gi[k][s] * ylow[r] * H[r][k][j][s] * ys[j]
    return Q


def test_bundle_matches_jet_loops(randers, funk):
    """The array algebra on jets agrees with the term-by-term jet loops of its route."""
    for e in (randers, funk):
        xs, ys = sample_points(e.structure, 12)
        pa = PointAssembly(e.structure, xs, ys, forder=6, border=2)
        cb = curvature_bundle(e.structure, xs, ys)
        assert np.max(np.abs(cb.H - pa.values(_hh_jet_loop(pa)))) <= 1e-13
        rt = _tilde_jet(pa, _spray_trace_jet_loop(pa))
        assert np.max(np.abs(cb.ricci_tilde - rt)) <= 1e-13


def test_htilde_routes_agree_on_jets(randers, funk):
    """Htilde_ij from R^k_k equals Htilde_ij from the hh contraction H_rs y^r y^s.

    The two routes share only the spray G and its derivatives; on funk-disk's
    sample points their gap is 6.1e-12, where max |Htilde_ij| is 3.7.
    """
    for e in (randers, funk):
        xs, ys = sample_points(e.structure, 12)
        pa = PointAssembly(e.structure, xs, ys, forder=7, border=2)
        hh = _tilde_jet(pa, _hh_contraction_jet_loop(pa, _hh_jet_loop(pa)))
        assert np.max(np.abs(curvature_bundle(e.structure, xs, ys).ricci_tilde - hh)) <= 1e-11


def test_bundle_fiber_order_six(randers, funk, sphere):
    """Order 6 is the least fiber order for Htilde_ij and loses nothing against 7."""
    from finslerflow.jets import JetOrderError

    for e in (randers, funk, sphere):
        xs, ys = sample_points(e.structure, 12)
        cb = curvature_bundle(e.structure, xs, ys)
        pa = PointAssembly(e.structure, xs, ys, forder=7, border=2)
        for got, ref in ((cb.g, pa.g), (cb.ginv, pa.ginv), (cb.H, pa.hh), (cb.ricci, pa.ricci)):
            assert np.array_equal(got, pa.values(ref))
        assert np.array_equal(cb.huu, pa.huu)
        pa = PointAssembly(e.structure, xs, ys, forder=6, border=2)
        pa.ricci_tilde
        assert "hh" not in pa._cache
        with pytest.raises(JetOrderError):
            PointAssembly(e.structure, xs, ys, forder=5, border=2).ricci_tilde


def test_gem_residual_reads_only_htilde_and_g(monkeypatch, randers, funk):
    """The bundle's gap, bit for bit, from an assembly that builds no H, H_ij or Gjkm."""
    from finslerflow import algebra, curvature

    made = []

    class Recording(PointAssembly):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    x = np.array([0.3, 0.2])
    th = np.arange(64) * (2.0 * np.pi / 64)
    y = np.stack([np.cos(th), np.sin(th)], axis=-1)
    for e in (randers, funk):
        cb = curvature_bundle(e.structure, np.broadcast_to(x, (64, 2)), y)
        want = float(np.max(algebra.gem_gap(cb.ricci_tilde, cb.g, cb.ginv)))
        with monkeypatch.context() as m:
            m.setattr(curvature, "PointAssembly", Recording)
            assert curvature.gem_residual(e.structure, x, n_theta=64) == want
        pa = made.pop()
        assert not {"hh", "ricci", "Gjkm"} & set(pa._cache)


def test_singular_metric_reports_min_eigenvalue(funk):
    """The metric check raises on the smallest eigenvalue of g, not on det g."""
    from finslerflow.structures import f2_jets

    # funk-disk's F^2 on a chart wide enough to hold (1.5, 0), where g is indefinite
    wide = FinslerStructure(2, "funk-wide", Chart("plane", bound=2.0), funk.structure.f2)
    x = np.array([[0.2, 0.1], [1.5, 0.0]])  # the second point is off the unit disk
    y = np.array([np.cos(0.7), np.sin(0.7)])
    F2 = f2_jets(wide, x[1], y, forder=2)
    g = 0.5 * np.array([[F2.deriv(fmon=(2, 0)), F2.deriv(fmon=(1, 1))],
                        [F2.deriv(fmon=(1, 1)), F2.deriv(fmon=(0, 2))]])
    lam = np.linalg.eigvalsh(g)[0]
    assert lam < 0 and abs(np.linalg.det(g) - lam) > 1.0
    with pytest.raises(SingularMetricError) as info:
        curvature_bundle(wide, x, y)
    assert info.value.min_eig == pytest.approx(lam, rel=1e-12)
    assert info.value.where == (1,)


def test_negative_definite_metric_raises():
    """g = -I has det g = 1 > 0, so a determinant check let it through."""
    neg = FinslerStructure(
        2, "neg", Chart("plane", bound=1.0), lambda xs, ys: -(ys[0] * ys[0] + ys[1] * ys[1])
    )
    x, y = np.array([0.1, 0.2]), np.array([1.0, 0.0])
    for fn in (ff.ricci_directional, curvature_bundle, ff.spray):
        with pytest.raises(SingularMetricError) as info:
            fn(neg, x, y)
        assert info.value.min_eig == -1.0 and info.value.where is None


def test_nan_metric_raises():
    """NaN fails the positivity test; the error names a NaN point before a negative one."""
    def nan_structure(w):
        return FinslerStructure(
            2, "nan", Chart("plane", bound=1.0), lambda xs, ys: w * (ys[0] * ys[0] + ys[1] * ys[1])
        )

    x, y = np.array([0.1, 0.2]), np.array([1.0, 0.0])
    fs = nan_structure(np.nan)
    for fn in (ff.fundamental_tensor, ff.cartan_tensor, ff.mean_cartan, ff.ricci_directional,
               curvature_bundle, ff.spray, lambda fs, x, y: ff.liouville_density(fs, x, 0.0)):
        with pytest.raises(SingularMetricError) as info:
            fn(fs, x, y)
        assert np.isnan(info.value.min_eig) and info.value.where is None
    xs = np.zeros((3, 2))
    with pytest.raises(SingularMetricError) as info:
        ff.ricci_directional(nan_structure(np.array([1.0, np.nan, -1.0])), xs, y)
    assert np.isnan(info.value.min_eig) and info.value.where == (1,)


# -- large ricci_directional batches run in parts on the worker pool --------

def _unsplit_huu(fs, x, y):
    return PointAssembly(fs, x, y, forder=4, border=2).huu


def _interleaved(fn, *args):
    """``fn(*args)`` with the worker threads switching as often as they can."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fn(*args)
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("name, count", [
    ("conformal-torus", 40000), ("randers-torus", 40000), ("funk-disk", 40000),
    ("conformal-torus", 65537),
])
def test_ricci_directional_parts_bit_identical(name, count):
    """2 parts, and 4 uneven ones (65537 = 16385 + 3 x 16384), give the bytes of one assembly."""
    fs = ff.get_entry(name).structure
    xs, ys = sample_points(fs, count)
    got = _interleaved(ff.ricci_directional, fs, xs, ys)
    assert got.tobytes() == _unsplit_huu(fs, xs, ys).tobytes()


def test_ricci_directional_parts_broadcast_bit_identical(conformal):
    """One x against many y, and a 2-D batch cut along its first axis."""
    fs = conformal.structure
    xs, ys = sample_points(fs, 40000)
    got = _interleaved(ff.ricci_directional, fs, xs[7], ys)
    assert got.shape == (40000,)
    assert got.tobytes() == _unsplit_huu(fs, xs[7], ys).tobytes()
    x2, y2 = xs[:200, None, :], ys[None, :200, :]  # 200 x 200 points, 2 parts of 100 rows
    got = _interleaved(ff.ricci_directional, fs, x2, y2)
    assert got.shape == (200, 200)
    assert got.tobytes() == _unsplit_huu(fs, x2, y2).tobytes()


CHILD_PARTS = """
import os, sys
import numpy as np
import finslerflow as ff
from finslerflow import workers
from finslerflow.structures import sample_points

assert (workers._pool(os.getpid()) is None) == (sys.argv[1] == "pinned")
fs = ff.get_entry("randers-torus", b=0.3).structure
xs, ys = sample_points(fs, 40000)
sys.stdout.write(ff.ricci_directional(fs, xs, ys).tobytes().hex())
"""


@pytest.mark.skipif(
    not (hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) > 1),
    reason="needs CPU affinity and two CPUs",
)
def test_ricci_directional_one_cpu_bit_identical(randers):
    """In a fresh process (cold jet tables), pinned to one CPU (parts inline) and
    free (parts on the pool), the parts give the bytes of one assembly."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cpu = min(os.sched_getaffinity(0))
    xs, ys = sample_points(randers.structure, 40000)
    want = _unsplit_huu(randers.structure, xs, ys).tobytes().hex()
    for tag, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpu})), ("free", None)):
        proc = subprocess.run(
            [sys.executable, "-c", CHILD_PARTS, tag], env=env, capture_output=True, text=True,
            preexec_fn=pin, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want, tag


def _nan_at(a, k):
    a = a.copy()
    a[k] = np.nan
    return a


@pytest.mark.parametrize("case", ["nan-x", "y-zero", "closure"])
def test_ricci_directional_failing_part_raises_unsplit_error(conformal, case):
    """A part that raises gives the unsplit call's error, naming the point in the whole batch.

    The bad point (30000) lies in the second of two parts.  ``closure`` is an
    f2 that multiplies by a batch-sized array, so each part fails on the
    broadcast and only the rerun of the whole batch finds the NaN.
    """
    fs = conformal.structure
    xs, ys = sample_points(fs, 40000)
    if case == "nan-x":
        xs = _nan_at(xs, 30000)
    elif case == "y-zero":
        ys = ys.copy()
        ys[30000] = 0.0
    else:
        w = _nan_at(np.ones(40000), 30000)
        fs = FinslerStructure(
            2, "closure", Chart("plane", bound=10.0),
            lambda x, y: w * (y[0] * y[0] + y[1] * y[1]),
        )
    errors = []
    for fn in (ff.ricci_directional, _unsplit_huu):
        with pytest.raises(Exception) as info:
            fn(fs, xs, ys)
        errors.append(info.value)
    split, whole = errors
    assert type(split) is type(whole) and str(split) == str(whole)
    assert getattr(split, "where", None) == getattr(whole, "where", None)
    if case != "y-zero":
        assert split.where == (30000,) and np.isnan(split.min_eig)


def test_ricci_directional_batch_closure_reruns_unsplit():
    """An f2 holding batch-sized arrays fails in every part, and the rerun returns its value."""
    xs, ys = sample_points(ff.get_entry("euclidean").structure, 40000)
    w = 1.0 + 0.5 * np.cos(np.arange(40000))
    fs = FinslerStructure(
        2, "closure", Chart("plane", bound=10.0), lambda x, y: w * (y[0] * y[0] + y[1] * y[1])
    )
    assert ff.ricci_directional(fs, xs, ys).tobytes() == _unsplit_huu(fs, xs, ys).tobytes()


def test_pointwise_scalar_calls_never_reach_the_pool(monkeypatch, funk, sphere):
    """Single-point reports, the 64-angle GEM sweep, geodesic segments and a batch
    one point short of two parts never ask for the worker pool."""
    from finslerflow import workers

    def no_pool(pid):
        raise AssertionError("the worker pool was requested")

    monkeypatch.setattr(workers, "_pool", no_pool)
    x, y = np.array([0.2, 0.1]), np.array([np.cos(0.7), np.sin(0.7)])
    curvature_bundle(funk.structure, x, y)
    ff.gem_residual(funk.structure, x, n_theta=64)
    path = ff.geodesic_integrate(sphere.structure, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                 0.5, 0.125)
    assert path.complete
    xs, ys = sample_points(funk.structure, 2 * 16384 - 1)
    ff.ricci_directional(funk.structure, xs, ys)
