"""Curvature stack: hh-curvature, Ricci scalars, GEM residuals."""

import numpy as np
import pytest

import finslerflow as ff
from finslerflow.connections import PointAssembly
from finslerflow.curvature import curvature_bundle
from finslerflow.jets import Jet
from finslerflow.oracles import funk_pde_residual, funk_ricci_projective
from finslerflow.structures import sample_points

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
    # dual route: light spray-trace H(u,u) against the full contraction
    light = ff.ricci_directional(randers.structure, xs, ys)
    np.testing.assert_allclose(light, cb.huu, rtol=1e-9, atol=1e-11)
    # Euler for the 2-homogeneous quadratic form
    Q = np.einsum("...ij,...i,...j->...", cb.ricci, ys, ys)
    np.testing.assert_allclose(
        np.einsum("...ij,...i,...j->...", cb.ricci_tilde, ys, ys), Q, rtol=1e-8
    )


def test_funk_flag_curvature(funk):
    assert funk_pde_residual(funk.structure, np.array([0.3, -0.2]), Y0) <= 1e-10
    xs, ys = sample_points(funk.structure, 10)
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


def test_fd_base_mode_close_to_analytic(conformal):
    xs, ys = sample_points(conformal.structure, 6)
    a = ff.ricci_directional(conformal.structure, xs, ys, base_mode="analytic")
    b = ff.ricci_directional(conformal.structure, xs, ys, base_mode="fd")
    assert np.max(np.abs(a - b)) <= 1e-8  # FD step 1e-3, 4th order


def test_spray_trace_matches_jet_loop(randers, funk):
    """R^k_k from component values equals the term-by-term jet sum."""
    from finslerflow.curvature import _ricci_shen

    for e in (randers, funk):
        xs, ys = sample_points(e.structure, 16)
        pa = PointAssembly(e.structure, xs, ys, forder=4, border=2)
        n = pa.n
        G, Gj, Gjk = pa.G_jets, pa.Gj_jets, pa.Gjk_jets
        ref = np.zeros(pa.F2.shape)
        for i in range(n):
            t = 2.0 * G[i].base_deriv(i)
            for j in range(n):
                t = (
                    t
                    - pa.ys[j] * Gj[i][i].base_deriv(j)
                    + 2.0 * G[j] * Gjk[i][j][i]
                    - Gj[i][j] * Gj[j][i]
                )
            ref = ref + t.value()
        got = _ricci_shen(pa)
        # only the summation order differs
        assert np.max(np.abs(got - ref)) <= 1e-14 * (1.0 + np.max(np.abs(ref)))
        # the values helper reads each component as its own jet value
        dGj = pa.values(Gj, base_deriv=True)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert np.array_equal(dGj[..., i, j, k], Gj[i][j].base_deriv(k).value())
                    assert np.array_equal(pa.Gjk_values()[..., i, j, k], Gjk[i][j][k].value())


def _hh_jet_loop(pa):
    """Reference H^i_jkl: the delta_k G^i_jl loop over jets, term by term."""
    n = pa.n
    Gj = pa.Gj_jets
    Gjl = pa.Gjk_jets

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


def _ricci_tilde_jet_loop(pa, H):
    """Reference Htilde_ij = 1/2 d^2 Q / dy^i dy^j with Q = g^{ks} y_r H^r_kjs y^j."""
    n = pa.n
    g, gi, ys = pa.g_jets, pa.ginv_jets, pa.ys
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
    return 0.5 * pa.values([[Q.fiber_deriv(i).fiber_deriv(j) for j in range(n)]
                            for i in range(n)])


def test_bundle_matches_jet_loops(randers, funk):
    """The array algebra on jets agrees with the term-by-term jet loops."""
    for e in (randers, funk):
        xs, ys = sample_points(e.structure, 12)
        pa = PointAssembly(e.structure, xs, ys, forder=7, border=2)
        H = _hh_jet_loop(pa)
        cb = curvature_bundle(e.structure, xs, ys)
        assert np.max(np.abs(cb.H - pa.values(H))) <= 1e-13
        assert np.max(np.abs(cb.ricci_tilde - _ricci_tilde_jet_loop(pa, H))) <= 1e-13
