"""Spray, nonlinear connection, Berwald/Cartan coefficients, geodesics."""

import numpy as np
import pytest

import finslerflow as ff
from finslerflow.oracles import riemannian_christoffel
from finslerflow.structures import sample_points

X0 = np.array([0.8, 1.4])
Y0 = np.array([1.1, -0.7])


def test_spray_vanishes_for_x_independent(quartic, euclidean):
    for e in (quartic, euclidean):
        G = ff.spray(e.structure, X0, Y0)
        assert np.max(np.abs(G)) <= 1e-12


def test_spray_vs_christoffel_oracle(conformal, sphere):
    for e in (conformal, sphere):
        xs, ys = sample_points(e.structure, 10)
        gam = riemannian_christoffel(e, xs)
        want = 0.5 * np.einsum("...ijk,...j,...k->...i", gam, ys, ys)
        got = ff.spray(e.structure, xs, ys)
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_funk_spray_is_projective(funk):
    # G^i = (F/2) y^i on the disk
    xs, ys = sample_points(funk.structure, 10)
    F = funk.structure.F(xs, ys)
    want = 0.5 * F[..., None] * ys
    got = ff.spray(funk.structure, xs, ys)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_spray_2_homogeneous(randers):
    G1 = ff.spray(randers.structure, X0, Y0)
    G2 = ff.spray(randers.structure, X0, 2.0 * Y0)
    np.testing.assert_allclose(G2, 4.0 * G1, rtol=1e-11)


def test_nonlinear_connection(conformal, randers):
    xs, ys = sample_points(conformal.structure, 8)
    gam = riemannian_christoffel(conformal, xs)
    want = np.einsum("...ijk,...k->...ij", gam, ys)
    got = ff.nonlinear_connection(conformal.structure, xs, ys)
    np.testing.assert_allclose(got, want, atol=1e-7)
    # 1-homogeneity
    Gj = ff.nonlinear_connection(randers.structure, X0, Y0)
    Gj2 = ff.nonlinear_connection(randers.structure, X0, 2.0 * Y0)
    np.testing.assert_allclose(Gj2, 2.0 * Gj, rtol=1e-11)


def test_euler_chain(randers):
    xs, ys = sample_points(randers.structure, 10)
    G = ff.spray(randers.structure, xs, ys)
    Gj = ff.nonlinear_connection(randers.structure, xs, ys)
    Gjk = ff.berwald_coeffs(randers.structure, xs, ys)
    scale = 1.0 + np.max(np.abs(G))
    assert np.max(np.abs(np.einsum("...ij,...j->...i", Gj, ys) - 2.0 * G)) / scale <= 1e-9
    assert np.max(np.abs(np.einsum("...ijk,...k->...ij", Gjk, ys) - Gj)) / (
        1.0 + np.max(np.abs(Gj))
    ) <= 1e-9


def test_berwald_flat_and_minkowski(euclidean, quartic):
    for e in (euclidean, quartic):
        Gjk = ff.berwald_coeffs(e.structure, X0, Y0)
        assert np.max(np.abs(Gjk)) <= 1e-12


def test_berwald_riemannian_y_independent(conformal):
    xs, _ = sample_points(conformal.structure, 6)
    gam = riemannian_christoffel(conformal, xs)
    for y in ([1.0, 0.3], [-0.5, 1.2]):
        got = ff.berwald_coeffs(conformal.structure, xs, np.asarray(y))
        np.testing.assert_allclose(got, gam, atol=1e-7)


def test_cartan_hcoeffs_riemannian_reduction(conformal):
    xs, ys = sample_points(conformal.structure, 8)
    gam = riemannian_christoffel(conformal, xs)
    got = ff.cartan_hcoeffs(conformal.structure, xs, ys)
    np.testing.assert_allclose(got, gam, atol=1e-8)


def test_cartan_hcoeffs_flat_zero(euclidean):
    assert np.max(np.abs(ff.cartan_hcoeffs(euclidean.structure, X0, Y0))) <= 1e-13


def test_cartan_equals_berwald_on_berwald_metrics(quartic, conformal):
    # locally Minkowski and Riemannian structures are Berwald: Gamma = G^i_jk
    for e in (quartic, conformal):
        xs, ys = sample_points(e.structure, 6)
        np.testing.assert_allclose(
            ff.cartan_hcoeffs(e.structure, xs, ys),
            ff.berwald_coeffs(e.structure, xs, ys),
            atol=1e-8,
        )


def test_cartan_connection_properties(randers):
    """Zero deflection and h-metric compatibility at exact-jet level."""
    from finslerflow.connections import PointAssembly

    xs, ys = sample_points(randers.structure, 8)
    pa = PointAssembly(randers.structure, xs, ys, forder=4, border=1)
    Gam = pa.Gamma
    Gj = pa.values(pa.Gj)
    # y^m Gamma^i_mk = G^i_k
    defl = np.einsum("...imk,...m->...ik", Gam, ys) - Gj
    assert np.max(np.abs(defl)) <= 1e-10
    # nabla_m g_ij = d_m g - 2 G^r_m C_rij - Gamma_{j,im} - Gamma_{i,jm} = 0
    n = 2
    dg = np.empty(xs.shape[:-1] + (n, n, n))
    for i in range(n):
        for j in range(n):
            for m in range(n):
                dg[..., i, j, m] = pa.g[i][j].base_deriv(m).value()
    C = pa.values(pa.cartan)
    g = pa.values(pa.g)
    low = np.einsum("...rik,...rj->...ijk", Gam, g)  # Gamma_{j,ik}
    resid = (
        dg
        - 2.0 * np.einsum("...rm,...rij->...ijm", Gj, C)
        - np.einsum("...rim,...rj->...ijm", Gam, g)
        - np.einsum("...rjm,...ri->...ijm", Gam, g)
    )
    assert np.max(np.abs(resid)) <= 1e-8
    # delta_m F = d_m F - G^r_m dF/dy^r = 0 (F horizontally constant)
    from finslerflow.jets import sqrt_

    Fj = sqrt_(pa.F2)
    for m in range(n):
        dF = Fj.base_deriv(m).value()
        for r in range(n):
            dF = dF - Gj[..., r, m] * Fj.fiber_deriv(r).value()
        assert np.max(np.abs(dF)) <= 1e-8


def test_geodesic_flat_straight_line(euclidean):
    path = ff.geodesic_integrate(euclidean.structure, X0, Y0, T=1.0, dt=0.01)
    assert path.complete
    np.testing.assert_allclose(path.x[-1], X0 + 1.0 * Y0, atol=1e-12)


def test_geodesic_F_conserved(randers):
    path = ff.geodesic_integrate(randers.structure, X0, np.array([0.9, 0.3]), T=1.0, dt=0.002)
    F = np.array([randers.structure.F(x, v) for x, v in zip(path.x, path.v)])
    assert np.max(np.abs(F - F[0])) <= 1e-8


def test_geodesic_great_circle(sphere):
    # equator of the unit sphere through the stereographic chart: |x| = 1,
    # unit speed; closes after arc length 2*pi
    x0 = np.array([1.0, 0.0])
    v0 = np.array([0.0, 1.0])  # F(x0, v0) = 1 there
    assert sphere.structure.F(x0, v0) == pytest.approx(1.0, rel=1e-12)
    path = ff.geodesic_integrate(sphere.structure, x0, v0, T=2 * np.pi, dt=2 * np.pi / 4000)
    assert path.complete
    assert np.linalg.norm(path.x[-1] - x0) <= 1e-5


def test_geodesic_chart_exit_flagged(sphere):
    # outward geodesic crosses the |x| < 3 patch boundary; path truncates
    path = ff.geodesic_integrate(
        sphere.structure, np.array([2.8, 0.0]), np.array([1.0, 0.0]), T=5.0, dt=0.01
    )
    assert path.left_chart
    assert len(path.t) < 501
    assert np.all(np.linalg.norm(path.x, axis=-1) < 3.0)


def test_geodesic_stage_off_chart_flagged(funk):
    # the midpoint stages of the first step sit at |x| = 1.025, off the disk;
    # the step itself would end inside it, because the path slows down
    path = ff.geodesic_integrate(
        funk.structure, np.array([0.9, 0.0]), np.array([1.0, 0.0]), T=1.0, dt=0.25
    )
    assert not path.complete
    assert len(path.t) == 1


def test_geodesic_dt_validation(euclidean):
    with pytest.raises(ValueError):
        ff.geodesic_integrate(euclidean.structure, X0, Y0, T=1.0, dt=0.0)


# the fixed-step integrators share one check of (T, dt)
_BAD_T_DT = pytest.mark.parametrize("T, dt, message", [
    (1.0, np.inf, "dt must be positive and finite, got inf"),
    (1.0, np.nan, "dt must be positive and finite, got nan"),
    (-1.0, 0.1, "T must be non-negative and finite, got -1.0"),
    (np.inf, 0.1, "T must be non-negative and finite, got inf"),
], ids=["dt-inf", "dt-nan", "T-negative", "T-inf"])


@_BAD_T_DT
def test_geodesic_rejects_bad_dt_or_T(euclidean, T, dt, message):
    # dt inf and T -1 returned a one-point path flagged complete; dt nan and
    # T inf failed inside int(round(T / dt)) with messages naming neither
    with pytest.raises(ValueError, match=message):
        ff.geodesic_integrate(euclidean.structure, X0, Y0, T=T, dt=dt)


@_BAD_T_DT
def test_uniform_scaling_rejects_bad_dt_or_T(euclidean, T, dt, message):
    # T -1 returned a one-point run and T inf raised OverflowError
    with pytest.raises(ValueError, match=message):
        ff.uniform_scaling_flow(euclidean.structure, X0, 0.3, T=T, dt=dt)
