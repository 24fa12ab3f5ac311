"""Grid pipeline, Liouville measure, integrals, and the curvature functional."""

import numpy as np
import pytest

import finslerflow as ff
from finslerflow.fields import GridStructure, TensorField, horizontal_cov_deriv
from finslerflow.grids import GridError
from finslerflow.jets import cos_, sin_
from finslerflow.measure import (
    functional_report,
    global_inner,
    liouville_density,
    sm_integrate,
)
from finslerflow.oracles import gauss_curvature_spectral
from finslerflow.variations import family_variation, randers_family

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def gs_conformal(conformal, grids_medium):
    bg, fg = grids_medium
    return GridStructure(conformal.structure, bg, fg, base_mode="spectral")


@pytest.fixture(scope="module")
def gs_randers(randers, grids_medium):
    bg, fg = grids_medium
    return GridStructure(randers.structure, bg, fg, base_mode="spectral")


def test_euclidean_density_is_one(euclidean, grids_small):
    bg, fg = grids_small
    gs = GridStructure(euclidean.structure, bg, fg)
    np.testing.assert_allclose(gs.rho, 1.0, atol=1e-13)
    th = np.linspace(0, TWO_PI, 37)[:-1]
    rho = liouville_density(euclidean.structure, np.zeros((36, 2)), th)
    np.testing.assert_allclose(rho, 1.0, atol=1e-13)


def test_riemannian_fiber_measure():
    e = ff.get_entry("aniso-quadratic", a1=4.0, a2=4.0)
    th = np.arange(256) * (TWO_PI / 256)
    rho = liouville_density(e.structure, np.zeros((256, 2)), th)
    total = np.sum(rho) * (TWO_PI / 256)
    assert total == pytest.approx(TWO_PI * 4.0, rel=1e-12)


def test_quartic_density_vs_refined_quadrature(quartic):
    # 10x-refined quadrature oracle for the fiber total
    x0 = np.zeros(2)
    for N in (64,):
        th = np.arange(N) * (TWO_PI / N)
        rho = liouville_density(quartic.structure, np.broadcast_to(x0, (N, 2)), th)
        total = np.sum(rho) * (TWO_PI / N)
        Nf = 10 * N
        thf = np.arange(Nf) * (TWO_PI / Nf)
        rhof = liouville_density(quartic.structure, np.broadcast_to(x0, (Nf, 2)), thf)
        totalf = np.sum(rhof) * (TWO_PI / Nf)
        assert total == pytest.approx(totalf, abs=1e-6)


def test_density_positive_on_validated(gs_randers):
    assert np.min(gs_randers.rho) > 0.0


def test_sm_integrate_examples(euclidean, grids_small):
    bg, fg = grids_small
    gs = GridStructure(euclidean.structure, bg, fg)
    ones = np.ones(gs.F2.shape)
    V = sm_integrate(ones, gs)
    assert V == pytest.approx(TWO_PI * (TWO_PI) ** 2, rel=1e-12)
    f = np.sin(gs.x_nodes[..., 0])[:, :, None] * np.cos(gs.thetas)
    h = np.broadcast_to(
        np.cos(gs.x_nodes[..., 1])[:, :, None] + 0.2, f.shape
    ).copy()
    lhs = sm_integrate(2.0 * f + 3.0 * h, gs)
    rhs = 2.0 * sm_integrate(f, gs) + 3.0 * sm_integrate(h, gs)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    with pytest.raises(GridError):
        sm_integrate(np.ones((3, 3, 3)), gs)


def test_quadrature_converges_in_fiber(randers):
    vols = []
    for nt in (128, 256):
        bg, fg = ff.build_grid(2, 16, TWO_PI, nt)
        vols.append(GridStructure(randers.structure, bg, fg).volume)
    assert abs(vols[1] - vols[0]) / abs(vols[1]) <= 1e-6


def test_grid_vs_pointwise_cross_check(gs_randers, randers):
    i1, i2, i3 = 7, 21, 13
    x = gs_randers.x_nodes[i1, i2]
    th = gs_randers.thetas[i3]
    y = np.array([np.cos(th), np.sin(th)])
    np.testing.assert_allclose(
        gs_randers.g[i1, i2, i3], ff.fundamental_tensor(randers.structure, x, y),
        atol=1e-10,
    )
    np.testing.assert_allclose(
        gs_randers.cartan[i1, i2, i3], ff.cartan_tensor(randers.structure, x, y),
        atol=1e-9,
    )
    np.testing.assert_allclose(
        gs_randers.Gamma[i1, i2, i3], ff.cartan_hcoeffs(randers.structure, x, y),
        atol=1e-8,
    )
    np.testing.assert_allclose(
        gs_randers.hh[i1, i2, i3], ff.hh_curvature(randers.structure, x, y),
        atol=1e-8,
    )
    np.testing.assert_allclose(
        gs_randers.ricci_tilde[i1, i2, i3],
        ff.ricci_tensors(randers.structure, x, y)[1],
        atol=1e-8,
    )


def _hh_einsum_chain(gs):
    """Reference H^i_jkl on the grid: delta_k G^i_jl, antisymmetrized, all n^4 entries."""
    Gjk = gs.Gjk
    dG = np.stack([gs.dx(Gjk, 0), gs.dx(Gjk, 1)], axis=-1)  # (...,i,j,l,k)
    delta = dG - np.einsum("...ijlm,...mk->...ijlk", gs.Gjkm, gs.Gj)
    H = delta.transpose(*range(delta.ndim - 4), -4, -3, -1, -2)  # (...,i,j,k,l)
    H = H - delta
    H = H + np.einsum("...mjl,...imk->...ijkl", Gjk, Gjk)
    return H - np.einsum("...mjk,...iml->...ijkl", Gjk, Gjk)


def test_hh_matches_einsum_chain(gs_randers):
    assert np.max(np.abs(gs_randers.hh - _hh_einsum_chain(gs_randers))) <= 1e-13


def test_cov_deriv_valence_1_3(gs_randers, randers):
    """nabla(delta^i_j h_kl) = delta^i_j nabla h_kl; the delta slots' Gamma-terms cancel."""
    fam = randers_family(
        randers.structure, lambda xs: (0.05 * cos_(xs[1]), 0.05 * sin_(xs[0]))
    )
    h = family_variation(fam, gs_randers).h
    nab_h = horizontal_cov_deriv(h, gs_randers).data
    assert np.max(np.abs(nab_h)) > 1e-2
    eye = np.eye(2)
    T = TensorField(np.einsum("ij,...kl->...ijkl", eye, h.data), (1, 3), h.homogeneity)
    got = horizontal_cov_deriv(T, gs_randers)
    assert got.valence == (1, 4)
    want = np.einsum("ij,...klm->...ijklm", eye, nab_h)
    assert np.max(np.abs(got.data - want)) <= 1e-12


def test_tilde_light_matches_full(gs_randers, gs_conformal):
    for gs in (gs_randers, gs_conformal):
        np.testing.assert_allclose(
            gs.ricci_tilde_light, gs.ricci_tilde, atol=1e-8
        )


def test_grid_curvature_vs_gauss_oracle(conformal, grids_medium):
    bg, fg = grids_medium
    gs = GridStructure(conformal.structure, bg, fg, base_mode="fd4")
    u = 0.2 * np.sin(gs.x_nodes[..., 0]) * np.cos(gs.x_nodes[..., 1])
    K = gauss_curvature_spectral(u, bg)
    err = np.max(np.abs(gs.huu - K[:, :, None]) / (1.0 + np.abs(K[:, :, None])))
    assert err <= 1e-3


def test_functional_flat(euclidean, grids_small):
    bg, fg = grids_small
    gs = GridStructure(euclidean.structure, bg, fg)
    rep = functional_report(gs, c_fun=lambda x: np.cos(x[..., 0]))
    assert rep.volume == pytest.approx(TWO_PI**3, rel=1e-12)
    assert abs(rep.I) <= 1e-12
    assert abs(rep.average) <= 1e-14
    assert rep.I_normalized == rep.I  # n = 2


def test_functional_gauss_bonnet(gs_conformal):
    rep = functional_report(gs_conformal)
    maxK = float(np.max(np.abs(gs_conformal.huu)))
    assert abs(rep.I) <= 1e-3 * rep.volume * maxK


def test_functional_scale_invariance(conformal, randers, grids_small):
    bg, fg = grids_small
    for entry in (conformal, randers):
        gs1 = GridStructure(entry.structure, bg, fg)
        doubled = ff.FinslerStructure(
            n=2, name="2F", chart=entry.structure.chart,
            f2=lambda xs, ys, _f=entry.structure.f2: 4.0 * _f(xs, ys),
        )
        gs2 = GridStructure(doubled, bg, fg)
        I1 = functional_report(gs1).I
        I2 = functional_report(gs2).I
        assert I2 == pytest.approx(I1, rel=1e-6, abs=1e-9)


def test_global_inner_examples(gs_randers):
    gs = gs_randers
    g = TensorField(gs.g, (0, 2), 0)
    V = gs.volume
    assert global_inner(g, g, gs) == pytest.approx(2.0 * V, rel=1e-12)
    rng = np.random.default_rng(7)
    h = rng.standard_normal(gs.g.shape)
    h = h + np.swapaxes(h, -1, -2)
    hf = TensorField(h, (0, 2), 0)
    assert global_inner(hf, g, gs) == pytest.approx(
        global_inner(g, hf, gs), rel=1e-12
    )
    tr = np.einsum("...ij,...ij->...", gs.ginv, h)
    assert global_inner(hf, g, gs) == pytest.approx(gs.integrate(tr), rel=1e-10)


def test_functional_report_average(gs_conformal):
    rep = functional_report(gs_conformal)
    assert rep.average == pytest.approx(rep.I / rep.volume, rel=1e-15)
