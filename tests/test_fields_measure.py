"""Grid pipeline, Liouville measure, integrals, and the curvature functional."""

import sys
import time

import numpy as np
import pytest

import finslerflow as ff
from finslerflow import algebra, fields, workers
from finslerflow.fields import (
    GridStructure,
    cov_deriv_0,
    horizontal_cov_deriv,
    theta_derivative,
)
from finslerflow.flow import diagnostics, encode_state
from finslerflow.grids import GridError, base_derivative
from finslerflow.jets import cos_, sin_, sqrt_
from finslerflow.measure import (
    functional_report,
    global_inner,
    liouville_density,
    pair_inner,
)
from finslerflow.oracles import gauss_curvature_spectral
from finslerflow.structures import f2_jets, sample_points
from finslerflow.zoo import ZOO_NAMES
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


def _liouville_jet_loop(fs, x, theta):
    """rho = p_1 dp_2/dtheta - p_2 dp_1/dtheta from p_i = dF/dy^i, term by term (reference)."""
    y = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    F = sqrt_(f2_jets(fs, x, y, forder=2))
    p = [F.fiber_deriv(i) for i in range(2)]
    ep = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    dp = [
        p[i].fiber_deriv(0).value() * ep[..., 0] + p[i].fiber_deriv(1).value() * ep[..., 1]
        for i in range(2)
    ]
    return p[0].value() * dp[1] - p[1].value() * dp[0]


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_liouville_density_matches_jet_loop(name):
    fs = ff.get_entry(name).structure
    x, y = sample_points(fs, 24)
    th = np.arctan2(y[:, 1], y[:, 0])
    assert np.array_equal(liouville_density(fs, x, th), _liouville_jet_loop(fs, x, th))


def test_density_positive_on_validated(gs_randers):
    assert np.min(gs_randers.rho) > 0.0


def test_integrate_examples(euclidean, grids_small):
    bg, fg = grids_small
    gs = GridStructure(euclidean.structure, bg, fg)
    ones = np.ones(gs.F2.shape)
    V = gs.integrate(ones)
    assert V == pytest.approx(TWO_PI * (TWO_PI) ** 2, rel=1e-12)
    f = np.sin(gs.x_nodes[..., 0])[:, :, None] * np.cos(gs.thetas)
    h = np.broadcast_to(
        np.cos(gs.x_nodes[..., 1])[:, :, None] + 0.2, f.shape
    ).copy()
    lhs = gs.integrate(2.0 * f + 3.0 * h)
    rhs = 2.0 * gs.integrate(f) + 3.0 * gs.integrate(h)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    with pytest.raises(GridError):
        gs.integrate(np.ones((3, 3, 3)))


def test_unknown_base_mode_rejected_at_construction(randers, grids_small):
    # "FD4" used to build and report a volume; only huu_integral raised
    with pytest.raises(GridError, match=r"base_mode must be one of \('fd4', 'spectral'\)"):
        GridStructure(randers.structure, *grids_small, base_mode="FD4")


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


def _gem_gap_einsum(rt, g, ginv):
    """Reference GEM gap: the einsum form that ``algebra.gem_gap`` writes out by component."""
    ht = np.einsum("...ij,...ij->...", ginv, rt)
    gap = rt - 0.5 * ht[..., None, None] * g
    mixed = np.einsum("...ia,...aj->...ij", ginv, gap)
    return np.max(np.abs(mixed), axis=(-1, -2))


def test_gem_gap_matches_einsum(gs_conformal, gs_randers, funk, sphere):
    for gs in (gs_conformal, gs_randers):
        ref = _gem_gap_einsum(gs.ricci_tilde, gs.g, gs.ginv)
        assert np.array_equal(algebra.gem_gap(gs.ricci_tilde, gs.g, gs.ginv), ref)
    for e in (funk, sphere):
        xs, ys = sample_points(e.structure, 24)
        cb = ff.curvature_bundle(e.structure, xs, ys)
        ref = _gem_gap_einsum(cb.ricci_tilde, cb.g, cb.ginv)
        assert np.array_equal(algebra.gem_gap(cb.ricci_tilde, cb.g, cb.ginv), ref)
        # the pointwise residual: the sup over 16 fiber angles at the first point
        th = np.arange(16) * (TWO_PI / 16)
        cb = ff.curvature_bundle(e.structure, np.broadcast_to(xs[0], (16, 2)),
                                 np.stack([np.cos(th), np.sin(th)], axis=-1))
        ref = np.max(_gem_gap_einsum(cb.ricci_tilde, cb.g, cb.ginv))
        assert ff.gem_residual(e.structure, xs[0], n_theta=16) == ref


def test_cov_deriv_valence_1_3(gs_randers, randers):
    """nabla(delta^i_j h_kl) = delta^i_j nabla h_kl; the delta slots' Gamma-terms cancel."""
    fam = randers_family(
        randers.structure, lambda xs: (0.05 * cos_(xs[1]), 0.05 * sin_(xs[0]))
    )
    h = family_variation(fam, gs_randers)
    nab_h = horizontal_cov_deriv(h, gs_randers, (0, 2))
    assert np.max(np.abs(nab_h)) > 1e-2
    eye = np.eye(2)
    T = np.einsum("ij,...kl->...ijkl", eye, h)
    got = horizontal_cov_deriv(T, gs_randers, (1, 3))
    assert got.shape == gs_randers.F2.shape + (2,) * 5
    want = np.einsum("ij,...klm->...ijklm", eye, nab_h)
    assert np.max(np.abs(got - want)) <= 1e-12


def _horizontal_cov_deriv_einsum(T, gs, valence, homogeneity):
    """Reference: the ``np.einsum`` form of ``horizontal_cov_deriv``."""
    p, q = valence
    idx = "ijkl"[: p + q]
    fT = gs.fiber(T, homogeneity)
    out = gs.base(T) - np.einsum(f"abc{idx}r,abcrm->abc{idx}m", fT, gs.Gj)
    for s in range(p):
        pre, post = idx[:s], idx[s + 1:]
        out = out + np.einsum(f"abc{pre}r{post},abc{idx[s]}rm->abc{idx}m", T, gs.Gamma)
    for s in range(p, p + q):
        pre, post = idx[:s], idx[s + 1:]
        out = out - np.einsum(f"abc{pre}r{post},abcr{idx[s]}m->abc{idx}m", T, gs.Gamma)
    return out


@pytest.mark.parametrize("valence", [(1, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 3)])
def test_cov_derivs_match_einsum_reference(randers, valence):
    """The plane-wise covariant derivatives give the einsum form's bits."""
    bg, fg = ff.build_grid(2, 24, TWO_PI, 32)
    gs = GridStructure(randers.structure, bg, fg)
    rng = np.random.default_rng(sum(valence) + 10 * valence[0])
    T = rng.standard_normal(gs.F2.shape + (2,) * sum(valence))
    want = _horizontal_cov_deriv_einsum(T, gs, valence, -1)
    assert np.array_equal(horizontal_cov_deriv(T, gs, valence, -1), want)
    idx = "ijkl"[: sum(valence)]
    want0 = np.einsum(f"abc{idx}t,abct->abc{idx}", want, gs.y)
    assert np.array_equal(cov_deriv_0(T, gs, valence, -1), want0)


def test_tilde_light_matches_full(gs_randers, gs_conformal):
    """Htilde_ij from the spray trace against tilde of the H_ij contraction."""
    for gs in (gs_randers, gs_conformal):
        full = gs.tilde(np.einsum("...ij,...i,...j->...", gs.ricci, gs.y, gs.y))
        np.testing.assert_allclose(gs.ricci_tilde, full, atol=1e-8)


def _theta_derivative_one(w, m):
    """Reference: one rfft per derivative order, along the last axis."""
    n = w.shape[-1]
    k = np.arange(n // 2 + 1, dtype=float)
    if m % 2 == 1 and n % 2 == 0:
        k[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(w, axis=-1) * (1j * k) ** m, n=n, axis=-1)


@pytest.mark.parametrize("n_theta", [32, 31])
def test_theta_derivative_orders_share_one_fft(n_theta):
    """A tuple of orders gives the bits of one call per order; even n_theta has a Nyquist mode."""
    w = np.random.default_rng(5).standard_normal((3, 4, n_theta))
    got = theta_derivative(w, (1, 2, 3))
    assert len(got) == 3
    for m, d in zip((1, 2, 3), got):
        assert np.array_equal(d, theta_derivative(w, m))
        assert np.array_equal(d, _theta_derivative_one(w, m))


def _tilde_einsum(gs, q):
    """Reference: the ``np.einsum`` outer-product form of ``GridStructure.tilde``."""
    q1 = theta_derivative(q, 1)
    q2 = theta_derivative(q, 2)
    e = gs.y
    ep = gs.eperp[None, None, :, :]
    sym = np.einsum("...i,...j->...ij", e, ep)
    sym = sym + np.swapaxes(sym, -1, -2)
    return (
        q[..., None, None] * np.eye(2)
        + 0.5 * q1[..., None, None] * sym
        + 0.5 * q2[..., None, None] * np.einsum("...i,...j->...ij", ep, ep)
    )


def test_tilde_matches_einsum(gs_randers, gs_conformal):
    """The plane-wise ``tilde`` gives the einsum form's bits."""
    q = np.random.default_rng(11).standard_normal(gs_randers.F2.shape)
    for gs, field in ((gs_randers, gs_randers.Q), (gs_conformal, gs_conformal.Q), (gs_randers, q)):
        assert np.array_equal(gs.tilde(field), _tilde_einsum(gs, field))


@pytest.mark.parametrize("name, params", [("randers-torus", {"b": 0.3}), ("conformal-torus", {})])
def test_polar_forms_match_tensor_route(name, params):
    """The grid's closed forms against the tensor stack (32^3, fd4 and spectral).

    g, rho and R^k_k against the spray stack; Htilde, the GEM gap and the
    smallest eigenvalue of g against the Cartesian tensors built from the
    same R^k_k.  The GEM gap of a Riemannian metric is roundoff, so it is
    held to the scale of Htilde.
    """
    bg, fg = ff.build_grid(2, 32, TWO_PI, 32)
    for mode in ("fd4", "spectral"):
        gs = GridStructure(ff.get_entry(name, **params).structure, bg, fg, base_mode=mode)
        ref = algebra.spray_trace(gs.y, gs.G, gs.base(gs.G), gs.Gj, gs.base(gs.Gj), gs.Gjk)
        assert np.max(np.abs(gs.ricci_scalar - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert np.max(np.abs(gs.g - 0.5 * gs.fiber(gs.fiber(gs.F2, 2), 1))) <= 1e-12
        p, pt = gs.p, gs.dtheta(gs.p)
        rho = p[..., 0] * pt[..., 1] - p[..., 1] * pt[..., 0]
        assert np.max(np.abs(gs.rho - rho)) <= 1e-12
        ht = algebra.contract("...ij,...ij->...", gs.ginv, gs.ricci_tilde)
        scale = np.max(np.abs(ht))
        assert np.max(np.abs(gs.h_tilde - ht)) <= 1e-13 * scale
        gem = algebra.gem_gap(gs.ricci_tilde, gs.g, gs.ginv)
        assert np.max(np.abs(gs.gem_field - gem)) <= 1e-13 * max(np.max(gem), scale)
        lam = algebra.min_eig(gs.g)
        assert np.max(np.abs(gs.min_eig_field - lam) / np.abs(lam)) <= 1e-14


@pytest.mark.parametrize("mode", ["fd4", "spectral"])
@pytest.mark.parametrize(
    "name, params",
    [("randers-torus", {"b": 0.3}), ("randers-torus", {"b": 0.6}), ("conformal-torus", {})],
)
def test_functional_is_twice_integrated_huu(name, params, mode):
    """In 2-D, I = 2 int H(u,u) eta: at each x, int Htilde rho dtheta = 2 int W R^k_k dtheta."""
    bg, fg = ff.build_grid(2, 32, TWO_PI, 48)
    gs = GridStructure(ff.get_entry(name, **params).structure, bg, fg, base_mode=mode)
    gap = abs(functional_report(gs).I - 2.0 * gs.integrate(gs.huu))
    assert gap <= 1e-12 * gs.integrate(np.abs(gs.h_tilde))


@pytest.mark.parametrize("mode", ["fd4", "spectral"])
@pytest.mark.parametrize("name", ["randers-torus", "conformal-torus", "quartic-minkowski"])
def test_structure_and_its_flow_state_agree_bit_for_bit(name, mode):
    # GridStructure kept the analytic F^2 and took log F = log(F^2) / 2, while
    # encode_state took log F = log sqrt(F^2), and every field differed
    bg, fg = ff.build_grid(2, 16, TWO_PI, 32)
    fs = ff.get_entry(name).structure
    gs = GridStructure(fs, bg, fg, mode)
    flow_gs = encode_state(fs, bg, fg, base_mode=mode).grid_structure()
    for key in ("logF", "F2", "rho", "huu", "h_tilde"):
        assert np.array_equal(getattr(gs, key), getattr(flow_gs, key)), key


@pytest.mark.parametrize("shape", [(48, 48, 48), (32, 32, 48), (40, 32, 32), (64, 64, 64)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("mode", ["fd4", "spectral"])
@pytest.mark.parametrize("name", ["randers-torus", "conformal-torus"])
def test_functional_is_the_flows_row_zero(name, mode, shape):
    # with two samplers, I read 8.78e-16 here and -4.68e-16 on the flow's row 0
    # (conformal-torus, fd4, 64^3); while integrate took one whole-field sum and
    # the passes summed by slabs, I differed in 8 of these cases, by up to 3.6e-15
    bg, fg = ff.build_grid(2, shape[:2], TWO_PI, shape[2])
    fs = ff.get_entry(name).structure
    gs = GridStructure(fs, bg, fg, mode)
    assert gs.integrate(gs.huu) == gs.huu_integral
    assert gs.integrate(gs.h_tilde) == gs.h_tilde_integral
    assert gs.integrate(np.ones(gs.F2.shape)) == gs.volume
    assert functional_report(gs).I == diagnostics(encode_state(fs, bg, fg, base_mode=mode)).I


@pytest.mark.parametrize("sample", [
    lambda fs, bg, fg: GridStructure(fs, bg, fg), encode_state,
], ids=["GridStructure", "encode_state"])
def test_grid_must_cover_the_torus(conformal, sample):
    # a grid over [0, pi)^2 was read as the whole 2 pi torus: max |H(u,u)| 35.1, not 0.597
    bg, fg = ff.build_grid(2, 32, np.pi, 32)
    with pytest.raises(GridError, match=r"grid lengths \(3.14.*\) are not the torus's \(6.28"):
        sample(conformal.structure, bg, fg)


@pytest.mark.parametrize("sample", [
    lambda fs, bg, fg: GridStructure(fs, bg, fg), encode_state,
], ids=["GridStructure", "encode_state"])
def test_sampler_refuses_non_finite_F(sample):
    # F = e^{800 sin x1 cos x2} |y| overflows to inf and underflows to 0:
    # encode_state took log F with numpy warnings (errors in this suite), and
    # its flow failed after writing its files
    fs = ff.get_entry("conformal-torus", amp=800.0).structure
    bg, fg = ff.build_grid(2, 8, TWO_PI, 16)
    with pytest.raises(GridError, match="conformal-torus: F must be finite and positive"):
        sample(fs, bg, fg)


@pytest.mark.parametrize("N, mode, tol", [(32, "fd4", 2.5e-4), (48, "spectral", 3e-9)])
def test_grid_h_tilde_accuracy(randers, N, mode, tol):
    """Grid Htilde at 64 seeded nodes against the exact pointwise jets (randers, b = 0.3)."""
    bg, fg = ff.build_grid(2, N, TWO_PI, N)
    gs = GridStructure(randers.structure, bg, fg, base_mode=mode)
    i, j, k = np.random.default_rng(0).integers(0, N, size=(3, 64))
    ref = ff.curvature_bundle(randers.structure, gs.x_nodes[i, j], gs.e[k]).h_tilde
    assert np.max(np.abs(gs.h_tilde[i, j, k] - ref)) <= tol


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
    g = gs.g
    V = gs.volume
    assert global_inner(g, g, gs) == pytest.approx(2.0 * V, rel=1e-12)
    rng = np.random.default_rng(7)
    h = rng.standard_normal(gs.g.shape)
    h = h + np.swapaxes(h, -1, -2)
    assert global_inner(h, g, gs) == pytest.approx(
        global_inner(g, h, gs), rel=1e-12
    )
    tr = np.einsum("...ij,...ij->...", gs.ginv, h)
    assert global_inner(h, g, gs) == pytest.approx(gs.integrate(tr), rel=1e-10)


def test_pair_inner_requires_lifted_fields(randers):
    """A base field of shape (N1, N2, 2) must not broadcast along the fiber axis."""
    bg, fg = ff.build_grid(2, 16, TWO_PI, 16)
    gs = GridStructure(randers.structure, bg, fg)
    xn = bg.nodes()
    X = np.stack([np.sin(xn[..., 1]), np.cos(xn[..., 0])], axis=-1)
    xi = gs.ginv[..., 0, :] * gs.F[..., None]
    lifted = np.broadcast_to(X[:, :, None, :], gs.F2.shape + (2,))
    want = gs.integrate(np.einsum("...k,...k->...", lifted, xi))
    assert pair_inner(lifted, xi, gs) == want
    with pytest.raises(GridError):
        pair_inner(X, xi, gs)
    with pytest.raises(GridError):
        pair_inner(lifted, xi[..., 0], gs)


def test_functional_report_average(gs_conformal):
    rep = functional_report(gs_conformal)
    assert rep.average == pytest.approx(rep.I / rep.volume, rel=1e-15)


def test_grid_singular_metric_names_node(grids_small):
    """An indefinite g on some nodes raises with the smallest eigenvalue and its node."""
    from finslerflow.algebra import min_eig
    from finslerflow.structures import SingularMetricError

    bg, fg = grids_small
    x = bg.nodes()
    amp = 0.05 + 0.05 * (1.0 + np.cos(x[..., 0]))  # convex only where amp < 1/16
    logF = amp[..., None] * np.cos(4.0 * fg.thetas)
    gs = GridStructure(logF, bg, fg)
    lam = min_eig(gs.g)
    assert lam.min() < 0 < lam.max()
    with pytest.raises(SingularMetricError) as info:
        gs.ginv
    assert info.value.min_eig == gs.min_eig_g
    # the grid reads the eigenvalue in the frame, the Cartesian g rounds otherwise
    assert abs(info.value.min_eig - lam.min()) <= 1e-14 * abs(lam.min())
    assert info.value.where == np.unravel_index(np.argmin(lam), lam.shape)
    # the closed-form curvature checks g too, so H(u,u) never reads a non-convex state
    with pytest.raises(SingularMetricError) as info:
        GridStructure(logF, bg, fg).huu
    assert info.value.min_eig == gs.min_eig_g


def _roll_fd4(f, axis, h):
    """The periodic FD4 first derivative written with np.roll, term order f(i+2) first."""
    r = lambda s: np.roll(f, -s, axis=axis)
    return (-r(2) + 8.0 * r(1) - 8.0 * r(-1) + r(-2)) / (12.0 * h)


def _polar_reference(gs):
    """Reference: the closed forms as whole-array formulas, one pass per term.

    x-derivatives are np.roll FD4 in fd4 mode and ``base_derivative`` in
    spectral mode; theta-derivatives are ``theta_derivative``.
    """
    F2 = gs.F2
    c, s = gs.e.T

    def dx(f, axis):
        if gs.base_mode == "fd4":
            return _roll_fd4(f, axis, gs.bgrid.spacing[axis])
        return base_derivative(f, gs.bgrid, axis, 1, "spectral")

    def frame_dx(f):
        d1, d2 = dx(f, 0), dx(f, 1)
        return c * d1 + s * d2, c * d2 - s * d1

    u1, u2 = theta_derivative(gs.logF, (1, 2))
    a = 1.0 + u2 + 2.0 * u1 * u1
    rho = F2 * (1.0 + u2 + u1 * u1)
    Du, Dpu = (d / (2.0 * F2) for d in frame_dx(F2))
    Du1 = theta_derivative(Du) - Dpu
    W2 = 2.0 * (1.0 + u2 + u1 * u1)
    P = ((1.0 + u2) * Du - u1 * Du1 + u1 * Dpu) / W2
    Q = (u1 * Du + Du1 - Dpu) / W2
    DP, _ = frame_dx(P)
    DQ, DpQ = frame_dx(Q)
    Q1, Q2 = theta_derivative(Q, (1, 2))
    R = (
        -DP + 2.0 * DpQ - (theta_derivative(DQ) - DpQ) + P * P
        + 2.0 * Q * theta_derivative(P) + 2.0 * Q * Q2
        + 4.0 * Q * Q - Q1 * Q1
    )
    R1, R2 = theta_derivative(R, (1, 2))
    h = 0.5 * R2
    m = 0.5 * ((a - 1.0) * R - h)
    p = 0.5 * a * R1 - u1 * (R + h)
    q = 0.5 * R1 - u1 * R
    k, skew = 0.5 * (p + q), np.abs(0.5 * (p - q))
    c2, s2 = np.cos(2.0 * gs.thetas), np.sin(2.0 * gs.thetas)
    gem = np.maximum(np.abs(m * c2 - k * s2), np.abs(m * s2 + k * c2) + skew) / rho
    return {
        "rho": rho,
        "min_eig_field": F2 * algebra.sym2_min_eig(1.0, u1, a),
        "ricci_scalar": R,
        "huu": R / F2,
        "h_tilde": ((1.0 + a) * R - u1 * R1 + 0.5 * R2) / rho,
        "gem_field": gem,
    }


_POLAR_KEYS = ("rho", "min_eig_field", "ricci_scalar", "huu", "h_tilde", "gem_field")


@pytest.mark.parametrize("mode", ["fd4", "spectral"])
@pytest.mark.parametrize("name", ["randers-torus", "conformal-torus"])
@pytest.mark.parametrize(
    "shape", [(64, 64, 64), (20, 48, 48), (9, 64, 64), (8, 8, 16)],
    ids=["64x64x64", "20x48x48", "9x64x64", "8x8x16"],
)
def test_polar_slabs_bit_identical(name, shape, mode):
    """The x1-slab closed forms give the bits of the whole-array formulas.

    64^2 x 64 runs 8 slabs of 8 rows; 20 x 48 x 48 runs 14 + 6 rows and
    9 x 64 x 64 runs 8 + 1, so the FD4 halo of the last slab wraps past a
    short slab; 8^2 x 16 is one slab, run inline.
    """
    bg, fg = ff.build_grid(2, shape[:2], TWO_PI, shape[2])
    gs = GridStructure(ff.get_entry(name).structure, bg, fg, base_mode=mode)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers interleave as often as they can
    try:
        got = {key: getattr(gs, key) for key in _POLAR_KEYS}
    finally:
        sys.setswitchinterval(switch)
    for key, want in _polar_reference(gs).items():
        assert np.array_equal(got[key], want), key


def test_rho_builds_no_spray(randers):
    """The Liouville density reads the metric pass only: no P, Q or R^k_k."""
    bg, fg = ff.build_grid(2, 16, TWO_PI, 32)
    gs = GridStructure(randers.structure, bg, fg)
    gs.rho
    assert set(gs._cache) == {"metric", "rho"}
    gs.volume
    assert set(gs._cache) == {"metric", "rho", "volume"}


def test_slab_workers_see_the_callers_errstate():
    """A slab task runs under the caller's np.errstate, and its exception reaches the caller."""
    out = np.ones((4, 8))

    def task(rows):
        out[rows] = out[rows] / 0.0

    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            workers.run(task, [slice(0, 2), slice(2, 4)])



def test_worker_run_waits_for_every_task_before_raising(monkeypatch):
    """A failed task is raised only after the others have finished writing."""
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(workers, "_pool", lambda pid: pool)
    out = np.zeros(2)

    def task(i):
        if i == 0:
            raise RuntimeError("slab 0 failed")
        time.sleep(0.3)
        out[i] = 1.0

    try:
        with pytest.raises(RuntimeError, match="slab 0 failed"):
            workers.run(task, [0, 1])
        assert out[1] == 1.0
    finally:
        pool.shutdown()