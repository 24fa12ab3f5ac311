"""Lie derivatives, the divergence adjoint, codifferentials, variation identities."""

import numpy as np
import pytest

import finslerflow as ff
from finslerflow.fields import GridStructure
from finslerflow.jets import cos_, sin_
from finslerflow.measure import global_inner
from finslerflow.oracles import (
    riemannian_christoffel,
    riemannian_divergence,
    riemannian_killing,
)
from finslerflow.variations import (
    MetricFamily,
    adjointness_residual,
    codifferential,
    conformal_family,
    conformal_variation,
    divergence_delta,
    family_variation,
    lie_derivative_metric,
    membership_residuals,
    randers_family,
    trace_split,
    variation_residuals,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def gs_flat(euclidean, grids_medium):
    bg, fg = grids_medium
    return GridStructure(euclidean.structure, bg, fg, base_mode="spectral")


@pytest.fixture(scope="module")
def gs_conf(conformal, grids_medium):
    bg, fg = grids_medium
    return GridStructure(conformal.structure, bg, fg, base_mode="spectral")


@pytest.fixture(scope="module")
def gs_rand(randers, grids_medium):
    bg, fg = grids_medium
    return GridStructure(randers.structure, bg, fg, base_mode="spectral")


def X_trig(xn):
    return np.stack([np.sin(xn[..., 0]), np.cos(xn[..., 1])], axis=-1)


def dX_trig(xn):
    # dX[..., k, i] = d X^k / dx^i
    out = np.zeros(xn.shape[:-1] + (2, 2))
    out[..., 0, 0] = np.cos(xn[..., 0])
    out[..., 1, 1] = -np.sin(xn[..., 1])
    return out


# ---------------------------------------------------------------------------
# conformal variations and trace split
# ---------------------------------------------------------------------------

def test_conformal_variation_basics(gs_rand):
    h = conformal_variation(lambda xn: np.ones(xn.shape[:-1]), gs_rand)
    tr = np.einsum("...ij,...ij->...", gs_rand.ginv, h)
    np.testing.assert_allclose(tr, 2.0, atol=1e-12)
    e = gs_rand.e[None, None, :, :]
    huu = np.einsum("...ij,...i,...j->...", h, e, e) / gs_rand.F2
    np.testing.assert_allclose(huu, 1.0, atol=1e-12)
    assert max(membership_residuals(h, gs_rand)) <= 1e-10


def test_trace_split(gs_rand):
    kx = np.cos(gs_rand.x_nodes[..., 0])
    h = conformal_variation(lambda xn: np.cos(xn[..., 0]), gs_rand)
    conf, perp = trace_split(h, gs_rand)
    assert np.max(np.abs(perp)) <= 1e-12
    rng = np.random.default_rng(3)
    raw = rng.standard_normal(gs_rand.g.shape)
    hf = raw + np.swapaxes(raw, -1, -2)
    conf, perp = trace_split(hf, gs_rand)
    tr_perp = np.einsum("...ij,...ij->...", gs_rand.ginv, perp)
    assert np.max(np.abs(tr_perp)) <= 1e-10
    # orthogonality under the global inner product
    norm2 = global_inner(hf, hf, gs_rand)
    assert abs(global_inner(conf, perp, gs_rand)) <= 1e-10 * norm2
    # idempotence
    conf2, perp2 = trace_split(perp, gs_rand)
    assert np.max(np.abs(conf2)) <= 1e-12
    np.testing.assert_allclose(perp2, perp, atol=1e-12)


# ---------------------------------------------------------------------------
# Lie derivative of the metric
# ---------------------------------------------------------------------------

def test_lie_derivative_flat_constant_killing(gs_flat):
    h = lie_derivative_metric(lambda xn: np.ones(xn.shape[:-1] + (2,)), gs_flat)
    assert np.max(np.abs(h)) <= 1e-12


def test_lie_derivative_riemannian_oracle(gs_conf, conformal):
    h = lie_derivative_metric(X_trig, gs_conf)
    x = gs_conf.x_nodes
    want = riemannian_killing(conformal, x, X_trig, dX_trig)
    err = np.max(np.abs(h - want[:, :, None, :, :]))
    assert err <= 1e-7


def test_lie_derivative_vs_flow_pullback_fd(gs_rand, randers):
    """Oracle: pull back g along the time-t flow of the complete lift by FD."""
    h = lie_derivative_metric(X_trig, gs_rand)
    idx = [(3, 11, 7), (20, 33, 28), (41, 5, 40)]
    t = 1e-3
    for i1, i2, i3 in idx:
        x = gs_rand.x_nodes[i1, i2]
        th = gs_rand.thetas[i3]
        y = np.array([np.cos(th), np.sin(th)])
        X = X_trig(x)
        dX = dX_trig(x)

        def pulled(s):
            xs = x + s * X
            ys = y + s * dX @ y
            J = np.eye(2) + s * dX  # d(flow)/dx, first order in s
            g = ff.fundamental_tensor(randers.structure, xs, ys)
            return np.einsum("ai,bj,ab->ij", J, J, g)

        fd = (pulled(t) - pulled(-t)) / (2 * t)
        np.testing.assert_allclose(h[i1, i2, i3], fd, atol=1e-4)


# ---------------------------------------------------------------------------
# divergence adjoint and codifferentials
# ---------------------------------------------------------------------------

def test_divergence_flat_constant(gs_flat):
    h = np.broadcast_to(np.array([[1.0, 0.3], [0.3, 2.0]]), gs_flat.g.shape).copy()
    d = divergence_delta(h, gs_flat)
    assert np.max(np.abs(d)) <= 1e-12


def test_divergence_riemannian_oracle(gs_conf, conformal):
    def h(xn):
        k = np.sin(xn[..., 0]) * np.cos(xn[..., 1])
        return k[..., None, None] * conformal.a_fun(xn)

    def dh(xn):
        # closed-form gradient of k * a(x)
        k = np.sin(xn[..., 0]) * np.cos(xn[..., 1])
        dk = np.stack(
            [np.cos(xn[..., 0]) * np.cos(xn[..., 1]),
             -np.sin(xn[..., 0]) * np.sin(xn[..., 1])], axis=-1,
        )
        return (
            np.einsum("...m,...ij->...ijm", dk, conformal.a_fun(xn))
            + k[..., None, None, None] * conformal.da_fun(xn)
        )

    x = gs_conf.x_nodes
    want = riemannian_divergence(conformal, x, h, dh)
    hf = np.broadcast_to(h(x)[:, :, None, :, :], gs_conf.g.shape).copy()
    got = divergence_delta(hf, gs_conf)
    assert np.max(np.abs(got - want[:, :, None, :])) <= 1e-6


def test_codifferential_horizontal_riemannian(gs_conf, conformal):
    def a(xn):
        return np.stack([np.cos(xn[..., 1]), np.sin(xn[..., 0])], axis=-1)

    x = gs_conf.x_nodes
    av = np.broadcast_to(a(x)[:, :, None, :], gs_conf.g.shape[:-1]).copy()
    got = codifferential(av, gs_conf, "horizontal")
    # oracle: -nabla^j a_j with closed-form Christoffels
    gam = riemannian_christoffel(conformal, x)
    da = np.zeros(x.shape[:-1] + (2, 2))  # da[..., j, m] = d a_j / dx^m
    da[..., 0, 1] = -np.sin(x[..., 1])
    da[..., 1, 0] = np.cos(x[..., 0])
    ai = np.linalg.inv(conformal.a_fun(x))
    nab = da - np.einsum("...rjm,...r->...jm", gam, a(x))
    want = -np.einsum("...jm,...jm->...", ai, nab)
    assert np.max(np.abs(got - want[:, :, None])) <= 1e-6


def test_codifferential_vertical(gs_flat):
    # b_i = dF/dy^i for Euclidean F: delta b = -F g^{ij} d b_i / dy^j = -1
    b = gs_flat.p.copy()
    got = codifferential(b, gs_flat, "vertical")
    np.testing.assert_allclose(got, -1.0, atol=1e-11)
    z = np.zeros_like(gs_flat.p)
    np.testing.assert_allclose(codifferential(z, gs_flat, "vertical"), 0.0, atol=1e-15)
    with pytest.raises(ValueError):
        codifferential(b, gs_flat, "sideways")


def test_codifferential_vertical_refined(randers):
    # refined-grid oracle: doubling the fiber grid leaves delta b unchanged
    vals = []
    for nt in (48, 96):
        bg, fg = ff.build_grid(2, 16, TWO_PI, nt)
        gs = GridStructure(randers.structure, bg, fg, base_mode="spectral")
        b = gs.p.copy()
        vals.append(codifferential(b, gs, "vertical")[:, :, ::nt // 48])
    assert np.max(np.abs(vals[1][:, :, : vals[0].shape[2]] - vals[0])) <= 1e-6


# ---------------------------------------------------------------------------
# adjointness (the divergence really is the adjoint of the Lie derivative)
# ---------------------------------------------------------------------------

def corpus(gs, structure):
    """Fixed (X, h) pairs engaging both the Riemannian and Cartan terms."""
    fams = [
        randers_family(structure, lambda xs: (0.05 * cos_(xs[1]), 0.05 * sin_(xs[0]))),
        randers_family(structure, lambda xs: (0.04 * sin_(xs[0]) * sin_(xs[1]), 0.06 * cos_(xs[0]))),
    ]
    hs = [family_variation(f, gs) for f in fams]
    hs.append(conformal_variation(lambda xn: np.sin(xn[..., 0] + xn[..., 1]), gs))
    hs.append(lie_derivative_metric(lambda xn: np.stack(
        [np.cos(2 * xn[..., 1]), np.sin(xn[..., 0])], axis=-1), gs))
    Xs = [
        X_trig,
        lambda xn: np.stack([np.sin(xn[..., 1]), np.sin(xn[..., 0])], axis=-1),
        lambda xn: np.stack(
            [np.cos(xn[..., 0]) * np.sin(xn[..., 1]), np.cos(xn[..., 1])], axis=-1
        ),
        X_trig,
    ]
    return list(zip(Xs, hs))


def test_adjointness_zero_vector(gs_rand):
    h = conformal_variation(lambda xn: np.sin(xn[..., 0]), gs_rand)
    r = adjointness_residual(lambda xn: np.zeros(xn.shape[:-1] + (2,)), h, gs_rand)
    assert r <= 1e-14


def test_adjointness_flat_randers_h(gs_flat, euclidean):
    for X, h in corpus(gs_flat, euclidean.structure)[:2]:
        assert adjointness_residual(X, h, gs_flat) <= 1e-3


def test_adjointness_nonflat_background(gs_rand, randers):
    # the Cartan correction terms in the divergence must close the identity
    for X, h in corpus(gs_rand, randers.structure):
        assert adjointness_residual(X, h, gs_rand) <= 1e-3


def test_adjointness_bilinear(gs_rand, randers):
    X, h = corpus(gs_rand, randers.structure)[0]
    L = ff.lie_derivative_metric(X, gs_rand)
    lhs1 = 0.5 * global_inner(L, h, gs_rand)
    lhs2 = 0.5 * global_inner(L, 2.0 * h, gs_rand)
    assert lhs2 == pytest.approx(2.0 * lhs1, rel=1e-12)


# ---------------------------------------------------------------------------
# variation identities along metric families
# ---------------------------------------------------------------------------

def test_conformal_eta_prime_is_algebraic(gs_rand):
    # for h = k g the measure-variation prefactor reduces to tr(h)/2 = k n/2
    h = conformal_variation(lambda xn: np.sin(xn[..., 0]), gs_rand)
    gi = gs_rand.ginv
    e = gs_rand.e[None, None, :, :]
    tr = np.einsum("...ij,...ij->...", gi, h)
    huu = np.einsum("...ij,...i,...j->...", h, e, e) / gs_rand.F2
    pref = tr - (2.0 / 2.0) * huu
    np.testing.assert_allclose(pref, 0.5 * tr, atol=1e-12)


def test_variation_residuals_randers_family(gs_flat, euclidean):
    fam = randers_family(
        euclidean.structure, lambda xs: (0.1 * cos_(xs[1]), 0.1 * sin_(xs[0]))
    )
    rep = variation_residuals(fam, gs_flat, t_step=1e-4)
    assert rep.residuals["V'(FD) vs 1/2 int tr(h)"] <= 1e-3
    assert rep.residuals["V'(FD) vs n/2 int h(u,u)"] <= 1e-3
    assert rep.residuals["tr-form vs h(u,u)-form"] <= 1e-3
    assert rep.residuals["eta' nodewise"] <= 1e-3
    assert rep.residuals["G'^i_k relation"] <= 1e-3
    assert rep.values["membership_zero_homog"] <= 1e-6
    assert rep.values["membership_symmetry"] <= 1e-6


def test_variation_residuals_randers_on_curved(gs_conf, conformal):
    fam = randers_family(
        conformal.structure, lambda xs: (0.08 * cos_(xs[1]), 0.05 * sin_(xs[0]))
    )
    rep = variation_residuals(fam, gs_conf, t_step=1e-4)
    assert rep.worst() <= 1e-3


def test_variation_residuals_stationary_flat(gs_flat, euclidean):
    fam = MetricFamily(make=lambda t: euclidean.structure, t_max=1.0)
    rep = variation_residuals(fam, gs_flat, t_step=1e-4)
    for name, val in rep.residuals.items():
        assert val <= 1e-12, name


def test_conformal_dI_identity_scaling_direction(gs_conf, conformal):
    # constant conformal direction: dI/dt = 0 by scale invariance (n = 2)
    # and int H(u,u) tr(h) eta = 0 by the Gauss-Bonnet cancellation
    fam = conformal_family(conformal.structure, lambda xs: 0.3 + 0.0 * xs[0])
    rep = variation_residuals(fam, gs_conf, t_step=1e-4)
    assert rep.residuals["conformal dI/dt"] <= 1e-2


def test_conformal_dI_general_direction_documented(gs_conf, conformal):
    """For nonconstant k the conformal identity fails on the torus:
    dI/dt = 0 (Gauss-Bonnet) while int H(u,u) tr(h) eta != 0.  The report
    exposes the gap; this pins the measured counterexample."""
    fam = conformal_family(conformal.structure, lambda xs: sin_(xs[0]) * cos_(xs[1]))
    rep = variation_residuals(fam, gs_conf, t_step=1e-4)
    assert abs(rep.values["dI_dt"]) <= 1e-6  # Gauss-Bonnet keeps I stationary
    assert abs(rep.values["int Huu tr(h)"]) > 0.1  # the closed form does not vanish


@pytest.mark.parametrize("t_step", [0.0, -1e-4, float("inf"), float("nan")])
def test_centred_differences_reject_bad_t_step(gs_flat, euclidean, t_step):
    # 0 divided by zero with a RuntimeWarning; the others returned wrong numbers
    fam = conformal_family(euclidean.structure, lambda xs: 0.3 + 0.0 * xs[0])
    for call in (family_variation, variation_residuals):
        with pytest.raises(ValueError, match="t_step must be positive and finite"):
            call(fam, gs_flat, t_step=t_step)


def _fiber_direction(bg, fg, seed: int) -> np.ndarray:
    """10 random trigonometric modes (fiber modes m <= 4), theta-mean removed, max |v| = 1."""
    rng = np.random.default_rng(seed)
    x = bg.nodes()[:, :, None, :]
    v = np.zeros(bg.shape + (fg.n_theta,))
    for _ in range(10):
        (k1, k2), m = rng.integers(-2, 3, 2), rng.integers(0, 5)
        phase = k1 * x[..., 0] + k2 * x[..., 1] + m * fg.thetas + rng.uniform(0, TWO_PI)
        v = v + rng.normal() * np.cos(phase)
    v -= v.mean(axis=-1, keepdims=True)
    return v / np.abs(v).max()


def test_first_variation_of_I_vanishes_on_zero_gem_gap_entries():
    # The paper's first situation: I = int Htilde eta is critical under every
    # variation of F exactly where the GEM gap vanishes.  The central quotient
    # (I(u + eps v) - I(u - eps v)) / 2 eps along a fiber-dependent v of
    # u = log F falls as eps^2 on the four zero-gap entries; on randers-torus
    # (gap 0.39) it converges to a nonzero limit.
    bg, fg = ff.build_grid(2, 32, TWO_PI, 48)
    v = _fiber_direction(bg, fg, seed=3)

    def quotient(logF, eps):
        Ip, Im = (GridStructure(logF + s * eps * v, bg, fg, "spectral").h_tilde_integral
                  for s in (1.0, -1.0))
        return (Ip - Im) / (2.0 * eps)

    for name in ("aniso-quadratic", "conformal-torus", "euclidean", "quartic-minkowski",
                 "randers-torus"):
        logF = GridStructure(ff.get_entry(name).structure, bg, fg, base_mode="spectral").logF
        q4, q5 = quotient(logF, 1e-4), quotient(logF, 1e-5)
        if name == "randers-torus":
            assert abs(q4) >= 0.1 and abs(q4 - q5) <= 1e-4 * abs(q5), (q4, q5)
        else:
            assert abs(q4) <= 1e-5 and abs(q5) <= 1e-7, (name, q4, q5)
