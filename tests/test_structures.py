"""Fundamental tensor, Cartan torsion, validity checks, public jet requests."""

import numpy as np
import pytest

import finslerflow as ff
from finslerflow.structures import (
    DomainError,
    JetRequest,
    SingularMetricError,
    f2_jets,
    fiber_jet,
    sample_points,
)
from finslerflow.zoo import ZOO_NAMES

X0 = np.array([0.7, 1.9])


def test_euclidean_identity_metric(euclidean):
    g = ff.fundamental_tensor(euclidean.structure, X0, np.array([1.3, -0.4]))
    np.testing.assert_allclose(g, np.eye(2), atol=1e-14)


def test_aniso_constant_hessian():
    e = ff.get_entry("aniso-quadratic", a1=2.0, a2=3.0)
    for y in ([1.0, 0.2], [0.1, -2.0], [0.5, 0.5]):
        g = ff.fundamental_tensor(e.structure, X0, np.array(y))
        np.testing.assert_allclose(g, np.diag([2.0, 3.0]), atol=1e-13)


def test_quartic_metric_vs_fd_oracle():
    # oracle: central differences of F^2 = sqrt(y1^4+y2^4) at y = (1,1)
    def F2(a, b):
        return np.sqrt(a**4 + b**4)

    h = 1e-5
    fd = (F2(1 + h, 1 + h) - F2(1 + h, 1 - h) - F2(1 - h, 1 + h) + F2(1 - h, 1 - h)) / (
        4 * h * h
    )
    fs = ff.FinslerStructure(
        n=2, name="bare-quartic", chart=ff.get_entry("euclidean").chart,
        f2=lambda xs, ys: ff.jets.sqrt_(ys[0] ** 4 + ys[1] ** 4),
    )
    g = ff.fundamental_tensor(fs, X0, np.array([1.0, 1.0]))
    assert g[0, 1] == pytest.approx(0.5 * fd, abs=1e-7)


def test_cartan_zero_for_riemannian(conformal):
    C = ff.cartan_tensor(conformal.structure, X0, np.array([0.9, 0.8]))
    assert np.max(np.abs(C)) <= 1e-12


def test_cartan_contraction_identity(randers):
    xs, ys = sample_points(randers.structure, 12)
    C = ff.cartan_tensor(randers.structure, xs, ys)
    resid = np.einsum("...ijk,...k->...ij", C, ys)
    assert np.max(np.abs(resid)) <= 1e-12


def test_cartan_vs_fd_of_metric(randers):
    y = np.array([1.0, 0.5])
    C = ff.cartan_tensor(randers.structure, X0, y)
    h = 1e-5
    for k in range(2):
        dy = np.zeros(2)
        dy[k] = h
        gp = ff.fundamental_tensor(randers.structure, X0, y + dy)
        gm = ff.fundamental_tensor(randers.structure, X0, y - dy)
        fd = 0.5 * (gp - gm) / (2 * h)
        np.testing.assert_allclose(C[:, :, k], fd, atol=1e-6)
    assert np.max(np.abs(C)) > 1e-3  # genuinely non-Riemannian


def test_mean_cartan(randers, conformal):
    y = np.array([1.0, 0.5])
    assert np.max(np.abs(ff.mean_cartan(conformal.structure, X0, y))) <= 1e-12
    Ck = ff.mean_cartan(randers.structure, X0, y)
    g = ff.fundamental_tensor(randers.structure, X0, y)
    C = ff.cartan_tensor(randers.structure, X0, y)
    oracle = np.einsum("ij,ijk->k", np.linalg.inv(g), C)
    np.testing.assert_allclose(Ck, oracle, atol=1e-12)
    # (-1)-homogeneity: C_k(x, 2y) = C_k(x, y)/2
    np.testing.assert_allclose(
        ff.mean_cartan(randers.structure, X0, 2 * y), Ck / 2.0, atol=1e-12
    )


def _metric_from_jets(F2, n):
    """The term-by-term g_ij = 1/2 d^2 F^2/dy^i dy^j read off one jet (reference)."""
    g = np.empty(F2.shape + (n, n))
    for idx in np.ndindex(n, n):
        g[(...,) + idx] = 0.5 * F2.deriv(fmon=tuple(idx.count(t) for t in range(n)))
    return g


def _cartan_from_jets(F2, n):
    """The term-by-term C_ijk = 1/4 d^3 F^2/dy^i dy^j dy^k (reference)."""
    C = np.empty(F2.shape + (n, n, n))
    for idx in np.ndindex(n, n, n):
        C[(...,) + idx] = 0.25 * F2.deriv(fmon=tuple(idx.count(t) for t in range(n)))
    return C


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_pointwise_tensors_match_jet_loops(name):
    """The connection stack's g and C equal the coefficient reads; mean Cartan to roundoff."""
    fs = ff.get_entry(name).structure
    x, y = sample_points(fs, 24)
    g = _metric_from_jets(f2_jets(fs, x, y, forder=2), 2)
    F2 = f2_jets(fs, x, y, forder=3)
    C = _cartan_from_jets(F2, 2)
    assert np.array_equal(ff.fundamental_tensor(fs, x, y), g)
    assert np.array_equal(ff.cartan_tensor(fs, x, y), C)
    Ck = np.einsum("...ij,...ijk->...k", np.linalg.inv(g), C)
    np.testing.assert_allclose(ff.mean_cartan(fs, x, y), Ck, rtol=0, atol=1e-15)


def test_metric_zero_homogeneity(randers):
    y = np.array([0.8, -0.6])
    g = ff.fundamental_tensor(randers.structure, X0, y)
    for lam in (0.5, 2.0, 10.0):
        glam = ff.fundamental_tensor(randers.structure, X0, lam * y)
        np.testing.assert_allclose(glam, g, atol=1e-9)


def test_euler_twice(randers):
    xs, ys = sample_points(randers.structure, 16)
    g = ff.fundamental_tensor(randers.structure, xs, ys)
    F = randers.structure.F(xs, ys)
    lhs = np.einsum("...ij,...i,...j->...", g, ys, ys)
    np.testing.assert_allclose(lhs, F * F, rtol=1e-10)


def test_validate_structure_euclidean(euclidean):
    r = ff.validate_structure(euclidean.structure, sample_count=32)
    assert r.passed
    assert r.worst("F 1-homogeneity (Euler)") <= 1e-12
    assert r.worst("Cartan total symmetry") <= 1e-12


def test_validate_structure_randers_margin():
    ok = ff.validate_structure(ff.get_entry("randers-torus", b=0.5).structure, 32)
    assert ok.checks["g positive definite"][0]


def test_validate_detects_convexity_loss():
    # force an invalid drift past strong convexity through the raw constructor
    from finslerflow.zoo import _randers_torus

    with pytest.raises(ValueError):
        _randers_torus(b=1.2)
    bad = ff.FinslerStructure(
        n=2, name="bad-randers", chart=ff.get_entry("euclidean").chart,
        f2=lambda xs, ys: (ff.jets.sqrt_(ys[0] * ys[0] + ys[1] * ys[1]) + 1.2 * ys[0]) ** 2,
    )
    r = ff.validate_structure(bad, sample_count=48)
    assert not r.checks["g positive definite"][0]


def test_singular_metric_error_carries_eigenvalue():
    bad = ff.FinslerStructure(
        n=2, name="degenerate", chart=ff.get_entry("euclidean").chart,
        f2=lambda xs, ys: (ff.jets.sqrt_(ys[0] * ys[0] + ys[1] * ys[1]) + 1.05 * ys[0]) ** 2,
    )
    with pytest.raises(SingularMetricError) as exc:
        ff.fundamental_tensor(bad, X0, np.array([-1.0, 0.05]))
    assert exc.value.min_eig <= 0


def test_fiber_jet_requests(euclidean, randers):
    v = fiber_jet(
        euclidean.structure, X0, np.array([1.0, 0.0]),
        JetRequest(base=(0, 0), fiber=(2, 0), of_f2=True),
    )
    assert v == pytest.approx(2.0, abs=1e-13)
    # Euler identity through public jets
    y = np.array([1.1, 0.6])
    f1 = fiber_jet(randers.structure, X0, y, JetRequest((0, 0), (1, 0)))
    f2_ = fiber_jet(randers.structure, X0, y, JetRequest((0, 0), (0, 1)))
    F = randers.structure.F(X0, y)
    assert y[0] * f1 + y[1] * f2_ == pytest.approx(F, rel=1e-12)


def test_fiber_jet_bounds_and_slit(euclidean):
    with pytest.raises(ValueError):
        JetRequest((0, 0), (5, 0)).validate(2)
    with pytest.raises(ValueError):
        JetRequest((3, 0), (0, 0)).validate(2)
    with pytest.raises(ValueError):
        JetRequest((2, 0), (4, 0)).validate(2)  # total 6 > 5
    with pytest.raises(DomainError, match="slit"):
        fiber_jet(euclidean.structure, X0, np.zeros(2), JetRequest((0, 0), (1, 0)))


@pytest.mark.parametrize("name, x", [
    ("funk-disk", [1.5, 0.0]), ("funk-disk", [0.6, -0.8]), ("sphere-patch", [5.0, 0.0]),
], ids=["funk-disk-1.5,0", "funk-disk-0.6,-0.8", "sphere-patch-5,0"])
def test_pointwise_api_rejects_x_off_chart(name, x):
    """An x outside the chart raises DomainError, not a numpy warning (the
    suite turns warnings into errors) and not a singular-metric error."""
    fs = ff.get_entry(name).structure
    x = np.array(x)
    y = np.array([np.cos(1.3), np.sin(1.3)])
    for fn in (ff.ricci_directional, ff.fundamental_tensor, ff.cartan_tensor,
               ff.mean_cartan, ff.spray, ff.curvature_bundle):
        with pytest.raises(DomainError, match="outside the chart"):
            fn(fs, x, y)
    with pytest.raises(DomainError, match="outside the chart"):
        ff.liouville_density(fs, x, 0.0)
    # a batch names the first point off the chart
    xs = np.stack([[0.2, 0.1], x, x])
    with pytest.raises(DomainError, match=r"point \(1,\)"):
        ff.ricci_directional(fs, xs, y)


def test_fiber_jet_deterministic(randers):
    req = JetRequest((1, 0), (2, 1), of_f2=True)
    y = np.array([0.9, 0.7])
    a = fiber_jet(randers.structure, X0, y, req)
    b = fiber_jet(randers.structure, X0, y, req)
    assert a == b


def test_structure_rejects_n3():
    with pytest.raises(ValueError):
        ff.FinslerStructure(
            n=3, name="euclidean-3", chart=ff.get_entry("euclidean").chart,
            f2=lambda xs, ys: ys[0] * ys[0] + ys[1] * ys[1] + ys[2] * ys[2],
        )
