"""The plane-wise contraction helper against ``np.einsum``, and the grid routes that use it."""

import sys

import numpy as np
import pytest

import finslerflow as ff
from finslerflow import algebra, measure, variations
from finslerflow.connections import PointAssembly
from finslerflow.fields import GridStructure, cov_deriv_0, horizontal_cov_deriv
from finslerflow.jets import cos_, sin_
from finslerflow.structures import sample_points

TWO_PI = 2.0 * np.pi
VALENCES = [(1, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 3)]


def _drift(xs):
    return (0.05 * cos_(xs[1]), 0.05 * sin_(xs[0]))


def _X(xn):
    return np.stack([np.sin(xn[..., 1]), np.cos(xn[..., 0])], axis=-1)


def _heavy_route(gs, randers):
    """Every grid entry point whose contractions go through ``algebra.contract``."""
    h = variations.family_variation(variations.randers_family(randers, _drift), gs)
    variations.adjointness_residual(_X, h, gs)
    variations.variation_residuals(variations.randers_family(randers, _drift), gs)
    variations.variation_residuals(
        variations.conformal_family(randers, lambda xs: 0.3 + 0.0 * xs[0]), gs
    )
    variations.trace_split(h, gs)
    a = gs.ginv[..., 0, :] * gs.F[..., None]
    for kind in ("horizontal", "vertical"):
        variations.codifferential(a, gs, kind, -1)
    measure.functional_report(gs, c_fun=0.5)
    gs.ricci  # hh and Ricci, which the curvature scalars no longer read
    rng = np.random.default_rng(3)
    for valence in VALENCES:
        T = rng.standard_normal(gs.F2.shape + (2,) * sum(valence))
        cov_deriv_0(T, gs, valence)


@pytest.fixture(scope="module")
def recorded_calls(randers):
    """The distinct (subscripts, operand shapes) that the heavy grid route contracts."""
    calls = {}
    real = algebra.contract

    def record(subscripts, *ops):
        calls.setdefault((subscripts,) + tuple(op.shape for op in ops), (subscripts, ops))
        return real(subscripts, *ops)

    bg, fg = ff.build_grid(2, 12, TWO_PI, 16)
    gs = GridStructure(randers.structure, bg, fg)
    with pytest.MonkeyPatch.context() as mp:
        for mod in (algebra, variations, measure):
            mp.setattr(mod, "contract", record)
        _heavy_route(gs, randers.structure)
    return list(calls.values())


def _check_against_einsum(sub, *ops):
    """Over one index the helper gives einsum's bits; over more, the same sum to 1e-15."""
    want = np.einsum(sub, *ops)
    got = algebra.contract(sub, *ops)
    assert got.shape == want.shape, sub
    lhs, out = sub.replace("...", "").split("->")
    if len(set(lhs) - set(out) - {","}) == 1:
        assert np.array_equal(got, want), sub
    else:
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), sub


def test_contract_matches_einsum(recorded_calls):
    seen = {sub for sub, _ in recorded_calls}
    for sub in ("...ik,...jl,...ij,...kl->...",
                "...kjs,...sm,...mi->...ijk", "...ks,...rkjs->...rj"):
        assert sub in seen
    broadcast = [sub for sub, ops in recorded_calls if any(op.shape[:2] == (1, 1) for op in ops)]
    assert broadcast
    for sub, ops in recorded_calls:
        _check_against_einsum(sub, *ops)


def test_contract_broadcast_leads():
    """Leads broadcast as in einsum, a fiber-only operand against full grid fields."""
    rng = np.random.default_rng(11)
    H = rng.standard_normal((3, 4, 5, 2, 2, 2, 2))
    y = rng.standard_normal((1, 1, 5, 2))
    _check_against_einsum("...kjkl,...j,...l->...", H, y, y)
    _check_against_einsum("...ijt,...t->...ij", H[..., 0], y)
    _check_against_einsum("...t,...ijt->...ij", y, H[..., 0])
    _check_against_einsum("...ij,...ijk->...k", H[0, 0, 0, 0], H[0, 0, 0])


def test_min_eig_near_isotropic():
    """The closed-form smallest eigenvalue keeps its digits on lambda I plus 1e-12."""
    rng = np.random.default_rng(5)
    lam = rng.uniform(0.5, 2.0, size=256)
    dg = 1e-12 * rng.standard_normal((256, 2, 2))
    g = lam[:, None, None] * np.eye(2) + dg + np.swapaxes(dg, -1, -2)
    want = np.linalg.eigvalsh(g)[:, 0]
    assert np.max(np.abs(algebra.min_eig(g) - want) / want) <= 1e-14


def _ricci_einsum(g, ginv, H):
    M = np.einsum("...ks,...rkjs->...rj", ginv, H)
    return np.einsum("...ir,...rj->...ij", g, M)


@pytest.mark.parametrize("name", ["funk-disk", "randers-torus", "quartic-minkowski"])
def test_contract_on_jets_matches_einsum(name):
    """On object arrays of jets the hh-curvature and Ricci products keep einsum's bits."""
    fs = ff.get_entry(name).structure
    x, y = sample_points(fs, 6)
    pa = PointAssembly(fs, x, y, forder=5, border=2)
    H = pa.hh
    Gjk = pa.Gjk
    P = pa.base(Gjk)[..., 1, 0] - np.einsum(
        "...ijm,...m->...ij", pa.Gjkm[..., 1, :], pa.Gj[..., :, 0]
    ) + np.einsum("...mj,...im->...ij", Gjk[..., :, :, 1], Gjk[..., :, :, 0])
    Q = pa.base(Gjk)[..., 0, 1] - np.einsum(
        "...ijm,...m->...ij", pa.Gjkm[..., 0, :], pa.Gj[..., :, 1]
    ) + np.einsum("...mj,...im->...ij", Gjk[..., :, :, 0], Gjk[..., :, :, 1])
    assert np.array_equal(pa.values(H[..., 0, 1]), pa.values(P - Q))
    assert np.array_equal(pa.values(pa.ricci), pa.values(_ricci_einsum(pa.g, pa.ginv, H)))


def test_heavy_grid_route_avoids_einsum(monkeypatch, randers):
    """A slip back to ``np.einsum`` on the heavy grid route fails here.

    Only the spray G, which the flow's light route shares and which keeps its
    einsum form, may call it.
    """
    real = np.einsum
    spray = algebra.ConnectionStack.G.fget.__code__

    def guarded(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not spray:
            frame = frame.f_back
        if frame is None:
            raise AssertionError(f"np.einsum({args[0]!r}) on the heavy grid route")
        return real(*args, **kwargs)

    bg, fg = ff.build_grid(2, 16, TWO_PI, 16)
    gs = GridStructure(randers.structure, bg, fg)
    monkeypatch.setattr(np, "einsum", guarded)
    with pytest.raises(AssertionError, match="heavy grid route"):
        np.einsum("...ij,...ij->...", gs.g, gs.g)
    h = variations.family_variation(variations.randers_family(randers.structure, _drift), gs)
    assert variations.adjointness_residual(_X, h, gs) <= 1e-3
    rep = variations.variation_residuals(variations.randers_family(randers.structure, _drift), gs)
    assert rep.worst() <= 1e-2
    a = gs.ginv[..., 0, :] * gs.F[..., None]
    for kind in ("horizontal", "vertical"):
        assert np.all(np.isfinite(variations.codifferential(a, gs, kind, -1)))
    assert measure.global_inner(gs.g, gs.g, gs) == pytest.approx(2.0 * gs.volume, rel=1e-12)
    assert np.all(np.isfinite(horizontal_cov_deriv(gs.g, gs, (0, 2))))
