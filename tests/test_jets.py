"""Jet arithmetic against closed-form derivatives and algebraic laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerflow.jets import (
    Jet,
    JetOrderError,
    atan_,
    cos_,
    exp_,
    jet_spec,
    jet_variables,
    log_,
    power_,
    sin_,
    sqrt_,
)


def vars_at(x, y, border=2, forder=4):
    return jet_variables(np.asarray(x, float), np.asarray(y, float), border, forder)


def test_polynomial_derivatives_exact():
    _, (y1, y2) = vars_at([0.0, 0.0], [1.5, -0.3], border=0, forder=5)
    p = (y1 + 2.0 * y2) ** 3
    assert p.deriv(fmon=(0, 3)) == pytest.approx(48.0, abs=0)
    assert p.deriv(fmon=(1, 2)) == pytest.approx(24.0, abs=0)
    assert p.deriv(fmon=(3, 0)) == pytest.approx(6.0, abs=0)


def test_mixed_base_fiber_derivative():
    (x1, x2), (y1, y2) = vars_at([0.3, 0.4], [1.0, 0.7])
    f = sin_(x1) * exp_(x2) * y1 * y1
    want = np.cos(0.3) * np.exp(0.4) * 2.0
    assert f.deriv(bmon=(1, 1), fmon=(1, 0)) == pytest.approx(want, rel=1e-14)


def test_quartic_root_vs_finite_difference():
    # oracle: central differences of the closed form at machine-safe step
    def F(a, b):
        return (a**4 + b**4) ** 0.25

    h = 1e-5
    _, (y1, y2) = vars_at([0.0, 0.0], [1.0, 1.0], border=0, forder=4)
    q = power_(y1**4 + y2**4, 0.25)
    fd = (F(1, 1 + h) - F(1, 1 - h)) / (2 * h)
    assert q.deriv(fmon=(0, 1)) == pytest.approx(fd, abs=1e-9)
    h = 1e-4  # second differences are roundoff-limited below this
    fd2 = (F(1 + h, 1 + h) - F(1 + h, 1 - h) - F(1 - h, 1 + h) + F(1 - h, 1 - h)) / (
        4 * h * h
    )
    assert q.deriv(fmon=(1, 1)) == pytest.approx(fd2, abs=1e-7)


def test_transcendental_chain():
    _, (y1, y2) = vars_at([0.0, 0.0], [0.8, 0.5], border=0, forder=4)
    f = log_(sqrt_(y1 * y1 + y2 * y2))
    r2 = 0.8**2 + 0.5**2
    assert f.deriv(fmon=(1, 0)) == pytest.approx(0.8 / r2, rel=1e-13)
    g = atan_(y2 / y1)
    assert g.deriv(fmon=(0, 1)) == pytest.approx(0.8 / r2, rel=1e-13)
    assert g.deriv(fmon=(1, 0)) == pytest.approx(-0.5 / r2, rel=1e-13)
    h = cos_(y1) * cos_(y1) + sin_(y1) * sin_(y1)
    assert h.deriv(fmon=(2, 0)) == pytest.approx(0.0, abs=1e-14)


def test_order_bounds_enforced():
    _, (y1, _) = vars_at([0, 0], [1.0, 1.0], border=1, forder=2)
    f = y1 * y1
    with pytest.raises(JetOrderError):
        f.deriv(fmon=(3, 0))
    with pytest.raises(JetOrderError):
        f.base_deriv(0).base_deriv(1)


def test_validity_shrinks_under_derivative():
    _, (y1, y2) = vars_at([0, 0], [1.0, 2.0], border=0, forder=4)
    f = sqrt_(y1 * y1 + y2 * y2)
    d = f.fiber_deriv(0)
    assert d.fvalid == 3
    with pytest.raises(JetOrderError):
        d.deriv(fmon=(0, 4))


def test_vectorized_leading_shape():
    x = np.zeros((7, 2))
    y = np.stack([np.linspace(0.5, 2.0, 7), np.full(7, 0.3)], axis=-1)
    _, (y1, y2) = vars_at(x, y, border=0, forder=3)
    f = sqrt_(y1 * y1 + y2 * y2)
    r = np.hypot(y[:, 0], y[:, 1])
    np.testing.assert_allclose(f.value(), r, rtol=1e-15)
    np.testing.assert_allclose(f.deriv(fmon=(1, 0)), y[:, 0] / r, rtol=1e-14)


def test_determinism_bit_identical():
    def run():
        _, (y1, y2) = vars_at([0.1, 0.2], [1.1, 0.4], border=2, forder=4)
        return exp_(sin_(y1) + y2 * y2).c.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)


small = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
positive = st.floats(min_value=0.3, max_value=2.5, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(a=small, b=positive, c=small)
def test_product_rule_property(a, b, c):
    _, (y1, y2) = vars_at([0, 0], [b, 0.7], border=0, forder=3)
    f = y1 * y1 + a
    g = sin_(y1) + c * y2
    lhs = (f * g).deriv(fmon=(1, 0))
    rhs = f.deriv(fmon=(1, 0)) * g.value() + f.value() * g.deriv(fmon=(1, 0))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(b=positive)
def test_exp_log_roundtrip_property(b):
    _, (y1, y2) = vars_at([0, 0], [b, 1.3], border=0, forder=4)
    f = y1 * y1 + y2
    g = exp_(log_(f))
    # g stores the whole valid box, f only its support box: compare on the valid box
    np.testing.assert_allclose(_dense(g), _dense(f), rtol=1e-11, atol=1e-11)


@settings(max_examples=25, deadline=None)
@given(a=small, b=small)
def test_mul_associative_property(a, b):
    _, (y1, y2) = vars_at([0, 0], [1.0, 0.5], border=0, forder=4)
    f, g, h = y1 + a, y2 * y2 + 1.0, sin_(y1) + b
    lhs = ((f * g) * h).c
    rhs = (f * (g * h)).c
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_product_paths_match_triplet_loop():
    # Small batches multiply by left-index groups, large ones by triplet
    # planes; both must equal the plain triplet loop bit for bit, with the
    # leading shapes of the two factors broadcast against each other.
    spec = jet_spec(2, 2, 2, 4)
    rng = np.random.default_rng(7)
    for lead in ((), (5,), (3, 700)):
        a = Jet(spec, rng.normal(size=(spec.ncoeff,) + lead), 2, 4)
        b = Jet(spec, rng.normal(size=(spec.ncoeff,) + lead[-1:]), 2, 4)
        want = np.zeros((spec.ncoeff,) + lead)
        for i, j, k in spec.mul_triplets:
            want[k] = want[k] + a.c[i] * b.c[j]
        got = a * b
        assert got.shape == lead
        assert np.array_equal(got.c, want)


def _dense(jet):
    """A jet's coefficients on its whole valid box: zero outside its stored box."""
    valid = jet_spec(jet.spec.nbase, jet.bvalid, jet.spec.nfiber, jet.fvalid)
    out = np.zeros((valid.ncoeff,) + jet.shape)
    out[[valid.index(bm, fm) for bm, fm in jet.spec.mons]] = jet.c
    return out


def _box_indices(spec, border, forder):
    """Indices in ``spec`` of the monomials of the (border, forder) box, in its order."""
    return [
        k for k, (bm, fm) in enumerate(spec.mons) if sum(bm) <= border and sum(fm) <= forder
    ]


def test_truncated_product_matches_full_triplet_loop():
    # Operands valid below the full spec store only their boxes; the product
    # lives on the smaller box, and each of its coefficients equals the plain
    # full-spec triplet loop bit for bit, though the full arrays carry
    # garbage past the operands' orders.
    spec = jet_spec(2, 2, 2, 4)
    rng = np.random.default_rng(11)
    for lead in ((), (5,), (3, 700)):
        A = rng.normal(size=(spec.ncoeff,) + lead)
        B = rng.normal(size=(spec.ncoeff,) + lead[-1:])
        a, b = Jet(spec, A, 1, 4), Jet(spec, B, 2, 2)
        assert (a.spec.border, a.spec.forder, b.spec.border, b.spec.forder) == (1, 4, 2, 2)
        box = _box_indices(spec, 1, 2)
        for left, right, L, R in ((a, b, A, B), (b, a, B, A)):
            want = np.zeros((spec.ncoeff,) + lead)
            for i, j, k in spec.mul_triplets:
                want[k] = want[k] + L[i] * R[j]
            got = left * right
            assert got.shape == lead
            assert (got.bvalid, got.fvalid) == (1, 2)
            assert (got.spec.border, got.spec.forder) == (1, 2)
            assert got.spec.mons == [spec.mons[k] for k in box]
            assert np.array_equal(got.c, want[box])
    # sums keep the common box too; different variable counts still clash
    s = Jet(spec, A, 1, 4) + Jet(spec, B, 2, 2)
    assert np.array_equal(s.c, (A + B[:, None])[box])
    # only one operand stored past the common valid box: it alone is cut
    sub = jet_spec(2, 1, 2, 2)
    for lead in ((), (5,)):
        A = rng.normal(size=(spec.ncoeff,) + lead)
        B = rng.normal(size=(spec.ncoeff,) + lead)
        a, b = Jet(spec, A, 1, 4), Jet(sub, B[box], 2, 2)
        assert (a.spec.border, a.spec.forder, b.spec.border, b.spec.forder) == (1, 4, 1, 2)
        for left, right, L, R in ((a, b, A, B), (b, a, B, A)):
            want = np.zeros((spec.ncoeff,) + lead)
            for i, j, k in spec.mul_triplets:
                want[k] = want[k] + L[i] * R[j]
            got = left * right
            assert (got.bvalid, got.fvalid) == (1, 2) and got.spec is sub
            assert np.array_equal(got.c, want[box])
        s = a + b
        assert (s.bvalid, s.fvalid) == (1, 2) and s.spec is sub
        assert np.array_equal(s.c, (A + B)[box])
    _, (yf, _) = vars_at([0, 0], [1.0, 1.0], border=0, forder=3)
    with pytest.raises(ValueError, match="spec mismatch"):
        _ = a + yf


def test_equal_leads_build_one_jet_without_broadcast(monkeypatch):
    # Operands with the same leading shape are read in place: a product or a
    # sum of two jets builds no broadcast view and no jet but its result,
    # also where it cuts an operand stored past the common valid box.
    calls = {"broadcast_to": 0, "Jet": 0}
    broadcast_to, post_init = np.broadcast_to, Jet.__post_init__

    def counting_broadcast_to(*args, **kwargs):
        calls["broadcast_to"] += 1
        return broadcast_to(*args, **kwargs)

    def counting_post_init(self):
        calls["Jet"] += 1
        post_init(self)

    spec = jet_spec(2, 2, 2, 4)
    rng = np.random.default_rng(13)
    for lead in ((), (5,)):
        a = Jet(spec, rng.normal(size=(spec.ncoeff,) + lead), 2, 4)
        b = Jet(spec, rng.normal(size=(spec.ncoeff,) + lead), 2, 4)
        cut = Jet(spec, rng.normal(size=(spec.ncoeff,) + lead), 1, 2)
        for left, right in ((a, b), (a, cut), (cut, b)):
            for op in (lambda p, q: p * q, lambda p, q: p + q, lambda p, q: p - q):
                with monkeypatch.context() as m:
                    m.setattr(np, "broadcast_to", counting_broadcast_to)
                    m.setattr(Jet, "__post_init__", counting_post_init)
                    calls.update(broadcast_to=0, Jet=0)
                    op(left, right)
                    assert calls == {"broadcast_to": 0, "Jet": 1}
    # leads that differ are broadcast, one view per operand
    with monkeypatch.context() as m:
        m.setattr(np, "broadcast_to", counting_broadcast_to)
        calls.update(broadcast_to=0)
        _ = a * Jet(spec, rng.normal(size=(spec.ncoeff, 3, 5)), 2, 4)
        assert calls["broadcast_to"] == 2


def test_derivatives_shrink_the_stored_box():
    (x1, _), (y1, y2) = vars_at([0.3, 0.4], [1.0, 0.7], border=2, forder=4)
    f = sin_(x1) * exp_(y1 * y2)
    spec = f.spec
    for d, var, base in ((f.base_deriv(1), 1, True), (f.fiber_deriv(0), 0, False)):
        border, forder = (1, 4) if base else (2, 3)
        assert (d.bvalid, d.fvalid) == (border, forder)
        assert (d.spec.border, d.spec.forder) == (border, forder)
        assert d.c.shape == (len(_box_indices(spec, border, forder)),)
        # (d_v f)_beta = (beta_v + 1) * f_{beta + e_v}
        for k, (bm, fm) in enumerate(d.spec.mons):
            mon = list(bm if base else fm)
            mult = mon[var] + 1
            mon[var] += 1
            src = spec.index(tuple(mon), fm) if base else spec.index(bm, tuple(mon))
            assert d.c[k] == f.c[src] * mult
    d2 = f.base_deriv(0).base_deriv(1)
    assert (d2.spec.border, d2.spec.forder) == (0, 4)
    assert d2.deriv(fmon=(1, 1)) == f.deriv(bmon=(1, 1), fmon=(1, 1))
    with pytest.raises(JetOrderError):
        d2.deriv(bmon=(1, 0))
    with pytest.raises(JetOrderError):
        d2.base_deriv(0)
    with pytest.raises(JetOrderError):
        f.fiber_deriv(0).deriv(fmon=(4, 0))


def _double_loop_tables(spec):
    """The O(ncoeff^2) triplet and group builder the vectorized tables replace."""
    triplets, groups = [], []
    for i, (bi, fi) in enumerate(spec.mons):
        js, ks = [], []
        for j, (bj, fj) in enumerate(spec.mons):
            bs = tuple(p + q for p, q in zip(bi, bj))
            fs = tuple(p + q for p, q in zip(fi, fj))
            if sum(bs) <= spec.border and sum(fs) <= spec.forder:
                k = spec.index(bs, fs)
                triplets.append((i, j, k))
                js.append(j)
                ks.append(k)
        if js:
            groups.append((i, np.asarray(js, dtype=np.int64), np.asarray(ks, dtype=np.int64)))
    return triplets, groups


@pytest.mark.parametrize("sig", [(2, 2, 2, 7), (2, 2, 2, 4), (2, 1, 2, 2), (0, 0, 2, 7)])
def test_spec_tables_match_double_loop(sig):
    spec = jet_spec(*sig)
    triplets, groups = _double_loop_tables(spec)
    assert spec.mul_triplets == triplets
    assert all(type(t) is int for trip in spec.mul_triplets for t in trip)
    assert len(spec.mul_groups) == len(groups)
    for (i, js, ks), (wi, wjs, wks) in zip(spec.mul_groups, groups):
        assert i == wi and type(i) is int
        assert js.dtype == ks.dtype == np.int64
        assert np.array_equal(js, wjs) and np.array_equal(ks, wks)


def _whole_box_plan_restricted(spec, tables, sa, sb):
    """A product plan as the whole-box tables restricted to the stored boxes ``sa``, ``sb``."""
    triplets, groups = tables
    so = (min(sa[0] + sb[0], spec.border), min(sa[1] + sb[1], spec.forder))
    pos = {m: i for i, m in enumerate(spec.mons)}

    def local(box):
        sub = jet_spec(spec.nbase, box[0], spec.nfiber, box[1])
        out = np.full(spec.ncoeff, -1, dtype=np.int64)
        out[[pos[m] for m in sub.mons]] = np.arange(sub.ncoeff)
        return out

    la, lb, lo = local(sa), local(sb), local(so)
    trip = [(int(la[i]), int(lb[j]), int(lo[k])) for i, j, k in triplets if la[i] >= 0 <= lb[j]]
    kept = []
    for i, js, ks in groups:
        keep = lb[js] >= 0
        if la[i] >= 0 and keep.any():
            kept.append((int(la[i]), lb[js[keep]], lo[ks[keep]]))
    return jet_spec(spec.nbase, so[0], spec.nfiber, so[1]), trip, kept


@pytest.mark.parametrize("sig", [(2, 2, 2, 6), (2, 2, 2, 4), (0, 0, 2, 7)])
def test_plans_and_maps_built_from_keys(sig):
    from finslerflow.jets import JetSpec

    fresh = JetSpec(*sig)
    assert fresh._plans == {}
    assert not hasattr(fresh, "_midx") and not hasattr(JetSpec, "_local")
    spec = jet_spec(*sig)
    tables = _double_loop_tables(spec)
    boxes = [(b, f) for b in range(spec.border + 1) for f in range(spec.forder + 1)]
    for sa in boxes:
        for sb in boxes:
            want_spec, want_trip, want_groups = _whole_box_plan_restricted(spec, tables, sa, sb)
            got_spec, got_trip, got_groups, got_flat = spec.mul_plan(sa, sb)
            assert got_spec is want_spec
            assert got_trip == want_trip
            assert all(col.dtype == np.int64 for col in got_flat)
            assert list(zip(*(col.tolist() for col in got_flat))) == want_trip
            assert all(type(t) is int for trip in got_trip for t in trip)
            assert len(got_groups) == len(want_groups)
            for (i, js, ks), (wi, wjs, wks) in zip(got_groups, want_groups):
                assert i == wi and type(i) is int
                assert js.dtype == ks.dtype == np.int64
                assert np.array_equal(js, wjs) and np.array_equal(ks, wks)
    # index and the derivative maps against a loop over the monomials
    pos = {m: i for i, m in enumerate(spec.mons)}
    assert [spec.index(bm, fm) for bm, fm in spec.mons] == list(range(spec.ncoeff))
    with pytest.raises(LookupError):
        spec.index((0,) * spec.nbase, (spec.forder + 1,) + (0,) * (spec.nfiber - 1))
    for base, nvar in ((True, spec.nbase if spec.border else 0), (False, spec.nfiber)):
        for var in range(nvar):
            sub, src, fac = spec.dmap(var, base)
            assert (sub.border, sub.forder) == (spec.border - base, spec.forder - (not base))
            assert src.dtype == np.int64 and fac.dtype == float
            for k, (bm, fm) in enumerate(sub.mons):
                mon = list(bm if base else fm)
                assert fac[k] == mon[var] + 1
                mon[var] += 1
                assert src[k] == pos[(tuple(mon), fm) if base else (bm, tuple(mon))]


def test_bundle_assembly_stores_valid_boxes(monkeypatch):
    from finslerflow import curvature
    from finslerflow.zoo import get_entry

    made = []

    class Recording(curvature.PointAssembly):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(curvature, "PointAssembly", Recording)
    fs = get_entry("funk-disk").structure
    curvature.curvature_bundle(fs, np.array([0.2, 0.1]), np.array([np.cos(0.7), np.sin(0.7)]))
    (pa,) = made
    # the cache also holds value arrays (gamma, the scalars): check every jet in it
    jets = [pa.F2, *pa.y]
    for value in pa._cache.values():
        value = np.asarray(value)
        if value.dtype == object:
            jets.extend(value.ravel())
        else:
            assert value.dtype == float
    assert len(jets) > 20 and all(isinstance(j, Jet) for j in jets)
    for j in jets:
        assert j.spec.border <= j.bvalid and j.spec.forder <= j.fvalid
        assert j.c.shape[0] == j.spec.ncoeff
    # the spray stack sits below the input box (2, 6): Gjk is valid to (1, 2)
    assert {(j.bvalid, j.fvalid) for j in pa.Gjk.ravel()} == {(1, 2)}


def _dense_product(a, b):
    """The product over the whole common valid box, by its spec's full tables."""
    border, forder = min(a.bvalid, b.bvalid), min(a.fvalid, b.fvalid)
    spec = jet_spec(a.spec.nbase, border, a.spec.nfiber, forder)
    A, B = (_dense(Jet(j.spec, j.c, border, forder)) for j in (a, b))
    ndim = max(A.ndim, B.ndim)
    A, B = (M.reshape(M.shape[:1] + (1,) * (ndim - M.ndim) + M.shape[1:]) for M in (A, B))
    lead = np.broadcast_shapes(A.shape[1:], B.shape[1:])
    A, B = np.broadcast_to(A, A.shape[:1] + lead), np.broadcast_to(B, B.shape[:1] + lead)
    out = np.zeros((spec.ncoeff,) + lead)
    if int(np.prod(lead)) < 512:
        for i, js, ks in spec.mul_groups:
            out[ks] += A[i] * B[js]
    else:
        for i, j, k in spec.mul_triplets:
            out[k] += A[i] * B[j]
    return Jet(spec, out, border, forder)


def _support_box_expressions(x, y):
    (x1, x2), (y1, y2) = vars_at(x, y, border=2, forder=4)
    conf = exp_(0.4 * sin_(x1) * x2)                # x only
    quad = y1 * y1 + 0.5 * y1 * y2 + 2.0 * y2 * y2  # y only
    mixed = sqrt_(conf * quad + x2 * y1)
    ratio = mixed / (1.0 + x1 * x1 + quad)          # through a reciprocal
    return {
        "conf": conf, "quad": quad, "mixed": mixed, "ratio": ratio,
        "conf*quad": conf * quad, "quad*conf": quad * conf,
        "d": ratio.fiber_deriv(0) * conf.base_deriv(1) + quad.fiber_deriv(1) * mixed,
    }


def test_support_box_products_match_dense_reference(monkeypatch):
    # Products on the stored support boxes skip only terms with a zero factor,
    # so every jet equals the dense valid-box computation bit for bit, on the
    # grouped path (under 512 points) and on the triplet path.
    rng = np.random.default_rng(3)
    for xlead, ylead in (((), ()), ((5,), (5,)), ((3, 700), (700,))):
        x = rng.uniform(-1.0, 1.0, xlead + (2,))
        y = rng.uniform(0.5, 1.5, ylead + (2,))
        got = _support_box_expressions(x, y)
        with monkeypatch.context() as m:
            sparse_mul = Jet.__mul__

            def mul(a, b):
                return _dense_product(a, b) if isinstance(b, Jet) else sparse_mul(a, b)

            m.setattr(Jet, "__mul__", mul)
            m.setattr(Jet, "__rmul__", mul)
            want = _support_box_expressions(x, y)
        for key, jet in got.items():
            ref = want[key]
            assert (jet.bvalid, jet.fvalid) == (ref.bvalid, ref.fvalid), key
            assert jet.shape == ref.shape, key
            assert _dense(jet).tobytes() == _dense(ref).tobytes(), (key, xlead)
        assert got["ratio"].shape == np.broadcast_shapes(xlead, ylead)
        assert (got["conf"].spec.border, got["conf"].spec.forder) == (2, 0)
        assert (got["quad"].spec.border, got["quad"].spec.forder) == (0, 2)
        assert (got["conf*quad"].spec.border, got["conf*quad"].spec.forder) == (2, 2)


def test_support_boxes_of_zoo_metrics():
    from finslerflow.connections import PointAssembly
    from finslerflow.zoo import get_entry

    x, y = np.array([0.2, 0.1]), np.array([np.cos(0.7), np.sin(0.7)])
    pa = PointAssembly(get_entry("conformal-torus").structure, x, y, forder=4, border=2)
    assert (pa.F2.bvalid, pa.F2.fvalid) == (2, 4)
    assert (pa.F2.spec.border, pa.F2.spec.forder) == (2, 2)
    assert {(j.spec.border, j.spec.forder) for j in pa.g.ravel()} == {(2, 0)}
    # the y seeds are valid on F^2's box but store only their linear part
    assert {(j.bvalid, j.fvalid, j.spec.border, j.spec.forder) for j in pa.y} == {(2, 4, 0, 1)}
    pa = PointAssembly(get_entry("funk-disk").structure, x, y, forder=4, border=2)
    assert (pa.F2.spec.border, pa.F2.spec.forder) == (2, 4)


def test_derivatives_past_the_support_box_are_zero():
    (x1, _), _ = vars_at([0.3, 0.4], [1.0, 0.7], border=2, forder=4)
    f = sin_(x1)
    assert (f.spec.border, f.spec.forder) == (2, 0)
    assert f.deriv(bmon=(1, 0), fmon=(0, 1)) == 0.0
    d = f.fiber_deriv(0)
    assert (d.bvalid, d.fvalid, d.spec.border, d.spec.forder) == (2, 3, 0, 0)
    assert d.value() == 0.0
    with pytest.raises(JetOrderError):
        d.deriv(fmon=(4, 0))
    # a y seed with no fiber order is its value
    _, (yc, _) = vars_at([0.3, 0.4], [1.0, 0.7], border=1, forder=0)
    assert (yc.fvalid, yc.spec.ncoeff) == (0, 1) and yc.value() == 1.0


def _at_points(c, lead):
    """Coefficients on 7 points, tiled or cut to ``lead``: every path treats points alike."""
    return np.take(c, np.arange(int(np.prod(lead))) % 7, axis=1).reshape(c.shape[:1] + lead)


@pytest.mark.parametrize("sig", [(2, 2, 2, 6), (2, 1, 2, 2)])
def test_product_paths_agree_for_every_stored_box_pair(sig):
    # One point takes the scatter (one bincount), 2-511 points the groups and
    # 512 the triplets; each must equal the dense whole-box product bit for
    # bit, for every pair of stored boxes.
    spec = jet_spec(*sig)
    boxes = [spec.box(b, f)[0] for b in range(spec.border + 1) for f in range(spec.forder + 1)]
    rng = np.random.default_rng(17)
    for sa in boxes:
        for sb in boxes:
            A, B = rng.normal(size=(sa.ncoeff, 7)), rng.normal(size=(sb.ncoeff, 7))
            A[rng.uniform(size=A.shape) < 0.1] = -0.0
            want = _dense(_dense_product(Jet(sa, A, spec.border, spec.forder),
                                         Jet(sb, B, spec.border, spec.forder)))
            box = None
            for lead in ((), (1,), (7,), (511,), (512,)):
                cols = [slice(p, p + 1) for p in range(7)] if np.prod(lead) == 1 else [slice(7)]
                for col in cols:
                    got = (Jet(sa, _at_points(A[:, col], lead), spec.border, spec.forder)
                           * Jet(sb, _at_points(B[:, col], lead), spec.border, spec.forder))
                    if box is None:  # the product's box; the dense product is 0 outside it
                        box = [spec.index(bm, fm) for bm, fm in got.spec.mons]
                        assert not np.delete(want, box, axis=0).any()
                    assert got.shape == lead
                    assert got.c.tobytes() == _at_points(want[box, col], lead).tobytes(), (
                        sa, sb, lead)


def test_constant_sums_fold_into_the_value_coefficient():
    # jet +- constant in either order keeps the bits of the constant padded
    # to a jet, signed zeros included
    spec = jet_spec(2, 2, 2, 4)
    rng = np.random.default_rng(19)
    for lead in ((), (5,)):
        c = rng.normal(size=(spec.box(1, 2)[0].ncoeff,) + lead)
        c[0], c[3], c[-1] = -0.0, -0.0, 0.0
        a = Jet(spec.box(1, 2)[0], c, 2, 4)
        for v in (0.0, -0.0, 1.5, np.array(-0.0), np.full(lead, -0.0), np.full((3,) + lead, 2.0),
                  rng.normal(size=lead)):
            padded = Jet.constant(a.valid_spec, v, a.shape)
            for got, want in ((a + v, a + padded), (v + a, padded + a),
                              (a - v, a - padded), (v - a, padded - a)):
                assert got.spec is want.spec and got.shape == want.shape
                assert (got.bvalid, got.fvalid) == (want.bvalid, want.fvalid)
                assert got.c.tobytes() == want.c.tobytes(), (lead, v)


def _full_horner(self, series):
    """The uncut Horner: every power of the nilpotent part up to bvalid + fvalid."""
    nil = self._nilpotent()
    m = series.shape[0] - 1
    out = Jet.constant(self.valid_spec, series[m], self.shape)
    for j in range(m - 1, -1, -1):
        out = out * nil
        out.c[0] += series[j]
    return out


def _compose_cases(lead):
    x = np.stack([np.full(lead, 0.3), np.full(lead, 0.4)], -1)
    y = np.stack([np.full(lead, 1.1), np.full(lead, 0.7)], -1)
    (x1, x2), (y1, y2) = vars_at(x, y, border=2, forder=6)
    xonly = 1.3 + 0.4 * x1 * x2 + 0.1 * x1 * x1
    yonly = y1 * y1 + 0.5 * y1 * y2 + 2.0 * y2 * y2
    return {
        "x-only": xonly, "y-only": yonly, "mixed": xonly * yonly + 0.3 * x2 * y1,
        "x at 0": x1 - 0.3, "constant": Jet.constant(x1.valid_spec, 0.8, lead),
        "constant -0": Jet.constant(x1.valid_spec, -0.0, lead),
    }


def test_compose_cut_matches_full_horner(monkeypatch):
    # Horner stops at the last power of the nilpotent part that can be
    # nonzero; the bits are those of the series run to bvalid + fvalid, the
    # sign of sin(-0.0) on a constant included
    fns = {
        "reciprocal": lambda j: 1.0 / j, "sqrt_": sqrt_, "exp_": exp_, "log_": log_,
        "sin_": sin_, "cos_": cos_, "atan_": atan_,
        "power_": lambda j: power_(j, -1.5), "**": lambda j: j ** 2.5,
    }
    for lead in ((), (3,)):
        cases = _compose_cases(lead)
        assert [j._series_orders() for j in cases.values()] == [2, 6, 8, 2, 1, 1]
        got = {(k, f): fn(j) for k, j in cases.items() for f, fn in fns.items()
               if k not in ("x at 0", "constant -0") or f in ("sin_", "cos_", "atan_", "exp_")}
        with monkeypatch.context() as m:
            m.setattr(Jet, "compose", _full_horner)
            m.setattr(Jet, "_series_orders", lambda self: self.bvalid + self.fvalid)
            cases = _compose_cases(lead)
            want = {(k, f): fns[f](cases[k]) for k, f in got}
        for key, jet in got.items():
            ref = want[key]
            assert jet.spec is ref.spec and (jet.bvalid, jet.fvalid) == (ref.bvalid, ref.fvalid)
            assert jet.c.tobytes() == ref.c.tobytes(), (key, lead)
