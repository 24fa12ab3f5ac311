"""Flow engine: encoding, stepping, diagnostics, checkpoints."""

import json
from pathlib import Path

import numpy as np
import pytest

import finslerflow as ff
from finslerflow.fields import GridStructure
from finslerflow.flow import (
    FlowDiagnostics,
    diagnostics,
    dt_policy,
    encode_state,
    flow_rhs,
    read_checkpoint,
    run_flow,
    step,
    tensor_flow_gap,
    uniform_scaling_flow,
    write_checkpoint,
)
from finslerflow.grids import GridError
from finslerflow.oracles import conformal_flow_decay_ratio, gauss_curvature_spectral

TWO_PI = 2.0 * np.pi


def make_state(entry, N=24, NT=32, **kw):
    bg, fg = ff.build_grid(2, N, TWO_PI, NT)
    return encode_state(entry.structure, bg, fg, **kw)


def test_encode_euclidean_zero(euclidean):
    st = make_state(euclidean)
    np.testing.assert_allclose(st.logF, 0.0, atol=1e-15)


def test_encode_randers_constant_profile():
    e = ff.get_entry("randers-torus", b=0.3, profile="constant")
    st = make_state(e)
    assert st.logF[0, 0, 0] == pytest.approx(np.log(1.3), rel=1e-14)


def test_encode_rejects_nonperiodic(funk):
    bg, fg = ff.build_grid(2, 16, TWO_PI, 32)
    with pytest.raises(GridError):
        encode_state(funk.structure, bg, fg)


def test_roundtrip_quartic(quartic):
    st = make_state(quartic, N=16, NT=64)
    rng = np.random.default_rng(5)
    ang = rng.uniform(0, TWO_PI, size=32)
    r = rng.uniform(0.5, 2.0, size=32)
    y = r[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    x = np.broadcast_to(st.bgrid.nodes()[3, 7], (32, 2))
    got = st.structure_F(x, y)
    want = quartic.structure.F(x, y)
    assert np.max(np.abs(got - want) / want) <= 1e-6


def test_reconstruction_1_homogeneous(randers):
    st = make_state(randers, N=16, NT=48)
    x = np.broadcast_to(st.bgrid.nodes()[2, 5], (8, 2))
    ang = np.linspace(0.1, 6.0, 8)
    y = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    F1 = st.structure_F(x, y)
    F3 = st.structure_F(x, 3.0 * y)
    np.testing.assert_allclose(F3, 3.0 * F1, rtol=1e-14)


def test_curvature_field_flat(euclidean):
    st = make_state(euclidean)
    np.testing.assert_allclose(ff.curvature_field(st), 0.0, atol=1e-12)


def test_curvature_field_conformal_vs_oracle(conformal):
    bg, fg = ff.build_grid(2, 64, TWO_PI, 64)
    st = encode_state(conformal.structure, bg, fg)
    huu = ff.curvature_field(st)
    u = 0.2 * np.sin(bg.nodes()[..., 0]) * np.cos(bg.nodes()[..., 1])
    K = gauss_curvature_spectral(u, bg)
    assert np.max(np.abs(huu - K[:, :, None]) / (1 + np.abs(K[:, :, None]))) <= 1e-3


def test_curvature_field_randers_theta_dependent(randers):
    st = make_state(randers, N=24, NT=48)
    huu = ff.curvature_field(st)
    spread = np.max(huu, axis=-1) - np.min(huu, axis=-1)
    # non-Riemannian signature: direction dependence well above noise
    assert np.max(spread) > 1e-2


def test_flat_torus_stationary(euclidean):
    st = make_state(euclidean)
    traj = run_flow(st, steps=100, dt=1e-3)
    assert traj.failure is None
    assert np.max(np.abs(traj.final_state.logF)) <= 1e-12
    for a, b in zip(traj.rows[:-1], traj.rows[1:]):
        assert abs(b.max_abs_huu - a.max_abs_huu) <= 1e-12
    assert len(traj.rows) == 101


def test_dt_policy_examples(euclidean, conformal):
    st = make_state(euclidean, N=32)
    h = TWO_PI / 32
    assert dt_policy(st) == pytest.approx(0.25 * h * h / 4.0, rel=1e-12)
    st16 = make_state(euclidean, N=16)
    st32 = make_state(euclidean, N=32)
    assert dt_policy(st32) == pytest.approx(dt_policy(st16) / 4.0, rel=1e-12)
    with pytest.raises(ValueError):
        dt_policy(make_state(conformal, safety=0.0))
    # curvature enters the denominator
    stc = make_state(conformal, N=32)
    assert dt_policy(stc) < dt_policy(st32)


def test_uniform_sphere_scaling_law(sphere):
    ts, phis = uniform_scaling_flow(sphere.structure, [0.2, 0.1], 0.4, T=0.1, dt=1e-3)
    exact = np.sqrt(1.0 - 2.0 * 1.0 * ts)
    assert np.max(np.abs(phis - exact)) <= 1e-6


def test_uniform_sphere_normalized_stationary(sphere):
    ts, phis = uniform_scaling_flow(
        sphere.structure, [0.2, 0.1], 0.4, T=0.02, dt=1e-3, normalized=True
    )
    assert np.max(np.abs(phis - 1.0)) <= 1e-10 * len(ts)


def test_riemannian_invariance_under_flow(conformal):
    st = make_state(conformal, N=16, NT=32, fiber_cut=4)
    traj = run_flow(st, steps=50, dt=2e-3)
    assert traj.failure is None
    gs = traj.final_state.grid_structure()
    assert np.max(np.abs(gs.cartan)) <= 1e-8


def test_structure_preserved_each_step(randers):
    from finslerflow.flow import state_validity

    st = make_state(randers, N=16, NT=32, fiber_cut=6)
    for _ in range(5):
        st = step(st, 1e-3)
        checks = state_validity(st, tol=1e-6)
        assert checks["passed"], checks


def test_normalized_volume_drift(conformal):
    st = make_state(conformal, N=16, NT=32, mode="normalized", fiber_cut=4)
    traj = run_flow(st, steps=100, dt=2e-3)
    V = [r.V for r in traj.rows]
    assert abs(V[-1] - V[0]) / V[0] <= 1e-3


def test_euler_vs_rk4_one_step(conformal):
    dt = 1e-3
    se = make_state(conformal, N=16, NT=32, stepper="euler")
    sr = make_state(conformal, N=16, NT=32, stepper="rk4")
    d = np.max(np.abs(step(se, dt).logF - step(sr, dt).logF))
    assert d <= 10.0 * dt * dt  # schemes agree to O(dt) with smooth RHS


def test_rk4_self_convergence_order(conformal):
    base = make_state(conformal, N=16, NT=32, stepper="rk4", fiber_cut=2)
    T = 4e-3

    def advance(dt):
        st = base
        for _ in range(int(round(T / dt))):
            st = step(st, dt)
        return st.logF

    f1, f2, f4 = advance(T), advance(T / 2), advance(T / 4)
    e1 = np.max(np.abs(f1 - f4))
    e2 = np.max(np.abs(f2 - f4))
    order = np.log2(e1 / e2) if e2 > 0 else 5.0
    assert order >= 3.5


def test_step_rejection_on_convexity_loss():
    # drive a strongly anisotropic state with an absurd step: g goes indefinite,
    # the step is rejected and dt halved until it survives
    e = ff.get_entry("randers-torus", b=0.7)
    st = make_state(e, N=16, NT=32)
    new = step(st, dt=1e-3)  # should succeed, possibly after halving
    assert new.t > st.t
    gs = new.grid_structure()
    assert gs.min_eig_g > 0


def test_diagnostics_row_and_csv(conformal):
    st = make_state(conformal, N=16, NT=32)
    d = diagnostics(st)
    row = d.csv_row()
    assert row.split(",")[0] == "0"
    assert len(row.split(",")) == len(FlowDiagnostics.CSV_HEADER.split(","))
    assert d.V > 0 and d.I_norm == d.I


def test_tensor_flow_gap_diagnostic(conformal, randers):
    # Riemannian surfaces satisfy Htilde_ij = H(u,u) g_ij exactly (GEM);
    # a generic Randers torus does not: the two tensor drivers differ
    stc = make_state(conformal, N=16, NT=32)
    str_ = make_state(randers, N=16, NT=32)
    assert tensor_flow_gap(stc) <= 1e-6
    assert tensor_flow_gap(str_) > 1e-3


def test_checkpoint_roundtrip(tmp_path, randers):
    st = make_state(randers, N=16, NT=32, mode="normalized", fiber_cut=6)
    st = step(st, 1e-3)
    p = str(tmp_path / "chk.json")
    write_checkpoint(p, st)
    back = read_checkpoint(p)
    assert back.t == st.t and back.step_index == st.step_index
    assert back.mode == st.mode and back.fiber_cut == 6
    np.testing.assert_array_equal(back.logF, st.logF)
    gs1, gs2 = st.grid_structure(), back.grid_structure()
    assert gs1.volume == gs2.volume


def test_trajectory_truncates_on_failure():
    # Randers near the convexity edge with a huge forced step fails loudly
    e = ff.get_entry("randers-torus", b=0.9)
    st = make_state(e, N=16, NT=32)
    traj = run_flow(st, steps=10, dt=50.0)
    assert traj.failure is not None
    assert len(traj.rows) < 11


@pytest.mark.slow
def test_normalized_decay_reference_resolution(conformal):
    """The criterion-8 decay target is reachable at 32^3 with rk4 at the
    stability edge; this pins the flow physics independently of the 64^3
    budget question."""
    bg, fg = ff.build_grid(2, 32, TWO_PI, 32)
    st = encode_state(
        conformal.structure, bg, fg, mode="normalized", stepper="rk4", fiber_cut=2
    )
    traj = run_flow(st, steps=200, dt=6.0e-3)
    assert traj.failure is None
    sup = [r.max_abs_huu for r in traj.rows]
    assert all(b <= a + 1e-10 for a, b in zip(sup[:-1], sup[1:]))
    assert sup[-1] <= 0.1 * sup[0]


def test_conformal_decay_oracle_converged():
    """The reference decay ratio is converged in its rk4 step and decays."""
    bg, _ = ff.build_grid(2, 32, TWO_PI, 32)
    fine = conformal_flow_decay_ratio(0.2, 1, 1, bg, 0.1)
    coarse = conformal_flow_decay_ratio(0.2, 1, 1, bg, 0.1, dt_max=2e-4)
    assert abs(fine - coarse) <= 1e-12
    assert 0.0 < fine < 1.0


def test_checkpoint_keeps_safety(tmp_path, conformal):
    st = make_state(conformal, N=16, NT=32, safety=0.1)
    p = str(tmp_path / "chk.json")
    write_checkpoint(p, st)
    assert read_checkpoint(p).safety == 0.1
    # files written before safety was stored read back with the default
    rec = json.loads(Path(p).read_text())
    del rec["safety"]
    Path(p).write_text(json.dumps(rec))
    assert read_checkpoint(p).safety == 0.25


def test_negative_fiber_cut_rejected(tmp_path, conformal):
    with pytest.raises(ValueError):
        make_state(conformal, N=16, NT=32, fiber_cut=-1)
    st = make_state(conformal, N=16, NT=32, fiber_cut=2)
    p = str(tmp_path / "chk.json")
    write_checkpoint(p, st)
    rec = json.loads(Path(p).read_text())
    rec["fiber_cut"] = -1
    Path(p).write_text(json.dumps(rec))
    with pytest.raises(ValueError):
        read_checkpoint(p)
