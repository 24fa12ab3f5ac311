"""Flow engine: encoding, stepping, diagnostics, checkpoints."""

import base64
import dataclasses
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import finslerflow as ff
from finslerflow.fields import GridStructure
from finslerflow.flow import (
    FlowDiagnostics,
    FlowError,
    FlowState,
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


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.inf, np.nan])
def test_uniform_scaling_rejects_nonpositive_dt(sphere, dt):
    # and a dt that is not finite: inf returned one point, nan failed in
    # int(round(T / dt))
    with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
        uniform_scaling_flow(sphere.structure, [0.2, 0.1], 0.4, T=0.1, dt=dt)


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.inf, np.nan])
def test_step_rejects_dt_not_positive_and_finite(conformal, dt):
    # dt inf and nan were halved six times and ended in a FlowError
    st = make_state(conformal, N=8, NT=16)
    with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
        step(st, dt)


def test_riemannian_invariance_under_flow(conformal):
    st = make_state(conformal, N=16, NT=32, fiber_cut=4)
    traj = run_flow(st, steps=50, dt=2e-3)
    assert traj.failure is None
    gs = traj.final_state.grid_structure()
    assert np.max(np.abs(gs.cartan)) <= 1e-8


def test_structure_preserved_each_step(randers):
    # 1-homogeneity of the reconstructed F is exact by construction; check
    # positivity of g and the fiber identity C_ijk y^k = 0 of the sampled Cartan tensor
    st = make_state(randers, N=16, NT=32, fiber_cut=6)
    for _ in range(5):
        st = step(st, 1e-3)
        gs = st.grid_structure()
        assert gs.min_eig_g > 0.0
        cy = np.einsum("...ijk,...k->...ij", gs.cartan, gs.y)
        assert np.max(np.abs(cy)) / (1.0 + np.max(np.abs(gs.g))) <= 1e-6
        assert np.all(np.isfinite(gs.F2)) and np.all(gs.F2 > 0)


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


def test_rk4_stage_convexity_loss_rejects_step(monkeypatch):
    # k1 carries the flat state past convexity at the half-step stage s2 but
    # not at the candidate (which moves dt/6 * k1): the stage's curvature
    # raises, so the step is halved instead of accepting an update built on
    # a non-convex state
    import finslerflow.flow as flow_mod

    bg, fg = ff.build_grid(2, 16, TWO_PI, 32)
    st = FlowState(bg, fg, np.zeros(bg.shape + (fg.n_theta,)), stepper="rk4")
    dt = 1e-3
    bump = np.broadcast_to(0.2 / dt * np.cos(4.0 * fg.thetas), st.logF.shape)  # s2: 0.1 cos 4theta
    real_rhs = flow_mod.flow_rhs
    monkeypatch.setattr(flow_mod, "flow_rhs", lambda s: bump if s is st else real_rhs(s))
    assert GridStructure(st.logF + 0.5 * dt * bump, bg, fg).min_eig_g < 0
    assert GridStructure(st.logF + dt / 6.0 * bump, bg, fg).min_eig_g > 0
    new = step(st, dt)
    assert new.t == 0.5 * dt
    assert new.grid_structure().min_eig_g > 0


def test_step_failure_names_its_cause(conformal):
    # dt = 1e6, halved five times, still makes F^2 overflow to inf or underflow to 0
    st = make_state(conformal, N=16, NT=32)
    with pytest.raises(FlowError, match=r"GridError: F\^2 must be finite") as info:
        step(st, dt=1e6)
    assert isinstance(info.value.__cause__, GridError)
    assert "convexity" not in str(info.value)
    # an indefinite g is named with its eigenvalue and node
    st = make_state(ff.get_entry("randers-torus", b=0.7), N=16, NT=32)
    with pytest.raises(FlowError, match=r"SingularMetricError: .*min eigenvalue .* at \(") as info:
        step(st, dt=0.1, max_retries=0)
    assert isinstance(info.value.__cause__, ff.SingularMetricError)


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


def test_flow_failure_detail_names_the_node():
    """A non-convex state fails at step 0, and the record names its worst node as ints."""
    bg, fg = ff.build_grid(2, 16, TWO_PI, 32)
    x = bg.nodes()
    amp = 0.05 + 0.05 * (1.0 + np.cos(x[..., 0]))  # above 1/16 near x1 = 0
    st = FlowState(bg, fg, logF=amp[..., None] * np.cos(4.0 * fg.thetas))
    traj = run_flow(st, steps=3, dt=1e-3)
    lam = st.grid_structure().min_eig_field
    assert traj.rows == [] and traj.failure.startswith("step 0: ")
    detail = traj.failure_detail
    assert detail["step"] == 0 and detail["t"] == 0.0
    assert detail["error"] == "SingularMetricError"
    assert detail["min_eig"] == lam.min() < 0
    assert detail["where"] == list(np.unravel_index(np.argmin(lam), lam.shape))
    assert all(type(i) is int for i in detail["where"])
    # a rejected step names the type of its last rejection
    traj = run_flow(make_state(ff.get_entry("conformal-torus"), N=16, NT=32), steps=2, dt=1e6)
    assert traj.failure_detail == {"step": 1, "t": 0.0, "error": "GridError"}


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


@pytest.mark.parametrize("damage", ["truncated", "nan"])
def test_checkpoint_logF_checked(tmp_path, conformal, damage):
    """Version 1 records, with logF as a JSON list, still read and are checked."""
    st = make_state(conformal, N=16, NT=32)
    p = tmp_path / "chk.json"
    write_checkpoint(str(p), st)
    rec = json.loads(p.read_text())
    rec["version"] = 1
    rec["logF"] = st.logF.ravel().tolist()
    p.write_text(json.dumps(rec))
    assert np.array_equal(read_checkpoint(str(p)).logF, st.logF)
    if damage == "truncated":
        rec["logF"] = rec["logF"][:-7]
    else:
        rec["logF"][100] = float("nan")
    p.write_text(json.dumps(rec))
    with pytest.raises(FlowError, match="chk.json"):
        read_checkpoint(str(p))


def test_checkpoint_v2_exact(tmp_path):
    """Version 2 stores logF as base64 float64 bytes: every bit reads back."""
    bg, fg = ff.build_grid(2, 8, TWO_PI, 16)
    logF = np.random.default_rng(3).normal(size=(8, 8, 16))
    logF[0, 0, :4] = [-0.0, 5e-324, 1e300, np.nextafter(1.0, 2.0)]
    st = ff.FlowState(bgrid=bg, fgrid=fg, logF=logF)
    p = tmp_path / "chk.json"
    write_checkpoint(str(p), st)
    rec = json.loads(p.read_text())
    assert rec["version"] == 2 and isinstance(rec["logF"], str)
    back = read_checkpoint(str(p)).logF
    assert np.array_equal(back, logF) and back.tobytes() == logF.tobytes()
    back[0, 0, 0] = 1.0  # a writable array of its own


@pytest.mark.parametrize("damage, message", [
    ("truncated", "holds 8185 values"),
    ("partial", "not a whole number of float64"),
    ("nan", "non-finite"),
    ("base64", "not valid base64"),
])
def test_checkpoint_v2_logF_checked(tmp_path, conformal, damage, message):
    st = make_state(conformal, N=16, NT=32)
    p = tmp_path / "chk.json"
    write_checkpoint(str(p), st)
    rec = json.loads(p.read_text())
    raw = base64.b64decode(rec["logF"])
    if damage == "truncated":
        raw = raw[:-7 * 8]
    elif damage == "partial":
        raw = raw[:-3]
    elif damage == "nan":
        flat = st.logF.ravel().copy()
        flat[100] = np.nan
        raw = flat.astype("<f8").tobytes()
    rec["logF"] = base64.b64encode(raw).decode("ascii")
    if damage == "base64":
        rec["logF"] = rec["logF"][:40] + "!" + rec["logF"][41:]
    p.write_text(json.dumps(rec))
    with pytest.raises(FlowError, match=f"chk.json: .*{message}"):
        read_checkpoint(str(p))


def test_checkpoint_unknown_version_rejected(tmp_path, conformal):
    p = tmp_path / "chk.json"
    write_checkpoint(str(p), make_state(conformal, N=16, NT=32))
    rec = json.loads(p.read_text())
    rec["version"] = 3
    p.write_text(json.dumps(rec))
    with pytest.raises(FlowError, match="chk.json: unsupported checkpoint version 3"):
        read_checkpoint(str(p))


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


def test_flow_state_rejects_unknown_mode():
    # a misspelt mode used to run the unnormalized flow silently
    bg, fg = ff.build_grid(2, 8, TWO_PI, 16)
    with pytest.raises(ValueError, match="mode must be one of"):
        FlowState(bg, fg, np.zeros(bg.shape + (fg.n_theta,)), mode="normalised")


@pytest.mark.parametrize(
    "key, value", [("mode", "bogus"), ("stepper", "rk5"), ("base_mode", "bogus")]
)
def test_checkpoint_unknown_configuration_rejected(tmp_path, conformal, key, value):
    p = tmp_path / "chk.json"
    write_checkpoint(str(p), make_state(conformal, N=16, NT=32))
    rec = json.loads(p.read_text())
    rec[key] = value
    p.write_text(json.dumps(rec))
    with pytest.raises(ValueError, match=f"{key} must be one of"):
        read_checkpoint(str(p))


@pytest.mark.parametrize(
    "key, value",
    [("fiber_cut", "2"), ("fiber_cut", True), ("safety", None), ("safety", "0.25"), ("name", 5)],
)
def test_checkpoint_mistyped_configuration_rejected(tmp_path, conformal, key, value):
    """A mistyped setting raises FlowError naming the field, not a bare TypeError."""
    p = tmp_path / "chk.json"
    write_checkpoint(str(p), make_state(conformal, N=16, NT=32, fiber_cut=2))
    rec = json.loads(p.read_text())
    rec[key] = value
    p.write_text(json.dumps(rec))
    with pytest.raises(FlowError, match=key):
        read_checkpoint(str(p))


@pytest.mark.parametrize(
    "key, value", [("safety", True), ("safety", "0.25"), ("fiber_cut", 2.5), ("name", None)]
)
def test_flow_state_rejects_mistyped_setting(conformal, key, value):
    """A mistyped setting raises TypeError when the state is built; a float
    fiber_cut used to pass and fail at the first step, outside run_flow's record."""
    bg, fg = ff.build_grid(2, 8, TWO_PI, 16)
    with pytest.raises(TypeError, match=key):
        FlowState(bg, fg, np.zeros(bg.shape + (fg.n_theta,)), **{key: value})
    if key != "name":
        with pytest.raises(TypeError, match=key):
            encode_state(conformal.structure, bg, fg, **{key: value})


def test_flow_state_rejects_infinite_safety():
    # safety inf passed, failed at the first step and wrote "safety": Infinity,
    # which is not JSON, into the checkpoint
    bg, fg = ff.build_grid(2, 8, TWO_PI, 16)
    with pytest.raises(ValueError, match="safety factor must be positive and finite, got inf"):
        FlowState(bg, fg, np.zeros(bg.shape + (fg.n_theta,)), safety=np.inf)


def test_encode_state_takes_only_run_settings(conformal):
    bg, fg = ff.build_grid(2, 8, TWO_PI, 16)
    with pytest.raises(TypeError, match="unknown settings"):
        encode_state(conformal.structure, bg, fg, t=1.0)
    with pytest.raises(TypeError):
        encode_state(conformal.structure, bg, fg, name="other")  # the entry names it


@pytest.mark.parametrize("key", ["time", "step", "grid", "mode", "stepper", "base_mode", "logF"])
def test_checkpoint_missing_key_names_file_and_key(tmp_path, conformal, key):
    # a missing key raised a bare KeyError
    p = tmp_path / "chk.json"
    write_checkpoint(str(p), make_state(conformal, N=16, NT=32))
    rec = json.loads(p.read_text())
    del rec[key]
    p.write_text(json.dumps(rec))
    with pytest.raises(FlowError, match=f"chk.json: the record has no '{key}'") as info:
        read_checkpoint(str(p))
    assert isinstance(info.value.__cause__, KeyError)


@pytest.mark.parametrize("damage, message, cause", [
    ("v1 string", "chk.json: logF is not a list of numbers", ValueError),
    ("not an object", "not a checkpoint file: .*chk.json", None),
    ("not JSON", "chk.json: not a JSON record", ValueError),
], ids=["v1-string", "not-an-object", "not-json"])
def test_checkpoint_malformed_record_names_file(tmp_path, conformal, damage, message, cause):
    # these raised a bare ValueError, AttributeError and JSONDecodeError
    st = make_state(conformal, N=8, NT=16)
    p = tmp_path / "chk.json"
    write_checkpoint(str(p), st)
    rec = json.loads(p.read_text())
    if damage == "v1 string":
        rec["version"] = 1
        rec["logF"] = st.logF.ravel().tolist()
        rec["logF"][5] = "x"
        p.write_text(json.dumps(rec))
    elif damage == "not an object":
        p.write_text("[1, 2]")
    else:
        p.write_text(p.read_text()[:-2])
    with pytest.raises(FlowError, match=message) as info:
        read_checkpoint(str(p))
    assert (info.value.__cause__ is None) if cause is None else isinstance(info.value.__cause__, cause)


@pytest.mark.parametrize("key, value, message", [
    ("n", 3, "base dimension must be 2, got 3"),
    ("n_theta", 15, "need at least 16 fiber nodes, got 15"),
    ("shape", [4, 4], "need at least 8 base nodes per axis, got 4"),
    ("shape", 16, "'int' object is not iterable"),
])
def test_checkpoint_bad_grid_names_file(tmp_path, conformal, key, value, message):
    # n 3 and n_theta 15 raised a bare GridError, a shape 16 a bare TypeError,
    # and a 4 x 4 grid read back
    p = tmp_path / "chk.json"
    write_checkpoint(str(p), make_state(conformal, N=8, NT=16))
    rec = json.loads(p.read_text())
    rec["grid"][key] = value
    if key == "shape":  # a logF that fits the 4 x 4 grid
        rec["logF"] = base64.b64encode(np.zeros(4 * 4 * 16, "<f8").tobytes()).decode()
    p.write_text(json.dumps(rec))
    with pytest.raises(FlowError, match=f"chk.json: grid: {message}") as info:
        read_checkpoint(str(p))
    assert isinstance(info.value.__cause__, (GridError, TypeError))


@pytest.mark.parametrize("dt", [0.0, np.inf, np.nan])
def test_run_flow_rejects_dt_not_positive_and_finite(tmp_path, conformal, dt):
    # dt inf passed and failed as a numerical error after the files were written
    st = make_state(conformal, N=8, NT=16)
    with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
        run_flow(st, steps=2, dt=dt, checkpoint_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("checkpoint_every", [0, -1])
def test_run_flow_rejects_checkpoint_period_below_one(tmp_path, conformal, checkpoint_every):
    # 0 turned periodic checkpoints off and -1 wrote one every step
    st = make_state(conformal, N=8, NT=16)
    with pytest.raises(ValueError, match=f"checkpoint_every must be at least 1, got {checkpoint_every}"):
        run_flow(st, steps=2, dt=1e-3, checkpoint_every=checkpoint_every,
                 checkpoint_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_stores_every_setting(tmp_path, conformal):
    """Every run setting at a value other than its default reads back, and the
    header lists exactly the settings, in FlowState order, after ``step``."""
    from finslerflow.flow import _CONFIG

    state_fields = [f.name for f in dataclasses.fields(FlowState)]
    assert state_fields == ["bgrid", "fgrid", "logF", "t", "step_index", *_CONFIG]
    settings = {"mode": "normalized", "stepper": "rk4", "base_mode": "spectral",
                "safety": 0.1, "fiber_cut": 3, "name": 'torus "é"'}
    assert tuple(settings) == _CONFIG
    bg, fg = ff.build_grid(2, 16, TWO_PI, 32)
    defaults = FlowState(bg, fg, np.zeros(bg.shape + (fg.n_theta,)))
    assert all(getattr(defaults, key) != value for key, value in settings.items())
    st = replace(make_state(conformal, N=16, NT=32), **settings)
    p = tmp_path / "chk.json"
    write_checkpoint(str(p), st)
    keys = list(json.loads(p.read_text()))
    assert tuple(keys[keys.index("step") + 1:keys.index("logF")]) == _CONFIG
    back = read_checkpoint(str(p))
    assert {key: getattr(back, key) for key in _CONFIG} == settings
    assert back.logF.tobytes() == st.logF.tobytes()


def _whole_array_step(state, dt):
    """Reference: the update, the fiber projection and F^2 as whole-array code."""
    k1 = flow_rhs(state)
    y = state.logF
    if state.stepper == "euler":
        new = y + dt * k1
    else:
        stage = lambda logF: flow_rhs(replace(state, logF=logF))  # noqa: E731
        k2 = stage(y + 0.5 * dt * k1)
        k3 = stage(y + 0.5 * dt * k2)
        k4 = stage(y + dt * k3)
        new = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    c = np.fft.rfft(new, axis=-1)
    c[..., state.fiber_cut + 1:] = 0.0
    new = np.fft.irfft(c, n=new.shape[-1], axis=-1)
    return new, np.exp(2.0 * new)


_SLAB_SHAPES = pytest.mark.parametrize(
    "shape", [(64, 64, 64), (20, 48, 48), (9, 64, 64), (8, 8, 16)],
    ids=["64x64x64", "20x48x48", "9x64x64", "8x8x16"],
)


@_SLAB_SHAPES
@pytest.mark.parametrize("stepper", ["euler", "rk4"])
@pytest.mark.parametrize("mode", ["fd4", "spectral"])
def test_step_slab_pass_bit_identical(randers, shape, mode, stepper):
    """The slab pass of the update and the fiber projection, and the candidate's
    slab-built F^2, give the bits of the whole-array code (the shapes of
    ``test_polar_slabs_bit_identical``: 8 slabs, uneven last slabs, one slab)."""
    bg, fg = ff.build_grid(2, shape[:2], TWO_PI, shape[2])
    st = encode_state(randers.structure, bg, fg, mode="normalized", stepper=stepper,
                      base_mode=mode, fiber_cut=6)
    want_logF, want_F2 = _whole_array_step(st, 1e-3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers interleave as often as they can
    try:
        got = step(st, 1e-3)
    finally:
        sys.setswitchinterval(switch)
    assert got.t == 1e-3  # accepted without a halving
    assert np.array_equal(got.logF, want_logF)
    assert np.array_equal(got.grid_structure().F2, want_F2)


@_SLAB_SHAPES
def test_diagnostics_slab_sums_match_np_sum(randers, shape):
    """V, I and c from the per-slab sums equal ``integrate`` (one np.sum) at
    64^3, whose 8 slabs of 32768 points follow numpy's pairwise tree, and
    agree to 1e-14 relative at the other shapes; the extrema are exact."""
    bg, fg = ff.build_grid(2, shape[:2], TWO_PI, shape[2])
    st = encode_state(randers.structure, bg, fg, mode="normalized")
    d = diagnostics(st)
    gs = st.grid_structure()
    V = gs.integrate(np.ones_like(gs.F2))
    want = {"V": V, "I": gs.integrate(gs.h_tilde), "c": gs.integrate(gs.huu) / V}
    for key, value in want.items():
        if shape == (64, 64, 64):
            assert getattr(d, key) == value, key
        else:
            assert abs(getattr(d, key) - value) <= 1e-14 * abs(value), key
    assert d.max_abs_huu == float(np.max(np.abs(gs.huu)))
    assert d.min_eig_g == float(np.min(gs.min_eig_field))
    h = min(bg.spacing)
    assert dt_policy(st) == st.safety * h * h / (2.0 * 2 * (1.0 + d.max_abs_huu))


def test_flow_rhs_builds_no_htilde(randers):
    """An rk4 stage reads H(u,u) and its integral only: no Htilde, GEM gap or R'."""
    st = make_state(randers, N=16, NT=32, mode="normalized", stepper="rk4")
    stage = replace(st, logF=st.logF + 1e-4)
    flow_rhs(stage)
    cache = stage.grid_structure()._cache
    assert "huu_integral" in cache
    assert not {"h_tilde", "gem_field", "htilde_gem", "h_tilde_integral"} & set(cache)


def test_non_convex_state_raises_without_warning():
    """A non-convex state raises SingularMetricError naming its worst node, before
    any spray division can warn."""
    bg, fg = ff.build_grid(2, 16, TWO_PI, 32)
    x = bg.nodes()
    amp = 0.05 + 0.05 * (1.0 + np.cos(x[..., 0]))  # above 1/16 near x1 = 0
    st = FlowState(bg, fg, logF=amp[..., None] * np.cos(4.0 * fg.thetas), mode="normalized")
    lam = GridStructure(st.logF, bg, fg).min_eig_field
    for call in (flow_rhs, diagnostics):
        fresh = replace(st)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ff.SingularMetricError) as info:
                call(fresh)
        assert info.value.min_eig == lam.min() < 0
        assert info.value.where == np.unravel_index(np.argmin(lam), lam.shape)
        assert "trace" not in fresh.grid_structure()._cache


def test_checkpoint_bytes_equal_json_dump(tmp_path, conformal):
    """The streamed record is the bytes of ``json.dump`` of the whole record,
    also for a name that JSON escapes, and reads back exactly."""
    st = replace(make_state(conformal, N=16, NT=32, fiber_cut=2), name='torus "é"', t=0.1)
    p = tmp_path / "chk.json"
    write_checkpoint(str(p), st)
    record = {
        "format": "finslerflow-checkpoint",
        "version": 2,
        "grid": {"n": 2, "shape": [16, 16], "lengths": list(st.bgrid.lengths), "n_theta": 32},
        "time": 0.1,
        "step": 0,
        "mode": "unnormalized",
        "stepper": "euler",
        "base_mode": "fd4",
        "safety": 0.25,
        "fiber_cut": 2,
        "name": 'torus "é"',
        "logF": base64.b64encode(st.logF.astype("<f8").tobytes()).decode("ascii"),
    }
    ref = tmp_path / "ref.json"
    with open(ref, "w") as fh:
        json.dump(record, fh)
    assert p.read_bytes() == ref.read_bytes()
    back = read_checkpoint(str(p))
    assert back.name == 'torus "é"' and back.t == 0.1 and back.fiber_cut == 2
    assert back.logF.tobytes() == st.logF.tobytes()
    assert not (tmp_path / "chk.json.tmp").exists()


@pytest.mark.parametrize("base_mode", ["fd4", "spectral"])
def test_tensor_flow_gap_matches_cartesian_route(randers, base_mode):
    # read in the frame from the GEM gap's terms; the Cartesian route is the reference
    st = step(make_state(randers, N=16, NT=32, base_mode=base_mode, fiber_cut=6), 1e-3)
    gs = st.grid_structure()
    gap = gs.ricci_tilde - gs.huu[..., None, None] * gs.g
    want = float(np.max(np.abs(np.einsum("...ia,...aj->...ij", gs.ginv, gap))))
    assert tensor_flow_gap(st) == pytest.approx(want, rel=1e-13)
