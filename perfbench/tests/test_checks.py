"""Every benchmark check accepts a right answer and rejects a wrong one.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import numpy as np
import pytest

from perfbench import checks
from perfbench.workloads import PointwiseBatch

TWO_PI = 2.0 * np.pi


def test_huu_sign_flip_rejected():
    x = np.random.default_rng(0).uniform(0.0, TWO_PI, (4096, 2))
    K = checks.conformal_gauss(x, 0.2, 1, 1)
    assert checks.huu_matches(K + 1e-13, K)[0]
    assert not checks.huu_matches(-K, K)[0]


def test_batch_workload_check_rejects_flipped_output():
    wl = PointwiseBatch()
    wl.X = np.random.default_rng(1).uniform(0.0, TWO_PI, (64, 2))
    sl = slice(0, 64)
    K = checks.conformal_gauss(wl.X, wl.AMP, wl.P, wl.Q)
    wl.outputs = [(sl, K.copy())]
    assert all(ok for ok, _ in wl.check().values())
    wl.outputs = [(sl, -K)]
    assert not all(ok for ok, _ in wl.check().values())


def test_point_scalars():
    assert checks.scalar_matches(-0.25 + 1e-14, -0.25)[0]
    assert not checks.scalar_matches(0.25, -0.25)[0]
    assert checks.scalar_matches(2.0 / 1.44, 2.0 / 1.44)[0]
    assert not checks.scalar_matches(1.0 / 1.44, 2.0 / 1.44)[0]
    assert checks.at_roundoff(3.5e-12)[0]
    assert not checks.at_roundoff(1e-4)[0]


def test_decay_rate_halved_or_doubled_rejected():
    from finslerflow.grids import build_grid
    from finslerflow.oracles import conformal_flow_decay_ratio

    bg, _ = build_grid(2, 32, TWO_PI, 32)
    T = 0.29  # C8's end time: 200 euler steps of 1.45e-3
    ref = conformal_flow_decay_ratio(0.2, 1, 1, bg, T, dt_max=1e-3)
    halved = conformal_flow_decay_ratio(0.2, 1, 1, bg, T / 2, dt_max=1e-3)
    doubled = conformal_flow_decay_ratio(0.2, 1, 1, bg, 2 * T, dt_max=1e-3)
    assert ref == pytest.approx(0.37234, abs=1e-5)
    assert halved == pytest.approx(0.560, abs=1e-3)
    assert doubled == pytest.approx(0.225, abs=1e-3)
    assert checks.decay_matches(0.37165, ref)[0]  # the program's 64^3 euler run
    assert not checks.decay_matches(halved, ref)[0]
    assert not checks.decay_matches(doubled, ref)[0]


def test_sup_huu_rise_rejected():
    sup = 0.6 * np.exp(-3.4 * 1.45e-3 * np.arange(11))
    assert checks.never_rises(sup)[0]
    risen = sup.copy()
    risen[5] = risen[4] + 1e-8
    assert not checks.never_rises(risen)[0]


def test_volume_drift_rejected():
    dt, steps, V0, sup = 1.45e-3, 10, 253.0, np.full(11, 0.6)
    c = np.zeros(11)
    # second-order euler drift of a mean-zero rate: 2 dt^2 <(K - c)^2> V per step
    kept = V0 * (1.0 + 2.0 * dt * dt * 0.09) ** np.arange(steps + 1)
    assert checks.volume_kept(kept, sup, c, dt)[0]
    # a first-order drift, as from a rate whose weighted mean is not zero
    drifting = V0 * (1.0 + dt * 0.01) ** np.arange(steps + 1)
    assert not checks.volume_kept(drifting, sup, c, dt)[0]


def test_min_eig_positive():
    assert checks.positive(np.array([0.67, 0.68]))[0]
    assert not checks.positive(np.array([0.67, -1e-3]))[0]


def test_geodesic_F_drift_rejected():
    r = 1.1
    t = np.linspace(0.0, TWO_PI * r, 129)
    x = r * np.stack([np.cos(t / r), np.sin(t / r)], -1)
    v = np.stack([-np.sin(t / r), np.cos(t / r)], -1)
    assert checks.F_conserved(checks.sphere_F(x, v, r))[0]
    drifting = v * (1.0 + 1e-5 * t)[:, None]
    assert not checks.F_conserved(checks.sphere_F(x, drifting, r))[0]


def test_equator_closure():
    r, x0 = 1.1, np.array([1.1, 0.0])
    assert checks.equator_closed(x0 + 1e-7, x0, r)[0]
    short = r * np.array([np.cos(0.01), np.sin(0.01)])
    assert not checks.equator_closed(short, x0, r)[0]


def test_identity_residual_above_bound_rejected():
    assert checks.below(7.9e-10, checks.IDENTITY_TOL)[0]
    assert not checks.below(2e-3, checks.IDENTITY_TOL)[0]
    assert checks.below(5e-3, checks.CONFORMAL_DI_TOL)[0]
    assert not checks.below(0.86, checks.CONFORMAL_DI_TOL)[0]
    assert checks.below(1.1e-6, checks.ADJOINT_TOL)[0]
    assert not checks.below(2e-3, checks.ADJOINT_TOL)[0]


def test_conformal_volume_against_program():
    from finslerflow.fields import GridStructure
    from finslerflow.grids import build_grid
    from finslerflow.zoo import get_entry

    bg, fg = build_grid(2, 16, TWO_PI, 16)
    V = GridStructure(get_entry("conformal-torus", amp=0.2).structure, bg, fg).volume
    ref = checks.conformal_volume(0.2, 1, 1, bg.shape, bg.lengths)
    assert checks.relative_gap(V, ref, checks.VOLUME_TOL)[0]
    wrong = checks.conformal_volume(0.21, 1, 1, bg.shape, bg.lengths)
    assert not checks.relative_gap(V, wrong, checks.VOLUME_TOL)[0]


def test_gauss_bonnet_and_scale_invariance():
    assert checks.gauss_bonnet(1e-15, 250.0, 0.8)[0]
    assert not checks.gauss_bonnet(1.0, 250.0, 0.8)[0]
    assert checks.relative_gap(-1.2345, -1.2345, checks.SCALE_TOL)[0]
    assert not checks.relative_gap(-1.2345 * (1 + 1e-5), -1.2345, checks.SCALE_TOL)[0]
