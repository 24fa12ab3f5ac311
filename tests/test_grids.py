"""Grid construction and base differentiation engines."""

import numpy as np
import pytest

from finslerflow.grids import BaseGrid, FiberGrid, GridError, base_derivative, build_grid


def test_build_grid_basic():
    bg, fg = build_grid(2, 32, 2 * np.pi, 64)
    assert bg.spacing == (2 * np.pi / 32, 2 * np.pi / 32)
    np.testing.assert_allclose(fg.thetas, 2 * np.pi * np.arange(64) / 64)


def test_build_grid_smallest_accepted():
    bg, fg = build_grid(2, 8, 1.0, 16)
    assert bg.shape == (8, 8)
    assert fg.n_theta == 16


def test_build_grid_rejections():
    with pytest.raises(GridError):
        build_grid(2, 8, 1.0, 15)  # odd fiber count
    with pytest.raises(GridError):
        build_grid(2, 0, 1.0, 16)
    with pytest.raises(GridError):
        build_grid(3, 16, 1.0, 32)
    with pytest.raises(GridError):
        build_grid(4, 16, 1.0, 32)
    with pytest.raises(GridError):
        build_grid(2, 16, -1.0, 32)


def test_nodes_reproducible():
    a = build_grid(2, 16, 2 * np.pi, 32)[0].nodes()
    b = build_grid(2, 16, 2 * np.pi, 32)[0].nodes()
    assert np.array_equal(a, b)


def test_constant_field_derivative_zero():
    bg, _ = build_grid(2, 16, 2 * np.pi, 16)
    f = np.ones(bg.shape)
    for mode in ("fd4", "spectral"):
        np.testing.assert_allclose(base_derivative(f, bg, 0, 1, mode), 0.0, atol=1e-13)


def test_sin_derivative_64_nodes():
    bg, _ = build_grid(2, 64, 2 * np.pi, 16)
    x = bg.nodes()
    f = np.sin(x[..., 0])
    exact = np.cos(x[..., 0])
    err_sp = np.max(np.abs(base_derivative(f, bg, 0, 1, "spectral") - exact))
    assert err_sp <= 1e-6
    # FD4 truncation is h^4 f^(5) / 30; at N = 64 that is 3.1e-6
    h = bg.spacing[0]
    err_fd = np.max(np.abs(base_derivative(f, bg, 0, 1, "fd4") - exact))
    assert err_fd <= 1.05 * h**4 / 30.0


def test_fd_vs_spectral_agree():
    bg, _ = build_grid(2, 256, 2 * np.pi, 16)
    x = bg.nodes()
    f = np.sin(3 * x[..., 0])
    d1 = base_derivative(f, bg, 0, 1, "fd4")
    d2 = base_derivative(f, bg, 0, 1, "spectral")
    assert np.max(np.abs(d1 - d2)) <= 1e-5


@pytest.mark.parametrize("order", [1, 2])
def test_fd4_convergence_order(order):
    errs = []
    for N in (16, 32, 64):
        bg, _ = build_grid(2, N, 2 * np.pi, 16)
        x = bg.nodes()[..., 0]
        f = np.sin(2 * x) + 0.3 * np.cos(3 * x)
        exact = (
            -4 * np.sin(2 * x) - 2.7 * np.cos(3 * x)
            if order == 2
            else 2 * np.cos(2 * x) - 0.9 * np.sin(3 * x)
        )
        errs.append(np.max(np.abs(base_derivative(f, bg, 0, order, "fd4") - exact)))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(rates) >= 3.7


@pytest.mark.parametrize("shape", [(64, 64, 64), (48, 48, 48, 2, 2), (8, 8, 16)])
def test_fd4_padded_stencil_matches_roll_form(shape):
    """The padded-block FD4 gives the bits of the four-np.roll form, both axes and orders."""
    f = np.random.default_rng(3).standard_normal(shape)
    bg = BaseGrid(shape[:2], (2 * np.pi, 3.0))
    for axis in (0, 1):
        h = bg.spacing[axis]
        r = lambda s: np.roll(f, -s, axis=axis)
        first = (-r(2) + 8.0 * r(1) - 8.0 * r(-1) + r(-2)) / (12.0 * h)
        second = (-r(2) + 16.0 * r(1) - 30.0 * f + 16.0 * r(-1) - r(-2)) / (12.0 * h * h)
        assert np.array_equal(base_derivative(f, bg, axis, 1, "fd4"), first)
        assert np.array_equal(base_derivative(f, bg, axis, 2, "fd4"), second)


def test_second_derivative_spectral():
    bg, _ = build_grid(2, 32, 2 * np.pi, 16)
    x = bg.nodes()
    f = np.cos(x[..., 1])
    d2 = base_derivative(f, bg, 1, 2, "spectral")
    np.testing.assert_allclose(d2, -f, atol=1e-11)


def test_bad_requests():
    bg, _ = build_grid(2, 16, 2 * np.pi, 16)
    f = np.ones(bg.shape)
    with pytest.raises(GridError):
        base_derivative(f, bg, 0, 3)
    with pytest.raises(GridError):
        base_derivative(f, bg, 2, 1)
    with pytest.raises(GridError):
        base_derivative(f, bg, 0, 1, "unknown")


@pytest.mark.parametrize("shape, lengths, message", [
    ((4, 4), (1.0, 1.0), "at least 8 base nodes"),
    ((16, 16, 16), (1.0, 1.0, 1.0), "2 axes"),
    ((16, 16), (1.0,), "2 axes"),
    ((16, 16), (1.0, 0.0), "non-positive axis length"),
])
def test_base_grid_is_the_one_check(shape, lengths, message):
    """BaseGrid itself refuses what build_grid refuses: a 4 x 4 grid used to build."""
    with pytest.raises(GridError, match=message):
        BaseGrid(shape, lengths)


def test_fiber_grid_invariants():
    with pytest.raises(GridError):
        FiberGrid(14)
    with pytest.raises(GridError):
        FiberGrid(17)
    assert FiberGrid(16).spacing == pytest.approx(2 * np.pi / 16)
