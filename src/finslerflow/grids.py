"""Periodic chart grids and base-coordinate differentiation engines.

A base derivative is either 4th-order periodic central differences
('fd4') or the derivative of the trigonometric interpolant ('spectral'),
the two ``BASE_MODES``.  The FD4 stencil runs on a block padded by two
nodes along its axis: ``_fd4_first``/``_fd4_second`` pad by periodic wrap,
and the grid's slab engine (:mod:`finslerflow.fields`) pads an x1-slab with
its periodic halo rows, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["BaseGrid", "FiberGrid", "build_grid", "base_derivative", "GridError", "BASE_MODES"]

BASE_MODES = ("fd4", "spectral")


class GridError(ValueError):
    pass


def _as_tuple(v, n, cast):
    if np.isscalar(v):
        return tuple(cast(v) for _ in range(n))
    t = tuple(cast(a) for a in v)
    if len(t) != n:
        raise GridError(f"expected {n} per-axis values, got {len(t)}")
    return t


@dataclass(frozen=True)
class BaseGrid:
    """Uniform grid on a 2-dimensional chart, periodic per axis."""

    n: int
    shape: tuple[int, ...]
    lengths: tuple[float, ...]
    periodic: tuple[bool, ...]

    def __post_init__(self):
        if self.n != 2:
            raise GridError(f"base dimension must be 2, got {self.n}")
        if len(self.shape) != self.n:
            raise GridError("shape/dimension mismatch")
        for N in self.shape:
            if N < 1:
                raise GridError(f"non-positive node count {N}")
        for L in self.lengths:
            if L <= 0:
                raise GridError(f"non-positive axis length {L}")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / N for L, N in zip(self.lengths, self.shape))

    def axis(self, a: int) -> np.ndarray:
        return np.arange(self.shape[a]) * self.spacing[a]

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape self.shape + (n,)."""
        axes = [self.axis(a) for a in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


@dataclass(frozen=True)
class FiberGrid:
    """Uniform angle grid on [0, 2pi) parameterizing the fiber circle."""

    n_theta: int

    def __post_init__(self):
        if self.n_theta < 16:
            raise GridError(f"need at least 16 fiber nodes, got {self.n_theta}")
        if self.n_theta % 2 != 0:
            raise GridError(f"fiber node count must be even, got {self.n_theta}")

    @property
    def thetas(self) -> np.ndarray:
        return np.arange(self.n_theta) * (2.0 * np.pi / self.n_theta)

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n_theta


def build_grid(n: int, N_x, L, N_theta: int) -> tuple[BaseGrid, FiberGrid]:
    """Build a periodic base grid and a fiber grid.

    N_x and L may be scalars (same for all axes) or per-axis sequences.
    """
    if n != 2:
        raise GridError(f"dimension must be 2, got {n}")
    shape = _as_tuple(N_x, n, int)
    for N in shape:
        if N < 8:
            raise GridError(f"need at least 8 base nodes per axis, got {N}")
    lengths = _as_tuple(L, n, float)
    bg = BaseGrid(n, shape, lengths, (True,) * n)
    fg = FiberGrid(int(N_theta))
    return bg, fg


# ---------------------------------------------------------------------------
# differentiation of grid-sampled fields
# ---------------------------------------------------------------------------

def _wrap_rows(f: np.ndarray, axis: int, start: int, stop: int) -> np.ndarray:
    """Indices start..stop-1 of ``axis``, taken modulo its length (a copy)."""
    return np.take(f, np.arange(start, stop) % f.shape[axis], axis=axis)


def _fd4_padded(p: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    """FD4 derivative of a block padded by two nodes on each side of ``axis``.

    The terms are summed in the order of the roll form, f(i+2) first, so a
    padded slab gives the same bits as the whole periodic field.
    """
    n = p.shape[axis] - 4
    r = lambda s: p[(slice(None),) * axis + (slice(2 + s, 2 + s + n),)]
    if order == 1:
        return (-r(2) + 8.0 * r(1) - 8.0 * r(-1) + r(-2)) / (12.0 * h)
    return (-r(2) + 16.0 * r(1) - 30.0 * r(0) + 16.0 * r(-1) - r(-2)) / (12.0 * h * h)


def _fd4_first(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    return _fd4_padded(_wrap_rows(f, axis, -2, f.shape[axis] + 2), axis, h, 1)


def _fd4_second(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    return _fd4_padded(_wrap_rows(f, axis, -2, f.shape[axis] + 2), axis, h, 2)


def _spectral(f: np.ndarray, axis: int, L: float, order):
    """Derivative of the trigonometric interpolant along ``axis`` (period L).

    A tuple of orders gives one array per order, all from one rfft of f.
    """
    orders = order if isinstance(order, tuple) else (order,)
    N = f.shape[axis]
    fh = np.fft.rfft(f, axis=axis)
    sh = [1] * fh.ndim
    sh[axis] = fh.shape[axis]
    out = []
    for m in orders:
        k = 2.0 * np.pi / L * np.arange(fh.shape[axis])
        if m % 2 == 1 and N % 2 == 0:
            k[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
        out.append(np.fft.irfft(fh * ((1j * k) ** m).reshape(sh), n=N, axis=axis))
    return tuple(out) if isinstance(order, tuple) else out[0]


def base_derivative(
    field: np.ndarray,
    grid: BaseGrid,
    axis: int,
    order: int = 1,
    mode: str = "fd4",
) -> np.ndarray:
    """Differentiate a grid-sampled field along a base axis.

    ``field`` carries the grid axes first (extra trailing axes are fine).
    ``mode`` is 'fd4' (4th-order periodic central differences, the default)
    or 'spectral' (trigonometric interpolation).
    """
    if mode not in BASE_MODES:
        raise GridError(f"unknown base derivative mode {mode!r}")
    if order not in (1, 2):
        raise GridError(f"base derivative order must be 1 or 2, got {order}")
    if axis < 0 or axis >= grid.n:
        raise GridError(f"axis {axis} out of range for dimension {grid.n}")
    if not grid.periodic[axis]:
        raise GridError(f"axis {axis} is not periodic")
    if field.shape[axis] != grid.shape[axis]:
        raise GridError("field shape does not match grid")
    h = grid.spacing[axis]
    if mode == "fd4":
        return _fd4_first(field, axis, h) if order == 1 else _fd4_second(field, axis, h)
    return _spectral(field, axis, grid.lengths[axis], order)

