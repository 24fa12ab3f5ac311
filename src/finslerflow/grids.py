"""Periodic chart grids and base-coordinate differentiation engines.

A base derivative is either 4th-order periodic central differences
('fd4') or the derivative of the trigonometric interpolant ('spectral'),
the two ``BASE_MODES``.  The FD4 stencil runs on a block padded by two
nodes along its axis: ``base_derivative`` pads by periodic wrap, and the
grid's slab engine (:mod:`finslerflow.fields`) pads an x1-slab with its
periodic halo rows, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = ["BaseGrid", "FiberGrid", "build_grid", "base_derivative", "check_base_mode",
           "GridError", "BASE_MODES"]

BASE_MODES = ("fd4", "spectral")


class GridError(ValueError):
    pass


def check_base_mode(mode) -> None:
    """Raise ``GridError`` unless ``mode`` is one of ``BASE_MODES``."""
    if mode not in BASE_MODES:
        raise GridError(f"base_mode must be one of {BASE_MODES}, got {mode!r}")


def _as_tuple(v, n, cast):
    if np.isscalar(v):
        return tuple(cast(v) for _ in range(n))
    t = tuple(cast(a) for a in v)
    if len(t) != n:
        raise GridError(f"expected {n} per-axis values, got {len(t)}")
    return t


@dataclass(frozen=True)
class BaseGrid:
    """Uniform grid on the periodic 2-torus [0, L1) x [0, L2), and the one check
    of a base grid: two axes, at least 8 nodes and a positive length per axis."""

    n: ClassVar[int] = 2
    shape: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if len(self.shape) != self.n or len(self.lengths) != self.n:
            raise GridError(f"a base grid has 2 axes, got shape {self.shape}, lengths {self.lengths}")
        for N in self.shape:
            if N < 8:
                raise GridError(f"need at least 8 base nodes per axis, got {N}")
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
    """Build a base grid on the periodic 2-torus (``n`` must be 2) and a fiber grid.

    N_x and L may be scalars (same for both axes) or per-axis sequences.
    """
    if n != BaseGrid.n:
        raise GridError(f"dimension must be 2, got {n}")
    bg = BaseGrid(_as_tuple(N_x, n, int), _as_tuple(L, n, float))
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
    # in place, with -f(i+2) + x taken as x - f(i+2): the same sums, fewer temporaries
    if order == 1:
        out = 8.0 * r(1)
        out -= r(2)
        out -= 8.0 * r(-1)
        out += r(-2)
        out /= 12.0 * h
        return out
    out = 16.0 * r(1)
    out -= r(2)
    out -= 30.0 * r(0)
    out += 16.0 * r(-1)
    out -= r(-2)
    out /= 12.0 * h * h
    return out


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
    for i, m in enumerate(orders):
        k = 2.0 * np.pi / L * np.arange(fh.shape[axis])
        if m % 2 == 1 and N % 2 == 0:
            k[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
        dh = fh if i == len(orders) - 1 else fh.copy()  # the last order takes fh in place
        dh *= ((1j * k) ** m).reshape(sh)
        out.append(np.fft.irfft(dh, n=N, axis=axis))
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
    check_base_mode(mode)
    if order not in (1, 2):
        raise GridError(f"base derivative order must be 1 or 2, got {order}")
    if axis < 0 or axis >= grid.n:
        raise GridError(f"axis {axis} out of range for dimension {grid.n}")
    if field.shape[axis] != grid.shape[axis]:
        raise GridError("field shape does not match grid")
    h = grid.spacing[axis]
    if mode == "fd4":
        return _fd4_padded(_wrap_rows(field, axis, -2, field.shape[axis] + 2), axis, h, order)
    return _spectral(field, axis, grid.lengths[axis], order)

