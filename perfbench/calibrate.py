"""Reference kernels that measure how fast the machine runs right now.

The 2-core machine this benchmark was built on changes speed by up to a
factor of two over seconds to minutes; CPU time tracks wall time, so the
process is not descheduled, the core itself runs slower.  Raw throughput of
identical code spread 15-33% between runs.  So after about every second of
timed work the workload process waits while the parent process runs one of
these fixed kernels, and the reported throughput is the raw one scaled by
(median kernel time / kernel reference time): operations per second at the
machine's reference speed.  The kernels use numpy only and run in a process
that never imports the program, so a change to the program cannot move them.

Each kernel imitates the kind of work of the workloads that use it, because
different kinds of work slow down by different amounts.  grid-flow uses
none: in three sets of runs, scaling it by the grid kernel widened its
spread.  The large kernels write into buffers they own: fresh multi-megabyte
arrays made each call fault their pages in anew, and on this machine that
made the kernel's own time spread more than the workloads'.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(12345)


def _planes():
    """Plane multiply-adds over 32768 points: the jet product's triplet path."""
    a = _rng.standard_normal((45, 32768))
    b = _rng.standard_normal((45, 32768))
    out = np.empty_like(a)
    tmp = np.empty(32768)
    trip = _rng.integers(0, 45, (2000, 3))

    def kernel():
        out.fill(0.0)
        for i, j, k in trip:
            np.multiply(a[i], b[j], out=tmp)
            out[k] += tmp

    return kernel


def _small():
    """Many numpy calls on one-point operands: per-call overhead, as in single-point jets."""
    a = _rng.standard_normal((28, 1))
    b = _rng.standard_normal((28, 1))
    groups = [(int(i), _rng.integers(0, 28, 12), _rng.integers(0, 28, 12)) for i in range(28)]

    def kernel():
        for _ in range(460):
            out = np.zeros_like(a)
            for i, js, ks in groups:
                out[ks] += a[i] * b[js]

    return kernel


def _grid():
    """FFTs, stencils and 2x2 contractions on a 64^3 field: the grid pipeline."""
    f = _rng.standard_normal((64, 64, 64, 2))
    g = _rng.standard_normal((64, 64, 64, 2, 2))
    spec = np.empty((64, 64, 33, 2), dtype=complex)
    w = np.empty_like(f)
    d = np.empty_like(f)
    v = np.empty_like(f)
    gg = np.empty_like(g)

    def kernel():
        np.fft.rfft(f, axis=2, out=spec)
        np.multiply(spec, 1j, out=spec)
        np.fft.irfft(spec, n=64, axis=2, out=w)
        # periodic 4th-order stencil along axis 0, as grids._fd4_first
        np.multiply(w[1:], 8.0, out=d[:-1])
        np.multiply(w[:1], 8.0, out=d[-1:])
        d[1:] -= 8.0 * w[:-1]
        d[:1] -= 8.0 * w[-1:]
        d[:-2] -= w[2:]
        d[-2:] -= w[:2]
        d[2:] += w[:-2]
        d[:2] += w[-2:]
        np.einsum("...ij,...j->...i", g, d, out=v)
        np.einsum("...ij,...jk->...ik", g, g, out=gg)

    return kernel


# kernel -> (builder, reference seconds per call: one standalone call on the
# machine the benchmark was built on, rounded)
KERNELS = {
    "planes": (_planes, 0.095),
    "small": (_small, 0.060),
    "grid": (_grid, 0.10),
}


class Calibration:
    """Times one kernel; ``factor`` is the machine's slowness against reference."""

    def __init__(self, name: str):
        build, self.reference_s = KERNELS[name]
        self.kernel = build()
        self.samples: list = []
        self.kernel()  # first call pays allocation and FFT planning

    def sample(self, calls: int = 1) -> None:
        """Run the kernel ``calls`` times, keeping each call's seconds."""
        for _ in range(calls):
            t0 = time.perf_counter()
            self.kernel()
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Median kernel time over reference time; the median ignores lone blips."""
        return statistics.median(self.samples) / self.reference_s
