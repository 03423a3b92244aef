"""A fixed kernel that measures how fast the machine is running right now.

On a shared virtual machine the CPU's speed can switch between states for
seconds to minutes at a time, by up to about 1.6x on a 2-vCPU KVM guest
(README.md, *Noise*). A run that happens to fall in a slow state reads slow
on every metric. To take that out, the timing loop runs this kernel before
the first op and after every op, and divides each op's wall time by the
mean of the two kernel times around it. The result is the op's time in
units of the kernel; multiplied by ``REFERENCE_S`` it reads as seconds at
the speed at which the kernel takes ``REFERENCE_S``.

The kernel calls only numpy and Python, never ``menet``, so a change to the
program cannot move it. It does the kind of work ``menet``'s layers do
(per-tap broadcast multiply-accumulate in Python loops, ``einsum``
reductions, per-channel reductions, small-array calls and a chain of tiny
layer objects run forward and backward), at two map sizes, so a machine
state that slows the program slows it alike.
"""

import statistics
from time import perf_counter

import numpy as np

# Kernel time that calibrated times are scaled to: about what the kernel
# takes in the machine's fast state (Intel Xeon, 2 vCPUs, one BLAS thread).
REFERENCE_S = 0.035


class _Unit:
    """A tiny layer with a forward and a backward, like menet's."""

    def __init__(self, rng):
        self.w = rng.normal(size=(4, 1, 1))
        self.cache = None

    def forward(self, x):
        self.cache = x
        return np.maximum(x * self.w, 0.0)

    def backward(self, grad):
        return grad * (self.cache > 0) * self.w


class Calibrator:
    """Holds the kernel's inputs; ``measure()`` runs the kernel and
    returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(20180324)
        # (batch, channels, map) like a 224 px forward and a 32 px step
        self.cases = []
        for n, c, size in ((1, 24, 28), (8, 24, 8)):
            x = rng.normal(size=(n, c, size + 2, size + 2))
            w = rng.normal(size=(c, c, 3, 3))
            go = rng.normal(size=(n, c, size, size))
            self.cases.append((x, w, go, size))
        self.small = rng.normal(size=(8, 4))
        self.units = [_Unit(rng) for _ in range(8)]
        self.tiny = rng.normal(size=(1, 4, 5, 5))
        self.measure()  # warm-up: first calls into einsum are slower

    def _conv(self, x, w, size):
        out = np.zeros((x.shape[0], w.shape[0], size, size))
        for ci in range(w.shape[1]):
            for ky in range(3):
                for kx in range(3):
                    win = x[:, ci, ky:ky + size, kx:kx + size]
                    out += win[:, None] * w[:, ci, ky, kx][None, :, None, None]
        return out

    def _conv_backward(self, x, w, go, size):
        gw = np.zeros_like(w)
        gx = np.zeros_like(x)
        for ci in range(w.shape[1]):
            for ky in range(3):
                for kx in range(3):
                    win = x[:, ci, ky:ky + size, kx:kx + size]
                    gw[:, ci, ky, kx] += np.einsum("nohw,nhw->o", go, win)
                    gx[:, ci, ky:ky + size, kx:kx + size] += np.einsum(
                        "nohw,o->nhw", go, w[:, ci, ky, kx])
        return gw, gx

    def _norm(self, y):
        mean = y.mean(axis=(0, 2, 3), keepdims=True)
        var = y.var(axis=(0, 2, 3), keepdims=True)
        return np.maximum((y - mean) / np.sqrt(var + 1e-5), 0.0)

    def _calls(self):
        z = self.small
        for _ in range(1000):
            z = np.tanh(z * 0.5 + 0.1)
        return z

    def _chain(self):
        for _ in range(100):
            y = self.tiny
            for unit in self.units:
                y = unit.forward(y)
            grad = np.ones_like(y)
            for unit in reversed(self.units):
                grad = unit.backward(grad)
        return grad

    def measure(self, runs=1):
        """Median wall time of ``runs`` runs of the kernel."""
        times = []
        for _ in range(runs):
            t0 = perf_counter()
            for x, w, go, size in self.cases:
                self._norm(self._conv(x, w, size))
                self._conv_backward(x, w, go, size)
            self._calls()
            self._chain()
            times.append(perf_counter() - t0)
        return statistics.median(times)


def calibrated(times, kernel_times):
    """Each of ``times`` divided by the mean of the kernel times measured
    just before and just after it, so ``kernel_times`` holds one more
    entry than ``times``; in units of ``REFERENCE_S``."""
    if len(kernel_times) != len(times) + 1:
        raise ValueError("need one kernel time before and after each time")
    return [REFERENCE_S * t / ((before + after) / 2)
            for t, before, after in zip(times, kernel_times,
                                        kernel_times[1:])]
