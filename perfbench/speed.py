"""Machine-speed probe: puts the benchmark's times on a steady clock.

On a shared host this machine's CPUs run up to 2.5x slower in phases
lasting seconds to minutes. CPU time tracks wall time and steal time stays
flat, so it is contention for the host's cores and caches, not preemption,
and it slows every piece of code running at that moment.

A fixed kernel that runs no levybound code is timed alongside the work,
from a SIGALRM handler every ``INTERVAL_S`` while operations run. A wall
time divided by the kernel's mean time over the same stretch and
multiplied by the kernel's reference time is in *reference seconds*: the
time the work takes when the machine runs the kernel at its reference
speed. A change to levybound moves reference seconds as it moves wall
seconds, while the host's phases slow the kernel too and cancel.

Contention slows array code and interpreter code by different factors,
so each workload is paired with the kernel that resembles its own work:
``dispatch`` (a pure-Python loop over floats and a dict, then tiny numpy
calls) for the dispatch-bound reference sweep and the analysis pass,
``dense`` (a small MLP's forward and backward pass on 500-row arrays) for
the MNIST-shaped sweep. On a 2-core Xeon KVM guest the matched kernel cut
the spread (quartile distance over median) of single operations from
16-25% to 7-11%; over ten 30 s runs per workload the spread was 4-5%.

The kernels and the handler allocate nothing from the C heap.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.2
CAPACITY = 1 << 16  # samples; 3.6 hours at INTERVAL_S

# Every buffer the kernels touch is allocated here, once, so that the
# probe leaves the program's C heap as it would be without it.
_TABLE = {i: 1.0 / (i + 1) for i in range(256)}
_FLOATS = [((i * 7919) % 1009) / 7.0 for i in range(4500)]
_A = np.linspace(0.0, 1.0, 64 * 128).reshape(64, 128)
_B = np.linspace(1.0, 0.0, 128 * 32).reshape(128, 32)
_C = np.empty((64, 32))
_X = np.linspace(-1.0, 1.0, 500 * 25).reshape(500, 25)
_W1 = np.linspace(-0.5, 0.5, 25 * 32).reshape(25, 32)
_W2 = np.linspace(-0.5, 0.5, 32 * 2).reshape(32, 2)
_H = np.empty((500, 32))
_D = np.empty((500, 32))
_PT = np.empty((2, 500))
_V = np.empty(500)
_G1 = np.empty((25, 32))
_G2 = np.empty((32, 2))


def _dispatch():
    acc = 0.0
    for x in _FLOATS:
        acc += _TABLE[int(x) & 255] * x
    for _ in range(50):
        np.matmul(_A, _B, out=_C)
        np.maximum(_C, 0.0, out=_C)
        acc += float(_C.sum())


def _dense():
    for _ in range(15):
        np.matmul(_X, _W1, out=_H)
        np.maximum(_H, 0.0, out=_H)
        np.matmul(_W2.T, _H.T, out=_PT)  # logits, one row per class
        np.subtract(_PT[1], _PT[0], out=_V)
        np.exp(_V, out=_V)
        np.add(_V, 1.0, out=_V)
        np.divide(1.0, _V, out=_PT[0])  # softmax of two classes
        np.subtract(1.0, _PT[0], out=_PT[1])
        np.matmul(_H.T, _PT.T, out=_G2)
        np.matmul(_PT.T, _W2.T, out=_D)
        np.sign(_H, out=_H)
        np.multiply(_D, _H, out=_D)
        np.matmul(_X.T, _D, out=_G1)


# name -> (kernel, its median seconds in a quiet phase of a 2-core Xeon KVM
# guest); the reference time only sets the scale of a reference second.
KERNELS = {"dispatch": (_dispatch, 0.0020), "dense": (_dense, 0.0022)}


def kernel_time(name: str) -> float:
    """Wall seconds of one run of the named kernel."""
    t0 = time.perf_counter()
    KERNELS[name][0]()
    return time.perf_counter() - t0


class Sampler:
    """Times the kernel every INTERVAL_S of wall time while entered.

    Row i of ``samples`` is (start, end, kernel s) of the i-th handler
    call; the handler's own time is taken out of the operations it lands
    in."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.samples = np.zeros((CAPACITY, 3))
        self.count = 0

    def _handler(self, signum, frame):
        if self.count < CAPACITY:
            row = self.samples[self.count]
            row[0] = time.perf_counter()
            row[2] = kernel_time(self.kernel)
            row[1] = time.perf_counter()
            self.count += 1

    def __enter__(self):
        self._handler(None, None)  # so that there is always a sample
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def reference_seconds(self, start: float, end: float) -> tuple[float, float]:
        """(wall s, reference s) of [start, end], handler time taken out.

        With no sample inside the stretch the nearest one stands in."""
        t0, t1, k = self.samples[:self.count].T
        inside = (t0 >= start) & (t1 <= end)
        if not inside.any():
            inside = np.abs(t0 - (start + end) / 2) == np.abs(t0 - (start + end) / 2).min()
        busy = np.clip(np.minimum(t1, end) - np.maximum(t0, start), 0.0, None).sum()
        own = end - start - float(busy)
        return own, own * KERNELS[self.kernel][1] / float(k[inside].mean())
