"""A fixed reference kernel that measures the host's speed of the moment.

The shared host this benchmark was defined on alternates between a fast
and a slow speed, in spells from seconds to many minutes; in a slow
spell pure-Python code takes up to twice as long and numpy code about
1.2 times as long.  The benchmark times this kernel next to every
sample and divides the sample by it, which cancels the spell.

The kernel is half an interpreter loop over a dict and half numpy
ufuncs on preallocated 181 x 181 arrays, so it slows in a spell about as
much as the workloads do.  It allocates nothing above the allocator's
mmap threshold, so its time does not depend on what the process ran
before it, and it uses nothing from the brwllt package.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the host that defined the benchmark, in its fast
# spell (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).  Scaled times are
# seconds of that host at that speed.
NOMINAL_S = 0.024

_X = np.linspace(-3.0, 3.0, 181)
_X2 = _X * _X
_A = np.empty((181, 181))
_B = np.empty((181, 181))


def _kernel() -> float:
    acc = 0.0
    for x in _X[:115]:
        np.add.outer(_X2, _X2 + x * x, out=_A)
        np.multiply(_A, -0.5, out=_B)
        np.exp(_B, out=_B)
        np.multiply(_B, _A, out=_B)
        acc += float(_B.sum())
    d: dict[int, int] = {}
    s = 0
    for i in range(60000):
        d[i & 1023] = d.get(i & 1023, 0) + i
        s += i * i % 7
    return acc + s


def scaled(seconds: float, kernel_s: float, sensitivity: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at nominal speed.

    ``sensitivity`` is the log-log slope of the measured work's time
    against the kernel's: 1 for work that slows as much as the kernel.
    """
    return seconds * (NOMINAL_S / kernel_s) ** sensitivity


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
