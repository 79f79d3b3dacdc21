"""A reference kernel that tracks the speed of the machine.

On a shared machine the same work can take 1.5 times as long from one
minute to the next. The benchmark times this fixed kernel, which does not
call homsim, before and after every round and reports the round's times in
reference seconds: measured seconds times NOMINAL_S over the kernel's mean
time around the round. The kernel is bulk numpy work shaped like one
Monte Carlo block (Philox draws, sorts, searchsorted, repeat, bincount on
65,536-element arrays). On 25-40 s windows of a 5-minute series it cut the
spread of window medians about threefold, for Monte Carlo calls and for
analytic sweeps alike.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.1  # kernel time that defines one reference second per 0.1 s
_N = 1 << 16


def _kernel():
    for c in range(6):
        g = np.random.Generator(np.random.Philox(key=np.array([7, c], dtype=np.uint64)))
        x = np.sort(g.exponential(0.67, _N) + g.normal(0.0, 0.1, _N))
        y = np.sort(g.random(_N) * x[-1])
        lo = np.searchsorted(x, y - 5e-4)
        hi = np.searchsorted(x, y + 5e-4, side="right")
        per = hi - lo
        idx = np.repeat(lo, per) + (np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per))
        np.bincount(np.minimum(idx, _N - 1) % 763, minlength=763)


def kernel_seconds():
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
