"""Fixed reference kernels that sample the host's speed during a pass.

On a shared virtual machine the speed of one vCPU drifts by tens of per
cent over tens of seconds, as neighbours load the host: the same
tower_ensemble pass, same seed, same process, took from 1.4 s to 3.0 s
within five minutes.  A kernel that never changes, run before and after
each config of a pass, measures how fast the host was while the pass ran;
the median of those samples is robust to one of them being preempted.

The drift does not slow all code alike, so each workload is sampled with
the kernel that does its kind of work (``workloads.HOST_KERNEL``):

* ``python``: interpreter-bound method calls, a memo dict and big-integer
  division, like the rank-one prefix descents of tower_ensemble;
* ``numpy``: FFT, sort and unique on a 2^18 array, like the renewal and
  lattice code of renewal_scan and orbit_count.

Over four minutes of drift, the python kernel cut the quartile spread of
half-minute tower_ensemble medians from 0.23 to 0.04 of the median, the
numpy kernel only to 0.15; on orbit_count the numpy kernel cut it from 0.19
to 0.07 and the python kernel not at all.  The kernels import nothing from
``ergosum``, so a change to the program never changes them.

``calibrated`` rescales a pass to the nominal host, on which a sample of the
kernel takes NOMINAL_S seconds of wall and CPU time.  A pass run while the
host was twice as slow counts half; a faster program still shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


class _Tower:
    __slots__ = ("width", "memo")

    def __init__(self, width: int):
        self.width = width
        self.memo = {}

    def height(self, level: int) -> int:
        return self.width * (level + 1) + 1

    def count(self, level: int, j: int) -> int:
        key = (level, j)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if level == 0:
            result = j
        else:
            q = self.height(level - 1)
            result = self.count(level - 1, j % q) + (j // q) * level
        if len(self.memo) < 4096:
            self.memo[key] = result
        return result


def _python_kernel() -> int:
    total = 0
    for k in range(600):
        tower = _Tower(3 + k % 5)
        for j in range(20):
            total += tower.count(20, (k * 7919 + j * 104729) % (1 << 40))
    return total


_ARRAY = np.random.default_rng(20130729).random(1 << 18)


def _numpy_kernel() -> float:
    total = 0.0
    for _ in range(4):
        total += float(np.fft.irfft(np.fft.rfft(_ARRAY) * 0.5).sum())
        total += float(np.sort(_ARRAY)[::-1].cumsum()[-1])
        total += float(np.unique((_ARRAY * 1000).astype(np.int64)).size)
    return total


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}

# Sample time of each kernel on an unloaded host (2 vCPUs of an Intel Xeon
# Sapphire Rapids VM, Python 3.11, NumPy 2.4).
NOMINAL_S = {"python": 0.065, "numpy": 0.1}


def sample(kernel: str) -> tuple[float, float]:
    """One host-speed sample: (wall s, CPU s) of the named kernel."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    KERNELS[kernel]()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def calibrated(value: float, samples, kernel: str) -> float:
    """Rescale ``value`` by the median of the kernel's times taken around it."""
    return value * NOMINAL_S[kernel] / statistics.median(samples)
