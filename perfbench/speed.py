"""The host's current CPU speed, read from a fixed reference kernel.

On a shared machine the same operation can take half again as long from
one second to the next, with no change in the code: the host switches
between a fast and a slow state every few seconds.  A run therefore
times this kernel next to every operation and scales the operation's
latency by ``REF_KERNEL_S / kernel time``: the latency it would have had
on a CPU that runs the kernel in exactly ``REF_KERNEL_S``.

The kernel has four parts of about equal time: interpreted Python, small
numpy calls, small dense linear algebra and a memory-bound pass over an
array.  On this host each part alone tracked the slow state of the
workloads less well than the mix.  Its inputs are fixed, so its work
never changes.
"""

from __future__ import annotations

import time

import numpy as np

#: the kernel time that scaled latencies refer to: about what it takes on
#: a 2-core Xeon VM (OpenBLAS, one thread) in its fast state
REF_KERNEL_S = 4e-4

_RNG = np.random.default_rng(20020)
_SMALL = _RNG.normal(size=3)
_SQUARE = _RNG.normal(size=(40, 40))
_SPD = _SQUARE[:6, :6] @ _SQUARE[:6, :6].T + 6.0 * np.eye(6)
_RHS = _RNG.normal(size=6)
_PATH = _RNG.normal(size=(32, 1000))


def _pass() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += i * 0.5
    for _ in range(40):
        np.dot(_SMALL, np.exp(_SMALL)).sum()
    for _ in range(12):
        _SQUARE @ _SQUARE
        np.linalg.solve(_SPD, _RHS)
    np.cumsum(_PATH, axis=1)
    return time.perf_counter() - t0


def kernel_s() -> float:
    """Seconds one pass of the reference kernel takes now: the median of
    three, so that one interrupt does not count."""
    return sorted(_pass() for _ in range(3))[1]


def factor(kernel_times: list) -> float:
    """The scale ``REF_KERNEL_S / mean kernel time`` for a span the times bracket."""
    return REF_KERNEL_S * len(kernel_times) / sum(kernel_times)
