"""A fixed pure-Python kernel that tracks how fast the machine runs right now.

On a shared virtual machine the speed of a single core can drift by a factor
of 1.5 or more within minutes, so wall times of the same code differ more
between runs than any change worth measuring.  The kernel below uses none of
kinterdict: it builds a DP table over int lists, the shape of the library's
hot loops.  Its time slows and speeds up with the machine, so the benchmark
times it between requests and scales each request's wall time by
``REFERENCE_NS / kernel time around that request``.  The scaled
figure reads as milliseconds on a machine where the kernel takes
``REFERENCE_NS``; the raw wall times are printed beside it.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

REFERENCE_NS = 3_000_000  # kernel time that scaled timings refer to
WINDOW = 5  # kernel samples on each side of a request that set its scale

_UNITS = [(53 * k) % 180 + 5 for k in range(12)]
_COSTS = [(37 * k) % 97 + 3 for k in range(12)]
_KMAX = 3000


def kernel() -> tuple[tuple[int, ...], ...]:
    """A min-budget DP table kept whole, as the FPTAS builds its tables."""
    rows = [[0] * (_KMAX + 1)]
    for u, ci in zip(_UNITS, _COSTS):
        nxt = rows[0]
        row = [ci + v for v in nxt]
        row[u:] = [a if a <= b else b for a, b in zip(row[u:], nxt[: _KMAX + 1 - u])]
        rows.insert(0, row)
    return tuple(tuple(r) for r in rows)


def kernel_ns() -> int:
    start = perf_counter_ns()
    kernel()
    return perf_counter_ns() - start


def warm_up() -> None:
    for _ in range(20):
        kernel()


def scales(kernels: list[int], count: int) -> list[float]:
    """Scale of each of ``count`` requests, request i timed between
    ``kernels[i]`` and ``kernels[i + 1]``: the reference over the median of
    the kernel times nearest to it."""
    out = []
    for i in range(count):
        near = kernels[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        out.append(REFERENCE_NS / statistics.median(near))
    return out
