"""Deterministic seed derivation and worker-pool helpers.

Every randomized routine in this package draws from ``numpy`` generators
seeded through :func:`derive_seed`, a splitmix64-style mix of a base seed
and a task index.  Chunk/replicate seeds therefore depend only on
``(seed, index)``, never on thread scheduling, which is what makes results
bit-identical at any thread count.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

T = TypeVar("T")
R = TypeVar("R")


def derive_seed(seed: int, index: int) -> int:
    """Mix ``seed`` and ``index`` into an independent 64-bit stream seed.

    splitmix64 finalizer applied to ``seed + (index + 1) * golden_gamma``.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int) -> list[R]:
    """Map ``fn`` over ``items``, preserving order regardless of scheduling.

    ``threads = 0`` means every CPU this process may run on.
    """
    if threads < 0:
        raise ValueError("threads must be >= 0")
    if threads == 0:  # the CPUs this process may run on; cpu_count ignores affinity
        if hasattr(os, "sched_getaffinity"):
            threads = len(os.sched_getaffinity(0))
        else:
            threads = os.cpu_count() or 1
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # a one-thread call never imports it

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
