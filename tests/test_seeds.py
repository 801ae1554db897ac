"""The order-preserving worker pool and its thread count."""

import os
import threading

import pytest

from bayes_cpd.seeds import parallel_map


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestParallelMap:
    def test_zero_threads_uses_every_usable_cpu(self):
        cpus = usable_cpus()
        barrier = threading.Barrier(cpus, timeout=10)
        seen = set()

        def task(i):
            seen.add(threading.get_ident())
            barrier.wait()  # completes only when `cpus` workers run at once
            return i * i

        assert parallel_map(task, range(cpus), 0) == [i * i for i in range(cpus)]
        assert len(seen) == cpus

    def test_order_preserved(self):
        assert parallel_map(lambda i: -i, range(7), 3) == [-i for i in range(7)]

    def test_negative_threads_rejected(self):
        with pytest.raises(ValueError, match="threads must be >= 0"):
            parallel_map(lambda i: i, [], -1)
