"""Thread-count resolution and the order-preserving worker pool."""

import os
import threading

import pytest

from bayes_cpd.seeds import THREADS_ENV_VAR, parallel_map, resolve_threads


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestResolveThreads:
    def test_zero_means_all_usable_cpus(self):
        assert resolve_threads(0) == usable_cpus()

    def test_positive_passes_through(self):
        assert resolve_threads(3) == 3

    def test_none_reads_env_var_then_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert resolve_threads(None) == 1
        monkeypatch.setenv(THREADS_ENV_VAR, "0")
        assert resolve_threads(None) == usable_cpus()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_threads(-1)


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
