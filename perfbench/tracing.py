"""Spans and counts around the calls into each module of ``bayes_cpd``.

The traced run installs wrappers on module and class attributes of the
package, from the benchmark's own code; nothing in the program changes.
Each wrapper records a span (name, start, end, parent span, op id) in
memory, and some also record exact work counts.  A layer's self time is
its span's duration minus the part of that interval its child spans cover.

Hooks name the attribute the calling code looks up at call time, which is
not always where the function is defined: ``cli`` and ``simlab`` bind
``detect`` by name at import, and ``simlab._GENERATOR_FNS`` holds the
generators themselves, so wrapping ``simlab.gen_*`` would miss them.  A
hook whose attribute no longer exists is skipped and listed in
``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

LAYERS = ("io", "density", "engine", "cleaning", "ingestion", "simlab", "seeds", "cli")
#: Layers that own spans; ``seeds`` is measured by pool busy time instead.
SPAN_LAYERS = tuple(layer for layer in LAYERS if layer != "seeds")


@dataclass(frozen=True)
class Hook:
    module: str            # module holding the attribute, or the package for classes
    attr: str              # "name", "Class.method" or "dict_name[key]"
    span: str              # span name; its first part is the layer
    count: Callable | None = None   # (tracer, bound arguments, result) -> None


def _count_mc(tracer, args, result):
    eigen = args["eigen"]
    lambdas = eigen.retained() if hasattr(eigen, "retained") else eigen
    L = len(lambdas)
    steps = args["bridge_nodes"] - 1
    tracer.add(mc_calls=1, mc_L_sum=L, mc_draws=args["mc_samples"] * L * steps)
    tracer.peak("mc_L_max", L)
    tracer.peak("mc_steps", steps)


def _count_eigen(tracer, args, result):
    tracer.add(eigensolves=1, eigen_dim_sum=len(result.eigenvalues))


def _count_flag(tracer, args, result):
    tracer.add(cleaning_removed=len(result))


def _count_kde(tracer, args, result):
    samples = len(args["values"])
    tracer.add(kde_calls=1, kde_samples=samples,
               kde_evals=args["grid"].node_count * samples * 3)


HOOKS = (
    Hook("bayes_cpd.io", "read_density_csv", "io.read_density_csv"),
    Hook("bayes_cpd.io", "read_raw_series_csv", "io.read_raw_csv"),
    Hook("bayes_cpd.io", "write_density_csv", "io.write_density_csv"),
    Hook("bayes_cpd.io", "dump_json", "io.write_json"),
    Hook("bayes_cpd.io", "detection_result_to_dict", "io.write_json"),
    Hook("bayes_cpd.io", "ingestion_report_to_dict", "io.write_json"),
    Hook("bayes_cpd.io", "experiment_report_to_dict", "io.write_json"),
    Hook("bayes_cpd.io", "write_replicates_csv", "io.write_csv"),
    Hook("bayes_cpd.io", "write_boxplot_csv", "io.write_csv"),
    Hook("bayes_cpd", "DensityFunction.__init__", "density.validate"),
    Hook("bayes_cpd", "DistributionalSequence.__post_init__", "density.sequence"),
    Hook("bayes_cpd", "DistributionalSequence.clr_matrix", "density.clr"),
    Hook("bayes_cpd", "DistributionalSequence.subsequence", "cleaning.subsequence"),
    Hook("bayes_cpd.cli", "detect", "engine.detect"),
    Hook("bayes_cpd.cli", "detect_l2_raw", "engine.detect"),
    Hook("bayes_cpd.cli", "clean_and_detect", "cleaning.clean_and_detect"),
    Hook("bayes_cpd.cli", "build_sequence", "ingestion.build_sequence"),
    Hook("bayes_cpd.cli", "run_experiment", "simlab.run_experiment"),
    Hook("bayes_cpd.simlab", "detect", "engine.detect"),
    Hook("bayes_cpd.simlab", "detect_l2_raw", "engine.detect"),
    Hook("bayes_cpd.simlab", "clean_and_detect", "cleaning.clean_and_detect"),
    Hook("bayes_cpd.cleaning", "detect", "engine.detect"),
    Hook("bayes_cpd.engine", "_profile_from_matrix", "engine.cusum"),
    Hook("bayes_cpd.engine", "_residual_matrix", "engine.residuals"),
    Hook("bayes_cpd.engine", "_covariance_eigen_from_matrix", "engine.eigen", _count_eigen),
    Hook("bayes_cpd.engine", "simulate_limit_samples", "engine.mc", _count_mc),
    Hook("bayes_cpd.engine", "p_value", "engine.pvalue"),
    Hook("bayes_cpd.cleaning", "detect_distributional_outliers", "cleaning.flag", _count_flag),
    Hook("bayes_cpd.ingestion", "boxplot_keep_mask", "ingestion.boxplot"),
    Hook("bayes_cpd.ingestion", "segment", "ingestion.segment"),
    Hook("bayes_cpd.ingestion", "silverman_bandwidth", "ingestion.bandwidth"),
    Hook("bayes_cpd.ingestion", "kde", "ingestion.kde", _count_kde),
    Hook("bayes_cpd.simlab", "_GENERATOR_FNS[sim1]", "simlab.generate"),
    Hook("bayes_cpd.simlab", "_GENERATOR_FNS[model1]", "simlab.generate"),
    Hook("bayes_cpd.simlab", "_GENERATOR_FNS[model2]", "simlab.generate"),
    Hook("bayes_cpd.simlab", "_GENERATOR_FNS[model3]", "simlab.generate"),
    Hook("bayes_cpd.simlab", "gen_outliers", "simlab.generate"),
    Hook("bayes_cpd.simlab", "contaminate", "simlab.generate"),
)

#: Modules whose ``parallel_map`` binding is wrapped to measure pool busy time.
POOL_MODULES = ("bayes_cpd.engine", "bayes_cpd.ingestion", "bayes_cpd.simlab")


class Tracer:
    """In-memory spans and counters.  ``spans=False`` keeps counts only."""

    def __init__(self, spans: bool = True):
        self.record_spans = spans
        self.spans: list = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.pool_busy = 0.0
        self.pool_capacity = 0.0
        self.op = None
        self.missing: list[str] = []
        self.count_errors: set[str] = set()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._restore: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def add(self, **amounts) -> None:
        with self._lock:
            self.counts.update(amounts)

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.peaks[key] = max(self.peaks.get(key, value), value)

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        if not self.record_spans:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    # -- installing hooks --------------------------------------------------

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        signature = inspect.signature(original) if hook.count else None
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(hook.span, original, *args, **kwargs)
            if hook.count is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook.count(tracer, bound.arguments, result)
                except (TypeError, KeyError, AttributeError):
                    tracer.count_errors.add(f"{hook.module}.{hook.attr}")
            return result

        return wrapper

    def _wrap_pool(self, original: Callable) -> Callable:
        tracer = self

        def parallel_map(fn, items, threads):
            tls = tracer._tls
            outermost = not getattr(tls, "in_task", False)
            parent = tracer._stack()[-1] if tracer._stack() else None
            busy = [0.0]

            def task(item):
                stack = tracer._stack()
                saved_in_task = getattr(tls, "in_task", False)
                tls.in_task = True
                stack.append(parent)
                start = perf_counter()
                try:
                    return fn(item)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    tls.in_task = saved_in_task
                    with tracer._lock:
                        busy[0] += elapsed

            start = perf_counter()
            result = original(task, items, threads)
            wall = perf_counter() - start
            if outermost:
                with tracer._lock:
                    tracer.pool_busy += busy[0]
                    tracer.pool_capacity += wall * max(1, threads)
            return result

        return parallel_map

    def install(self, count_only: bool = False) -> "Tracer":
        """Wrap every hook target; ``count_only`` wraps only counting hooks."""
        for hook in HOOKS:
            if count_only and hook.count is None:
                continue
            try:
                holder, key, is_item = _resolve(hook)
                original = holder[key] if is_item else getattr(holder, key)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            self._set(holder, key, is_item, self._wrap(hook, original), original)
        if not count_only:
            for name in POOL_MODULES:
                module = importlib.import_module(name)
                if hasattr(module, "parallel_map"):
                    original = module.parallel_map
                    self._set(module, "parallel_map", False, self._wrap_pool(original), original)
                else:
                    self.missing.append(f"{name}.parallel_map")
        return self

    def _set(self, holder, key, is_item, value, original) -> None:
        if is_item:
            holder[key] = value
            self._restore.append(lambda: holder.__setitem__(key, original))
        else:
            setattr(holder, key, value)
            self._restore.append(lambda: setattr(holder, key, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _resolve(hook: Hook):
    module = importlib.import_module(hook.module)
    if "[" in hook.attr:
        name, key = hook.attr[:-1].split("[")
        holder = getattr(module, name)
        holder[key]  # KeyError when the entry is gone
        return holder, key, True
    if "." in hook.attr:
        cls_name, attr = hook.attr.split(".")
        holder = getattr(module, cls_name)
        getattr(holder, attr)
        return holder, attr, False
    return module, hook.attr, False


def _children(spans: list) -> dict[int, list[tuple[float, float]]]:
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return children


def _cover(start: float, end: float, intervals) -> tuple[float, float]:
    """Union and plain sum of the lengths of ``intervals`` clipped to [start, end]."""
    union = total = 0.0
    cursor = start
    for c_start, c_end in sorted(intervals):
        c_start, c_end = max(c_start, start), min(c_end, end)
        if c_end <= c_start:
            continue
        total += c_end - c_start
        if c_end > cursor:
            union += c_end - max(c_start, cursor)
            cursor = c_end
    return union, total


def self_times(spans: list) -> dict[str, float]:
    """Total self time per span name, in seconds.

    Children may run in other threads; the covered part of a span is the
    union of its children's intervals clipped to the span.
    """
    children = _children(spans)
    totals: Counter = Counter()
    for i, (name, start, end, parent, op) in enumerate(spans):
        totals[name] += (end - start) - _cover(start, end, children.get(i, ()))[0]
    return dict(totals)


def concurrent_overlap(spans: list) -> float:
    """Seconds by which concurrent children overlap one another, summed.

    Self times count each thread's time, so with children running in
    parallel their sum exceeds the wall time of the root spans by exactly
    this amount; on one thread it is 0.
    """
    overlap = 0.0
    for i, intervals in _children(spans).items():
        union, total = _cover(spans[i][1], spans[i][2], intervals)
        overlap += total - union
    return overlap


def inclusive_times(spans: list) -> dict[str, float]:
    """Total duration per span name, counting nested same-name spans once."""
    totals: Counter = Counter()
    names = [s[0] for s in spans]
    for name, start, end, parent, op in spans:
        if parent is None or names[parent] != name:
            totals[name] += end - start
    return dict(totals)


def layer_self_times(selfs: dict[str, float]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, seconds in selfs.items():
        out[name.split(".", 1)[0]] += seconds
    return out
