"""Outside-in span tracing of the gea_nas modules.

The tracer replaces public functions and methods of the seven gea_nas
modules with timing wrappers, and puts the originals back on uninstall.
Each name is patched where callers look it up: every gea_nas module
attribute that is bound to the original object under the same name (so
``zero_proxy.build_network`` and ``experiment_cli.run_search`` are caught).
Matching by name keeps ``avg_pool_3x3`` (forward) and ``avg_pool_3x3_grad``
(backward) apart although they are one function object.

A span's busy time is its wall duration; its self time is the busy time
minus the part covered by wrapped calls beneath it. A name that the
program no longer defines is skipped and listed in ``missing``; its
metrics then read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("arch_space", "autodiff_core", "network_builder", "zero_proxy",
           "benchmark_store", "guided_evolution", "experiment_cli")

KERNELS = ("conv", "avg_pool", "bn", "relu")

# (span key, defining module, attribute path). Two targets may share a key.
SPANS = (
    ("autodiff_core.conv.fwd", "autodiff_core", "conv2d"),
    ("autodiff_core.conv.bwd", "autodiff_core", "conv2d_input_grad"),
    ("autodiff_core.avg_pool.fwd", "autodiff_core", "avg_pool_3x3"),
    ("autodiff_core.avg_pool.bwd", "autodiff_core", "avg_pool_3x3_grad"),
    ("autodiff_core.bn.fwd", "autodiff_core", "batch_norm_with_cache"),
    ("autodiff_core.bn.bwd", "autodiff_core", "batch_norm_input_grad"),
    ("autodiff_core.relu.fwd", "autodiff_core", "relu"),
    ("autodiff_core.relu.bwd", "autodiff_core", "relu_input_grad"),
    ("autodiff_core.gap.fwd", "autodiff_core", "global_avg_pool"),
    ("autodiff_core.linear.fwd", "autodiff_core", "linear"),
    ("autodiff_core.graph.forward", "autodiff_core", "CompGraph.forward"),
    ("autodiff_core.graph.backward", "autodiff_core", "CompGraph.backward_to_input"),
    ("network_builder.build_network", "network_builder", "build_network"),
    ("zero_proxy.score_architecture", "zero_proxy", "score_architecture"),
    ("zero_proxy.compute_jacobian", "zero_proxy", "compute_jacobian"),
    ("zero_proxy.split_by_class", "zero_proxy", "split_by_class"),
    ("zero_proxy.correlation_matrix", "zero_proxy", "correlation_matrix"),
    ("zero_proxy.class_score", "zero_proxy", "class_score"),
    ("zero_proxy.aggregate", "zero_proxy", "aggregate"),
    ("zero_proxy.make_batch", "zero_proxy", "make_batch"),
    ("arch_space.mutate", "arch_space", "mutate"),
    ("arch_space.random_arch", "arch_space", "random_arch"),
    ("arch_space.encode_str", "arch_space", "encode_str"),
    ("benchmark_store.load_jsonl", "benchmark_store", "load_jsonl"),
    ("benchmark_store.evaluate", "benchmark_store", "TabularStore.evaluate"),
    ("benchmark_store.evaluate", "benchmark_store", "SyntheticLandscape.evaluate"),
    ("benchmark_store.landscape_init", "benchmark_store", "SyntheticLandscape.__init__"),
    ("benchmark_store.noisy_calibrate", "benchmark_store", "NoisyProxySource.__init__"),
    ("benchmark_store.proxy_lookup", "benchmark_store", "OracleProxySource.score"),
    ("benchmark_store.proxy_lookup", "benchmark_store", "NoisyProxySource.score"),
    ("guided_evolution.run_search", "guided_evolution", "run_search"),
    ("guided_evolution.run_rea_baseline", "guided_evolution", "run_rea_baseline"),
    ("guided_evolution.run_random_baseline", "guided_evolution", "run_random_baseline"),
    ("guided_evolution.to_json_dict", "guided_evolution", "SearchResult.to_json_dict"),
    ("experiment_cli.main", "experiment_cli", "main"),
)

LOOP_KEYS = ("guided_evolution.run_search", "guided_evolution.run_rea_baseline",
             "guided_evolution.run_random_baseline")
PROXY_KEYS = ("zero_proxy.score_architecture", "benchmark_store.proxy_lookup")
FITNESS_KEY = "benchmark_store.evaluate"


class _Frame:
    __slots__ = ("key", "start", "child", "children")

    def __init__(self, key: str, start: float):
        self.key = key
        self.start = start
        self.child = 0.0
        self.children: set | None = None


class Tracer:
    """Collects per-key call counts, busy and self time while installed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.parent_calls: dict[tuple[str, str | None], int] = defaultdict(int)
        self.invalid_scores = 0
        self.jsonl_records = 0
        self.children = 0
        self.distinct_children = 0
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = {name: importlib.import_module(f"gea_nas.{name}") for name in MODULES}
        namespaces = [importlib.import_module("gea_nas"), *modules.values()]
        try:
            for key, module_name, path in SPANS:
                owner = modules[module_name]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapper = self._wrap(key, original)
                if cls_path:
                    self._patch(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    if ns.__dict__.get(attr) is original:
                        self._patch(ns, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = attr in owner.__dict__
        self._patches.append((owner, attr, owner.__dict__.get(attr), own))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched name, in reverse order of patching."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, key: str, fn):
        stack = self._stack
        clock = time.perf_counter
        on_result = {
            "zero_proxy.score_architecture": self._on_score,
            "benchmark_store.load_jsonl": self._on_store,
            "arch_space.mutate": self._on_child,
        }.get(key)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(key, clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                self.calls[key] += 1
                self.busy[key] += duration
                self.self_time[key] += duration - frame.child
                self.parent_calls[(key, parent.key if parent else None)] += 1
                if parent is not None:
                    parent.child += duration
                if frame.children is not None:
                    self.distinct_children += len(frame.children)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _on_score(self, score) -> None:
        if not score.valid:
            self.invalid_scores += 1

    def _on_store(self, store) -> None:
        self.jsonl_records += len(store)

    def _on_child(self, child) -> None:
        self.children += 1
        for frame in reversed(self._stack):
            if frame.key in LOOP_KEYS:
                if frame.children is None:
                    frame.children = set()
                frame.children.add(hash(child))
                return
        self.distinct_children += 1  # a child outside any search loop is its own run

    # -- derived metrics ------------------------------------------------------

    def _under(self, keys, parents) -> int:
        return sum(n for (k, p), n in self.parent_calls.items() if k in keys and p in parents)

    def metrics(self, output_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name as (value, unit); ratios with base 0 read 0."""
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c, b, s = self.calls, self.busy, self.self_time
        m: dict[str, tuple[float, str]] = {}
        for kernel in KERNELS:
            for direction in ("fwd", "bwd"):
                key = f"autodiff_core.{kernel}.{direction}"
                m[f"{key}.calls"] = (c[key], "count")
                m[f"{key}.busy_s"] = (b[key], "s")
        m["autodiff_core.gap.fwd.busy_s"] = (b["autodiff_core.gap.fwd"], "s")
        m["autodiff_core.linear.fwd.busy_s"] = (b["autodiff_core.linear.fwd"], "s")
        m["autodiff_core.graph.forward.self_s"] = (s["autodiff_core.graph.forward"], "s")
        m["autodiff_core.graph.backward.self_s"] = (s["autodiff_core.graph.backward"], "s")

        m["network_builder.build_network.calls"] = (c["network_builder.build_network"], "count")
        m["network_builder.build_network.busy_s"] = (b["network_builder.build_network"], "s")

        score = "zero_proxy.score_architecture"
        m[f"{score}.calls"] = (c[score], "count")
        m[f"{score}.busy_s"] = (b[score], "s")
        m[f"{score}.ms_per_call"] = (1000.0 * ratio(b[score], c[score]), "ms")
        for stage in ("compute_jacobian", "split_by_class", "class_score", "aggregate",
                      "make_batch"):
            m[f"zero_proxy.{stage}.busy_s"] = (b[f"zero_proxy.{stage}"], "s")
        m["zero_proxy.correlation_matrix.calls"] = (c["zero_proxy.correlation_matrix"], "count")
        m["zero_proxy.correlation_matrix.busy_s"] = (b["zero_proxy.correlation_matrix"], "s")
        m["zero_proxy.invalid_ratio"] = (ratio(self.invalid_scores, c[score]), "ratio")

        for fn in ("mutate", "random_arch", "encode_str"):
            m[f"arch_space.{fn}.calls"] = (c[f"arch_space.{fn}"], "count")
            m[f"arch_space.{fn}.busy_s"] = (b[f"arch_space.{fn}"], "s")
        m["arch_space.distinct_child_ratio"] = (
            ratio(self.distinct_children, self.children), "ratio")

        m["benchmark_store.load_jsonl.busy_s"] = (b["benchmark_store.load_jsonl"], "s")
        m["benchmark_store.load_jsonl.records"] = (self.jsonl_records, "count")
        for fn in ("evaluate", "noisy_calibrate", "proxy_lookup"):
            m[f"benchmark_store.{fn}.calls"] = (c[f"benchmark_store.{fn}"], "count")
            m[f"benchmark_store.{fn}.busy_s"] = (b[f"benchmark_store.{fn}"], "s")
        m["benchmark_store.landscape_init.busy_s"] = (b["benchmark_store.landscape_init"], "s")

        for key in LOOP_KEYS:
            m[f"{key}.busy_s"] = (b[key], "s")
        m["guided_evolution.loop.self_s"] = (sum(s[k] for k in LOOP_KEYS), "s")
        proxy_calls = self._under(PROXY_KEYS, LOOP_KEYS)
        fitness_calls = self._under((FITNESS_KEY,), LOOP_KEYS)
        m["guided_evolution.proxy_calls"] = (proxy_calls, "count")
        m["guided_evolution.fitness_calls"] = (fitness_calls, "count")
        m["guided_evolution.proxy_calls_per_admission"] = (
            ratio(proxy_calls, fitness_calls), "ratio")
        m["guided_evolution.to_json_dict.busy_s"] = (b["guided_evolution.to_json_dict"], "s")

        m["experiment_cli.main.calls"] = (c["experiment_cli.main"], "count")
        m["experiment_cli.main.busy_s"] = (b["experiment_cli.main"], "s")
        m["experiment_cli.main.self_s"] = (s["experiment_cli.main"], "s")
        m["experiment_cli.output_bytes"] = (output_bytes, "bytes")
        return m
