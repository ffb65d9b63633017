"""Spans around ffmerge's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``ffmerge`` module namespace that binds it (``from .x import f`` copies
the binding), and each traced method on its class. A span records its
name, start, end, parent span, workload, stage and pass, plus work counts
taken from the call's arguments and result. Spans stay in memory until the
run writes them out. Self time is a span's duration minus the durations of
its direct children; the process is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _tokens(dataset) -> int:
    return int(sum(len(s) for s in dataset.sequences))


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _evaluate_counts(args, kwargs, result) -> dict:
    model, dataset = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "dataset")
    tokens = _tokens(dataset)
    return {"tokens": tokens, "layer_tokens": model.config.n_layers * tokens}


def _sweep_counts(changed_layers, eval_index: int):
    """Counts of a select/drop sweep. ``useful_layer_tokens`` sums, over the
    candidates, the layers a candidate changes from its start onward times
    the eval tokens: the work a sweep that reused the unchanged prefix
    would still do."""
    def counts(args, kwargs, result) -> dict:
        model, (report, _) = args[0], result
        tokens = _tokens(_arg(args, kwargs, eval_index, "eval_data"))
        n = model.config.n_layers
        return {"candidates": len(report.candidates),
                "useful_layer_tokens": sum(changed_layers(n, report.k, c.start) * tokens
                                           for c in report.candidates)}
    return counts


def _merge_changed(n_layers: int, k: int, start: int) -> int:
    return n_layers - start


def _drop_changed(n_layers: int, count: int, start: int) -> int:
    return n_layers - count - start


def _linear_cka_counts(args, kwargs, result) -> dict:
    (n, p), (_, q) = args[0].shape, args[1].shape
    # Y^T X, X^T X and Y^T Y, computed from the shapes
    return {"flop": 2 * n * (p * q + p * p + q * q)}


# (module, attribute, span name, counts from (args, kwargs, result))
TARGETS = (
    ("ffmerge.cli", "main", "cli.main", None),
    ("ffmerge.engine", "evaluate", "engine.evaluate", _evaluate_counts),
    ("ffmerge.engine", "TransformerModel.forward", "engine.forward",
     lambda a, k, r: {"tokens": len(a[1])}),
    ("ffmerge.engine", "capture_activations", "engine.capture_activations",
     lambda a, k, r: {"rows": r.sample_count}),
    ("ffmerge.engine", "load_model", "engine.load_model", None),
    ("ffmerge.engine", "save_model", "engine.save_model", None),
    ("ffmerge.engine", "read_activations", "engine.read_activations", None),
    ("ffmerge.engine", "write_activations", "engine.write_activations", None),
    ("ffmerge.checkpoint", "read_container", "checkpoint.read_container", None),
    ("ffmerge.checkpoint", "parse_container", "checkpoint.parse_container",
     lambda a, k, r: {"bytes": len(a[0])}),
    ("ffmerge.checkpoint", "serialize_container", "checkpoint.serialize_container",
     lambda a, k, r: {"bytes": len(r)}),
    ("ffmerge.checkpoint", "atomic_write_bytes", "checkpoint.atomic_write_bytes",
     lambda a, k, r: {"bytes": len(a[1])}),
    ("ffmerge.checkpoint", "ParameterStore.copy", "checkpoint.ParameterStore.copy",
     None),
    ("ffmerge.datasets", "load_dataset", "datasets.load_dataset", None),
    ("ffmerge.alignment", "cross_correlation", "alignment.cross_correlation", None),
    ("ffmerge.alignment", "solve_assignment", "alignment.solve_assignment", None),
    ("ffmerge.linalg", "column_stats", "linalg.column_stats", None),
    ("ffmerge.merging", "merge_window", "merging.merge_window", None),
    ("ffmerge.selection", "select_best_window", "selection.select_best_window",
     _sweep_counts(_merge_changed, 3)),
    ("ffmerge.selection", "select_best_drop", "selection.select_best_drop",
     _sweep_counts(_drop_changed, 2)),
    ("ffmerge.selection", "drop_layers", "selection.drop_layers", None),
    ("ffmerge.analysis", "cka_matrix", "analysis.cka_matrix", None),
    ("ffmerge.analysis", "linear_cka", "analysis.linear_cka", _linear_cka_counts),
    ("ffmerge.fixtures", "greedy_sequences", "fixtures.greedy_sequences", None),
    ("ffmerge.fixtures", "permuted_copy_model", "fixtures.permuted_copy_model", None),
    ("ffmerge.fixtures", "random_model", "fixtures.random_model", None),
)

SWEEPS = ("selection.select_best_window", "selection.select_best_drop")


class Tracer:
    """Records spans while active; ``install``/``uninstall`` add and remove
    the wrappers, so untraced passes run the program unmodified."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.active = False
        self.stage: str | None = None
        self.pass_index: int | None = None
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, stage: str, pass_index: int) -> None:
        """Record spans, tagged with this stage and pass, until ``end``."""
        self.stage, self.pass_index, self.active = stage, pass_index, True

    def end(self) -> None:
        self.active = False

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1]["id"] if self._stack else None
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "workload": self.workload, "stage": self.stage,
                    "pass": self.pass_index}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "ffmerge" or n.startswith("ffmerge.")]
        for module_name, attr, name, counts in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(original, name, counts))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def bindings(self) -> list[str]:
        """Where the wrappers are installed, as ``namespace.attribute``."""
        return sorted(f"{getattr(o, '__qualname__', o.__name__)}.{k}"
                      for o, k, _ in self._patches)

    # -- aggregation -----------------------------------------------------------

    def layer_totals(self, passes) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and summed counts over the
        spans of the given passes."""
        chosen = [s for s in self.spans if s["pass"] in passes]
        child_time: dict[int, float] = defaultdict(float)
        for s in chosen:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        by_id = {s["id"]: s for s in chosen}
        for s in chosen:
            t = totals[s["name"]]
            t["calls"] += 1
            t["self_s"] += s["end"] - s["start"] - child_time[s["id"]]
            for key, value in s.get("counts", {}).items():
                t[key] += value
            if s["name"] == "engine.evaluate" and self._inside_sweep(s, by_id):
                t["sweep_layer_tokens"] += s["counts"]["layer_tokens"]
        return {name: dict(t) for name, t in totals.items()}

    @staticmethod
    def _inside_sweep(span: dict, by_id: dict[int, dict]) -> bool:
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] in SWEEPS:
                return True
            parent = by_id[parent]["parent"]
        return False

    def fired(self) -> set[str]:
        return {s["name"] for s in self.spans}
