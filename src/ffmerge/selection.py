"""Sliding-window selection of what to merge, and the layer-drop baseline.

Candidate windows are enumerated over layer starts, each candidate is merged
(or dropped) and scored on held-out data from its first changed layer, and
the best-scoring candidate wins with ties broken toward the smallest start. The
activation set is captured once by the caller and reused across every
candidate. Recovery fine-tuning of the winning model is out of scope; it
would slot in immediately after the best candidate is returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .config import ModelConfig, expected_shapes, ff_tensor_names, model_tensor_names
from .engine import ActivationSet, EvalMetric, TransformerModel, evaluate, residual_prefix
from .merging import MergeSpec, merge_window


def enumerate_windows(n_layers: int, k: int,
                      include_final_window: bool = False) -> list[int]:
    """Start indices of the k-wide candidate windows.

    The default bound stops one short of the last window that would still
    fit; include_final_window extends the sweep to start n_layers - k.
    """
    if not 2 <= k <= n_layers:
        raise ValueError(f"k must be in [2, n_layers], got k={k}, n_layers={n_layers}")
    last = n_layers - k if include_final_window else n_layers - k - 1
    return list(range(last + 1))


@dataclass(frozen=True)
class WindowCandidate:
    """One scored candidate: the window start and its evaluation score."""

    start: int
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise ValueError(f"candidate score must be finite, got {self.score}")


@dataclass(frozen=True)
class SelectionReport:
    """All candidate scores plus the winner."""

    k: int
    anchor_position: str | None
    use_permutation: bool
    candidates: tuple[WindowCandidate, ...]
    best: WindowCandidate

    def __post_init__(self):
        if self.best not in self.candidates:
            raise ValueError("best candidate is not in the candidate list")

    def to_json(self) -> str:
        return json.dumps({
            "k": self.k,
            "anchor": self.anchor_position,
            "use_permutation": self.use_permutation,
            "candidates": [{"start": c.start, "score": c.score}
                           for c in self.candidates],
            "best": {"start": self.best.start, "score": self.best.score},
        }, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SelectionReport":
        doc = json.loads(text)
        candidates = tuple(WindowCandidate(int(c["start"]), float(c["score"]))
                           for c in doc["candidates"])
        best = WindowCandidate(int(doc["best"]["start"]), float(doc["best"]["score"]))
        return cls(k=int(doc["k"]), anchor_position=doc["anchor"],
                   use_permutation=bool(doc["use_permutation"]),
                   candidates=candidates, best=best)


def _sweep(model: TransformerModel, starts: list[int], build, eval_data, metric: EvalMetric,
           ) -> tuple[tuple[WindowCandidate, ...], WindowCandidate, TransformerModel]:
    """Build and score the candidate at each start, keeping only the best
    model so far; a strict comparison keeps the smallest start on ties.
    Each candidate resumes at its start from ``model``'s residual stream."""
    prefix = residual_prefix(model, eval_data, max(starts))
    candidates: list[WindowCandidate] = []
    best, best_model = None, None
    for start in starts:
        candidate_model = build(start)
        cand = WindowCandidate(start=start, score=evaluate(
            candidate_model, eval_data, metric, resume=(prefix, start) if start else None))
        candidates.append(cand)
        if best is None or (cand.score > best.score if metric.higher_is_better
                            else cand.score < best.score):
            best, best_model = cand, candidate_model
    return tuple(candidates), best, best_model


def select_best_window(model: TransformerModel, acts: ActivationSet, k: int,
                       eval_data, metric: EvalMetric, *,
                       anchor_position: str = "first",
                       use_permutation: bool = True,
                       include_final_window: bool = False,
                       ) -> tuple[SelectionReport, TransformerModel]:
    """Merge every candidate window, score each, and return the winner.

    ``acts`` is a single ff_pre_act capture of the unmerged model; no
    activations are recaptured per candidate.
    """
    starts = enumerate_windows(model.config.n_layers, k, include_final_window)
    if not starts:
        raise ValueError(
            "no candidate windows under the default bound; "
            "set include_final_window for the single full-width window"
        )

    # Each layer is centered once per sweep. Starts rise and every anchor
    # lies inside its window, so a layer below the start is never needed
    # again; dropping it keeps at most k centered float64 layers alive.
    centered: dict[int, tuple] = {}

    def build(start: int) -> TransformerModel:
        for i in [i for i in centered if i < start]:
            del centered[i]
        spec = MergeSpec(start=start, k=k, anchor_position=anchor_position,
                         use_permutation=use_permutation)
        return merge_window(model, acts, spec, centered=centered)[0]

    candidates, best, best_model = _sweep(model, starts, build, eval_data, metric)
    report = SelectionReport(k=k, anchor_position=anchor_position,
                             use_permutation=use_permutation,
                             candidates=candidates, best=best)
    return report, best_model


# -- layer-drop baseline -------------------------------------------------------


def enumerate_drop_starts(n_layers: int, count: int) -> list[int]:
    """Start indices for dropping ``count`` contiguous layers (all fits kept)."""
    if not 1 <= count < n_layers:
        raise ValueError(
            f"count must be in [1, n_layers-1], got count={count}, "
            f"n_layers={n_layers}"
        )
    return list(range(n_layers - count + 1))


def drop_layers(model: TransformerModel, start: int, count: int) -> TransformerModel:
    """Remove whole transformer layers [start, start+count) and reindex.

    Tied groups survive: a kept owner stays the owner under its new name;
    if the owner was dropped, the first kept member owns the group.
    """
    cfg = model.config
    if count < 0 or start < 0 or start + count > cfg.n_layers:
        raise ValueError(
            f"cannot drop layers [{start}, {start + count}) from "
            f"{cfg.n_layers} layers"
        )
    if count == cfg.n_layers:
        raise ValueError("cannot drop every layer")
    new_cfg = replace(cfg, n_layers=cfg.n_layers - count)
    dropped = tuple(f"layer{i}." for i in range(start, start + count))
    old_names = [n for n in model_tensor_names(cfg) if not n.startswith(dropped)]
    store = model.store.copy(zip(model_tensor_names(new_cfg), old_names))
    return TransformerModel(new_cfg, store)


def select_best_drop(model: TransformerModel, count: int, eval_data,
                     metric: EvalMetric) -> tuple[SelectionReport, TransformerModel]:
    """Score every contiguous ``count``-layer drop and return the winner."""
    starts = enumerate_drop_starts(model.config.n_layers, count)
    candidates, best, best_model = _sweep(
        model, starts, lambda start: drop_layers(model, start, count), eval_data, metric)
    report = SelectionReport(k=count, anchor_position=None, use_permutation=False,
                             candidates=candidates, best=best)
    return report, best_model


def _layer_parameter_counts(cfg: ModelConfig) -> tuple[int, int]:
    """(feed-forward params per layer, total params per layer)."""
    shapes = expected_shapes(cfg)
    ff = sum(int(np.prod(shapes[n])) for n in ff_tensor_names(cfg, 0))
    total = sum(int(np.prod(shapes[n])) for n in shapes if n.startswith("layer0."))
    return ff, total


def matched_drop_count(cfg: ModelConfig, k: int) -> int:
    """Whole-layer drop count closest to the parameter saving of a k-merge.

    Merging a k-window frees k-1 feed-forwards; dropping removes full layers,
    so the match is approximate. At least one layer, at most n_layers - 1.
    """
    ff, total = _layer_parameter_counts(cfg)
    count = round((k - 1) * ff / total)
    return max(1, min(cfg.n_layers - 1, count))

