"""Merging groups of adjacent feed-forward sublayers into one shared copy.

One window member is the anchor; every other member is permutation-aligned
to it, the aligned parameter sets are averaged, and all members' tensors are
re-pointed at the single merged copy, owned by the window's first layer. The
result keeps the layer count and the per-layer residual structure but stores
k feed-forwards as one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import (Permutation, apply_permutation, centered as center_layer,
                        cross_correlation, matched_score, solve_assignment)
from .engine import ActivationSet, FFParams, TransformerModel, ff_params

ANCHOR_POSITIONS = ("first", "middle", "last")


@dataclass(frozen=True)
class MergeSpec:
    """A contiguous window of k feed-forwards to collapse into one.

    The window covers layers start..start+k-1 inclusive. ``middle`` anchors
    at start + (k-1)//2. With use_permutation False the members are averaged
    in their stored unit order.
    """

    start: int
    k: int
    anchor_position: str = "first"
    use_permutation: bool = True

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"merge window needs k >= 2, got {self.k}")
        if self.start < 0:
            raise ValueError(f"window start must be >= 0, got {self.start}")
        if self.anchor_position not in ANCHOR_POSITIONS:
            raise ValueError(
                f"anchor_position must be one of {ANCHOR_POSITIONS}, "
                f"got {self.anchor_position!r}"
            )

    @property
    def layers(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.start + self.k))

    @property
    def anchor_layer(self) -> int:
        if self.anchor_position == "first":
            return self.start
        if self.anchor_position == "last":
            return self.start + self.k - 1
        return self.start + (self.k - 1) // 2


def _mean32(arrays: list[np.ndarray]) -> np.ndarray:
    stacked = np.stack([np.asarray(a, dtype=np.float64) for a in arrays])
    return stacked.mean(axis=0).astype(np.float32)


def merge_ff(anchor: FFParams, others: list[FFParams],
             perms: list[Permutation]) -> FFParams:
    """Average an anchor with permutation-aligned other members.

    Each non-anchor member is reordered by its permutation, then every
    tensor is averaged uniformly; b_out has no hidden axis and is averaged
    as-is.
    """
    if len(others) != len(perms):
        raise ValueError("need exactly one permutation per non-anchor member")
    aligned = [anchor] + [apply_permutation(o, p) for o, p in zip(others, perms)]
    return FFParams({base: _mean32([a[base] for a in aligned]) for base in anchor})


@dataclass(frozen=True)
class MemberAlignment:
    """How one non-anchor member was matched to the anchor."""

    layer: int
    permutation: Permutation
    mean_matched_correlation: float


@dataclass(frozen=True)
class MergeDiagnostics:
    """What a window merge did: the window, the anchor, per-member matches."""

    spec: MergeSpec
    members: tuple[MemberAlignment, ...]


def _member_permutation(ref: tuple, other: tuple,
                        use_permutation: bool) -> tuple[Permutation, float]:
    corr = cross_correlation(ref, other)
    if use_permutation:
        perm = solve_assignment(corr)
    else:
        perm = Permutation.identity(len(corr))
    return perm, matched_score(corr, perm) / len(corr)


def merge_window(model: TransformerModel, acts: ActivationSet, spec: MergeSpec,
                 *, centered: dict[int, tuple] | None = None,
                 ) -> tuple[TransformerModel, MergeDiagnostics]:
    """Merge one window of feed-forwards and tie all members to the result.

    ``acts`` must be an ff_pre_act capture of ``model``: one matrix per
    layer, each of width d_ff. Returns a new model (the input is untouched)
    whose window members alias one merged parameter set, plus per-member
    alignment diagnostics.

    Each window layer is centered once (``alignment.centered``), before any
    assignment is solved. ``centered`` is an optional memo from layer index
    to its centered capture: layers found there are reused, the others are
    added. A caller may share one memo across merges of the same ``acts``.
    """
    cfg = model.config
    if spec.start + spec.k > cfg.n_layers:
        raise ValueError(
            f"window {spec.start}..{spec.start + spec.k - 1} does not fit in "
            f"{cfg.n_layers} layers"
        )
    if acts.tap != "ff_pre_act":
        raise ValueError(f"alignment needs the ff_pre_act tap, got {acts.tap!r}")
    if len(acts.per_layer) != cfg.n_layers:
        raise ValueError(f"activation set holds {len(acts.per_layer)} layers, "
                         f"the model {cfg.n_layers}")
    if acts.width != cfg.d_ff:
        raise ValueError(
            f"activation width {acts.width} does not match d_ff {cfg.d_ff}"
        )
    memo = {} if centered is None else centered
    for i in spec.layers:
        if i not in memo:
            memo[i] = center_layer(acts.per_layer[i])
    anchor_layer = spec.anchor_layer
    other_layers = [i for i in spec.layers if i != anchor_layer]
    members = []
    perms = []
    for i in other_layers:
        perm, mean_corr = _member_permutation(memo[anchor_layer], memo[i],
                                              spec.use_permutation)
        perms.append(perm)
        members.append(MemberAlignment(layer=i, permutation=perm,
                                       mean_matched_correlation=mean_corr))
    merged = merge_ff(ff_params(model, anchor_layer),
                      [ff_params(model, i) for i in other_layers], perms)
    # every member's names give the merged tensors, so the window's first layer owns them
    tied = {f"layer{i}.ff.{base}": arr for i in spec.layers for base, arr in merged.items()}
    store = model.store.copy({name: tied.get(name, model.store.get(name))
                              for name in model.store.names})
    return TransformerModel(cfg, store), MergeDiagnostics(spec, tuple(members))
