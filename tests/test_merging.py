"""Merging tests: window specs, parameter averaging against scalar
oracles, whole-model window merging with alias tying, centering each
window layer once, refusing a capture that holds NaN or Inf, and the
merge's indifference to how each member's hidden units are ordered."""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ffmerge.merging as merging_mod
from ffmerge.alignment import Permutation, apply_permutation
from ffmerge.checkpoint import serialize_container, tie_report
from ffmerge.config import MODES, NORM_PLACEMENTS, ff_param_basenames, ff_tensor_names
from ffmerge.datasets import Dataset
from ffmerge.engine import (ActivationSet, EvalMetric, FFParams, TransformerModel,
                            capture_activations, evaluate, ff_forward, ff_params)
from ffmerge.fixtures import (default_config, permuted_copy_model,
                              random_model, token_sequences)
from ffmerge.merging import MergeSpec, merge_ff, merge_window
from ffmerge.selection import select_best_window


def random_ff(rng, d_model=4, d_ff=6) -> FFParams:
    return FFParams(
        w_in=rng.normal(size=(d_ff, d_model)).astype(np.float32),
        b_in=rng.normal(size=d_ff).astype(np.float32),
        w_out=rng.normal(size=(d_model, d_ff)).astype(np.float32),
        b_out=rng.normal(size=d_model).astype(np.float32))


def merge_ff_oracle(anchor: FFParams, others, perms) -> FFParams:
    """Scalar-loop mean of the anchor and the permuted members."""
    stacked = [anchor] + [apply_permutation(p, s) for p, s in
                          zip(others, perms)]
    k = len(stacked)

    def mean_of(base):
        arrs = [p[base].astype(np.float64) for p in stacked]
        out = np.zeros_like(arrs[0])
        for idx in np.ndindex(out.shape):
            out[idx] = sum(a[idx] for a in arrs) / k
        return out.astype(np.float32)

    return FFParams({base: mean_of(base) for base in anchor})


class TestMergeSpec:
    def test_layers_and_anchor(self):
        spec = MergeSpec(start=3, k=4)
        assert spec.layers == (3, 4, 5, 6)
        assert spec.anchor_layer == 3
        assert MergeSpec(start=3, k=4, anchor_position="last").anchor_layer == 6
        assert MergeSpec(start=3, k=4,
                         anchor_position="middle").anchor_layer == 4
        assert MergeSpec(start=2, k=5,
                         anchor_position="middle").anchor_layer == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            MergeSpec(start=0, k=1)
        with pytest.raises(ValueError):
            MergeSpec(start=-1, k=2)
        with pytest.raises(ValueError):
            MergeSpec(start=0, k=2, anchor_position="center")


class TestMergeFF:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(90)
        anchor = random_ff(rng)
        others = [random_ff(rng) for _ in range(2)]
        perms = [Permutation(rng.permutation(6).astype(np.int64))
                 for _ in range(2)]
        merged = merge_ff(anchor, others, perms)
        oracle = merge_ff_oracle(anchor, others, perms)
        for base in ("w_in", "b_in", "w_out", "b_out"):
            np.testing.assert_allclose(merged[base],
                                       oracle[base], atol=1e-7)

    def test_identical_members_bit_exact(self):
        rng = np.random.default_rng(91)
        anchor = random_ff(rng)
        copies = [FFParams({b: a.copy() for b, a in anchor.items()})
                  for _ in range(3)]
        merged = merge_ff(anchor, copies, [Permutation.identity(6)] * 3)
        np.testing.assert_array_equal(merged["w_in"], anchor["w_in"])
        np.testing.assert_array_equal(merged["b_in"], anchor["b_in"])
        np.testing.assert_array_equal(merged["w_out"], anchor["w_out"])
        np.testing.assert_array_equal(merged["b_out"], anchor["b_out"])

    def test_zero_member_halves_anchor(self):
        rng = np.random.default_rng(92)
        anchor = random_ff(rng)
        zero = FFParams({b: np.zeros_like(a) for b, a in anchor.items()})
        merged = merge_ff(anchor, [zero], [Permutation.identity(6)])
        np.testing.assert_allclose(merged["w_in"], anchor["w_in"] / 2.0, atol=1e-7)
        np.testing.assert_allclose(merged["b_out"], anchor["b_out"] / 2.0, atol=1e-7)

    def test_permutation_consistent_members_reproduce_anchor(self):
        rng = np.random.default_rng(93)
        anchor = random_ff(rng)
        sigmas = [Permutation(rng.permutation(6).astype(np.int64))
                  for _ in range(3)]
        others = [apply_permutation(anchor, s) for s in sigmas]
        merged = merge_ff(anchor, others,
                          [Permutation(np.argsort(s.mapping)) for s in sigmas])
        for base in ("w_in", "b_in", "w_out", "b_out"):
            np.testing.assert_allclose(merged[base],
                                       anchor[base], atol=1e-6)

    def test_merged_function_between_members(self):
        rng = np.random.default_rng(94)
        anchor = random_ff(rng)
        other = random_ff(rng)
        merged = merge_ff(anchor, [other], [Permutation.identity(6)])
        x = rng.normal(size=4).astype(np.float32)
        # with identity permutations the pre-activations average exactly
        pre_m, _ = ff_forward(merged, x, "relu")
        pre_a, _ = ff_forward(anchor, x, "relu")
        pre_o, _ = ff_forward(other, x, "relu")
        np.testing.assert_allclose(pre_m, (pre_a + pre_o) / 2.0, atol=1e-5)

    def test_count_mismatch(self):
        rng = np.random.default_rng(95)
        with pytest.raises(ValueError, match="permutation"):
            merge_ff(random_ff(rng), [random_ff(rng)], [])


class TestMergeSwiglu:
    def test_identical_members_bit_exact(self):
        rng = np.random.default_rng(96)
        anchor = FFParams(
            w_up=rng.normal(size=(6, 4)).astype(np.float32),
            v_gate=rng.normal(size=(6, 4)).astype(np.float32),
            w_down=rng.normal(size=(4, 6)).astype(np.float32))
        copies = [FFParams({b: a.copy() for b, a in anchor.items()})
                  for _ in range(2)]
        merged = merge_ff(anchor, copies, [Permutation.identity(6)] * 2)
        np.testing.assert_array_equal(merged["w_up"], anchor["w_up"])
        np.testing.assert_array_equal(merged["v_gate"], anchor["v_gate"])
        np.testing.assert_array_equal(merged["w_down"], anchor["w_down"])

    def test_zero_member_halves_anchor(self):
        rng = np.random.default_rng(97)
        anchor = FFParams(
            w_up=rng.normal(size=(6, 4)).astype(np.float32),
            v_gate=rng.normal(size=(6, 4)).astype(np.float32),
            w_down=rng.normal(size=(4, 6)).astype(np.float32))
        zero = FFParams({b: np.zeros_like(a) for b, a in anchor.items()})
        merged = merge_ff(anchor, [zero], [Permutation.identity(6)])
        np.testing.assert_allclose(merged["w_up"], anchor["w_up"] / 2.0, atol=1e-7)
        np.testing.assert_allclose(merged["v_gate"], anchor["v_gate"] / 2.0,
                                   atol=1e-7)
        np.testing.assert_allclose(merged["w_down"], anchor["w_down"] / 2.0,
                                   atol=1e-7)


def fixture_with_acts(seed=7, ff_kind="relu"):
    cfg = default_config(n_layers=6, d_model=16, d_ff=64, ff_kind=ff_kind)
    fixture = permuted_copy_model(cfg, seed=seed)
    data = token_sequences(cfg, 24, 16, seed=seed + 1)
    acts = capture_activations(fixture.model, data, "ff_pre_act",
                               max_samples=200)
    return cfg, fixture, data, acts


class TestMergeWindow:
    def test_alias_structure(self):
        cfg, fixture, _, acts = fixture_with_acts()
        spec = MergeSpec(start=fixture.group_start, k=fixture.group_len)
        merged, diag = merge_window(fixture.model, acts, spec)
        anchor = spec.anchor_layer
        for layer in spec.layers:
            for base in ff_tensor_names(cfg, layer):
                if layer == anchor:
                    assert merged.store.alias_target(base) is None
                else:
                    assert merged.store.alias_target(base) is not None
                    target = merged.store.alias_target(base)
                    assert target == base.replace(f"layer{layer}.",
                                                  f"layer{anchor}.")
        assert diag.spec == spec
        assert len(diag.members) == fixture.group_len - 1

    def test_lossless_merge_on_permuted_copies(self):
        cfg, fixture, data, acts = fixture_with_acts()
        spec = MergeSpec(start=fixture.group_start, k=fixture.group_len)
        merged, diag = merge_window(fixture.model, acts, spec)
        toks = np.array([3, 9, 4, 12, 1, 6], dtype=np.int64)
        base_logits = fixture.model.forward(toks)
        merged_logits = merged.forward(toks)
        assert np.abs(merged_logits - base_logits).max() <= 1e-4
        # the recovered alignments undo the planted unit shuffles exactly
        for member in diag.members:
            planted = fixture.planted[member.layer]
            np.testing.assert_array_equal(member.permutation.mapping,
                                          np.argsort(planted.mapping))
            assert member.mean_matched_correlation == pytest.approx(1.0,
                                                                    abs=1e-6)

    def test_unique_parameter_reduction_arithmetic(self):
        cfg, fixture, _, acts = fixture_with_acts()
        spec = MergeSpec(start=fixture.group_start, k=fixture.group_len)
        merged, _ = merge_window(fixture.model, acts, spec)
        p = (cfg.d_ff * cfg.d_model + cfg.d_ff
             + cfg.d_model * cfg.d_ff + cfg.d_model)
        before, after = tie_report(fixture.model.store), tie_report(merged.store)
        assert before.unique_parameters - after.unique_parameters == (spec.k - 1) * p
        assert after.total_parameters == before.total_parameters

    def test_tie_report_on_twelve_layer_merge(self):
        cfg = default_config(n_layers=12, d_model=8, d_ff=16)
        model = random_model(cfg, seed=98)
        data = token_sequences(cfg, 8, 12, seed=99)
        acts = capture_activations(model, data, "ff_pre_act", max_samples=64)
        merged, _ = merge_window(model, acts, MergeSpec(start=4, k=5))
        report = tie_report(merged.store)
        p = (cfg.d_ff * cfg.d_model + cfg.d_ff
             + cfg.d_model * cfg.d_ff + cfg.d_model)
        assert report.total_parameters == tie_report(model.store).total_parameters
        assert report.unique_parameters == report.total_parameters - 4 * p
        tied = sum(1 for name in merged.store.names
                   if merged.store.alias_target(name) is not None)
        assert tied == 4 * len(ff_tensor_names(cfg, 0))
        assert report.reduction_ratio == pytest.approx(
            1.0 - report.unique_parameters / report.total_parameters)

    def test_vanilla_merge_deviates_more(self):
        cfg, fixture, data, acts = fixture_with_acts()
        start, k = fixture.group_start, fixture.group_len
        aligned, _ = merge_window(fixture.model, acts,
                                  MergeSpec(start=start, k=k))
        vanilla, _ = merge_window(fixture.model, acts,
                                  MergeSpec(start=start, k=k,
                                            use_permutation=False))
        base_acts = acts.per_layer[start]
        aligned_acts = capture_activations(aligned, data, "ff_pre_act",
                                           max_samples=200)
        vanilla_acts = capture_activations(vanilla, data, "ff_pre_act",
                                           max_samples=200)
        aligned_dev = np.abs(aligned_acts.per_layer[start] - base_acts).max()
        vanilla_dev = np.abs(vanilla_acts.per_layer[start] - base_acts).max()
        assert aligned_dev <= 1e-4
        assert vanilla_dev > 0.1

    def test_anchor_position_robustness(self):
        cfg, fixture, data, acts = fixture_with_acts()
        start, k = fixture.group_start, fixture.group_len
        toks = np.array([1, 8, 2, 14, 9, 4, 3], dtype=np.int64)
        outs = []
        for anchor in ("first", "middle", "last"):
            merged, _ = merge_window(
                fixture.model, acts,
                MergeSpec(start=start, k=k, anchor_position=anchor))
            outs.append(merged.forward(toks))
        for other in outs[1:]:
            assert np.abs(outs[0] - other).max() <= 1e-4

    def test_idempotent_on_tied_window(self):
        cfg, fixture, data, acts = fixture_with_acts()
        spec = MergeSpec(start=fixture.group_start, k=fixture.group_len)
        merged, _ = merge_window(fixture.model, acts, spec)
        acts2 = capture_activations(merged, data, "ff_pre_act",
                                    max_samples=200)
        again, diag2 = merge_window(merged, acts2, spec)
        toks = np.array([5, 2, 9, 13], dtype=np.int64)
        np.testing.assert_array_equal(again.forward(toks),
                                      merged.forward(toks))
        assert tie_report(again.store) == tie_report(merged.store)
        for member in diag2.members:
            assert member.permutation == Permutation.identity(cfg.d_ff)

    def test_remerge_with_different_anchor(self):
        cfg, fixture, data, acts = fixture_with_acts()
        start, k = fixture.group_start, fixture.group_len
        merged, _ = merge_window(fixture.model, acts,
                                 MergeSpec(start=start, k=k))
        acts2 = capture_activations(merged, data, "ff_pre_act",
                                    max_samples=200)
        again, _ = merge_window(merged, acts2,
                                MergeSpec(start=start, k=k,
                                          anchor_position="last"))
        toks = np.array([4, 4, 8, 1], dtype=np.int64)
        assert np.abs(again.forward(toks)
                      - merged.forward(toks)).max() <= 1e-4

    def test_swiglu_window_merge(self):
        cfg, fixture, data, acts = fixture_with_acts(seed=17,
                                                     ff_kind="swiglu")
        spec = MergeSpec(start=fixture.group_start, k=fixture.group_len)
        merged, _ = merge_window(fixture.model, acts, spec)
        toks = np.array([6, 3, 10, 2], dtype=np.int64)
        delta = np.abs(merged.forward(toks)
                       - fixture.model.forward(toks)).max()
        assert delta <= 1e-4

    def test_source_model_untouched(self):
        cfg, fixture, _, acts = fixture_with_acts()
        spec = MergeSpec(start=fixture.group_start, k=fixture.group_len)
        before = {name: fixture.model.store.get(name).copy()
                  for name in fixture.model.store.names}
        merge_window(fixture.model, acts, spec)
        for name, arr in before.items():
            np.testing.assert_array_equal(fixture.model.store.get(name), arr)
        assert not any(fixture.model.store.alias_target(n) is not None
                       for n in fixture.model.store.names)

    def test_errors(self):
        cfg, fixture, data, acts = fixture_with_acts()
        model = fixture.model
        with pytest.raises(ValueError, match="window"):
            merge_window(model, acts, MergeSpec(start=5, k=3))
        wrong_tap = capture_activations(model, data, "ff_out",
                                        max_samples=50)
        with pytest.raises(ValueError, match="tap"):
            merge_window(model, wrong_tap, MergeSpec(start=2, k=3))
        # a capture of another depth is refused, even where it covers the window
        for per_layer in (acts.per_layer[:2], acts.per_layer[:5], acts.per_layer * 2):
            with pytest.raises(ValueError, match=f"holds {len(per_layer)} layers, the model 6"):
                merge_window(model, replace(acts, per_layer=per_layer), MergeSpec(start=0, k=2))


def counting(monkeypatch, name: str) -> list:
    """Record the first argument of every call to ``merging.<name>``."""
    calls = []
    original = getattr(merging_mod, name)

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(merging_mod, name, spy)
    return calls


class TestCenterOnce:
    @pytest.mark.parametrize("anchor", ["first", "middle", "last"])
    def test_each_window_layer_centered_once(self, anchor, monkeypatch):
        cfg, fixture, _, acts = fixture_with_acts()
        calls = counting(monkeypatch, "center_layer")
        spec = MergeSpec(start=1, k=4, anchor_position=anchor)
        merge_window(fixture.model, acts, spec)
        assert sorted(id(x) for x in calls) == \
            sorted(id(acts.per_layer[i]) for i in spec.layers)

    def test_shared_memo_is_filled_and_reused(self, monkeypatch):
        cfg, fixture, _, acts = fixture_with_acts()
        calls = counting(monkeypatch, "center_layer")
        memo = {}
        first, first_diag = merge_window(fixture.model, acts,
                                         MergeSpec(start=0, k=3), centered=memo)
        assert sorted(memo) == [0, 1, 2] and len(calls) == 3
        second, second_diag = merge_window(fixture.model, acts,
                                           MergeSpec(start=1, k=3), centered=memo)
        assert sorted(memo) == [0, 1, 2, 3] and len(calls) == 4
        for spec, (merged, diag) in ((MergeSpec(start=0, k=3), (first, first_diag)),
                                     (MergeSpec(start=1, k=3), (second, second_diag))):
            alone, alone_diag = merge_window(fixture.model, acts, spec)
            assert diag == alone_diag
            for name in merged.store.names:
                np.testing.assert_array_equal(merged.store.get(name),
                                              alone.store.get(name))


def with_bad_value(acts: ActivationSet, layer: int, bad: float) -> ActivationSet:
    per_layer = list(acts.per_layer)
    per_layer[layer] = per_layer[layer].copy()
    per_layer[layer][3, 5] = bad
    return replace(acts, per_layer=tuple(per_layer))


class TestNonFiniteCapture:
    """A hand-built capture holding NaN or Inf is refused by ``centered``
    before any assignment is solved (``read_activations`` refuses such a
    file, so only library callers can get here)."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layer", [2, 3, 4])
    def test_merge_window_refuses(self, bad, layer, monkeypatch):
        cfg, fixture, _, acts = fixture_with_acts()
        solves = counting(monkeypatch, "solve_assignment")
        with pytest.raises(ValueError, match="x contains NaN or Inf") as info:
            merge_window(fixture.model, with_bad_value(acts, layer, bad),
                         MergeSpec(start=2, k=3, anchor_position="middle"))
        assert any(entry.name == "centered" for entry in info.traceback)
        assert solves == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("layer", [0, 2])
    def test_select_best_window_refuses(self, bad, layer, monkeypatch):
        cfg, fixture, data, acts = fixture_with_acts()
        solves = counting(monkeypatch, "solve_assignment")
        with pytest.raises(ValueError, match="x contains NaN or Inf") as info:
            select_best_window(fixture.model, with_bad_value(acts, layer, bad), 3,
                               data, EvalMetric("cross_entropy"))
        assert any(entry.name == "centered" for entry in info.traceback)
        assert solves == []


def surgery_case(kind: str, placement: str, mode: str, seed: int):
    """A random 4-layer model with d_ff 8 and a labelled token set."""
    cfg = replace(default_config(n_layers=4, d_model=8, d_ff=8, ff_kind=kind),
                  norm_placement=placement, mode=mode,
                  n_classes=3 if mode == "classifier" else None)
    tokens = token_sequences(cfg, 6, 10, seed=seed + 1)
    data = Dataset(tokens.sequences, np.arange(6) % 3 if mode == "classifier" else None)
    return random_model(cfg, seed), data


def permute_hidden(model: TransformerModel, layer: int, mapping) -> TransformerModel:
    """``model`` with one layer's feed-forward hidden units reordered: the
    same function, up to round-off in the sum over hidden units."""
    permuted = apply_permutation(ff_params(model, layer), Permutation(np.array(mapping)))
    cfg = model.config
    return TransformerModel(cfg, model.store.copy(
        {name: model.store.get(name) for name in model.store.names}
        | {name: permuted[base] for name, base
           in zip(ff_tensor_names(cfg, layer), ff_param_basenames(cfg))}))


def merged_with_capture(model: TransformerModel, data: Dataset, spec: MergeSpec):
    acts = capture_activations(model, data, "ff_pre_act", max_samples=60)
    return merge_window(model, acts, spec)[0]


def store_bytes(model: TransformerModel) -> bytes:
    return serialize_container(model.store, asdict(model.config))


class TestMergeIgnoresHiddenUnitOrder:
    """Metamorphic properties of the align-then-average merge. Reordering a
    member's hidden units is a function-preserving change of the model;
    the capture is retaken from the reordered model, as a user would."""

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["relu", "gelu", "swiglu"]),
           placement=st.sampled_from(NORM_PLACEMENTS), mode=st.sampled_from(MODES),
           anchor=st.sampled_from(["first", "middle", "last"]),
           start=st.integers(0, 1), seed=st.integers(0, 2**16), data=st.data())
    def test_member_order_leaves_merged_tensors_unchanged(
            self, kind, placement, mode, anchor, start, seed, data):
        model, tokens = surgery_case(kind, placement, mode, seed)
        spec = MergeSpec(start=start, k=3, anchor_position=anchor)
        member = data.draw(st.sampled_from(
            [i for i in spec.layers if i != spec.anchor_layer]))
        mapping = data.draw(st.permutations(range(8)))
        assume(mapping != list(range(8)))
        moved = permute_hidden(model, member, mapping)
        assert store_bytes(moved) != store_bytes(model)
        assert (store_bytes(merged_with_capture(moved, tokens, spec))
                == store_bytes(merged_with_capture(model, tokens, spec)))

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["relu", "gelu", "swiglu"]),
           placement=st.sampled_from(NORM_PLACEMENTS), mode=st.sampled_from(MODES),
           anchor=st.sampled_from(["first", "middle", "last"]),
           start=st.integers(0, 1), seed=st.integers(0, 2**16),
           mapping=st.permutations(range(8)))
    def test_anchor_order_reorders_merged_tensors(
            self, kind, placement, mode, anchor, start, seed, mapping):
        assume(mapping != list(range(8)))
        model, tokens = surgery_case(kind, placement, mode, seed)
        spec = MergeSpec(start=start, k=3, anchor_position=anchor)
        merged = merged_with_capture(model, tokens, spec)
        moved = merged_with_capture(permute_hidden(model, spec.anchor_layer, mapping),
                                    tokens, spec)
        want = apply_permutation(ff_params(merged, spec.anchor_layer),
                                 Permutation(np.array(mapping)))
        for i in spec.layers:  # every member is tied to the reordered tensors
            got = ff_params(moved, i)
            assert all(got[base].tobytes() == want[base].tobytes() for base in want)
        window = tuple(f"layer{i}.ff." for i in spec.layers)
        assert all(moved.store.get(n).tobytes() == merged.store.get(n).tobytes()
                   for n in merged.store.names if not n.startswith(window))
        metric = EvalMetric("cross_entropy")
        assert abs(evaluate(moved, tokens, metric)
                   - evaluate(merged, tokens, metric)) <= 1e-12
