"""Selection tests: window enumeration, the one candidate sweep behind
merge selection and the layer-drop baseline, the selection report, and
sweep scores that do not depend on how hidden units are ordered."""

import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ffmerge.engine as engine_mod
import ffmerge.selection as selection_mod
from ffmerge.checkpoint import serialize_container, tie_report
from ffmerge.alignment import Permutation, apply_permutation
from ffmerge.config import MODES, NORM_PLACEMENTS, ff_param_basenames, ff_tensor_names
from ffmerge.datasets import Dataset
from ffmerge.engine import (ActivationSet, EvalMetric, TransformerModel,
                            capture_activations, evaluate, ff_params)
from ffmerge.fixtures import (default_config, duplicate_model,
                              greedy_sequences, permuted_copy_model,
                              random_model, token_sequences,
                              zeroed_layer_model)
from ffmerge.merging import MergeSpec, merge_window
from ffmerge.selection import (SelectionReport, WindowCandidate, drop_layers,
                               enumerate_drop_starts, enumerate_windows,
                               matched_drop_count, select_best_drop,
                               select_best_window)


class TestEnumerateWindows:
    def test_counts(self):
        assert enumerate_windows(12, 5) == [0, 1, 2, 3, 4, 5, 6]
        assert enumerate_windows(12, 5, include_final_window=True) == \
            [0, 1, 2, 3, 4, 5, 6, 7]
        assert enumerate_windows(6, 3) == [0, 1, 2]
        assert enumerate_windows(6, 3, include_final_window=True) == \
            [0, 1, 2, 3]

    def test_full_width_window(self):
        assert enumerate_windows(4, 4) == []
        assert enumerate_windows(4, 4, include_final_window=True) == [0]

    def test_errors(self):
        with pytest.raises(ValueError):
            enumerate_windows(4, 1)
        with pytest.raises(ValueError):
            enumerate_windows(4, 5)


class TestSelectionReport:
    def make_report(self):
        cands = (WindowCandidate(0, 1.5), WindowCandidate(1, 1.2))
        return SelectionReport(k=3, anchor_position="first",
                               use_permutation=True, candidates=cands,
                               best=cands[1])

    def test_json_schema(self):
        doc = json.loads(self.make_report().to_json())
        assert set(doc) == {"k", "anchor", "use_permutation", "candidates",
                            "best"}
        assert doc["candidates"] == [{"start": 0, "score": 1.5},
                                     {"start": 1, "score": 1.2}]
        assert doc["best"] == {"start": 1, "score": 1.2}

    def test_infinite_scores_round_trip(self):
        # an overflowing perplexity is +inf; JSON writes it as Infinity
        cands = (WindowCandidate(0, float("inf")), WindowCandidate(1, 2.5),
                 WindowCandidate(2, float("inf")))
        report = SelectionReport(k=2, anchor_position=None, use_permutation=False,
                                 candidates=cands, best=cands[1])
        text = report.to_json()
        assert text.count('"score": Infinity') == 2
        assert json.loads(text) == {
            "k": 2, "anchor": None, "use_permutation": False,
            "candidates": [{"start": 0, "score": float("inf")},
                           {"start": 1, "score": 2.5},
                           {"start": 2, "score": float("inf")}],
            "best": {"start": 1, "score": 2.5}}


def selection_fixture():
    cfg = default_config(n_layers=6, d_model=16, d_ff=64, ff_kind="relu")
    fixture = permuted_copy_model(cfg, seed=7)
    capture_data = token_sequences(cfg, 24, 16, seed=3)
    acts = capture_activations(fixture.model, capture_data, "ff_pre_act",
                               max_samples=200)
    eval_data = greedy_sequences(fixture.model, 8, 24, seed=11)
    return cfg, fixture, acts, eval_data


class TestSelectBestWindow:
    def test_finds_redundant_group(self):
        cfg, fixture, acts, eval_data = selection_fixture()
        metric = EvalMetric("cross_entropy")
        report, merged = select_best_window(fixture.model, acts, 3,
                                            eval_data, metric)
        assert [c.start for c in report.candidates] == [0, 1, 2]
        assert report.best.start == fixture.group_start == 2
        base_score = evaluate(fixture.model, eval_data, metric)
        assert abs(report.best.score - base_score) <= 1e-4
        assert evaluate(merged, eval_data, metric) == report.best.score
        # the other windows damage layers that carry independent weights
        for cand in report.candidates:
            if cand.start != report.best.start:
                assert cand.score > base_score + 0.1

    def test_no_recapture_during_selection(self, monkeypatch):
        cfg, fixture, acts, eval_data = selection_fixture()

        def boom(*args, **kwargs):
            raise AssertionError("selection must reuse the provided capture")

        monkeypatch.setattr(engine_mod, "capture_activations", boom)
        if hasattr(selection_mod, "capture_activations"):
            monkeypatch.setattr(selection_mod, "capture_activations", boom)
        report, _ = select_best_window(fixture.model, acts, 3, eval_data,
                                       EvalMetric("cross_entropy"))
        assert report.best.start == 2

    def test_tie_breaks_to_smallest_start(self):
        cfg = default_config(n_layers=5, d_model=16, d_ff=32)
        model = duplicate_model(cfg, seed=5)
        data = token_sequences(cfg, 12, 12, seed=6)
        acts = capture_activations(model, data, "ff_pre_act", max_samples=100)
        eval_data = token_sequences(cfg, 6, 16, seed=8)
        report, _ = select_best_window(model, acts, 2, eval_data,
                                       EvalMetric("cross_entropy"))
        scores = [c.score for c in report.candidates]
        assert max(scores) - min(scores) <= 1e-9
        assert report.best.start == 0

    def test_deterministic(self):
        cfg, fixture, acts, eval_data = selection_fixture()
        metric = EvalMetric("cross_entropy")
        a, _ = select_best_window(fixture.model, acts, 3, eval_data, metric)
        b, _ = select_best_window(fixture.model, acts, 3, eval_data, metric)
        assert a == b

    def test_accuracy_metric_maximizes(self):
        cfg, fixture, acts, eval_data = selection_fixture()
        report, _ = select_best_window(fixture.model, acts, 3, eval_data,
                                       EvalMetric("accuracy"))
        assert report.best.score == max(c.score for c in report.candidates)
        assert report.best.start == 2

    def test_no_candidates_error(self):
        cfg = default_config(n_layers=3, d_model=8, d_ff=16)
        model = random_model(cfg, seed=9)
        data = token_sequences(cfg, 4, 8, seed=10)
        acts = capture_activations(model, data, "ff_pre_act", max_samples=20)
        with pytest.raises(ValueError, match="include_final_window"):
            select_best_window(model, acts, 3, data,
                               EvalMetric("cross_entropy"))


class TestDropLayers:
    def test_count_zero_is_identity(self):
        cfg = default_config(n_layers=3, d_model=8, d_ff=16)
        model = random_model(cfg, seed=11)
        out = drop_layers(model, 0, 0)
        assert out.config == model.config
        toks = np.array([1, 5, 2], dtype=np.int64)
        np.testing.assert_array_equal(out.forward(toks), model.forward(toks))

    def test_dropping_zeroed_layer_preserves_function(self):
        cfg = default_config(n_layers=5, d_model=16, d_ff=32)
        model = zeroed_layer_model(cfg, zero_layer=2, seed=19)
        out = drop_layers(model, 2, 1)
        assert out.config.n_layers == 4
        toks = np.array([3, 8, 1, 12, 7], dtype=np.int64)
        assert np.abs(out.forward(toks) - model.forward(toks)).max() <= 1e-5

    def test_reindexing(self):
        cfg = default_config(n_layers=4, d_model=8, d_ff=16)
        model = random_model(cfg, seed=12)
        out = drop_layers(model, 1, 2)
        assert out.config.n_layers == 2
        # kept layers 0 and 3 become 0 and 1
        np.testing.assert_array_equal(out.store.get("layer0.ff.w_in"),
                                      model.store.get("layer0.ff.w_in"))
        np.testing.assert_array_equal(out.store.get("layer1.ff.w_in"),
                                      model.store.get("layer3.ff.w_in"))

    def test_parameter_count_reduction(self):
        cfg = default_config(n_layers=6, d_model=16, d_ff=64)
        model = random_model(cfg, seed=13)
        out = drop_layers(model, 0, 2)
        total = tie_report(model.store).total_parameters
        per_layer = (total - sum(int(np.prod(model.store.get(n).shape))
                                 for n in model.store.names
                                 if not n.startswith("layer"))) // cfg.n_layers
        assert total - tie_report(out.store).total_parameters == 2 * per_layer

    def test_tied_group_survives_partial_drop(self):
        cfg, fixture, acts, _ = selection_fixture()
        merged, _ = merge_window(fixture.model, acts,
                                 MergeSpec(start=2, k=3))
        # drop the anchor layer 2; members 3 and 4 become layers 2 and 3
        out = drop_layers(merged, 2, 1)
        assert out.config.n_layers == 5
        for base in ff_tensor_names(cfg, 2):
            assert out.store.alias_target(base) is None
        for base in ff_tensor_names(cfg, 3):
            assert out.store.alias_target(base) is not None
            assert out.store.alias_target(base) == base.replace("layer3.",
                                                                "layer2.")
        toks = np.array([2, 9, 4], dtype=np.int64)
        out.forward(toks)  # still a valid model

    def test_drop_outside_group_keeps_aliases(self):
        cfg, fixture, acts, _ = selection_fixture()
        merged, _ = merge_window(fixture.model, acts, MergeSpec(start=2, k=3))
        out = drop_layers(merged, 0, 1)
        # group (2,3,4) shifts to (1,2,3); anchor moves to layer1
        for layer in (2, 3):
            for base in ff_tensor_names(cfg, layer):
                assert out.store.alias_target(base) is not None
                expected = base.replace(f"layer{layer}.", "layer1.")
                assert out.store.alias_target(base) == expected
        report = tie_report(out.store)
        assert report.unique_parameters < report.total_parameters

    def test_drop_keeps_surviving_owner(self):
        cfg, fixture, acts, _ = selection_fixture()
        # a middle-anchored group over layers 2-4 is owned by layer 2, its first
        merged, _ = merge_window(fixture.model, acts,
                                 MergeSpec(start=2, k=3, anchor_position="middle"))
        out = drop_layers(merged, 0, 1)
        for owner, base in zip(ff_tensor_names(cfg, 1), ff_tensor_names(cfg, 2)):
            assert out.store.alias_target(owner) is None
            assert out.store.get(owner) is merged.store.get(base)
            for member in (2, 3):
                alias = owner.replace("layer1.", f"layer{member}.")
                assert out.store.alias_target(alias) == owner

    def test_errors(self):
        cfg = default_config(n_layers=3, d_model=8, d_ff=16)
        model = random_model(cfg, seed=14)
        with pytest.raises(ValueError):
            drop_layers(model, 0, 3)
        with pytest.raises(ValueError):
            drop_layers(model, 2, 2)
        with pytest.raises(ValueError):
            drop_layers(model, -1, 1)


class TestSelectBestDrop:
    def test_enumerate_drop_starts(self):
        assert enumerate_drop_starts(12, 2) == list(range(11))
        assert enumerate_drop_starts(5, 1) == [0, 1, 2, 3, 4]
        assert enumerate_drop_starts(5, 4) == [0, 1]
        with pytest.raises(ValueError):
            enumerate_drop_starts(5, 0)
        with pytest.raises(ValueError):
            enumerate_drop_starts(5, 5)

    def test_finds_dead_layer(self):
        cfg = default_config(n_layers=5, d_model=16, d_ff=32)
        model = zeroed_layer_model(cfg, zero_layer=2, seed=19)
        eval_data = greedy_sequences(model, 8, 24, seed=23)
        metric = EvalMetric("cross_entropy")
        report, pruned = select_best_drop(model, 1, eval_data, metric)
        assert [c.start for c in report.candidates] == [0, 1, 2, 3, 4]
        assert report.best.start == 2
        assert pruned.config.n_layers == 4
        base_score = evaluate(model, eval_data, metric)
        assert abs(report.best.score - base_score) <= 1e-5
        for cand in report.candidates:
            if cand.start != 2:
                assert cand.score > base_score + 0.1

    def test_report_shape(self):
        cfg = default_config(n_layers=4, d_model=8, d_ff=16)
        model = random_model(cfg, seed=15)
        eval_data = token_sequences(cfg, 4, 12, seed=16)
        report, _ = select_best_drop(model, 2, eval_data,
                                     EvalMetric("cross_entropy"))
        assert report.k == 2
        assert report.anchor_position is None
        assert report.use_permutation is False
        assert len(report.candidates) == 3


class TestMatchedDropCount:
    def test_arithmetic(self):
        cfg = default_config(n_layers=6, d_model=16, d_ff=64)
        ff = 64 * 16 + 64 + 16 * 64 + 16
        attn = 4 * 16 * 16 + 4 * 16
        ln = 2 * 2 * 16
        total = ff + attn + ln
        for k in (2, 3, 4, 5):
            expected = max(1, min(5, round((k - 1) * ff / total)))
            assert matched_drop_count(cfg, k) == expected

    def test_clamped_to_valid_range(self):
        cfg = default_config(n_layers=2, d_model=8, d_ff=16)
        assert matched_drop_count(cfg, 2) == 1


def store_bytes(model) -> bytes:
    return serialize_container(model.store, asdict(model.config))


def merge_sweep(**options):
    """A k=3 window sweep with ``options`` and the direct build of one of
    its candidates."""
    spec_options = {key: options[key] for key in ("anchor_position", "use_permutation")
                    if key in options}
    return (lambda model, acts, data, metric:
            select_best_window(model, acts, 3, data, metric, **options),
            lambda model, acts, start:
            merge_window(model, acts, MergeSpec(start=start, k=3, **spec_options))[0])


# each sweep with the direct build of the candidate at one start
SWEEPS = {
    "merge": merge_sweep(),
    "merge-middle": merge_sweep(anchor_position="middle"),
    "merge-last": merge_sweep(anchor_position="last"),
    "merge-unaligned": merge_sweep(use_permutation=False),
    "merge-final": merge_sweep(include_final_window=True),
    "drop": (lambda model, acts, data, metric:
             select_best_drop(model, 2, data, metric),
             lambda model, acts, start: drop_layers(model, start, 2)),
}


@pytest.mark.parametrize("kind", sorted(SWEEPS))
class TestSweep:
    def test_scores_and_winner_match_direct_builds(self, kind):
        cfg, fixture, acts, eval_data = selection_fixture()
        sweep, build = SWEEPS[kind]
        metric = EvalMetric("cross_entropy")
        report, best = sweep(fixture.model, acts, eval_data, metric)
        for cand in report.candidates:
            direct = build(fixture.model, acts, cand.start)
            assert cand.score == evaluate(direct, eval_data, metric)
        assert report.best.score == min(c.score for c in report.candidates)
        direct_best = build(fixture.model, acts, report.best.start)
        assert best.config == direct_best.config
        assert store_bytes(best) == store_bytes(direct_best)

    @pytest.mark.parametrize("metric", ["cross_entropy", "accuracy"])
    def test_ties_go_to_smallest_start(self, kind, metric, monkeypatch):
        cfg, fixture, acts, eval_data = selection_fixture()
        sweep, build = SWEEPS[kind]
        monkeypatch.setattr(selection_mod, "evaluate", lambda *args, **kwargs: 0.5)
        report, best = sweep(fixture.model, acts, eval_data,
                             EvalMetric(metric))
        assert len(report.candidates) > 1
        assert report.best == report.candidates[0] == WindowCandidate(0, 0.5)
        assert store_bytes(best) == store_bytes(build(fixture.model, acts, 0))

    def test_infinite_scores_rank_and_tie(self, kind, monkeypatch):
        # every candidate but the last overflows to +inf: the finite one
        # wins; when all overflow, the tie rule keeps the smallest start
        cfg, fixture, acts, eval_data = selection_fixture()
        sweep, build = SWEEPS[kind]
        metric = EvalMetric("perplexity")
        n = len(sweep(fixture.model, acts, eval_data, metric)[0].candidates)
        scores = iter([float("inf")] * (n - 1) + [7.0])
        monkeypatch.setattr(selection_mod, "evaluate", lambda *a, **kw: next(scores))
        report, _ = sweep(fixture.model, acts, eval_data, metric)
        assert report.best == report.candidates[-1] == WindowCandidate(
            report.candidates[-1].start, 7.0)
        monkeypatch.setattr(selection_mod, "evaluate", lambda *a, **kw: float("inf"))
        report, best = sweep(fixture.model, acts, eval_data, metric)
        assert report.best == report.candidates[0]
        assert store_bytes(best) == store_bytes(build(fixture.model, acts, 0))


class TestWindowSweepMemory:
    def test_capture_left_unchanged(self):
        # float64 layers are where a centering that wrote in place would land
        cfg, fixture, acts, eval_data = selection_fixture()
        acts64 = ActivationSet(tap=acts.tap, per_layer=tuple(
            m.astype(np.float64) for m in acts.per_layer))
        for captured in (acts, acts64):
            before = [m.copy() for m in captured.per_layer]
            select_best_window(fixture.model, captured, 3, eval_data,
                               EvalMetric("cross_entropy"), include_final_window=True)
            assert len(captured.per_layer) == len(before)
            for got, m in zip(captured.per_layer, before):
                assert got.dtype == m.dtype
                np.testing.assert_array_equal(got, m)

    def test_peak_stays_below_k_plus_two_layer_copies(self, monkeypatch):
        # The sweep keeps at most k centered float64 layers, plus one being
        # centered and column_stats' variance temporary. Caching every
        # layer would hold all 8. The parent, which centered both sides of
        # every pair, read 4.09 copies here; this reads 4.09 too.
        n_layers, k, rows = 8, 3, 8192
        cfg = default_config(n_layers=n_layers, d_model=8, d_ff=16)
        model = random_model(cfg, seed=120)
        eval_data = token_sequences(cfg, 2, 8, seed=121)
        rng = np.random.default_rng(122)
        acts = ActivationSet(tap="ff_pre_act", per_layer=tuple(
            rng.normal(size=(rows, cfg.d_ff)).astype(np.float32) for _ in range(n_layers)))
        monkeypatch.setattr(selection_mod, "evaluate", lambda *args, **kwargs: 0.5)
        tracemalloc.start()
        try:
            select_best_window(model, acts, k, eval_data, EvalMetric("cross_entropy"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (k + 2) * rows * cfg.d_ff * 8


class TestSweepIgnoresHiddenUnitOrder:
    """Reordering one layer's feed-forward hidden units keeps the model's
    function, so it must keep every aligned sweep score; an unaligned sweep
    averages mismatched units and must notice, or the first property could
    not fail. The capture is retaken from the reordered model."""

    @settings(max_examples=15, deadline=None)
    @given(kind=st.sampled_from(["relu", "gelu", "swiglu"]),
           placement=st.sampled_from(NORM_PLACEMENTS), mode=st.sampled_from(MODES),
           anchor=st.sampled_from(["first", "middle", "last"]),
           layer=st.integers(0, 3), seed=st.integers(0, 2**16),
           mapping=st.permutations(range(8)))
    def test_aligned_scores_stay_and_unaligned_move(
            self, kind, placement, mode, anchor, layer, seed, mapping):
        assume(mapping != list(range(8)))
        cfg = replace(default_config(n_layers=4, d_model=8, d_ff=8, ff_kind=kind),
                      norm_placement=placement, mode=mode,
                      n_classes=3 if mode == "classifier" else None)
        model = random_model(cfg, seed)
        tokens = token_sequences(cfg, 6, 10, seed=seed + 1)
        data = Dataset(tokens.sequences,
                       np.arange(6) % 3 if mode == "classifier" else None)
        permuted = apply_permutation(ff_params(model, layer), Permutation(np.array(mapping)))
        moved = TransformerModel(cfg, model.store.copy(
            {name: model.store.get(name) for name in model.store.names}
            | {name: permuted[base] for name, base
               in zip(ff_tensor_names(cfg, layer), ff_param_basenames(cfg))}))

        def scores(m, use_permutation):
            acts = capture_activations(m, data, "ff_pre_act", max_samples=60)
            report, _ = select_best_window(
                m, acts, 3, data, EvalMetric("cross_entropy"), anchor_position=anchor,
                use_permutation=use_permutation, include_final_window=True)
            return np.array([c.score for c in report.candidates])

        # windows 0-2 and 1-3 together hold every layer
        assert np.abs(scores(moved, True) - scores(model, True)).max() <= 1e-12
        assert np.abs(scores(moved, False) - scores(model, False)).max() > 1e-6
