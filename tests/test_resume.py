"""Resumed evaluation: a candidate that shares its first layers with a base
model is scored from the base's residual stream at its first changed layer,
which ``evaluate`` finds itself. A differential test holds every resumed
sweep score to the standalone score bit for bit and each candidate to its
own start; an edited, reloaded or shortened model resumes earlier, not
wrongly; and one test per guard shows each bad resume refused."""

import contextlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffmerge import engine
from ffmerge.checkpoint import ParameterStore
from ffmerge.datasets import Dataset
from ffmerge.engine import (EvalMetric, TransformerModel, capture_activations,
                            evaluate, ff_params, load_model, residual_prefix,
                            save_model)
from ffmerge.fixtures import default_config, random_model, token_sequences
from ffmerge.merging import ANCHOR_POSITIONS, MergeSpec, merge_window
from ffmerge.selection import drop_layers, select_best_drop, select_best_window

N_LAYERS = 4
XENT = EvalMetric("cross_entropy")


def small_model(ff_kind: str, placement: str, mode: str, seed: int):
    cfg = replace(default_config(n_layers=N_LAYERS, d_model=8, d_ff=8,
                                 ff_kind=ff_kind), norm_placement=placement)
    if mode != "lm":
        cfg = replace(cfg, mode="classifier", n_classes=3, pooling=mode)
    return random_model(cfg, seed)


def ragged(cfg, lengths, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    seqs = [rng.integers(1, cfg.vocab_size, size=n).astype(np.uint32)
            for n in lengths]
    labels = None if cfg.mode == "lm" else rng.integers(0, cfg.n_classes,
                                                        size=len(seqs))
    return Dataset(sequences=seqs, labels=labels)


@contextlib.contextmanager
def resumes():
    """Yield the list of the layers every scoring ``_run`` (one handed a
    stream) starts at; the prefix and capture runs are handed none."""
    starts = []
    run = engine._run

    def recording(*args, **kwargs):
        if "x" in kwargs:
            starts.append(kwargs["start"])
        return run(*args, **kwargs)

    with mock.patch.object(engine, "_run", recording):
        yield starts


class TestResumeMatchesStandalone:
    @settings(max_examples=30, deadline=None)
    @given(ff_kind=st.sampled_from(["relu", "gelu", "swiglu"]),
           placement=st.sampled_from(["pre_ln", "post_ln"]),
           mode=st.sampled_from(["lm", "cls", "mean"]),
           lengths=st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1, max_size=6),
           tie=st.none() | st.tuples(st.integers(0, N_LAYERS - 2),
                                     st.sampled_from(ANCHOR_POSITIONS)),
           seed=st.integers(0, 2**16))
    def test_every_window_and_drop(self, ff_kind, placement, mode, lengths,
                                   tie, seed):
        model = small_model(ff_kind, placement, mode, seed)
        data = ragged(model.config, lengths + [1, 2], seed + 1)
        acts = capture_activations(model, data, "ff_pre_act", max_samples=1000)
        if tie is not None:  # sweep a checkpoint already tied over two layers
            model = merge_window(model, acts, MergeSpec(tie[0], 2, tie[1]))[0]
        batches = len(residual_prefix(model, data, 0).batches)
        for k in range(2, N_LAYERS + 1):
            with resumes() as starts:
                report, _ = select_best_window(model, acts, k, data, XENT,
                                               include_final_window=True)
            # each candidate resumes at its own start, so no sweep work moves
            assert starts == [c.start for c in report.candidates for _ in range(batches)]
            for cand in report.candidates:
                direct = merge_window(model, acts, MergeSpec(cand.start, k))[0]
                assert cand.score == evaluate(direct, data, XENT)
        for count in range(1, N_LAYERS):
            with resumes() as starts:
                report, _ = select_best_drop(model, count, data, XENT)
            assert starts == [c.start for c in report.candidates for _ in range(batches)]
            for cand in report.candidates:
                direct = drop_layers(model, cand.start, count)
                assert cand.score == evaluate(direct, data, XENT)
        # from a prefix through every layer, a model changed in layer i
        # resumes at i, the first and last too, and the model itself at the head
        prefix = residual_prefix(model, data, N_LAYERS)
        for layer in range(N_LAYERS + 1):
            name = f"layer{layer}.ln2.bias"
            candidate = model if layer == N_LAYERS else edited(
                model, **{name: model.store.get(name) + 1.0})
            with resumes() as starts:
                score = evaluate(candidate, data, XENT, prefix=prefix)
            assert starts == [layer] * batches
            assert score == evaluate(candidate, data, XENT)

    @pytest.mark.parametrize("placement", ["pre_ln", "post_ln"])
    def test_lm_length_one_sequences(self, placement):
        # they run in the prefix padded beside the longer ones and score nothing
        model = small_model("gelu", placement, "lm", seed=9)
        data = ragged(model.config, [1, 3, 1, 4, 1, 3, 1], seed=10)
        prefix = residual_prefix(model, data, N_LAYERS)
        assert [(lens.tolist(), toks.shape) for _, lens, toks, _ in prefix.batches] == [
            ([4, 3, 3, 1, 1, 1, 1], (7, 4))]
        acts = capture_activations(model, data, "ff_pre_act", max_samples=1000)
        report, _ = select_best_window(model, acts, 2, data, XENT,
                                       include_final_window=True)
        for cand in report.candidates:
            direct = merge_window(model, acts, MergeSpec(cand.start, 2))[0]
            assert cand.score == evaluate(direct, data, XENT)
        report, _ = select_best_drop(model, 1, data, XENT)
        for cand in report.candidates:
            assert cand.score == evaluate(drop_layers(model, cand.start, 1), data, XENT)


class TestSweepChecksTokens:
    @pytest.mark.parametrize("sweep", ["window", "drop"])
    def test_each_eval_sequence_once(self, monkeypatch, sweep):
        # in the prefix; every candidate, the start-0 one too, resumes from it
        # and scores its checked batches
        model = small_model("gelu", "pre_ln", "lm", seed=11)
        data = ragged(model.config, [5, 3, 5, 2], seed=12)
        acts = capture_activations(model, data, "ff_pre_act", max_samples=1000)
        checked = []
        check = engine._check_tokens

        def counting_check(config, tokens):
            checked.append(len(tokens))
            return check(config, tokens)

        monkeypatch.setattr(engine, "_check_tokens", counting_check)
        if sweep == "window":
            report, _ = select_best_window(model, acts, 2, data, XENT,
                                           include_final_window=True)
        else:
            report, _ = select_best_drop(model, 1, data, XENT)
        assert len(report.candidates) >= 3
        assert checked == [len(seq) for seq in data.sequences]


@pytest.fixture
def base():
    model = small_model("gelu", "pre_ln", "lm", seed=5)
    data = ragged(model.config, [1, 4, 4, 6], seed=6)
    return model, data, residual_prefix(model, data, 2)


def edited(model: TransformerModel, **tensors) -> TransformerModel:
    store = model.store
    return TransformerModel(model.config, store.copy(
        {name: store.get(name) for name in store.names} | tensors))


class TestResumeRefused:
    """Only another dataset object or another config is refused. Every other
    candidate resumes at its first layer that is not the prefix model's, so
    one that shares less resumes earlier, and scores as it does alone."""

    def test_accepted_when_only_later_layers_change(self, base):
        model, data, prefix = base
        changed = edited(model, **{"layer1.attn.bq": np.ones(8), "head.b":
                                   np.ones(model.config.vocab_size)})
        with resumes() as starts:
            score = evaluate(changed, data, XENT, prefix=prefix)
        assert starts == [1] and score == evaluate(changed, data, XENT)

    def test_another_dataset_object(self, base):
        model, data, prefix = base
        same_tokens = Dataset(sequences=list(data.sequences))
        with pytest.raises(ValueError, match="another dataset"):
            evaluate(model, same_tokens, XENT, prefix=prefix)

    @pytest.mark.parametrize("edit", ["reverse", "retoken", "append", "remove"])
    def test_dataset_edited_after_the_prefix(self, base, edit):
        # a dataset is frozen, so it still holds the tokens the prefix ran;
        # an append would be a new length and a batch of its own, a remove
        # the only sequence of its length
        model, data, prefix = base
        seqs, before = data.sequences, [s.tolist() for s in data.sequences]
        error = {"retoken": ValueError, "append": AttributeError}.get(edit, TypeError)
        with pytest.raises(error):
            if edit == "reverse":
                seqs[1] = seqs[1][::-1].copy()
            elif edit == "retoken":
                seqs[3][0] = (seqs[3][0] + 1) % model.config.vocab_size
            elif edit == "append":
                seqs.append(seqs[1][:3].copy())
            else:
                del seqs[3]
        assert [s.tolist() for s in data.sequences] == before
        assert evaluate(model, data, XENT, prefix=prefix) == evaluate(model, data, XENT)

    def test_trailing_token_zero_removed(self):
        # dropping it leaves the padded token matrix as it was and changes
        # only a length, which a classifier's streams attended to; neither
        # the caller's list nor the dataset's own tuple can drop it now
        model = small_model("gelu", "pre_ln", "mean", seed=7)
        seqs = [np.array([7, 3, 2, 9]), np.array([5, 0])]
        data = Dataset(sequences=seqs, labels=np.array([0, 1]))
        prefix = residual_prefix(model, data, 2)
        seqs[1] = seqs[1][:1]
        with pytest.raises(TypeError):
            data.sequences[1] = data.sequences[1][:1]
        assert data.sequences[1].tolist() == [5, 0]
        assert evaluate(model, data, XENT, prefix=prefix) == evaluate(model, data, XENT)

    def test_callers_edits_after_the_prefix(self):
        # a classifier whose caller's list grows keeps its own sequences, so
        # labels and sequences still pair up one to one
        model = small_model("gelu", "pre_ln", "cls", seed=8)
        seqs, labels = [np.array([7, 3, 2, 9]), np.array([5, 1])], np.array([0, 2])
        data = Dataset(sequences=seqs, labels=labels)
        prefix = residual_prefix(model, data, 2)
        seqs[0][1] = 4
        seqs[1] = seqs[1][::-1]
        seqs.append(np.array([6, 6]))
        labels[0] = 1
        assert [s.tolist() for s in data.sequences] == [[7, 3, 2, 9], [5, 1]]
        assert data.labels.tolist() == [0, 2]
        assert evaluate(model, data, XENT, prefix=prefix) == evaluate(model, data, XENT)

    @pytest.mark.parametrize("stop", [0, 2, N_LAYERS])
    def test_unchanged_model_resumes_at_the_prefix_stop(self, base, stop):
        # at 0 the stream is the embedding _run makes itself; at N_LAYERS
        # only the head runs
        model, data, _ = base
        with resumes() as starts:
            score = evaluate(model, data, XENT, prefix=residual_prefix(model, data, stop))
        assert starts == [stop] and score == evaluate(model, data, XENT)

    def test_config_differs_beyond_n_layers(self, base):
        model, data, prefix = base
        other = TransformerModel(replace(model.config, separator_id=1), model.store)
        with pytest.raises(ValueError, match="config differs"):
            evaluate(other, data, XENT, prefix=prefix)

    @pytest.mark.parametrize("name,stop", [("embed.pos", 1), ("embed.tok", 2),
                                           ("layer0.ff.w_out", 1),
                                           ("layer1.ln2.gain", 2)])
    def test_equal_but_not_shared_tensor_below_start(self, base, name, stop):
        # an equal copy is another array: the candidate resumes at its layer
        # (0 for an embedding) below the prefix's stop, never past it
        model, data, _ = base
        other = edited(model, **{name: model.store.get(name).copy()})
        with resumes() as starts:
            score = evaluate(other, data, XENT, prefix=residual_prefix(model, data, stop))
        assert starts == [int(name[5]) if name.startswith("layer") else 0]
        assert score == evaluate(other, data, XENT)

    def test_reloaded_model_shares_nothing(self, base, tmp_path):
        model, data, prefix = base
        save_model(model, tmp_path / "m.ffmc")
        reloaded = load_model(tmp_path / "m.ffmc")
        with resumes() as starts:
            score = evaluate(reloaded, data, XENT, prefix=prefix)
        assert starts == [0] and score == evaluate(reloaded, data, XENT)

    def test_candidate_with_fewer_layers_than_start(self, base):
        # one layer left, fewer than the prefix's stop 2: a kept layer 0
        # resumes at the head, layer 3 renamed layer 0 at layer 0
        model, data, prefix = base
        for drop_start, resumed in ((1, 1), (0, 0)):
            short = drop_layers(model, drop_start, 3)
            with resumes() as starts:
                score = evaluate(short, data, XENT, prefix=prefix)
            assert starts == [resumed] and score == evaluate(short, data, XENT)


class TestReadOnlyPayloads:
    def test_write_through_ff_params_raises(self, base):
        model = base[0]
        with pytest.raises(ValueError, match="read-only"):
            ff_params(model, 0)["w_in"][:] = 0.0

    def test_write_through_loaded_store_raises(self, base, tmp_path):
        save_model(base[0], tmp_path / "m.ffmc")
        loaded = load_model(tmp_path / "m.ffmc")
        with pytest.raises(ValueError, match="read-only"):
            loaded.store.get("embed.tok")[0, 0] = 1.0

    def test_writes_through_a_callers_buffer_do_not_stale_a_resume(self):
        # every tensor is built as a view into one writable buffer; an edit
        # of the buffer must reach neither the model nor its resumed score
        cfg = default_config(4, 16, 32)
        model = random_model(cfg, 0)
        data = token_sequences(cfg, 4, 16, 1)
        buffer = np.concatenate([model.store.get(n).ravel() for n in model.store.names])
        views, end = {}, 0
        for name in model.store.names:
            shape = model.store.get(name).shape
            views[name] = buffer[end:end + np.prod(shape)].reshape(shape)
            end += views[name].size
        built = TransformerModel(cfg, ParameterStore(views))
        prefix = residual_prefix(built, data, 3)
        buffer *= 1.5
        score = evaluate(model, data, XENT)
        assert evaluate(built, data, XENT, prefix=prefix) == score
        assert evaluate(built, data, XENT) == score

    def test_capture_is_read_only_and_stored_uncopied(self, base):
        model, data, _ = base
        acts = capture_activations(model, data, "ff_out", max_samples=9)
        for m in acts.per_layer:
            assert not m.flags.writeable and m.shape[0] == 9
            assert ParameterStore({"a": m}).get("a") is m

    def test_merge_shares_untouched_tensors(self, base):
        model, data, _ = base
        acts = capture_activations(model, data, "ff_pre_act", max_samples=20)
        merged = merge_window(model, acts, MergeSpec(1, 2))[0]
        assert merged.store.get("layer0.ff.w_in") is model.store.get("layer0.ff.w_in")
        assert merged.store.get("layer3.attn.wq") is model.store.get("layer3.attn.wq")
        assert merged.store.get("layer1.ff.w_in") is not model.store.get("layer1.ff.w_in")
