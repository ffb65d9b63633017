"""Fixture tests: seeded model generators, their structural guarantees,
and the token-sequence helpers."""

from dataclasses import replace

import numpy as np
import pytest

from ffmerge.alignment import (Permutation, apply_permutation, centered,
                               cross_correlation, solve_assignment)
from ffmerge.datasets import write_token_file
from ffmerge.engine import capture_activations, ff_params
from ffmerge.fixtures import (FIXTURE_KINDS, PROMPT_LEN, default_config, duplicate_model,
                              gen_fixture, greedy_sequences, permuted_copy_model,
                              random_model, token_sequences, zeroed_layer_model)


def stores_equal(a, b) -> bool:
    if set(a.names) != set(b.names):
        return False
    return all(np.array_equal(a.get(n), b.get(n)) for n in a.names)


class TestReproducibility:
    @pytest.mark.parametrize("kind", FIXTURE_KINDS)
    def test_same_seed_same_model(self, kind):
        a = gen_fixture(kind, n_layers=4, d_model=8, d_ff=16, seed=33)
        b = gen_fixture(kind, n_layers=4, d_model=8, d_ff=16, seed=33)
        assert stores_equal(a.store, b.store)

    def test_different_seed_different_model(self):
        a = gen_fixture("random", n_layers=4, d_model=8, d_ff=16, seed=33)
        b = gen_fixture("random", n_layers=4, d_model=8, d_ff=16, seed=34)
        assert not stores_equal(a.store, b.store)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            gen_fixture("identity", n_layers=4, d_model=8, d_ff=16)


class TestDuplicateModel:
    def test_layers_share_values_not_storage(self):
        cfg = default_config(n_layers=4, d_model=8, d_ff=16)
        model = duplicate_model(cfg, seed=40)
        w0 = model.store.get("layer0.ff.w_in")
        for layer in range(1, 4):
            name = f"layer{layer}.ff.w_in"
            assert model.store.alias_target(name) is None
            np.testing.assert_array_equal(model.store.get(name), w0)
            assert model.store.get(name) is not w0

    def test_identical_activations_at_every_layer(self):
        cfg = default_config(n_layers=4, d_model=8, d_ff=16)
        model = duplicate_model(cfg, seed=41)
        data = token_sequences(cfg, 6, 10, seed=42)
        for tap in ("ff_pre_act", "ff_out"):
            acts = capture_activations(model, data, tap, max_samples=40)
            for layer in range(1, 4):
                np.testing.assert_array_equal(acts.per_layer[layer],
                                              acts.per_layer[0])


class TestPermutedCopyModel:
    def test_group_conventions(self):
        cfg = default_config(n_layers=6, d_model=8, d_ff=16)
        fixture = permuted_copy_model(cfg, seed=43)
        assert fixture.group_start == 2
        assert fixture.group_len == 3
        assert fixture.group_layers == (2, 3, 4)
        assert fixture.planted[2] == Permutation.identity(16)
        assert set(fixture.planted) == {2, 3, 4}

    def test_explicit_group(self):
        cfg = default_config(n_layers=6, d_model=8, d_ff=16)
        fixture = permuted_copy_model(cfg, seed=44, group_start=1,
                                      group_len=4)
        assert fixture.group_layers == (1, 2, 3, 4)

    def test_group_members_are_permuted_copies(self):
        cfg = default_config(n_layers=6, d_model=8, d_ff=16, ff_kind="relu")
        fixture = permuted_copy_model(cfg, seed=45)
        anchor = ff_params(fixture.model, fixture.group_start)
        for layer in fixture.group_layers[1:]:
            member = ff_params(fixture.model, layer)
            undo = Permutation(np.argsort(fixture.planted[layer].mapping))
            undone = apply_permutation(member, undo)
            np.testing.assert_array_equal(undone["w_in"], anchor["w_in"])
            np.testing.assert_array_equal(undone["w_out"], anchor["w_out"])

    def test_planted_permutations_recoverable_from_activations(self):
        cfg = default_config(n_layers=6, d_model=16, d_ff=64, ff_kind="relu")
        fixture = permuted_copy_model(cfg, seed=46)
        data = token_sequences(cfg, 20, 16, seed=47)
        acts = capture_activations(fixture.model, data, "ff_pre_act",
                                   max_samples=200)
        start = fixture.group_start
        for layer in fixture.group_layers[1:]:
            recovered = solve_assignment(cross_correlation(
                centered(acts.per_layer[start]), centered(acts.per_layer[layer])))
            np.testing.assert_array_equal(
                recovered.mapping, np.argsort(fixture.planted[layer].mapping))

    def test_group_must_fit(self):
        cfg = default_config(n_layers=4, d_model=8, d_ff=16)
        with pytest.raises(ValueError):
            permuted_copy_model(cfg, seed=48, group_start=3, group_len=2)
        with pytest.raises(ValueError):
            permuted_copy_model(cfg, seed=48, group_start=0, group_len=1)


@pytest.mark.parametrize("family", ["duplicate", "permuted-copy"])
@pytest.mark.parametrize("ff_kind", ["relu", "gelu", "swiglu"])
@pytest.mark.parametrize("norm", ["pre_ln", "post_ln"])
@pytest.mark.parametrize("mode", ["lm", "classifier"])
def test_planted_attention_is_zero_and_norms_identity(family, ff_kind, norm, mode):
    # every attention tensor and norm bias is +0.0 (all bytes zero, so no
    # -0.0), and every norm gain is exactly 1.0
    cfg = replace(default_config(n_layers=4, d_model=8, d_ff=16, ff_kind=ff_kind),
                  norm_placement=norm, mode=mode,
                  n_classes=3 if mode == "classifier" else None)
    model = (duplicate_model(cfg, seed=53) if family == "duplicate"
             else permuted_copy_model(cfg, seed=53).model)
    zero = [n for n in model.store.names if ".attn." in n or n.endswith(".bias")]
    gains = [n for n in model.store.names if n.endswith(".gain")]
    n_norms = 2 * cfg.n_layers + (norm == "pre_ln")
    assert len(zero) == 8 * cfg.n_layers + n_norms and len(gains) == n_norms
    for name in zero:
        assert not model.store.get(name).tobytes().strip(b"\0"), name
    for name in gains:
        gain = model.store.get(name)
        assert gain.tobytes() == np.ones_like(gain).tobytes(), name


class TestZeroedLayerModel:
    def test_zeroed_layer_is_identity(self):
        cfg = default_config(n_layers=4, d_model=8, d_ff=16)
        model = zeroed_layer_model(cfg, zero_layer=1, seed=49)
        data = token_sequences(cfg, 4, 8, seed=50)
        acts = capture_activations(model, data, "ff_out", max_samples=30)
        np.testing.assert_array_equal(acts.per_layer[1],
                                      np.zeros_like(acts.per_layer[1]))

    def test_rejects_post_ln(self):
        cfg = replace(default_config(n_layers=4, d_model=8, d_ff=16),
                      norm_placement="post_ln")
        with pytest.raises(ValueError, match="pre_ln"):
            zeroed_layer_model(cfg, zero_layer=1, seed=51)

    def test_rejects_bad_layer(self):
        cfg = default_config(n_layers=4, d_model=8, d_ff=16)
        with pytest.raises(ValueError, match="range"):
            zeroed_layer_model(cfg, zero_layer=4, seed=52)


class TestTokenSequences:
    def test_avoids_separator_and_fits_vocab(self):
        cfg = default_config(n_layers=2, d_model=8, d_ff=16)
        data = token_sequences(cfg, 10, 12, seed=55)
        assert len(data.sequences) == 10
        for seq in data.sequences:
            assert len(seq) == 12
            assert cfg.separator_id not in seq
            assert seq.max() < cfg.vocab_size

    @pytest.mark.parametrize("seq_len", [0, 65])
    def test_seq_len_outside_the_positions_refused(self, seq_len):
        cfg = default_config(n_layers=2, d_model=8, d_ff=16)  # max_seq_len 64
        with pytest.raises(ValueError, match=r"seq_len must be in \[1, 64\]"):
            token_sequences(cfg, 2, seq_len, seed=0)

    def test_writable_as_token_file(self, tmp_path):
        cfg = default_config(n_layers=2, d_model=8, d_ff=16)
        data = token_sequences(cfg, 5, 9, seed=56)
        write_token_file(tmp_path / "toks.bin", data.sequences,
                         cfg.separator_id)

    def test_seeded(self):
        cfg = default_config(n_layers=2, d_model=8, d_ff=16)
        a = token_sequences(cfg, 4, 8, seed=57)
        b = token_sequences(cfg, 4, 8, seed=57)
        for x, y in zip(a.sequences, b.sequences):
            np.testing.assert_array_equal(x, y)


class TestGreedySequences:
    def test_deterministic_and_separator_free(self):
        cfg = default_config(n_layers=2, d_model=16, d_ff=32)
        model = random_model(cfg, seed=58)
        a = greedy_sequences(model, 4, 12, seed=59)
        b = greedy_sequences(model, 4, 12, seed=59)
        for x, y in zip(a.sequences, b.sequences):
            np.testing.assert_array_equal(x, y)
        for seq in a.sequences:
            assert len(seq) == 12
            assert cfg.separator_id not in seq

    def test_continuations_are_argmax(self):
        cfg = default_config(n_layers=2, d_model=16, d_ff=32)
        model = random_model(cfg, seed=60)
        data = greedy_sequences(model, 2, 8, seed=61)
        for seq in data.sequences:
            for t in range(PROMPT_LEN, 8):
                logits = model.forward(seq[:t].astype(np.int64))
                row = logits[-1].astype(np.float64)
                row[cfg.separator_id] = -np.inf
                assert seq[t] == int(row.argmax())

    def test_prompt_validation(self):
        cfg = default_config(n_layers=2, d_model=16, d_ff=32)
        model = random_model(cfg, seed=62)
        # each sequence needs at least one token past the prompt
        for seq_len in (0, PROMPT_LEN, cfg.max_seq_len + 1):
            with pytest.raises(ValueError, match=f"need {PROMPT_LEN} < seq_len"):
                greedy_sequences(model, 2, seq_len, seed=63)
        data = greedy_sequences(model, 2, PROMPT_LEN + 1, seed=63)
        assert [len(seq) for seq in data.sequences] == [PROMPT_LEN + 1] * 2

    def test_classifier_refused(self):
        cfg = replace(default_config(n_layers=1, d_model=16, d_ff=32),
                      mode="classifier", n_classes=3)
        with pytest.raises(ValueError, match="needs an lm model, got mode 'classifier'"):
            greedy_sequences(random_model(cfg, seed=64), 2, 8, seed=65)
