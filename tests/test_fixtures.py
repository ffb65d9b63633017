"""Fixture tests: seeded model generators, their structural guarantees,
and the token-sequence helpers."""

from dataclasses import replace

import numpy as np
import pytest

from ffmerge.alignment import align_units, apply_permutation
from ffmerge.datasets import write_token_file
from ffmerge.engine import capture_activations, ff_forward, ff_params
from ffmerge.fixtures import (FIXTURE_KINDS, default_config, duplicate_model,
                              gen_fixture, greedy_sequences,
                              noisy_permuted_pair, permuted_copy_model,
                              random_model, token_sequences,
                              zeroed_layer_model)


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
            assert not model.store.is_alias(name)
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
        assert fixture.planted[2].is_identity()
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
            undone = apply_permutation(member,
                                       fixture.planted[layer].inverse())
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
            recovered = align_units(acts.per_layer[start],
                                    acts.per_layer[layer])
            np.testing.assert_array_equal(
                recovered.mapping, fixture.planted[layer].inverse().mapping)

    def test_group_must_fit(self):
        cfg = default_config(n_layers=4, d_model=8, d_ff=16)
        with pytest.raises(ValueError):
            permuted_copy_model(cfg, seed=48, group_start=3, group_len=2)
        with pytest.raises(ValueError):
            permuted_copy_model(cfg, seed=48, group_start=0, group_len=1)


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


class TestNoisyPermutedPair:
    def test_structure(self):
        cfg = default_config(n_layers=2, d_model=8, d_ff=16, ff_kind="relu")
        base, noisy, perm = noisy_permuted_pair(cfg, seed=53)
        assert perm.size == cfg.d_ff
        moved = apply_permutation(base, perm)
        rel = np.abs(noisy["w_in"] - moved["w_in"]).max() / moved["w_in"].std()
        assert 0.0 < rel < 0.1

    def test_zero_noise_is_exact_permuted_copy(self):
        cfg = default_config(n_layers=2, d_model=8, d_ff=16, ff_kind="relu")
        base, noisy, perm = noisy_permuted_pair(cfg, seed=54,
                                                noise_scale=0.0)
        moved = apply_permutation(base, perm)
        np.testing.assert_array_equal(noisy["w_in"], moved["w_in"])
        np.testing.assert_array_equal(noisy["b_in"], moved["b_in"])
        np.testing.assert_array_equal(noisy["w_out"], moved["w_out"])


class TestTokenSequences:
    def test_avoids_separator_and_fits_vocab(self):
        cfg = default_config(n_layers=2, d_model=8, d_ff=16)
        data = token_sequences(cfg, 10, 12, seed=55)
        assert len(data.sequences) == 10
        for seq in data.sequences:
            assert len(seq) == 12
            assert cfg.separator_id not in seq
            assert seq.max() < cfg.vocab_size

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
        data = greedy_sequences(model, 2, 8, seed=61, prompt_len=3)
        for seq in data.sequences:
            for t in range(3, 8):
                logits = model.forward(seq[:t].astype(np.int64))
                row = logits[-1].astype(np.float64)
                row[cfg.separator_id] = -np.inf
                assert seq[t] == int(row.argmax())

    def test_prompt_validation(self):
        cfg = default_config(n_layers=2, d_model=16, d_ff=32)
        model = random_model(cfg, seed=62)
        with pytest.raises(ValueError):
            greedy_sequences(model, 2, 8, seed=63, prompt_len=0)
        with pytest.raises(ValueError):
            greedy_sequences(model, 2, 8, seed=63, prompt_len=8)
        with pytest.raises(ValueError):
            greedy_sequences(model, 2, cfg.max_seq_len + 1, seed=63)
