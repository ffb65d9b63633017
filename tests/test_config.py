"""Model configuration validation, serialization, and tensor naming."""

from dataclasses import asdict

import pytest

from ffmerge.config import (ModelConfig, expected_shapes, ff_param_basenames,
                            ff_tensor_names, layer_tensor_names,
                            model_tensor_names)


def lm_config(**overrides) -> ModelConfig:
    base = dict(mode="lm", n_layers=4, d_model=16, d_ff=32, n_heads=2,
                vocab_size=32, max_seq_len=64, norm_placement="pre_ln",
                ff_kind="gelu")
    base.update(overrides)
    return ModelConfig(**base)


class TestValidation:
    def test_valid_config(self):
        cfg = lm_config()
        assert cfg.head_width == 32

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError, match="divisible"):
            lm_config(d_model=15)

    def test_swiglu_forbids_biases(self):
        with pytest.raises(ValueError, match="bias"):
            lm_config(ff_kind="swiglu", has_ff_biases=True)
        cfg = lm_config(ff_kind="swiglu", has_ff_biases=False)
        assert cfg.ff_kind == "swiglu"

    def test_classifier_needs_classes(self):
        with pytest.raises(ValueError):
            lm_config(mode="classifier")
        cfg = lm_config(mode="classifier", n_classes=3, pooling="cls")
        assert cfg.head_width == 3

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            lm_config(mode="seq2seq")

    def test_bad_norm_placement_rejected(self):
        with pytest.raises(ValueError):
            lm_config(norm_placement="sandwich")

    def test_separator_must_be_in_vocab(self):
        with pytest.raises(ValueError):
            lm_config(separator_id=32)


class TestSerialization:
    @pytest.mark.parametrize("cfg", [
        lm_config(),
        lm_config(ff_kind="swiglu", has_ff_biases=False),
        lm_config(mode="classifier", n_classes=5, pooling="cls"),
        lm_config(norm_placement="post_ln"),
    ])
    def test_round_trip(self, cfg):
        assert ModelConfig(**asdict(cfg)) == cfg

    def test_missing_field_rejected(self):
        d = asdict(lm_config())
        del d["n_layers"]
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'n_layers'"):
            ModelConfig(**d)

    def test_unknown_field_rejected(self):
        d = asdict(lm_config())
        d["dropout"] = 0.1
        with pytest.raises(TypeError, match="unexpected keyword argument 'dropout'"):
            ModelConfig(**d)

    @pytest.mark.parametrize("field,value", [
        ("n_layers", 4.0), ("n_layers", True), ("d_model", "16"),
        ("d_ff", None), ("n_heads", 2.5), ("vocab_size", [32]),
        ("max_seq_len", False), ("separator_id", 0.0), ("n_classes", 3.0),
        ("n_classes", True), ("has_ff_biases", 1), ("has_ff_biases", "yes"),
    ])
    def test_mistyped_field_rejected(self, field, value):
        d = asdict(lm_config(mode="classifier", n_classes=3))
        d[field] = value
        with pytest.raises(ValueError, match=field):
            ModelConfig(**d)


class TestTensorNames:
    def test_ff_basenames_by_kind(self):
        assert ff_param_basenames(lm_config()) == ("w_in", "b_in", "w_out", "b_out")
        assert ff_param_basenames(lm_config(has_ff_biases=False)) == ("w_in", "w_out")
        swiglu = lm_config(ff_kind="swiglu", has_ff_biases=False)
        assert ff_param_basenames(swiglu) == ("w_up", "v_gate", "w_down")

    def test_ff_tensor_names(self):
        assert ff_tensor_names(lm_config(), 2) == [
            "layer2.ff.w_in", "layer2.ff.b_in", "layer2.ff.w_out",
            "layer2.ff.b_out"]

    def test_layer_names_cover_attention_and_norms(self):
        names = layer_tensor_names(lm_config(), 0)
        assert "layer0.attn.wq" in names and "layer0.ln2.bias" in names

    def test_final_ln_only_for_pre_ln(self):
        assert "final_ln.gain" in model_tensor_names(lm_config())
        assert "final_ln.gain" not in model_tensor_names(
            lm_config(norm_placement="post_ln"))

    def test_expected_shapes(self):
        shapes = expected_shapes(lm_config())
        assert shapes["embed.tok"] == (32, 16)
        assert shapes["embed.pos"] == (64, 16)
        assert shapes["layer1.ff.w_in"] == (32, 16)
        assert shapes["layer1.ff.w_out"] == (16, 32)
        assert shapes["head.w"] == (32, 16)
        assert shapes["layer0.attn.wq"] == (16, 16)
        assert shapes["layer3.ln1.gain"] == (16,)

    def test_expected_shapes_swiglu(self):
        shapes = expected_shapes(lm_config(ff_kind="swiglu", has_ff_biases=False))
        assert shapes["layer0.ff.w_up"] == (32, 16)
        assert shapes["layer0.ff.v_gate"] == (32, 16)
        assert shapes["layer0.ff.w_down"] == (16, 32)
        assert "layer0.ff.b_in" not in shapes

    def test_classifier_head_shape(self):
        shapes = expected_shapes(lm_config(mode="classifier", n_classes=7))
        assert shapes["head.w"] == (7, 16)
        assert shapes["head.b"] == (7,)
