"""Engine tests: scalar-loop oracles for the sublayer math, forward-pass
properties (causality, determinism, permutation symmetry), evaluation
metrics, activation capture, and a differential test of the batched
forward against the plain per-sequence reference."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ffmerge import engine
from ffmerge.alignment import Permutation, apply_permutation
from ffmerge.checkpoint import ParameterStore, write_container
from ffmerge.config import ATTN_PARAM_NAMES, ff_param_basenames, model_tensor_names
from ffmerge.datasets import Dataset
from ffmerge.engine import (METRIC_KINDS, TAPS, ActivationSet, EvalMetric, FFParams,
                            TransformerModel, capture_activations, evaluate,
                            ff_forward, ff_params, load_model,
                            read_activations, save_model,
                            swiglu_forward, write_activations)
from ffmerge.fixtures import (default_config, duplicate_model,
                              greedy_sequences, random_model, token_sequences)

# -- scalar oracles -----------------------------------------------------------


def gelu_scalar(z: float) -> float:
    return 0.5 * z * (1.0 + math.tanh(math.sqrt(2.0 / math.pi)
                                      * (z + 0.044715 * z**3)))


def ff_oracle(params: FFParams, x: np.ndarray, activation: str):
    """Straight-line scalar-loop feed-forward."""
    d_ff, d_model = params["w_in"].shape
    pre = np.zeros(d_ff)
    for j in range(d_ff):
        acc = float(params["b_in"][j])
        for k in range(d_model):
            acc += float(params["w_in"][j, k]) * float(x[k])
        pre[j] = acc
    act = [max(v, 0.0) if activation == "relu" else gelu_scalar(v) for v in pre]
    y = np.zeros(d_model)
    for i in range(d_model):
        acc = float(params["b_out"][i])
        for j in range(d_ff):
            acc += float(params["w_out"][i, j]) * act[j]
        y[i] = acc
    return pre, y


def swiglu_oracle(params: FFParams, x: np.ndarray):
    d_ff, d_model = params["w_up"].shape
    gated = np.zeros(d_ff)
    for j in range(d_ff):
        up = sum(float(params["w_up"][j, k]) * float(x[k]) for k in range(d_model))
        gate = sum(float(params["v_gate"][j, k]) * float(x[k])
                   for k in range(d_model))
        gated[j] = up / (1.0 + math.exp(-up)) * gate
    y = np.zeros(d_model)
    for i in range(d_model):
        y[i] = sum(float(params["w_down"][i, j]) * gated[j] for j in range(d_ff))
    return gated, y


def layer_norm_oracle(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      eps: float = 1e-5) -> np.ndarray:
    mean = sum(float(v) for v in x) / len(x)
    var = sum((float(v) - mean) ** 2 for v in x) / len(x)
    return np.array([(float(v) - mean) / math.sqrt(var + eps) * float(g)
                     + float(b) for v, g, b in zip(x, gain, bias)])


def log_softmax_oracle(row: np.ndarray) -> np.ndarray:
    m = max(float(v) for v in row)
    total = sum(math.exp(float(v) - m) for v in row)
    return np.array([float(v) - m - math.log(total) for v in row])


def random_ff(rng, d_model=6, d_ff=10) -> FFParams:
    return FFParams(
        w_in=rng.normal(size=(d_ff, d_model)).astype(np.float32),
        b_in=rng.normal(size=d_ff).astype(np.float32),
        w_out=rng.normal(size=(d_model, d_ff)).astype(np.float32),
        b_out=rng.normal(size=d_model).astype(np.float32))


def random_swiglu(rng, d_model=6, d_ff=10) -> FFParams:
    return FFParams(
        w_up=rng.normal(size=(d_ff, d_model)).astype(np.float32),
        v_gate=rng.normal(size=(d_ff, d_model)).astype(np.float32),
        w_down=rng.normal(size=(d_model, d_ff)).astype(np.float32))


class TestFFForward:
    def test_identity_weights_relu(self):
        params = FFParams(w_in=np.eye(2, dtype=np.float32),
                          b_in=np.zeros(2, dtype=np.float32),
                          w_out=np.eye(2, dtype=np.float32),
                          b_out=np.zeros(2, dtype=np.float32))
        pre, y = ff_forward(params, np.array([1.0, -1.0]), "relu")
        np.testing.assert_array_equal(pre, [1.0, -1.0])
        np.testing.assert_array_equal(y, [1.0, 0.0])

    def test_zero_params_zero_output(self):
        params = FFParams(w_in=np.zeros((4, 3), dtype=np.float32),
                          b_in=np.zeros(4, dtype=np.float32),
                          w_out=np.zeros((3, 4), dtype=np.float32),
                          b_out=np.zeros(3, dtype=np.float32))
        _, y = ff_forward(params, np.array([5.0, -2.0, 1.0]), "gelu")
        np.testing.assert_array_equal(y, np.zeros(3))

    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    def test_matches_scalar_oracle(self, activation):
        rng = np.random.default_rng(10)
        for _ in range(5):
            params = random_ff(rng)
            x = rng.normal(size=6).astype(np.float32)
            pre, y = ff_forward(params, x, activation)
            pre_o, y_o = ff_oracle(params, x, activation)
            np.testing.assert_allclose(pre, pre_o, atol=1e-5)
            np.testing.assert_allclose(y, y_o, atol=1e-5)

    def test_batch_input(self):
        rng = np.random.default_rng(11)
        params = random_ff(rng)
        x = rng.normal(size=(7, 6)).astype(np.float32)
        pre, y = ff_forward(params, x, "relu")
        assert pre.shape == (7, 10) and y.shape == (7, 6)
        pre_row, y_row = ff_forward(params, x[2], "relu")
        np.testing.assert_array_equal(pre[2], pre_row)
        np.testing.assert_array_equal(y[2], y_row)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="d_model"):
            ff_forward(random_ff(rng), np.zeros(5), "relu")

    def test_unknown_activation(self):
        # every FF kind runs through ff_forward; any other kind is refused
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="kind must be one of"):
            ff_forward(random_ff(rng), np.zeros(6), "tanh")
        gated, y = ff_forward(random_swiglu(rng), np.zeros(6), "swiglu")
        assert gated.shape == (10,) and y.shape == (6,)

    def test_kind_is_required(self):
        # no default kind: gelu on relu weights would run without complaint
        rng = np.random.default_rng(14)
        with pytest.raises(TypeError, match="kind"):
            ff_forward(random_ff(rng), np.zeros(6))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["relu", "gelu", "swiglu"]), biases=st.booleans(),
           d_model=st.integers(1, 6), d_ff=st.integers(1, 8),
           rows=st.none() | st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_kind_formulas(self, kind, biases, d_model, d_ff, rows, seed):
        # the per-kind formulas ff_forward and swiglu_forward ran before one
        # entry took every kind, kept here as the bit-for-bit reference
        rng = np.random.default_rng(seed)
        if kind == "swiglu":
            params = random_swiglu(rng, d_model, d_ff)
        else:
            params = random_ff(rng, d_model, d_ff)
            if not biases:
                params = FFParams(w_in=params["w_in"], w_out=params["w_out"])
        x = rng.normal(size=(d_model,) if rows is None else (rows, d_model))
        x = x.astype(np.float32)
        x64 = np.asarray(x, dtype=np.float64)
        w = lambda base: params[base].T.astype(np.float64)
        if kind == "swiglu":
            up = x64 @ w("w_up")
            hidden = up / (1.0 + np.exp(-up)) * (x64 @ w("v_gate"))
            y = hidden @ w("w_down")
        else:
            hidden = x64 @ w("w_in")
            if "b_in" in params:
                hidden = hidden + w("b_in")
            z = hidden
            act = (np.maximum(z, 0.0) if kind == "relu" else
                   0.5 * z * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                            * (z + 0.044715 * (z * z * z)))))
            y = act @ w("w_out")
            if "b_out" in params:
                y = y + w("b_out")
        got_hidden, got_y = ff_forward(params, x, kind)
        assert got_hidden.dtype == got_y.dtype == np.float32
        assert got_hidden.tobytes() == hidden.astype(np.float32).tobytes()
        assert got_y.tobytes() == y.astype(np.float32).tobytes()
        if kind == "swiglu":
            again = swiglu_forward(params, x)
            assert [a.tobytes() for a in again] == [got_hidden.tobytes(), got_y.tobytes()]
        with pytest.raises(ValueError, match="does not match d_model"):
            ff_forward(params, np.zeros(d_model + 1), kind)
        with pytest.raises(ValueError, match="does not match d_model"):
            ff_forward(params, np.zeros((2, d_model + 1)), kind)


class TestSwigluForward:
    def test_zero_gate_zero_output(self):
        rng = np.random.default_rng(14)
        params = FFParams(
            w_up=rng.normal(size=(8, 4)).astype(np.float32),
            v_gate=np.zeros((8, 4), dtype=np.float32),
            w_down=rng.normal(size=(4, 8)).astype(np.float32))
        gated, y = ff_forward(params, rng.normal(size=4).astype(np.float32), "swiglu")
        np.testing.assert_array_equal(gated, np.zeros(8))
        np.testing.assert_array_equal(y, np.zeros(4))

    def test_zero_input(self):
        rng = np.random.default_rng(15)
        params = FFParams(
            w_up=rng.normal(size=(8, 4)).astype(np.float32),
            v_gate=rng.normal(size=(8, 4)).astype(np.float32),
            w_down=rng.normal(size=(4, 8)).astype(np.float32))
        gated, y = ff_forward(params, np.zeros(4), "swiglu")
        np.testing.assert_array_equal(gated, np.zeros(8))
        np.testing.assert_array_equal(y, np.zeros(4))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            params = FFParams(
                w_up=rng.normal(size=(10, 6)).astype(np.float32),
                v_gate=rng.normal(size=(10, 6)).astype(np.float32),
                w_down=rng.normal(size=(6, 10)).astype(np.float32))
            x = rng.normal(size=6).astype(np.float32)
            gated, y = ff_forward(params, x, "swiglu")
            gated_o, y_o = swiglu_oracle(params, x)
            np.testing.assert_allclose(gated, gated_o, atol=1e-5)
            np.testing.assert_allclose(y, y_o, atol=1e-5)


# -- in-place kernels against their plain expressions -------------------------
# Each kernel's plain expression, kept verbatim from before the kernels
# reused one buffer (the softmax takes its mask as an argument); the kernels
# must match them bit for bit, on read-only inputs.


def gelu_expression(z):
    return 0.5 * z * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                    * (z + 0.044715 * (z * z * z))))


def swish1_expression(z):
    return z / (1.0 + np.exp(-z))


def layer_norm_expression(x, gain, bias):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + engine.LN_EPS) * gain + bias


def attention_weights_expression(q, k, mask):
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(q.shape[-1])
    if mask is not None:
        scores = scores + mask
    scores = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    return weights / weights.sum(axis=-1, keepdims=True)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


# every finite float64: subnormals, and values whose cube or exp overflows
any_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
shapes = hnp.array_shapes(min_dims=1, max_dims=3, max_side=6)


class TestKernelsInPlace:
    @settings(max_examples=200, deadline=None)
    @given(z=hnp.arrays(np.float64, shapes, elements=any_finite))
    def test_activations(self, z):
        read_only(z)
        with np.errstate(all="ignore"):
            assert_same_bits(engine.gelu(z), gelu_expression(z))
            assert_same_bits(engine.swish1(z), swish1_expression(z))

    @pytest.mark.parametrize("z", [5e-324, -5e-324, 3e-310, 1e-17, 1.7e308,
                                   -1.7e308, 8.98e307, -0.0, 0.0])
    def test_activation_edges(self, z):
        z = np.array([z, -z, 1.0])
        with np.errstate(all="ignore"):
            assert_same_bits(engine.gelu(z), gelu_expression(z))
            assert_same_bits(engine.swish1(z), swish1_expression(z))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), lead=st.lists(st.integers(1, 5), min_size=1, max_size=2),
           d=st.integers(1, 9))
    def test_layer_norm(self, data, lead, d):
        values = st.floats(-1e6, 1e6, width=64)
        x = data.draw(hnp.arrays(np.float64, (*lead, d), elements=values))
        gain, bias = (data.draw(hnp.arrays(np.float64, d, elements=values))
                      for _ in range(2))
        read_only(x, gain, bias)
        assert_same_bits(engine._layer_norm(x, gain, bias),
                         layer_norm_expression(x, gain, bias))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), b=st.integers(1, 3), h=st.integers(1, 3),
           n=st.integers(1, 7), dh=st.integers(1, 4),
           masking=st.sampled_from(["none", "causal", "keys"]))
    def test_attention_softmax(self, data, b, h, n, dh, masking):
        values = st.floats(-30, 30, width=64)
        q, k = (data.draw(hnp.arrays(np.float64, (b, h, n, dh), elements=values))
                for _ in range(2))
        mask = None
        if masking == "causal":
            mask = np.triu(np.full((n, n), -np.inf), k=1)
        elif masking == "keys":  # each row keeps at least one key
            lens = np.array(data.draw(st.lists(st.integers(1, n), min_size=b,
                                               max_size=b)))
            mask = np.where(np.arange(n) < lens[:, None], 0.0, -np.inf)[:, None, None]
        read_only(q, k, *([] if mask is None else [mask]))
        got = engine._attention_weights(q, k, mask)
        assert_same_bits(got, attention_weights_expression(q, k, mask))
        if mask is not None:  # a masked key gets weight 0
            assert (got[np.broadcast_to(np.isneginf(mask), got.shape)] == 0.0).all()


class TestNoWritesIntoInputs:
    """Inputs, returned taps and resume streams are never written: each run
    here takes read-only arrays, so an in-place write would raise
    (``TestKernelsInPlace`` runs the kernels themselves so)."""

    @pytest.mark.parametrize("kind", ["relu", "gelu", "swiglu"])
    def test_ff_forward(self, kind):
        rng = np.random.default_rng(17)
        params = random_swiglu(rng) if kind == "swiglu" else random_ff(rng)
        x = rng.normal(size=(5, 6))  # float64, so ff_forward casts no copy
        want = ff_forward(params, x.copy(), kind)
        read_only(x, *params.values())
        got = ff_forward(params, x, kind)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("mode", ["lm", "cls", "mean"])
    def test_run_and_resume(self, mode):
        model = _diff_model("gelu", "post_ln", True, mode, seed=19)
        data = _ragged(model.config, [3, 7, 1, 7, 5], seed=20)
        for idx, lens, toks in engine._batches(model, data.sequences):
            read_only(idx, lens, toks)
            logits, taps = engine._run(model, toks, "resid_out", lens=lens)
            stream = read_only(taps[0])[0]
            again, _ = engine._run(model, toks, start=1, x=stream, lens=lens)
            assert_same_bits(again, logits)

    @pytest.mark.parametrize("mode", ["lm", "cls"])
    def test_resume_leaves_prefix_streams_unchanged(self, mode):
        model = _diff_model("swiglu", "pre_ln", False, mode, seed=21)
        data = _ragged(model.config, [2, 9, 4, 9, 1, 6], seed=22)
        prefix = engine.residual_prefix(model, data, 2)
        # streams[i] enters layer i; layer 0's is the embedding _run makes
        assert all(len(streams) == 3 and streams[0] is None
                   for *_, streams in prefix.batches)
        before = [[s.tobytes() for s in streams[1:]] for *_, streams in prefix.batches]
        # the model resumes at 2, a copy changed in layer 1 or 0 resumes there
        for name in (None, "layer1.ln1.bias", "layer0.ln1.bias"):
            candidate = model if name is None else edited(
                model, {name: model.store.get(name) + 1.0})
            assert (evaluate(candidate, data, EvalMetric("cross_entropy"), prefix=prefix)
                    == evaluate(candidate, data, EvalMetric("cross_entropy")))
        assert [[s.tobytes() for s in streams[1:]]
                for *_, streams in prefix.batches] == before

    def test_ff_pre_act_tap_is_not_the_activation_buffer(self, monkeypatch):
        model = _diff_model("gelu", "pre_ln", True, "lm", seed=23)
        toks = np.array([[4, 9, 2, 6], [5, 1, 0, 0]])
        activated = []

        def recording_gelu(z):
            activated.append((z.copy(), engine.gelu(z)))
            return activated[-1][1]

        monkeypatch.setitem(engine._ACTIVATIONS, "gelu", recording_gelu)
        _, taps = engine._run(model, toks, "ff_pre_act", lens=np.array([4, 2]))
        assert len(activated) == model.config.n_layers
        for i, (pre_act, act) in enumerate(activated):
            assert not np.shares_memory(taps[i], act)
            assert taps[i].reshape(-1).tobytes() == pre_act.reshape(-1).tobytes()


def edited(model: TransformerModel, tensors: dict) -> TransformerModel:
    """The model with the named tensors replaced."""
    store = model.store
    return TransformerModel(model.config, store.copy(
        {name: store.get(name) for name in store.names} | tensors))


def zero_attention(model: TransformerModel) -> TransformerModel:
    """The model with layer 0's attention all zero."""
    d = model.config.d_model
    zeros = {f"layer0.attn.{p}": np.zeros((d, d) if p.startswith("w") else d, np.float32)
             for p in ATTN_PARAM_NAMES}
    return edited(model, zeros)


def single_layer_zero_attention(seed: int) -> TransformerModel:
    cfg = default_config(n_layers=1, d_model=8, d_ff=16, ff_kind="gelu")
    return zero_attention(random_model(cfg, seed))


class TestForward:
    def test_single_layer_zero_attention_composition_oracle(self):
        model = single_layer_zero_attention(seed=20)
        toks = np.array([5, 2, 9], dtype=np.int64)
        logits = model.forward(toks)
        p = lambda name: model.store.get(name).astype(np.float64)
        params = ff_params(model, 0)
        for t in range(len(toks)):
            x = p("embed.tok")[toks[t]] + p("embed.pos")[t]
            ff_in = layer_norm_oracle(x, p("layer0.ln2.gain"),
                                      p("layer0.ln2.bias"))
            _, y = ff_oracle(params, ff_in, "gelu")
            final = layer_norm_oracle(x + y, p("final_ln.gain"),
                                      p("final_ln.bias"))
            expected = final @ p("head.w").T + p("head.b")
            np.testing.assert_allclose(logits[t], expected, atol=1e-4)

    def test_causal_masking(self):
        cfg = default_config(n_layers=2, d_model=16, d_ff=32)
        model = random_model(cfg, seed=21)
        a = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        b = a.copy()
        b[4] = 9
        la, lb = model.forward(a), model.forward(b)
        np.testing.assert_array_equal(la[:4], lb[:4])
        assert np.abs(la[4] - lb[4]).max() > 0

    def test_classifier_attends_bidirectionally(self):
        cfg = replace(default_config(n_layers=2, d_model=16, d_ff=32),
                      mode="classifier", n_classes=4, pooling="cls")
        model = random_model(cfg, seed=22)
        a = np.array([1, 2, 3, 4], dtype=np.int64)
        b = a.copy()
        b[3] = 9
        assert np.abs(model.forward(a) - model.forward(b)).max() > 0
        assert model.forward(a).shape == (4,)

    def test_pooling_modes_differ(self):
        base = replace(default_config(n_layers=2, d_model=16, d_ff=32),
                       mode="classifier", n_classes=4)
        toks = np.array([1, 2, 3, 4], dtype=np.int64)
        outs = {}
        for pooling in ("cls", "mean"):
            cfg = replace(base, pooling=pooling)
            outs[pooling] = random_model(cfg, seed=23).forward(toks)
        assert np.abs(outs["cls"] - outs["mean"]).max() > 0

    def test_determinism(self):
        cfg = default_config(n_layers=3, d_model=16, d_ff=32)
        model = random_model(cfg, seed=24)
        toks = np.array([7, 3, 1, 8], dtype=np.int64)
        a = model.forward(toks)
        b = model.forward(toks)
        np.testing.assert_array_equal(a, b)

    def test_permutation_symmetry_each_layer(self):
        rng = np.random.default_rng(25)
        for ff_kind, biases in (("relu", True), ("gelu", True),
                                ("swiglu", False), ("relu", False),
                                ("gelu", False)):
            cfg = replace(default_config(n_layers=3, d_model=16, d_ff=32,
                                         ff_kind=ff_kind), has_ff_biases=biases)
            model = random_model(cfg, seed=26)
            toks = np.array([4, 9, 2, 6, 1], dtype=np.int64)
            base = model.forward(toks)
            for layer in range(cfg.n_layers):
                perm = Permutation(rng.permutation(cfg.d_ff).astype(np.int64))
                params = ff_params(model, layer)
                assert tuple(params) == ff_param_basenames(cfg)
                moved = edited(model, {
                    f"layer{layer}.ff.{base}": arr
                    for base, arr in apply_permutation(params, perm).items()})
                assert np.abs(moved.forward(toks) - base).max() <= 1e-5

    def test_token_validation(self):
        cfg = default_config(n_layers=1, d_model=8, d_ff=16)
        model = random_model(cfg, seed=27)
        with pytest.raises(ValueError, match="out of vocabulary"):
            model.forward(np.array([cfg.vocab_size], dtype=np.int64))
        with pytest.raises(ValueError, match="max_seq_len"):
            model.forward(np.zeros(cfg.max_seq_len + 1, dtype=np.int64))
        with pytest.raises(ValueError, match="non-empty"):
            model.forward(np.array([], dtype=np.int64))
        # no silent truncation of floats, no bools read as 0/1
        for bad in ([1.7, 2.2], np.array([1.0, 2.0]), [True, False]):
            with pytest.raises(ValueError, match="integers"):
                model.forward(bad)

    def test_batch_token_error_names_first_in_dataset_order(self):
        cfg = default_config(n_layers=1, d_model=8, d_ff=16)
        model = random_model(cfg, seed=27)
        # the bad length-2 sequence comes first in the dataset, but its
        # length group is seen second
        data = Dataset(sequences=[np.array([1, 2, 3], dtype=np.uint32),
                                  np.array([4, 40], dtype=np.uint32),
                                  np.array([5, 6, 50], dtype=np.uint32)])
        with pytest.raises(ValueError, match="token id 40 "):
            evaluate(model, data, EvalMetric("cross_entropy"))
        with pytest.raises(ValueError, match="token id 40 "):
            capture_activations(model, data, "ff_out", max_samples=8)

    def test_short_sequence_tokens_checked_before_filtering(self):
        # a length-1 sequence has no next-token target, but its tokens are
        # still checked, as capture checks them
        cfg = default_config(n_layers=1, d_model=8, d_ff=16)
        model = random_model(cfg, seed=27)
        data = Dataset(sequences=[np.array([999], dtype=np.uint32),
                                  np.array([1, 2, 3], dtype=np.uint32)])
        with pytest.raises(ValueError, match="token id 999 out of vocabulary"):
            evaluate(model, data, EvalMetric("cross_entropy"))
        with pytest.raises(ValueError, match="token id 999 out of vocabulary"):
            capture_activations(model, data, "ff_out", max_samples=4)
        kept = Dataset(sequences=[np.array([9], dtype=np.uint32), *data.sequences[1:]])
        assert evaluate(model, kept, EvalMetric("cross_entropy")) == \
            evaluate(model, Dataset(sequences=data.sequences[1:]),
                     EvalMetric("cross_entropy"))

    def test_missing_tensor_rejected(self):
        cfg = default_config(n_layers=1, d_model=8, d_ff=16)
        model = random_model(cfg, seed=28)
        store = ParameterStore({name: model.store.get(name)
                                for name in model_tensor_names(cfg)[:-1]})
        with pytest.raises(ValueError, match="missing"):
            TransformerModel(cfg, store)

    def test_tensor_outside_the_config_rejected(self):
        model = random_model(default_config(n_layers=1, d_model=8, d_ff=16), seed=28)
        store = model.store.copy({name: model.store.get(name) for name in model.store.names}
                                 | {"junk.extra": model.store.get("embed.tok")})
        with pytest.raises(ValueError, match="'junk.extra'"):
            TransformerModel(model.config, store)

    def test_model_is_frozen(self):
        model = random_model(default_config(n_layers=1, d_model=8, d_ff=16), seed=28)
        with pytest.raises(FrozenInstanceError):
            model.store = ParameterStore({})
        with pytest.raises(FrozenInstanceError):
            model.config = replace(model.config, separator_id=1)

    def test_pre_vs_post_ln_snapshot(self):
        """Identical-layer model scored under both norm placements."""
        cfg = replace(default_config(n_layers=3, d_model=8, d_ff=16), n_heads=2,
                      vocab_size=16, max_seq_len=16)
        base = random_model(cfg, seed=42)
        pre = TransformerModel(cfg, ParameterStore(
            {name: base.store.get("layer0." + name.split(".", 1)[1]
                                  if name.startswith("layer") else name).copy()
             for name in model_tensor_names(cfg)}))
        post_cfg = replace(cfg, norm_placement="post_ln")
        post = TransformerModel(post_cfg, ParameterStore(
            {name: pre.store.get(name).copy() for name in model_tensor_names(post_cfg)}))
        toks = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        lp, lq = pre.forward(toks), post.forward(toks)
        assert np.abs(lp - lq).max() > 1.0
        np.testing.assert_allclose(
            lp[-1][:5],
            [0.501055062, -1.292591572, 2.788609982, 1.666829705, -1.349211335],
            atol=1e-5)
        np.testing.assert_allclose(
            lq[-1][:5],
            [-0.117941827, -1.314898014, 1.920274496, -0.492496997,
             -1.787185192],
            atol=1e-5)


class TestCapture:
    def test_max_samples_one(self):
        cfg = default_config(n_layers=2, d_model=8, d_ff=16)
        model = random_model(cfg, seed=30)
        data = token_sequences(cfg, 3, 10, seed=31)
        acts = capture_activations(model, data, "ff_out", max_samples=1)
        assert [m.shape for m in acts.per_layer] == [(1, cfg.d_model)] * 2

    def test_swiglu_pre_act_tap_is_gated_product(self):
        cfg = default_config(n_layers=1, d_model=8, d_ff=16, ff_kind="swiglu")
        model = zero_attention(random_model(cfg, seed=32))
        data = Dataset(sequences=[np.array([3, 7, 2], dtype=np.uint32)])
        acts = capture_activations(model, data, "ff_pre_act", max_samples=3)
        assert acts.width == cfg.d_ff
        # reproduce by hand: ln2 of the embedding, then the gated product
        p = lambda name: model.store.get(name).astype(np.float64)
        x = p("embed.tok")[3] + p("embed.pos")[0]
        ff_in = layer_norm_oracle(x, p("layer0.ln2.gain"), p("layer0.ln2.bias"))
        gated, _ = swiglu_oracle(ff_params(model, 0), ff_in)
        np.testing.assert_allclose(acts.per_layer[0][0], gated, atol=1e-5)

    def test_row_ordering_consistent(self):
        cfg = default_config(n_layers=3, d_model=8, d_ff=16)
        model = duplicate_model(cfg, seed=33)
        data = token_sequences(cfg, 4, 8, seed=34)
        acts = capture_activations(model, data, "ff_out", max_samples=20)
        # duplicate layers see identical inputs, so rows must match layerwise
        for layer in range(1, 3):
            np.testing.assert_array_equal(acts.per_layer[0],
                                          acts.per_layer[layer])

    def test_truncation_counts(self):
        cfg = default_config(n_layers=1, d_model=8, d_ff=16)
        model = random_model(cfg, seed=35)
        data = token_sequences(cfg, 4, 10, seed=36)
        acts = capture_activations(model, data, "attn_out", max_samples=25)
        assert acts.sample_count == 25
        assert acts.per_layer[0].shape == (25, cfg.d_model)

    def test_empty_dataset_rejected(self):
        cfg = default_config(n_layers=1, d_model=8, d_ff=16)
        model = random_model(cfg, seed=37)
        with pytest.raises(ValueError, match="empty"):
            capture_activations(model, Dataset(sequences=[]), "ff_out", 10)

    def test_bad_tap_rejected(self):
        cfg = default_config(n_layers=1, d_model=8, d_ff=16)
        model = random_model(cfg, seed=38)
        data = token_sequences(cfg, 1, 4, seed=39)
        with pytest.raises(ValueError, match="tap"):
            capture_activations(model, data, "logits", 4)

    def test_activation_file_round_trip(self, tmp_path):
        cfg = default_config(n_layers=2, d_model=8, d_ff=16)
        model = random_model(cfg, seed=40)
        data = token_sequences(cfg, 2, 8, seed=41)
        acts = capture_activations(model, data, "ff_pre_act", max_samples=12)
        path = tmp_path / "acts.ffmc"
        write_activations(acts, path)
        back = read_activations(path)
        assert back.tap == acts.tap and back.sample_count == acts.sample_count
        assert len(back.per_layer) == len(acts.per_layer) == 2
        for got, want in zip(back.per_layer, acts.per_layer):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("count", [0, 11, 13])
    def test_header_count_must_match_rows(self, tmp_path, count):
        store = ParameterStore({f"acts.layer{i}": np.ones((12, 4), dtype=np.float32)
                                for i in (0, 1)})
        path = tmp_path / "acts.ffmc"
        write_container(store, {"tap": "ff_out", "sample_count": count}, path)
        with pytest.raises(ValueError, match=f"sample_count {count} does not match 12 rows"):
            read_activations(path)

    def test_sample_count_is_the_row_count(self):
        acts = ActivationSet(tap="ff_out", per_layer=(np.zeros((5, 2)), np.ones((5, 2))))
        assert acts.sample_count == 5 and acts.width == 2

    def test_activation_set_validation(self):
        with pytest.raises(ValueError, match="tap"):
            ActivationSet(tap="nope", per_layer=(np.zeros((2, 2)),))
        with pytest.raises(ValueError, match="no layers"):
            ActivationSet(tap="ff_out", per_layer=())
        with pytest.raises(ValueError, match="shapes"):
            ActivationSet(tap="ff_out", per_layer=(np.zeros((2, 2)), np.zeros((3, 2))))


class TestEvaluate:
    def test_uniform_logits_cross_entropy_ln_v(self):
        cfg = default_config(n_layers=1, d_model=8, d_ff=16)
        model = edited(random_model(cfg, seed=50), {
            "head.w": np.zeros((cfg.vocab_size, cfg.d_model), np.float32),
            "head.b": np.zeros(cfg.vocab_size, np.float32)})
        data = token_sequences(cfg, 3, 12, seed=51)
        ce = evaluate(model, data, EvalMetric("cross_entropy"))
        assert ce == pytest.approx(math.log(cfg.vocab_size), abs=1e-9)

    def test_perplexity_is_exp_cross_entropy(self):
        cfg = default_config(n_layers=2, d_model=16, d_ff=32)
        model = random_model(cfg, seed=52)
        data = token_sequences(cfg, 4, 16, seed=53)
        ce = evaluate(model, data, EvalMetric("cross_entropy"))
        ppl = evaluate(model, data, EvalMetric("perplexity"))
        assert ppl == pytest.approx(math.exp(ce), rel=1e-9)

    def test_perplexity_overflow_is_inf(self):
        cfg = default_config(n_layers=2, d_model=16, d_ff=32)
        model = random_model(cfg, seed=52)
        model = edited(model, {"head.w": model.store.get("head.w") * 1e4})
        data = token_sequences(cfg, 4, 16, seed=53)
        assert evaluate(model, data, EvalMetric("cross_entropy")) > 709.79
        assert evaluate(model, data, EvalMetric("perplexity")) == math.inf

    def test_matches_log_softmax_oracle(self):
        cfg = default_config(n_layers=1, d_model=8, d_ff=16)
        model = random_model(cfg, seed=54)
        seq = np.array([3, 9, 1, 7, 2], dtype=np.uint32)
        data = Dataset(sequences=[seq])
        ce = evaluate(model, data, EvalMetric("cross_entropy"))
        logits = model.forward(seq.astype(np.int64))
        expected = -np.mean([log_softmax_oracle(logits[t])[seq[t + 1]]
                             for t in range(len(seq) - 1)])
        assert ce == pytest.approx(float(expected), abs=1e-5)

    def test_greedy_data_scores_generator_well(self):
        cfg = default_config(n_layers=2, d_model=16, d_ff=32)
        model = random_model(cfg, seed=55)
        greedy = greedy_sequences(model, 6, 20, seed=56)
        rand = token_sequences(cfg, 6, 20, seed=57)
        metric = EvalMetric("cross_entropy")
        assert evaluate(model, greedy, metric) < evaluate(model, rand, metric)
        acc = evaluate(model, greedy, EvalMetric("accuracy"))
        assert acc > 0.9

    def test_classifier_constant_head_accuracy_one(self):
        cfg = replace(default_config(n_layers=1, d_model=8, d_ff=16),
                      mode="classifier", n_classes=3)
        bias = np.array([0.0, 50.0, 0.0], dtype=np.float32)
        model = edited(random_model(cfg, seed=58), {
            "head.w": np.zeros((3, cfg.d_model), np.float32), "head.b": bias})
        data = Dataset(sequences=[np.array([1, 2], dtype=np.uint32)] * 4,
                       labels=np.ones(4, dtype=np.int64))
        assert evaluate(model, data, EvalMetric("accuracy")) == 1.0

    def test_classifier_requires_labels(self):
        cfg = replace(default_config(n_layers=1, d_model=8, d_ff=16),
                      mode="classifier", n_classes=3)
        model = random_model(cfg, seed=59)
        data = Dataset(sequences=[np.array([1, 2], dtype=np.uint32)])
        with pytest.raises(ValueError, match="label"):
            evaluate(model, data, EvalMetric("accuracy"))

    def test_empty_dataset_rejected(self):
        cfg = default_config(n_layers=1, d_model=8, d_ff=16)
        model = random_model(cfg, seed=60)
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, Dataset(sequences=[]), EvalMetric("accuracy"))

    def test_metric_validation(self):
        with pytest.raises(ValueError, match="metric"):
            EvalMetric("bleu")
        assert EvalMetric.from_name("xent").kind == "cross_entropy"
        assert EvalMetric.from_name("ppl").kind == "perplexity"
        assert EvalMetric.from_name("acc").higher_is_better


class TestEvaluateOnHugeWeights:
    """What a sweep ranks is finite, or +inf for an overflowing perplexity,
    however large the float32 weights: a score is never NaN or -inf."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["relu", "gelu", "swiglu"]),
           placement=st.sampled_from(["pre_ln", "post_ln"]),
           mode=st.sampled_from(["lm", "classifier"]), metric=st.sampled_from(METRIC_KINDS),
           exponent=st.floats(0.0, 38.52), seed=st.integers(0, 2**16))
    def test_score_is_finite_or_overflowing_perplexity(self, kind, placement, mode, metric,
                                                       exponent, seed):
        cfg = replace(default_config(n_layers=2, d_model=8, d_ff=16, ff_kind=kind),
                      norm_placement=placement, mode=mode,
                      n_classes=3 if mode == "classifier" else None)
        model = random_model(cfg, seed)
        scaled = {name: np.clip(model.store.get(name).astype(np.float64) * 10.0 ** exponent,
                                -3.3e38, 3.3e38).astype(np.float32)
                  for name in model.store.names}
        tokens = token_sequences(cfg, 4, 10, seed=seed + 1)
        data = Dataset(tokens.sequences, np.arange(4) % 3 if mode == "classifier" else None)
        with np.errstate(over="ignore"):  # the forward overflows on the way
            score = evaluate(edited(model, scaled), data, EvalMetric(metric))
        assert math.isfinite(score) or (metric == "perplexity" and score == math.inf)


class TestModelCheckpointRoundTrip:
    def test_save_load(self, tmp_path):
        cfg = default_config(n_layers=2, d_model=16, d_ff=32, ff_kind="swiglu")
        model = random_model(cfg, seed=61)
        path = tmp_path / "m.ffmc"
        save_model(model, path)
        back = load_model(path)
        assert back.config == model.config
        toks = np.array([5, 1, 9], dtype=np.int64)
        np.testing.assert_array_equal(back.forward(toks), model.forward(toks))


# -- batched forward against the per-sequence reference ------------------------


def _reference_run(model: TransformerModel, tokens, tap=None):
    """The plain per-sequence float64 forward: one 1-D sequence, GELU's
    cube as ``z**3``."""
    cfg = model.config
    p = lambda name: model.store.get(name).astype(np.float64)
    toks = np.asarray(tokens, dtype=np.int64)
    n = toks.size

    def ln(x, name):
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-5) * p(f"{name}.gain") + p(f"{name}.bias")

    def attention(i, x):
        h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        proj = lambda w: (x @ p(f"layer{i}.attn.w{w}").T + p(f"layer{i}.attn.b{w}")
                          ).reshape(n, h, dh).transpose(1, 0, 2)
        scores = proj("q") @ proj("k").transpose(0, 2, 1) / math.sqrt(dh)
        if cfg.mode == "lm":
            scores = scores + np.triu(np.full((n, n), -np.inf), k=1)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = weights / weights.sum(axis=-1, keepdims=True)
        out = (weights @ proj("v")).transpose(1, 0, 2).reshape(n, cfg.d_model)
        return out @ p(f"layer{i}.attn.wo").T + p(f"layer{i}.attn.bo")

    def ff(i, x):
        w = lambda base: p(f"layer{i}.ff.{base}").T
        if cfg.ff_kind == "swiglu":
            up = x @ w("w_up")
            hidden = up / (1.0 + np.exp(-up)) * (x @ w("v_gate"))
            return hidden, hidden @ w("w_down")
        hidden = x @ w("w_in") + (w("b_in") if cfg.has_ff_biases else 0.0)
        if cfg.ff_kind == "relu":
            act = np.maximum(hidden, 0.0)
        else:
            act = 0.5 * hidden * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (
                hidden + 0.044715 * hidden**3)))
        return hidden, act @ w("w_out") + (w("b_out") if cfg.has_ff_biases else 0.0)

    pre = cfg.norm_placement == "pre_ln"
    x = p("embed.tok")[toks] + p("embed.pos")[:n]
    collected = {}
    for i in range(cfg.n_layers):
        a = attention(i, ln(x, f"layer{i}.ln1") if pre else x)
        x = x + a if pre else ln(x + a, f"layer{i}.ln1")
        hidden, y = ff(i, ln(x, f"layer{i}.ln2") if pre else x)
        collected[i] = {"attn_out": a, "ff_pre_act": hidden, "ff_out": y}.get(tap)
        x = x + y if pre else ln(x + y, f"layer{i}.ln2")
    if pre:
        x = ln(x, "final_ln")
    if cfg.mode == "classifier":
        x = x[0] if cfg.pooling == "cls" else x.mean(axis=0)
    return x @ p("head.w").T + p("head.b"), collected if tap else {}


def _reference_evaluate(model, dataset, kind):
    ce_sum, correct, count = 0.0, 0, 0
    labels = dataset.labels if dataset.labels is not None \
        else [None] * len(dataset.sequences)
    for seq, label in zip(dataset.sequences, labels):
        logits, _ = _reference_run(model, seq)
        if model.config.mode == "lm":
            if len(seq) < 2:
                continue
            targets = np.asarray(seq[1:], dtype=np.int64)
            ls = log_softmax_rows(logits[:-1])
            ce_sum += float(-ls[np.arange(len(targets)), targets].sum())
            correct += int((logits[:-1].argmax(axis=1) == targets).sum())
            count += len(targets)
        else:
            ce_sum += float(-log_softmax_rows(logits)[label])
            correct += int(logits.argmax() == label)
            count += 1
    ce = ce_sum / count
    return {"accuracy": correct / count, "cross_entropy": ce,
            "perplexity": math.exp(ce)}[kind]


def log_softmax_rows(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _reference_capture(model, dataset, tap, max_samples):
    rows, parts = 0, {i: [] for i in range(model.config.n_layers)}
    for seq in dataset.sequences:
        for i, mat in _reference_run(model, seq, tap)[1].items():
            parts[i].append(mat)
        rows += len(seq)
        if rows >= max_samples:
            break
    return {i: np.concatenate(m)[:max_samples].astype(np.float32)
            for i, m in parts.items()}


def _diff_model(ff_kind, placement, biases, mode, seed):
    cfg = replace(default_config(n_layers=2, d_model=8, d_ff=16, ff_kind=ff_kind),
                  norm_placement=placement,
                  has_ff_biases=biases and ff_kind != "swiglu")
    if mode != "lm":
        cfg = replace(cfg, mode="classifier", n_classes=3, pooling=mode)
    return random_model(cfg, seed)


def _ragged(cfg, lengths, seed):
    rng = np.random.default_rng(seed)
    seqs = [rng.integers(1, cfg.vocab_size, size=n).astype(np.uint32)
            for n in lengths]
    labels = None if cfg.mode == "lm" else rng.integers(0, cfg.n_classes,
                                                        size=len(seqs))
    return Dataset(sequences=seqs, labels=labels)


def _assert_batch_matches_reference(model, seqs, lens, toks, tap):
    """Each row of one ``_run`` batch, read up to its own length, against
    the per-sequence reference."""
    logits, taps = engine._run(model, toks, tap, lens=lens)
    for j, (seq, n) in enumerate(zip(seqs, lens)):
        ref_logits, ref_taps = _reference_run(model, seq, tap)
        got = logits[j, :n] if model.config.mode == "lm" else logits[j]
        np.testing.assert_allclose(got, ref_logits, rtol=0, atol=1e-12)
        for i in ref_taps:
            np.testing.assert_allclose(taps[i][j, :n], ref_taps[i], rtol=0, atol=1e-12)


def _assert_matches_reference(model, data, max_samples):
    for tap in TAPS:
        # _run on each equal-length group stacked as one unpadded batch
        by_len = {}
        for seq in data.sequences:
            by_len.setdefault(len(seq), []).append(seq)
        for n, seqs in by_len.items():
            _assert_batch_matches_reference(model, seqs, np.full(len(seqs), n),
                                            np.stack(seqs).astype(np.int64), tap)
        # and on the padded batches evaluate and capture run, lengths mixed
        for idx, lens, toks in engine._batches(model, data.sequences):
            _assert_batch_matches_reference(model, [data.sequences[j] for j in idx],
                                            lens, toks, tap)
        acts = capture_activations(model, data, tap, max_samples)
        for i, ref in _reference_capture(model, data, tap, max_samples).items():
            got = acts.per_layer[i]
            assert got.shape == ref.shape
            assert (np.abs(got - ref) <= np.spacing(np.abs(ref))).all()
    for kind in METRIC_KINDS:
        got = evaluate(model, data, EvalMetric(kind))
        assert got == pytest.approx(_reference_evaluate(model, data, kind),
                                    rel=1e-12, abs=1e-12)


class TestBatchedForward:
    @settings(max_examples=40, deadline=None)
    @given(ff_kind=st.sampled_from(["relu", "gelu", "swiglu"]),
           placement=st.sampled_from(["pre_ln", "post_ln"]),
           biases=st.booleans(), mode=st.sampled_from(["lm", "cls", "mean"]),
           lengths=st.lists(st.sampled_from([1, 2, 3, 5, 9]), min_size=1,
                            max_size=8),
           seed=st.integers(0, 2**16))
    def test_matches_per_sequence_reference(self, ff_kind, placement, biases,
                                            mode, lengths, seed):
        model = _diff_model(ff_kind, placement, biases, mode, seed)
        if mode == "lm" and max(lengths) < 2:
            lengths = lengths + [2]
        data = _ragged(model.config, lengths, seed + 1)
        _assert_matches_reference(model, data, max(1, sum(lengths) - 1))

    def test_length_group_larger_than_one_batch(self, monkeypatch):
        model = _diff_model("gelu", "pre_ln", True, "lm", seed=70)
        n = model.config.max_seq_len
        per_batch = engine.MAX_BATCH_TOKENS // n
        # the short sequences are padded into the last length-n batch; the
        # length-1 one scores nothing
        data = _ragged(model.config, [n] * (per_batch + 3) + [7, 1, n], seed=71)
        _assert_matches_reference(model, data, max_samples=(per_batch + 4) * n)
        batches = []
        run = engine._run

        def recording_run(model, tokens, tap=None, **kwargs):
            batches.append((np.shape(tokens), kwargs["lens"].tolist()))
            return run(model, tokens, tap, **kwargs)

        monkeypatch.setattr(engine, "_run", recording_run)
        evaluate(model, data, EvalMetric("cross_entropy"))
        assert batches == [((per_batch, n), [n] * per_batch),
                           ((6, n), [n] * 4 + [7, 1])]

    @settings(max_examples=100, deadline=None)
    @given(lengths=st.lists(st.integers(1, 16), min_size=1, max_size=30),
           max_tokens=st.integers(1, 64))
    def test_batches_pack_longest_first_within_the_token_bound(self, lengths,
                                                               max_tokens):
        model = _diff_model("relu", "pre_ln", False, "lm", seed=78)
        data = _ragged(model.config, lengths, seed=79)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "MAX_BATCH_TOKENS", max_tokens)
            batches = list(engine._batches(model, data.sequences))
        order = np.concatenate([idx for idx, _, _ in batches])
        # every sequence once, longest first, equal lengths in dataset order
        assert order.tolist() == sorted(range(len(lengths)), key=lambda j: -lengths[j])
        for idx, lens, toks in batches:
            assert toks.dtype == np.int64 and toks.shape == (len(idx), lens[0])
            assert toks.size <= max_tokens or len(idx) == 1
            for j, n, row in zip(idx, lens, toks):
                assert n == lengths[j]
                assert row[:n].tolist() == data.sequences[j].tolist()
                assert not row[n:].any()

    @pytest.mark.parametrize("mode", ["lm", "cls"])
    def test_each_sequence_checked_once_per_call(self, monkeypatch, mode):
        # a resumed evaluate scores the prefix's checked batches and checks none
        model = _diff_model("gelu", "pre_ln", True, mode, seed=73)
        data = _ragged(model.config, [1, 3, 3, 9, 1, 2, 9, 3], seed=74)
        metric = EvalMetric("cross_entropy")
        prefix = engine.residual_prefix(model, data, 1)
        checked = []
        check = engine._check_tokens

        def counting_check(config, tokens):
            checked.append(len(tokens))
            return check(config, tokens)

        monkeypatch.setattr(engine, "_check_tokens", counting_check)
        every = [len(seq) for seq in data.sequences]
        for call, expected in (
                (lambda: evaluate(model, data, metric), every),
                (lambda: evaluate(model, data, metric, prefix=prefix), []),
                (lambda: engine.residual_prefix(model, data, 1), every),
                (lambda: capture_activations(model, data, "ff_out", 1000), every)):
            checked.clear()
            call()
            assert checked == expected
        checked.clear()
        model.forward(data.sequences[3])
        assert checked == [9]

    @pytest.mark.parametrize("kind", METRIC_KINDS)
    def test_lm_length_one_sequences_score_nothing(self, kind):
        # bit for bit the score of the dataset without them
        model = _diff_model("gelu", "post_ln", True, "lm", seed=75)
        data = _ragged(model.config, [1, 5, 1, 1, 3, 5, 1, 2], seed=76)
        kept = Dataset(sequences=[seq for seq in data.sequences if len(seq) > 1])
        assert evaluate(model, data, EvalMetric(kind)) == \
            evaluate(model, kept, EvalMetric(kind))

    def test_refusal_order(self):
        lm = _diff_model("gelu", "pre_ln", True, "lm", seed=77)
        ones = [np.array([5], dtype=np.uint32)] * 3
        with pytest.raises(ValueError, match="no sequences of length >= 2"):
            evaluate(lm, Dataset(sequences=ones), EvalMetric("accuracy"))
        bad = ones + [np.array([999], dtype=np.uint32)]
        with pytest.raises(ValueError, match="token id 999"):
            evaluate(lm, Dataset(sequences=bad), EvalMetric("accuracy"))
        # a classifier's labels are checked before its tokens
        cls = _diff_model("gelu", "pre_ln", True, "cls", seed=77)
        with pytest.raises(ValueError, match="requires labels"):
            evaluate(cls, Dataset(sequences=bad), EvalMetric("accuracy"))
        with pytest.raises(ValueError, match="label out of range"):
            evaluate(cls, Dataset(sequences=bad, labels=[0, 1, 2, 3]),
                     EvalMetric("accuracy"))
        with pytest.raises(ValueError, match="token id 999"):
            evaluate(cls, Dataset(sequences=bad, labels=[0, 1, 2, 2]),
                     EvalMetric("accuracy"))

    @pytest.mark.parametrize("seq,ndim", [(np.array(5), 0), (np.array([[1, 2], [3, 4]]), 2)],
                             ids=["0-D", "2-D"])
    @pytest.mark.parametrize("call", ["evaluate", "capture"])
    def test_sequence_not_1d_refused(self, seq, ndim, call):
        # refused by name when the dataset is built, before a 0-D one reaches
        # len() or a 2-D one numpy's broadcast into a padded batch row
        model = _diff_model("gelu", "pre_ln", True, "lm", seed=80)
        run = {"evaluate": lambda data: evaluate(model, data, EvalMetric("accuracy")),
               "capture": lambda data: capture_activations(model, data, "ff_out", 100)}[call]
        with pytest.raises(ValueError, match=f"sequence 1 must be 1-D, got {ndim}-D"):
            run(Dataset(sequences=[np.array([1, 2, 3]), seq]))

    @pytest.mark.parametrize("placement", ["pre_ln", "post_ln"])
    def test_greedy_matches_per_sequence_loop(self, placement):
        model = _diff_model("gelu", placement, True, "lm", seed=72)
        cfg = model.config
        ids = [i for i in range(cfg.vocab_size) if i != cfg.separator_id]
        for seed in (0, 1, 2, 3):
            rng = np.random.default_rng(seed)
            expected = []
            for _ in range(5):
                toks = list(rng.choice(ids, size=2))
                while len(toks) < 24:
                    row = model.forward(np.array(toks, dtype=np.int64))[-1]
                    row = row.astype(np.float64)
                    row[cfg.separator_id] = -np.inf
                    toks.append(int(row.argmax()))
                expected.append(toks)
            got = greedy_sequences(model, 5, 24, seed=seed)
            assert [s.tolist() for s in got.sequences] == expected
