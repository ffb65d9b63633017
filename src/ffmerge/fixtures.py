"""Reproducible constructed models and token data for experiments and tests.

Three model families:

- random: independent gaussian weights everywhere; nothing special.
- duplicate: every layer carries byte-identical feed-forward weights, all
  attention is zero, and each feed-forward's output matrix is rank-1 with
  equal rows, so its output is a uniform vector per position. LayerNorm is
  exactly invariant to adding a uniform vector, so every layer receives the
  same input and produces identical activations.
- permuted-copy: like duplicate, but only a contiguous group of layers
  carries the shared feed-forward, each member reordered by a planted
  hidden-unit permutation; the rest of the network is random. The group
  merges losslessly once the planted permutations are undone.

All constructions are driven by a seed and are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import Permutation, apply_permutation
from .checkpoint import ParameterStore
from .config import (ATTN_PARAM_NAMES, ModelConfig, ff_param_basenames, ff_shapes,
                     model_tensor_names)
from .datasets import Dataset
from .engine import FFParams, TransformerModel, set_ff_params

FIXTURE_KINDS = ("duplicate", "permuted-copy", "random")


def default_config(n_layers: int = 6, d_model: int = 16, d_ff: int = 64,
                   ff_kind: str = "gelu") -> ModelConfig:
    """The small LM shape shared by the constructed fixtures."""
    return ModelConfig(mode="lm", n_layers=n_layers, d_model=d_model, d_ff=d_ff,
                       n_heads=2 if d_model % 2 == 0 else 1, vocab_size=32,
                       max_seq_len=64, norm_placement="pre_ln", ff_kind=ff_kind,
                       has_ff_biases=ff_kind != "swiglu")


def _build(cfg: ModelConfig, tensors: dict[str, np.ndarray]) -> TransformerModel:
    store = ParameterStore()
    for name in model_tensor_names(cfg):
        store.add(name, np.asarray(tensors[name], dtype=np.float32))
    return TransformerModel(cfg, store)


def _base_tensors(cfg: ModelConfig, rng: np.random.Generator,
                  ln_noise: float) -> dict[str, np.ndarray]:
    """Embeddings, attention, layer norms, and head; feed-forwards excluded."""
    d = cfg.d_model
    t: dict[str, np.ndarray] = {
        "embed.tok": rng.normal(0.0, 1.0, (cfg.vocab_size, d)),
        "embed.pos": rng.normal(0.0, 0.3, (cfg.max_seq_len, d)),
        "head.w": rng.normal(0.0, 2.0 / np.sqrt(d), (cfg.head_width, d)),
        "head.b": rng.normal(0.0, 0.01, cfg.head_width),
    }
    for i in range(cfg.n_layers):
        for w in ("wq", "wk", "wv", "wo"):
            t[f"layer{i}.attn.{w}"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, d))
        for b in ("bq", "bk", "bv", "bo"):
            t[f"layer{i}.attn.{b}"] = rng.normal(0.0, 0.01, d)
        for ln in ("ln1", "ln2"):
            t[f"layer{i}.{ln}.gain"] = 1.0 + rng.normal(0.0, ln_noise, d)
            t[f"layer{i}.{ln}.bias"] = rng.normal(0.0, ln_noise, d)
    if cfg.norm_placement == "pre_ln":
        t["final_ln.gain"] = 1.0 + rng.normal(0.0, ln_noise, d)
        t["final_ln.bias"] = rng.normal(0.0, ln_noise, d)
    return t


def _drawn_basenames(cfg: ModelConfig) -> tuple[str, ...]:
    """The feed-forward tensors a fixture draws, in draw order.

    relu/gelu fixtures draw both biases even for a layer without them, so
    the random stream does not depend on ``has_ff_biases``; installing
    keeps only the layer's own tensors.
    """
    if cfg.ff_kind == "swiglu":
        return ff_param_basenames(cfg)
    return ("w_in", "b_in", "w_out", "b_out")


def _random_ff(cfg: ModelConfig, rng: np.random.Generator,
               fixed: dict[str, np.ndarray] | None = None) -> FFParams:
    """Gaussian feed-forward tensors, except those given in ``fixed``."""
    fixed = fixed or {}
    d, f = cfg.d_model, cfg.d_ff
    scales = {"w_in": 1.0 / np.sqrt(d), "w_up": 1.0 / np.sqrt(d),
              "v_gate": 1.0 / np.sqrt(d), "b_in": 0.1,
              "w_out": 1.0 / np.sqrt(f), "w_down": 1.0 / np.sqrt(f), "b_out": 0.01}
    shapes = ff_shapes(cfg)
    params = FFParams()
    for base in _drawn_basenames(cfg):
        arr = fixed[base] if base in fixed else rng.normal(0.0, scales[base], shapes[base])
        params[base] = arr.astype(np.float32)
    return params


def _uniform_output_ff(cfg: ModelConfig, rng: np.random.Generator) -> FFParams:
    """A feed-forward whose output matrix has equal rows (rank 1).

    Its output is the same value in every model dimension, which LayerNorm
    cancels exactly, so stacking such layers leaves every layer's input
    identical.
    """
    d, f = cfg.d_model, cfg.d_ff
    v = rng.normal(0.0, 1.0 / np.sqrt(f), f)
    w_out = np.outer(np.ones(d), v)
    return _random_ff(cfg, rng, {"w_out": w_out, "w_down": w_out,
                                 "b_out": np.zeros(d)})


def _install_ff(tensors: dict[str, np.ndarray], cfg: ModelConfig, layer: int,
                params: FFParams) -> None:
    # copies keep reused parameter sets independent across layers
    for base in ff_param_basenames(cfg):
        tensors[f"layer{layer}.ff.{base}"] = params[base].copy()


def _zero_attention(tensors: dict[str, np.ndarray], cfg: ModelConfig,
                    layer: int) -> None:
    d = cfg.d_model
    for name in ATTN_PARAM_NAMES:
        shape = (d, d) if name.startswith("w") else d
        tensors[f"layer{layer}.attn.{name}"] = np.zeros(shape, dtype=np.float32)


def _identity_norms(tensors: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    d = cfg.d_model
    for i in range(cfg.n_layers):
        for ln in ("ln1", "ln2"):
            tensors[f"layer{i}.{ln}.gain"] = np.ones(d, dtype=np.float32)
            tensors[f"layer{i}.{ln}.bias"] = np.zeros(d, dtype=np.float32)
    if cfg.norm_placement == "pre_ln":
        tensors["final_ln.gain"] = np.ones(d, dtype=np.float32)
        tensors["final_ln.bias"] = np.zeros(d, dtype=np.float32)


def random_model(cfg: ModelConfig, seed: int) -> TransformerModel:
    """Independent gaussian weights everywhere."""
    rng = np.random.default_rng(seed)
    tensors = _base_tensors(cfg, rng, ln_noise=0.1)
    for i in range(cfg.n_layers):
        _install_ff(tensors, cfg, i, _random_ff(cfg, rng))
    return _build(cfg, tensors)


def duplicate_model(cfg: ModelConfig, seed: int) -> TransformerModel:
    """Every layer: zero attention, identity norms, one shared rank-1-output
    feed-forward (stored per layer, not tied). All layers see identical
    inputs and produce identical activations."""
    rng = np.random.default_rng(seed)
    tensors = _base_tensors(cfg, rng, ln_noise=0.0)
    _identity_norms(tensors, cfg)
    shared = _uniform_output_ff(cfg, rng)
    for i in range(cfg.n_layers):
        _zero_attention(tensors, cfg, i)
        _install_ff(tensors, cfg, i, shared)
    return _build(cfg, tensors)


@dataclass(frozen=True)
class PermutedCopyFixture:
    """A model whose group layers are hidden-permuted copies of one base
    feed-forward, plus the planted permutation of each group member."""

    model: TransformerModel
    group_start: int
    group_len: int
    planted: dict[int, Permutation]

    @property
    def group_layers(self) -> tuple[int, ...]:
        return tuple(range(self.group_start, self.group_start + self.group_len))


def permuted_copy_model(cfg: ModelConfig, seed: int,
                        group_start: int | None = None,
                        group_len: int | None = None) -> PermutedCopyFixture:
    """Zero attention and identity norms everywhere; layers outside the group
    carry independent random feed-forwards, group layers carry planted
    hidden-unit permutations of one rank-1-output feed-forward.

    The group's first layer keeps the base ordering (identity plant).
    """
    if group_start is None:
        group_start = cfg.n_layers // 3
    if group_len is None:
        group_len = cfg.n_layers // 2
    if group_len < 2 or group_start < 0 or group_start + group_len > cfg.n_layers:
        raise ValueError(
            f"group [{group_start}, {group_start + group_len}) does not fit "
            f"{cfg.n_layers} layers or is too short"
        )
    rng = np.random.default_rng(seed)
    tensors = _base_tensors(cfg, rng, ln_noise=0.0)
    _identity_norms(tensors, cfg)
    base = _uniform_output_ff(cfg, rng)
    planted: dict[int, Permutation] = {}
    for i in range(cfg.n_layers):
        _zero_attention(tensors, cfg, i)
        if group_start <= i < group_start + group_len:
            if i == group_start:
                perm = Permutation.identity(cfg.d_ff)
            else:
                perm = Permutation(rng.permutation(cfg.d_ff).astype(np.int64))
            planted[i] = perm
            _install_ff(tensors, cfg, i, apply_permutation(base, perm))
        else:
            _install_ff(tensors, cfg, i, _random_ff(cfg, rng))
    return PermutedCopyFixture(model=_build(cfg, tensors),
                               group_start=group_start, group_len=group_len,
                               planted=planted)


def zeroed_layer_model(cfg: ModelConfig, zero_layer: int,
                       seed: int) -> TransformerModel:
    """A random model with one layer's attention and feed-forward all zero.

    Under Pre-LN a zero sublayer adds nothing to the residual stream, so the
    zeroed layer is an exact identity and dropping it preserves the function.
    """
    if cfg.norm_placement != "pre_ln":
        raise ValueError("a zeroed layer is only an identity under pre_ln")
    if not 0 <= zero_layer < cfg.n_layers:
        raise ValueError(f"zero_layer {zero_layer} out of range")
    model = random_model(cfg, seed)
    _zero_attention_store(model, zero_layer)
    shapes = ff_shapes(cfg)
    zeroed = FFParams({base: np.zeros(shapes[base], dtype=np.float32)
                       for base in ff_param_basenames(cfg)})
    set_ff_params(model, zero_layer, zeroed)
    return model


def _zero_attention_store(model: TransformerModel, layer: int) -> None:
    d = model.config.d_model
    for name in ATTN_PARAM_NAMES:
        shape = (d, d) if name.startswith("w") else (d,)
        model.store.set_owner(f"layer{layer}.attn.{name}",
                              np.zeros(shape, dtype=np.float32))


def noisy_permuted_pair(cfg: ModelConfig, seed: int, noise_scale: float = 0.01):
    """A feed-forward plus a hidden-permuted copy with gaussian noise added
    at ``noise_scale`` of each tensor's own scale.

    Returns (base, noisy copy, planted permutation).
    """
    rng = np.random.default_rng(seed)
    base = _random_ff(cfg, rng)
    perm = Permutation(rng.permutation(cfg.d_ff).astype(np.int64))

    def jitter(arr: np.ndarray) -> np.ndarray:
        scale = float(arr.std())
        noise = rng.normal(0.0, noise_scale * scale, arr.shape)
        return (arr.astype(np.float64) + noise).astype(np.float32)

    # jitter every drawn tensor so the noise does not depend on has_ff_biases
    noisy = {b: jitter(arr) for b, arr in apply_permutation(base, perm).items()}
    kept = ff_param_basenames(cfg)
    return (FFParams({b: base[b] for b in kept}),
            FFParams({b: noisy[b] for b in kept}), perm)


def token_sequences(cfg: ModelConfig, n_sequences: int, seq_len: int,
                    seed: int) -> Dataset:
    """Uniform random token sequences that avoid the separator id."""
    if seq_len < 1 or seq_len > cfg.max_seq_len:
        raise ValueError(f"seq_len must be in [1, {cfg.max_seq_len}]")
    rng = np.random.default_rng(seed)
    ids = [i for i in range(cfg.vocab_size) if i != cfg.separator_id]
    seqs = [np.array(rng.choice(ids, size=seq_len), dtype=np.uint32)
            for _ in range(n_sequences)]
    return Dataset(sequences=seqs)


def greedy_sequences(model: TransformerModel, n_sequences: int, seq_len: int,
                     seed: int, prompt_len: int = 2) -> Dataset:
    """Sequences the model itself continues greedily from random prompts.

    Each sequence starts with ``prompt_len`` random tokens and is extended
    one argmax token at a time; the separator id is never emitted. Such data
    scores the generating model well, so any surgery that damages the model
    shows up as a worse score.
    """
    cfg = model.config
    if not 1 <= prompt_len < seq_len or seq_len > cfg.max_seq_len:
        raise ValueError("need 1 <= prompt_len < seq_len <= max_seq_len")
    rng = np.random.default_rng(seed)
    ids = [i for i in range(cfg.vocab_size) if i != cfg.separator_id]
    seqs = []
    for _ in range(n_sequences):
        toks = list(rng.choice(ids, size=prompt_len))
        while len(toks) < seq_len:
            logits = model.forward(np.array(toks, dtype=np.int64))
            row = logits[-1].astype(np.float64)
            row[cfg.separator_id] = -np.inf
            toks.append(int(row.argmax()))
        seqs.append(np.array(toks, dtype=np.uint32))
    return Dataset(sequences=seqs)


def gen_fixture(kind: str, *, n_layers: int, d_model: int, d_ff: int,
                ff_kind: str = "gelu", seed: int = 0) -> TransformerModel:
    """Build one of the named fixture models from a seed."""
    if kind not in FIXTURE_KINDS:
        raise ValueError(f"kind must be one of {FIXTURE_KINDS}, got {kind!r}")
    cfg = default_config(n_layers=n_layers, d_model=d_model, d_ff=d_ff,
                         ff_kind=ff_kind)
    if kind == "random":
        return random_model(cfg, seed)
    if kind == "duplicate":
        return duplicate_model(cfg, seed)
    return permuted_copy_model(cfg, seed).model
