"""Desk-scale transformer engine: deterministic forward pass, activation
capture at named tap points, and dataset evaluation.

Supports decoder-only LM and encoder-classifier modes, Pre-LN and Post-LN
placement, and relu/gelu/swiglu feed-forwards. Weights are stored float32;
all arithmetic runs in float64 so results are stable to far better than any
tolerance used elsewhere. Evaluation only: no training, dropout, or
generation machinery.

GELU is pinned to the tanh approximation
``0.5*z*(1 + tanh(sqrt(2/pi)*(z + 0.044715*z**3)))`` so snapshots stay stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import ParameterStore, read_container, write_container
from .config import (FF_HIDDEN_AXIS, ModelConfig, expected_shapes,
                     ff_param_basenames, model_tensor_names)
from .datasets import Dataset

TAPS = ("ff_pre_act", "ff_out", "attn_out")
METRIC_KINDS = ("cross_entropy", "perplexity", "accuracy")
METRIC_ALIASES = {"xent": "cross_entropy", "ppl": "perplexity", "acc": "accuracy"}

LN_EPS = 1e-5


# -- feed-forward parameter tables -------------------------------------------


class FFParams(dict):
    """One feed-forward sublayer as {basename: array}, holding exactly the
    tensors the layer has (``config.ff_param_basenames``).

    relu/gelu: y = W_out phi(W_in x + b_in) + b_out, each bias optional.
    swiglu: y = W_down (Swish1(W_up x) * V_gate x).
    """

    @property
    def d_ff(self) -> int:
        base = next(b for b in self if FF_HIDDEN_AXIS[b] is not None)
        return self[base].shape[FF_HIDDEN_AXIS[base]]


# the name swiglu callers construct; the table is the same for every kind
SwigluFFParams = FFParams


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def gelu(z: np.ndarray) -> np.ndarray:
    # tanh approximation, fixed for reproducibility
    return 0.5 * z * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (z + 0.044715 * z**3)))


def swish1(z: np.ndarray) -> np.ndarray:
    return z / (1.0 + np.exp(-z))


_ACTIVATIONS = {"relu": relu, "gelu": gelu}


def _ff_apply(params: FFParams, x64: np.ndarray, kind: str):
    """One feed-forward in float64; returns (hidden tap, output).

    The hidden tap is the pre-activation for relu/gelu and the gated
    product for swiglu. A bias is added only when the layer has one.
    """
    w = lambda base: params[base].T.astype(np.float64)
    if kind == "swiglu":
        hidden = swish1(x64 @ w("w_up")) * (x64 @ w("v_gate"))
        return hidden, hidden @ w("w_down")
    hidden = x64 @ w("w_in")
    if "b_in" in params:
        hidden = hidden + w("b_in")
    y = _ACTIVATIONS[kind](hidden) @ w("w_out")
    if "b_out" in params:
        y = y + w("b_out")
    return hidden, y


def _check_ff_input(x, d_model: int) -> np.ndarray:
    x64 = np.asarray(x, dtype=np.float64)
    if x64.ndim not in (1, 2) or x64.shape[-1] != d_model:
        raise ValueError(f"input shape {x64.shape} does not match d_model {d_model}")
    return x64


def ff_forward(params: FFParams, x, activation: str = "gelu"):
    """Run one feed-forward sublayer; returns (pre_activation, output).

    ``x`` may be a single vector of width d_model or a matrix of row vectors.
    """
    if activation not in _ACTIVATIONS:
        raise ValueError(f"activation must be one of {tuple(_ACTIVATIONS)}")
    x64 = _check_ff_input(x, params["w_in"].shape[1])
    pre, y = _ff_apply(params, x64, activation)
    return pre.astype(np.float32), y.astype(np.float32)


def swiglu_forward(params: FFParams, x):
    """Run one SwiGLU sublayer; returns (gated product, output).

    The gated product (after the component-wise multiply) is the tap point
    used for alignment.
    """
    x64 = _check_ff_input(x, params["w_up"].shape[1])
    gated, y = _ff_apply(params, x64, "swiglu")
    return gated.astype(np.float32), y.astype(np.float32)


# -- model ------------------------------------------------------------------


@dataclass
class TransformerModel:
    """A config bound to a parameter store holding the canonical tensors."""

    config: ModelConfig
    store: ParameterStore

    def __post_init__(self):
        shapes = expected_shapes(self.config)
        for name in model_tensor_names(self.config):
            if name not in self.store:
                raise ValueError(f"checkpoint is missing tensor {name!r}")
            got = self.store.get(name).shape
            if got != shapes[name]:
                raise ValueError(
                    f"tensor {name!r} has shape {got}, expected {shapes[name]}"
                )

    def copy(self) -> "TransformerModel":
        return TransformerModel(self.config, self.store.copy())

    def forward(self, tokens) -> np.ndarray:
        """Deterministic logits for one token sequence (float32).

        LM mode returns one row of vocabulary logits per position (causal
        attention); classifier mode returns a single pooled class-logit
        vector (bidirectional attention).
        """
        logits, _ = _run(self, tokens)
        return logits.astype(np.float32)

    def _p(self, name: str) -> np.ndarray:
        return self.store.get(name).astype(np.float64)


def ff_params(model: TransformerModel, layer: int) -> FFParams:
    """The feed-forward table of one layer (arrays shared, not copied)."""
    return FFParams({base: model.store.get(f"layer{layer}.ff.{base}")
                     for base in ff_param_basenames(model.config)})


def set_ff_params(model: TransformerModel, layer: int, params: FFParams) -> None:
    """Install a feed-forward table under the layer's canonical names.

    If the layer's tensors are tied, the whole tied group observes the
    new values.
    """
    for base in ff_param_basenames(model.config):
        name = f"layer{layer}.ff.{base}"
        target = model.store.alias_target(name)
        model.store.set_owner(target if target is not None else name,
                              np.asarray(params[base], dtype=np.float32))


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gain + bias


def _attention(model: TransformerModel, layer: int, x: np.ndarray) -> np.ndarray:
    cfg = model.config
    p = model._p
    n = x.shape[0]
    h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    q = x @ p(f"layer{layer}.attn.wq").T + p(f"layer{layer}.attn.bq")
    k = x @ p(f"layer{layer}.attn.wk").T + p(f"layer{layer}.attn.bk")
    v = x @ p(f"layer{layer}.attn.wv").T + p(f"layer{layer}.attn.bv")
    q = q.reshape(n, h, dh).transpose(1, 0, 2)
    k = k.reshape(n, h, dh).transpose(1, 0, 2)
    v = v.reshape(n, h, dh).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
    if cfg.mode == "lm":
        causal = np.triu(np.full((n, n), -np.inf), k=1)
        scores = scores + causal
    scores = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights = weights / weights.sum(axis=-1, keepdims=True)
    out = (weights @ v).transpose(1, 0, 2).reshape(n, cfg.d_model)
    return out @ p(f"layer{layer}.attn.wo").T + p(f"layer{layer}.attn.bo")


def _check_tokens(config: ModelConfig, tokens) -> np.ndarray:
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.ndim != 1 or toks.size < 1:
        raise ValueError("input must be a non-empty 1-D token sequence")
    if toks.size > config.max_seq_len:
        raise ValueError(
            f"sequence length {toks.size} exceeds max_seq_len {config.max_seq_len}"
        )
    if (toks < 0).any() or (toks >= config.vocab_size).any():
        bad = toks[(toks < 0) | (toks >= config.vocab_size)][0]
        raise ValueError(f"token id {bad} out of vocabulary (size {config.vocab_size})")
    return toks


def _run(model: TransformerModel, tokens, tap: str | None = None):
    """Forward pass in float64; optionally collects per-layer tap matrices."""
    cfg = model.config
    toks = _check_tokens(cfg, tokens)
    n = toks.size
    p = model._p
    x = p("embed.tok")[toks] + p("embed.pos")[:n]
    collected: dict[int, np.ndarray] = {}
    for i in range(cfg.n_layers):
        ln1 = (p(f"layer{i}.ln1.gain"), p(f"layer{i}.ln1.bias"))
        ln2 = (p(f"layer{i}.ln2.gain"), p(f"layer{i}.ln2.bias"))
        if cfg.norm_placement == "pre_ln":
            a = _attention(model, i, _layer_norm(x, *ln1))
            x = x + a
        else:
            a = _attention(model, i, x)
            x = _layer_norm(x + a, *ln1)
        if tap == "attn_out":
            collected[i] = a
        params = ff_params(model, i)
        ff_in = _layer_norm(x, *ln2) if cfg.norm_placement == "pre_ln" else x
        hidden, y = _ff_apply(params, ff_in, cfg.ff_kind)
        if tap == "ff_pre_act":
            collected[i] = hidden
        elif tap == "ff_out":
            collected[i] = y
        x = x + y if cfg.norm_placement == "pre_ln" else _layer_norm(x + y, *ln2)
    if cfg.norm_placement == "pre_ln":
        x = _layer_norm(x, p("final_ln.gain"), p("final_ln.bias"))
    if cfg.mode == "classifier":
        pooled = x[0] if cfg.pooling == "cls" else x.mean(axis=0)
        logits = pooled @ p("head.w").T + p("head.b")
    else:
        logits = x @ p("head.w").T + p("head.b")
    return logits, collected


# -- activation capture -------------------------------------------------------


@dataclass
class ActivationSet:
    """Per-layer feature matrices captured at one tap point.

    Row r holds the features of the same input position in every layer.
    """

    tap: str
    per_layer: dict[int, np.ndarray]
    sample_count: int

    def __post_init__(self):
        if self.tap not in TAPS:
            raise ValueError(f"tap must be one of {TAPS}, got {self.tap!r}")
        if not self.per_layer:
            raise ValueError("activation set has no layers")
        shapes = {m.shape for m in self.per_layer.values()}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent per-layer shapes: {sorted(shapes)}")
        (shape,) = shapes
        if shape[0] != self.sample_count:
            raise ValueError(
                f"sample_count {self.sample_count} does not match matrices {shape}"
            )

    @property
    def width(self) -> int:
        return next(iter(self.per_layer.values())).shape[1]

    def layers(self) -> list[int]:
        return sorted(self.per_layer)


def capture_activations(model: TransformerModel, dataset: Dataset, tap: str,
                        max_samples: int) -> ActivationSet:
    """Run the model over the dataset and collect per-position features.

    Rows are collected in dataset order at every layer simultaneously,
    then truncated to ``max_samples``. For swiglu models the ff_pre_act
    tap captures the gated product.
    """
    if tap not in TAPS:
        raise ValueError(f"tap must be one of {TAPS}, got {tap!r}")
    if max_samples < 1:
        raise ValueError("max_samples must be >= 1")
    if not dataset.sequences:
        raise ValueError("cannot capture activations from an empty dataset")
    buffers: dict[int, list[np.ndarray]] = {i: [] for i in range(model.config.n_layers)}
    rows = 0
    for seq in dataset.sequences:
        _, taps = _run(model, seq, tap=tap)
        for i, mat in taps.items():
            buffers[i].append(mat)
        rows += len(seq)
        if rows >= max_samples:
            break
    count = min(rows, max_samples)
    per_layer = {
        i: np.concatenate(parts)[:count].astype(np.float32)
        for i, parts in buffers.items()
    }
    return ActivationSet(tap=tap, per_layer=per_layer, sample_count=count)


def write_activations(acts: ActivationSet, path) -> None:
    store = ParameterStore()
    for i in acts.layers():
        store.add(f"acts.layer{i}", acts.per_layer[i])
    write_container(store, {"tap": acts.tap, "sample_count": acts.sample_count}, path)


def read_activations(path) -> ActivationSet:
    store, meta = read_container(path)
    if not isinstance(meta, dict) or "tap" not in meta:
        raise ValueError(f"{path} is not an activation dump")
    per_layer = {}
    for name in store.names:
        if not name.startswith("acts.layer"):
            raise ValueError(f"unexpected entry {name!r} in activation dump")
        per_layer[int(name[len("acts.layer"):])] = store.get(name)
    count = meta.get("sample_count")
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValueError(f"{path}: sample_count must be an integer, got {count!r}")
    return ActivationSet(tap=meta["tap"], per_layer=per_layer, sample_count=count)


# -- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class EvalMetric:
    """Evaluation metric; perplexity is exp(cross-entropy in nats)."""

    kind: str

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"metric must be one of {METRIC_KINDS}, got {self.kind!r}")

    @property
    def higher_is_better(self) -> bool:
        return self.kind == "accuracy"

    @classmethod
    def from_name(cls, name: str) -> "EvalMetric":
        return cls(METRIC_ALIASES.get(name, name))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def evaluate(model: TransformerModel, dataset: Dataset, metric: EvalMetric) -> float:
    """Score the model on a dataset.

    LM mode scores next-token prediction over every position; classifier
    mode scores one pooled prediction per sequence against its label.
    Cross-entropy is the mean in nats, perplexity its exp (``math.inf``
    once that overflows a float), accuracy the top-1 hit rate.
    """
    if not dataset.sequences:
        raise ValueError("cannot evaluate on an empty dataset")
    ce_sum = 0.0
    correct = 0
    count = 0
    if model.config.mode == "lm":
        for seq in dataset.sequences:
            if len(seq) < 2:
                continue
            logits, _ = _run(model, seq)
            ls = _log_softmax(logits[:-1])
            targets = np.asarray(seq[1:], dtype=np.int64)
            ce_sum += float(-ls[np.arange(len(targets)), targets].sum())
            correct += int((logits[:-1].argmax(axis=1) == targets).sum())
            count += len(targets)
        if count == 0:
            raise ValueError("dataset has no sequences of length >= 2")
    else:
        if dataset.labels is None:
            raise ValueError("classifier evaluation requires labels")
        labels = np.asarray(dataset.labels, dtype=np.int64)
        if (labels < 0).any() or (labels >= model.config.n_classes).any():
            raise ValueError("label out of range")
        for seq, label in zip(dataset.sequences, labels):
            logits, _ = _run(model, seq)
            ce_sum += float(-_log_softmax(logits)[label])
            correct += int(logits.argmax() == label)
            count += 1
    if metric.kind == "accuracy":
        return correct / count
    ce = ce_sum / count
    if metric.kind == "cross_entropy":
        return ce
    try:
        return math.exp(ce)
    except OverflowError:
        return math.inf


# -- model checkpoints --------------------------------------------------------


def save_model(model: TransformerModel, path) -> None:
    from .checkpoint import write_checkpoint

    write_checkpoint(model.store, model.config, path)


def load_model(path) -> TransformerModel:
    from .checkpoint import read_checkpoint

    store, config = read_checkpoint(path)
    return TransformerModel(config, store)
