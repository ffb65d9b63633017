"""Desk-scale transformer engine: deterministic forward pass, activation
capture at named tap points, and dataset evaluation.

Supports decoder-only LM and encoder-classifier modes, Pre-LN and Post-LN
placement, and relu/gelu/swiglu feed-forwards. Weights are stored float32;
all arithmetic runs in float64 so results are stable to far better than any
tolerance used elsewhere. Evaluation only: no training, dropout, or
generation machinery.

A forward takes one token sequence or a batch of equal-length ones;
``evaluate`` and ``capture_activations`` run a dataset as equal-length
batches and put per-sequence results back in dataset order.

GELU is pinned to the tanh approximation
``0.5*z*(1 + tanh(sqrt(2/pi)*(z + 0.044715*(z*z*z))))`` so snapshots stay
stable; the cube is two multiplies, far cheaper than ``z**3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import (CheckpointFormatError, ParameterStore, read_container,
                         write_container)
from .config import (FF_HIDDEN_AXIS, FF_KINDS, ModelConfig, expected_shapes,
                     ff_param_basenames, model_tensor_names)
from .datasets import Dataset

TAPS = ("ff_pre_act", "ff_out", "attn_out")
METRIC_KINDS = ("cross_entropy", "perplexity", "accuracy")
METRIC_ALIASES = {"xent": "cross_entropy", "ppl": "perplexity", "acc": "accuracy"}

LN_EPS = 1e-5
# evaluate and capture forward equal-length sequences in batches of at most
# this many tokens, which bounds the float64 working set of one forward
MAX_BATCH_TOKENS = 2048


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


# a second name for the one table, kept for the benchmark harness
SwigluFFParams = FFParams


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def gelu(z: np.ndarray) -> np.ndarray:
    # tanh approximation, fixed for reproducibility
    return 0.5 * z * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                    * (z + 0.044715 * (z * z * z))))


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


def ff_forward(params: FFParams, x, kind: str = "gelu"):
    """Run one relu, gelu or swiglu feed-forward sublayer; returns (hidden
    tap, output) as float32.

    The hidden tap is the pre-activation for relu/gelu and the gated
    product for swiglu, the tap point used for alignment. ``x`` may be a
    single vector of width d_model or a matrix of row vectors.
    """
    if kind not in FF_KINDS:
        raise ValueError(f"kind must be one of {FF_KINDS}, got {kind!r}")
    x64 = np.asarray(x, dtype=np.float64)
    d_model = params["w_up" if kind == "swiglu" else "w_in"].shape[1]
    if x64.ndim not in (1, 2) or x64.shape[-1] != d_model:
        raise ValueError(f"input shape {x64.shape} does not match d_model {d_model}")
    hidden, y = _ff_apply(params, x64, kind)
    return hidden.astype(np.float32), y.astype(np.float32)


# kept for the benchmark harness, which times the swiglu kernel by this name
def swiglu_forward(params: FFParams, x):
    return ff_forward(params, x, "swiglu")


# -- model ------------------------------------------------------------------


@dataclass(frozen=True)
class TransformerModel:
    """A config bound to a parameter store holding exactly its canonical tensors."""

    config: ModelConfig
    store: ParameterStore

    def __post_init__(self):
        # Check at most len(store) + 1 layers. Each layer names tensors of
        # its own, so a config claiming more layers than that lacks one
        # within them, and fails at the same first missing tensor without
        # building a table entry per claimed layer.
        cfg = replace(self.config, n_layers=min(self.config.n_layers, len(self.store) + 1))
        shapes = expected_shapes(cfg)
        for name, shape in shapes.items():
            if name not in self.store:
                raise ValueError(f"checkpoint is missing tensor {name!r}")
            got = self.store.get(name).shape
            if got != shape:
                raise ValueError(f"tensor {name!r} has shape {got}, expected {shape}")
        extra = [name for name in self.store.names if name not in shapes]
        if extra:
            raise ValueError(f"checkpoint has tensor {extra[0]!r}, which the config "
                             "does not define")

    def forward(self, tokens) -> np.ndarray:
        """Deterministic logits for one token sequence (float32).

        LM mode returns one row of vocabulary logits per position (causal
        attention); classifier mode returns a single pooled class-logit
        vector (bidirectional attention). A 2-D (batch, n) array of
        equal-length sequences runs as one batch and returns (batch, n,
        vocab) logits, or (batch, n_classes) for a classifier. Token ids
        must be integers in the vocabulary.
        """
        logits, _ = _run(self, tokens)
        return logits.astype(np.float32)

    def _p(self, name: str) -> np.ndarray:
        return self.store.get(name).astype(np.float64)


def ff_params(model: TransformerModel, layer: int) -> FFParams:
    """The feed-forward table of one layer (arrays shared, not copied)."""
    return FFParams({base: model.store.get(f"layer{layer}.ff.{base}")
                     for base in ff_param_basenames(model.config)})


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gain + bias


def _attention(model: TransformerModel, layer: int, x: np.ndarray,
               n: int) -> np.ndarray:
    """Self-attention over the length-``n`` sequences stacked in ``x``."""
    cfg = model.config
    p = model._p
    b = x.shape[0] // n
    h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    q = x @ p(f"layer{layer}.attn.wq").T + p(f"layer{layer}.attn.bq")
    k = x @ p(f"layer{layer}.attn.wk").T + p(f"layer{layer}.attn.bk")
    v = x @ p(f"layer{layer}.attn.wv").T + p(f"layer{layer}.attn.bv")
    q = q.reshape(b, n, h, dh).transpose(0, 2, 1, 3)
    k = k.reshape(b, n, h, dh).transpose(0, 2, 1, 3)
    v = v.reshape(b, n, h, dh).transpose(0, 2, 1, 3)
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    if cfg.mode == "lm":
        causal = np.triu(np.full((n, n), -np.inf), k=1)
        scores = scores + causal
    scores = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights = weights / weights.sum(axis=-1, keepdims=True)
    out = (weights @ v).transpose(0, 2, 1, 3).reshape(b * n, cfg.d_model)
    return out @ p(f"layer{layer}.attn.wo").T + p(f"layer{layer}.attn.bo")


def _check_tokens(config: ModelConfig, tokens) -> np.ndarray:
    toks = np.asarray(tokens)
    if toks.ndim not in (1, 2) or toks.size < 1:
        raise ValueError("input must be a non-empty token sequence or batch")
    if toks.dtype.kind not in "iu":
        raise ValueError(f"token ids must be integers, got dtype {toks.dtype}")
    if toks.shape[-1] > config.max_seq_len:
        raise ValueError(
            f"sequence length {toks.shape[-1]} exceeds max_seq_len {config.max_seq_len}"
        )
    if (toks < 0).any() or (toks >= config.vocab_size).any():
        bad = toks[(toks < 0) | (toks >= config.vocab_size)][0]
        raise ValueError(f"token id {bad} out of vocabulary (size {config.vocab_size})")
    return toks.astype(np.int64, copy=False)


def _run(model: TransformerModel, tokens, tap: str | None = None, start: int = 0,
         x: np.ndarray | None = None, stop: int | None = None):
    """Forward pass in float64; optionally collects per-layer tap matrices.

    ``tokens`` is one sequence (n,) or an equal-length batch (b, n); logits
    and taps keep that leading shape, a classifier's pooled logits drop n.
    ``x`` resumes the pass at layer ``start`` from the stream entering it;
    ``stop`` ends it before layer ``stop``, with no head and logits None.
    """
    cfg = model.config
    toks = _check_tokens(cfg, tokens)
    lead, n = toks.shape, toks.shape[-1]
    p = model._p
    if x is None:
        x = p("embed.tok")[toks] + p("embed.pos")[:n]
    x = x.reshape(-1, cfg.d_model)
    collected: dict[int, np.ndarray] = {}
    for i in range(start, cfg.n_layers if stop is None else stop):
        ln1 = (p(f"layer{i}.ln1.gain"), p(f"layer{i}.ln1.bias"))
        ln2 = (p(f"layer{i}.ln2.gain"), p(f"layer{i}.ln2.bias"))
        if cfg.norm_placement == "pre_ln":
            a = _attention(model, i, _layer_norm(x, *ln1), n)
            x = x + a
        else:
            a = _attention(model, i, x, n)
            x = _layer_norm(x + a, *ln1)
        ff_in = _layer_norm(x, *ln2) if cfg.norm_placement == "pre_ln" else x
        hidden, y = _ff_apply(ff_params(model, i), ff_in, cfg.ff_kind)
        x = x + y if cfg.norm_placement == "pre_ln" else _layer_norm(x + y, *ln2)
        if tap is not None:  # resid_out, the residual stream a layer leaves
            collected[i] = {"attn_out": a, "ff_pre_act": hidden, "ff_out": y,
                            "resid_out": x}[tap]
    taps = {i: m.reshape(*lead, -1) for i, m in collected.items()}
    if stop is not None:
        return None, taps
    if cfg.norm_placement == "pre_ln":
        x = _layer_norm(x, p("final_ln.gain"), p("final_ln.bias"))
    if cfg.mode == "classifier":
        seqs = x.reshape(-1, n, cfg.d_model)
        x = seqs[:, 0] if cfg.pooling == "cls" else seqs.mean(axis=1)
        lead = lead[:-1]
    return (x @ p("head.w").T + p("head.b")).reshape(*lead, -1), taps


def _batches(model: TransformerModel, sequences):
    """Yield (indices into ``sequences``, token matrix) per batch of
    equal-length sequences, grouped by length in first-seen order and split
    at ``MAX_BATCH_TOKENS`` tokens (at least one sequence a batch). All
    tokens are checked in sequence order before the first batch, so an
    error names the first bad token in ``sequences``."""
    checked = [_check_tokens(model.config, seq) for seq in sequences]
    groups: dict[int, list[int]] = {}
    for j, toks in enumerate(checked):
        groups.setdefault(len(toks), []).append(j)
    for n, idx in groups.items():
        step = max(1, MAX_BATCH_TOKENS // n)
        for start in range(0, len(idx), step):
            batch = idx[start:start + step]
            yield batch, np.stack([checked[j] for j in batch])


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
        if any(len(shape) != 2 for shape in shapes):
            raise ValueError(f"per-layer matrices must be 2-D, got {sorted(shapes)}")
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
    # only the sequences needed to reach max_samples rows
    rows = np.cumsum([len(seq) for seq in dataset.sequences])
    prefix = dataset.sequences[:np.searchsorted(rows, max_samples) + 1]
    count = min(int(rows[len(prefix) - 1]), max_samples)
    parts: dict[int, list] = {i: [None] * len(prefix)
                              for i in range(model.config.n_layers)}
    for idx, toks in _batches(model, prefix):
        for i, mats in _run(model, toks, tap)[1].items():
            for j, mat in zip(idx, mats):
                parts[i][j] = mat
    per_layer = {
        i: np.concatenate(mats)[:count].astype(np.float32)
        for i, mats in parts.items()
    }
    return ActivationSet(tap=tap, per_layer=per_layer, sample_count=count)


def write_activations(acts: ActivationSet, path) -> None:
    store = ParameterStore({f"acts.layer{i}": acts.per_layer[i] for i in acts.layers()})
    write_container(store, {"tap": acts.tap, "sample_count": acts.sample_count}, path)


def read_activations(path) -> ActivationSet:
    store, meta = read_container(path)
    if not isinstance(meta, dict) or "tap" not in meta:
        raise ValueError(f"{path} is not an activation dump")
    per_layer = {}
    for name in store.names:
        index = name[len("acts.layer"):]
        if (not name.startswith("acts.layer") or not index.isdecimal()
                or index != str(int(index))):
            raise ValueError(f"unexpected entry {name!r} in activation dump")
        per_layer[int(index)] = store.get(name)
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


def _scored(model: TransformerModel, dataset: Dataset):
    """(sequences, prediction count, labels) of what ``evaluate`` scores."""
    if not dataset.sequences:
        raise ValueError("cannot evaluate on an empty dataset")
    if model.config.mode == "lm":
        for seq in dataset.sequences:  # a bad token fails before any filtering
            _check_tokens(model.config, seq)
        seqs = [seq for seq in dataset.sequences if len(seq) >= 2]
        if not seqs:
            raise ValueError("dataset has no sequences of length >= 2")
        return seqs, sum(len(seq) - 1 for seq in seqs), None
    if dataset.labels is None:
        raise ValueError("classifier evaluation requires labels")
    labels = np.asarray(dataset.labels, dtype=np.int64)
    if (labels < 0).any() or (labels >= model.config.n_classes).any():
        raise ValueError("label out of range")
    return dataset.sequences, len(dataset.sequences), labels


@dataclass(frozen=True)
class ResidualPrefix:
    """``model``'s streams leaving layers 0..stop-1 (``resid_out`` taps), per
    batch, with the token matrix of each batch it ran."""

    model: TransformerModel
    dataset: Dataset
    stop: int
    tokens: list
    streams: list


def residual_prefix(model: TransformerModel, dataset: Dataset, stop: int) -> ResidualPrefix:
    """Run layers 0..stop-1 of ``model``, with no head, for ``evaluate``'s resume."""
    tokens = [toks for _, toks in _batches(model, _scored(model, dataset)[0])]
    return ResidualPrefix(model, dataset, stop, tokens, [
        _run(model, toks, "resid_out", stop=stop)[1] for toks in tokens])


def evaluate(model: TransformerModel, dataset: Dataset, metric: EvalMetric, *,
             resume: tuple[ResidualPrefix, int] | None = None) -> float:
    """Score the model on a dataset.

    LM mode scores next-token prediction over every position; classifier
    mode scores one pooled prediction per sequence against its label.
    Cross-entropy is the mean in nats, perplexity its exp (``math.inf``
    once that overflows a float), accuracy the top-1 hit rate.

    ``resume=(prefix, start)`` runs only layers >= start and the head from the
    prefix model's stream, for the same score bit for bit. It is refused unless
    ``dataset`` is the prefix's own object and still yields the batches the
    prefix ran, token for token, 1 <= start <= stop, the config differs only
    in ``n_layers``, and every ``embed.*`` and ``layer<i>.*`` tensor with
    i < start is the prefix model's very array. A prefix holds stop x tokens x d_model x 8 B.
    """
    seqs, count, labels = _scored(model, dataset)
    batches = list(_batches(model, seqs))
    prefix, start = resume or (None, 0)
    if prefix is not None:
        base, below = prefix.model, ("embed.",) + tuple(f"layer{i}." for i in range(start))
        unshared = [n for n in model_tensor_names(base.config) if n.startswith(below) and (
            n not in model.store or model.store.get(n) is not base.store.get(n))]
        if dataset is not prefix.dataset:
            raise ValueError("cannot resume: the prefix was built on another dataset")
        if len(batches) != len(prefix.tokens) or not all(
                np.array_equal(toks, ran) for (_, toks), ran in zip(batches, prefix.tokens)):
            raise ValueError("cannot resume: the dataset's tokens changed since the prefix")
        if not 0 < start <= prefix.stop:
            raise ValueError(f"cannot resume at {start}: prefix holds 1..{prefix.stop}")
        if replace(model.config, n_layers=base.config.n_layers) != base.config:
            raise ValueError("cannot resume: the config differs from the prefix model's")
        if unshared:
            raise ValueError(f"cannot resume at {start}: {unshared[0]!r} is not shared")
    # per-sequence sums, added up below in dataset order
    ce_seq = np.zeros(len(seqs))
    hits = np.zeros(len(seqs), dtype=np.int64)
    for b, (idx, toks) in enumerate(batches):
        logits, _ = (_run(model, toks) if prefix is None else
                     _run(model, toks, start=start, x=prefix.streams[b][start - 1]))
        if model.config.mode == "lm":
            logits = logits[:, :-1]
            targets = np.stack([seqs[j][1:] for j in idx]).astype(np.int64)
        else:  # one pooled prediction per sequence
            targets = labels[idx][:, None]
            logits = logits[:, None]
        picked = np.take_along_axis(_log_softmax(logits), targets[..., None], -1)
        ce_seq[idx] = -picked[..., 0].sum(axis=1)
        hits[idx] = (logits.argmax(axis=-1) == targets).sum(axis=1)
    ce_sum = 0.0
    for value in ce_seq:
        ce_sum += float(value)
    correct = int(hits.sum())
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
    write_container(model.store, model.config.to_dict(), path)


def load_model(path) -> TransformerModel:
    store, meta = read_container(path)
    try:
        config = ModelConfig.from_dict(meta)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(
            f"__config__ is not a valid model config: {exc}", offset=16) from exc
    return TransformerModel(config, store)
