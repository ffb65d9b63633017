"""Desk-scale transformer engine: deterministic forward pass, activation
capture at named tap points, and dataset evaluation.

Supports decoder-only LM and encoder-classifier modes, Pre-LN and Post-LN
placement, and relu/gelu/swiglu feed-forwards. Weights are stored float32;
all arithmetic runs in float64 so results are stable to far better than any
tolerance used elsewhere. Evaluation only: no training, dropout, or
generation machinery.

A forward takes one token sequence or a batch of equal-length ones;
``evaluate`` and ``capture_activations`` run a dataset as right-padded
batches, longest first, and put per-sequence results back in dataset order.
The elementwise kernels work in one fresh buffer, never in their input, with
the operations of their plain expressions, bit for bit.

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
                     ff_param_basenames, layer_tensor_names)
from .datasets import Dataset

TAPS = ("ff_pre_act", "ff_out", "attn_out")
METRIC_KINDS = ("cross_entropy", "perplexity", "accuracy")
METRIC_ALIASES = {"xent": "cross_entropy", "ppl": "perplexity", "acc": "accuracy"}

LN_EPS = 1e-5
# evaluate and capture forward right-padded batches of at most this many
# padded tokens, which bounds the float64 working set of one forward
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
    # tanh approximation, fixed for reproducibility; 1 + tanh(.) is 0 or in
    # [2**-53, 2], so halving it before the product gives 0.5 * z * (...)'s bits
    t = z * z
    t *= z
    t *= 0.044715
    t += z
    t *= math.sqrt(2.0 / math.pi)
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5
    t *= z
    return t


def swish1(z: np.ndarray) -> np.ndarray:
    t = np.negative(z)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(z, t, out=t)


_ACTIVATIONS = {"relu": relu, "gelu": gelu}


def _ff_apply(params: FFParams, x64: np.ndarray, kind: str):
    """One feed-forward in float64; returns (hidden tap, output).

    The hidden tap is the pre-activation for relu/gelu and the gated
    product for swiglu. A bias is added only when the layer has one.
    """
    w = lambda base: params[base].T.astype(np.float64)
    if kind == "swiglu":
        hidden = swish1(x64 @ w("w_up"))
        hidden *= x64 @ w("v_gate")
        return hidden, hidden @ w("w_down")
    hidden = x64 @ w("w_in")
    if "b_in" in params:
        hidden += w("b_in")
    y = _ACTIVATIONS[kind](hidden) @ w("w_out")
    if "b_out" in params:
        y += w("b_out")
    return hidden, y


def ff_forward(params: FFParams, x, kind: str):
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
        logits, _ = _run(self, _check_tokens(self.config, tokens))
        return logits.astype(np.float32)

    def _p(self, name: str) -> np.ndarray:
        return self.store.get(name).astype(np.float64)


def ff_params(model: TransformerModel, layer: int) -> FFParams:
    """The feed-forward table of one layer (arrays shared, not copied)."""
    return FFParams({base: model.store.get(f"layer{layer}.ff.{base}")
                     for base in ff_param_basenames(model.config)})


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    xc = x - x.mean(axis=-1, keepdims=True)
    # np.var's steps on the one x - mean buffer: square, sum, divide by n
    var = (xc * xc).mean(axis=-1, keepdims=True)
    xc /= np.sqrt(var + LN_EPS)
    xc *= gain
    xc += bias
    return xc


def _attention_weights(q: np.ndarray, k: np.ndarray, mask) -> np.ndarray:
    """Softmax over keys of q k^T / sqrt(dh) + ``mask`` (0 or -inf, or None)."""
    scores = q @ k.transpose(0, 1, 3, 2)
    scores /= math.sqrt(q.shape[-1])
    if mask is not None:
        scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _attention(model: TransformerModel, layer: int, x: np.ndarray,
               n: int, mask) -> np.ndarray:
    """Self-attention over the length-``n`` sequences stacked in ``x``."""
    cfg = model.config
    p = lambda name: model._p(f"layer{layer}.attn.{name}")
    b = x.shape[0] // n
    h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    q, k, v = ((x @ p(f"w{c}").T + p(f"b{c}")).reshape(b, n, h, dh).transpose(0, 2, 1, 3)
               for c in "qkv")
    out = (_attention_weights(q, k, mask) @ v).transpose(0, 2, 1, 3).reshape(b * n, cfg.d_model)
    return out @ p("wo").T + p("bo")


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


def _run(model: TransformerModel, toks: np.ndarray, tap: str | None = None, start: int = 0,
         x: np.ndarray | None = None, stop: int | None = None, lens: np.ndarray | None = None):
    """Forward pass in float64; optionally collects per-layer tap matrices.

    ``toks`` is one checked int64 sequence (n,) or batch (b, n), not checked
    again here; logits and taps keep that leading shape, a classifier's
    pooled logits drop n. Row r of a right-padded batch is ``lens[r]`` long:
    no query sees a padded key; the caller skips padded logits and tap rows.
    ``x`` resumes the pass at layer ``start`` from the stream entering it;
    ``stop`` ends it before layer ``stop``, with no head and logits None.
    """
    cfg = model.config
    lead, n = toks.shape, toks.shape[-1]
    p = model._p
    if x is None:
        x = p("embed.tok")[toks] + p("embed.pos")[:n]
    x = x.reshape(-1, cfg.d_model)
    valid = np.arange(n) < (n if lens is None else lens[:, None])
    # one mask per batch; in LM mode the causal one hides every padded key
    mask = (np.triu(np.full((n, n), -np.inf), k=1) if cfg.mode == "lm" else
            None if valid.all() else np.where(valid, 0.0, -np.inf)[:, None, None])
    collected: dict[int, np.ndarray] = {}
    for i in range(start, cfg.n_layers if stop is None else stop):
        ln1 = (p(f"layer{i}.ln1.gain"), p(f"layer{i}.ln1.bias"))
        ln2 = (p(f"layer{i}.ln2.gain"), p(f"layer{i}.ln2.bias"))
        if cfg.norm_placement == "pre_ln":
            a = _attention(model, i, _layer_norm(x, *ln1), n, mask)
            x = x + a
        else:
            a = _attention(model, i, x, n, mask)
            x = _layer_norm(x + a, *ln1)
        ff_in = _layer_norm(x, *ln2) if cfg.norm_placement == "pre_ln" else x
        hidden, y = _ff_apply(ff_params(model, i), ff_in, cfg.ff_kind)
        x = x + y if cfg.norm_placement == "pre_ln" else _layer_norm(x + y, *ln2)
        if tap is not None:  # resid_out is x itself, so x is never written in place
            collected[i] = {"attn_out": a, "ff_pre_act": hidden, "ff_out": y,
                            "resid_out": x}[tap]
    taps = {i: m.reshape(*lead, -1) for i, m in collected.items()}
    if stop is not None:
        return None, taps
    if cfg.norm_placement == "pre_ln":
        x = _layer_norm(x, p("final_ln.gain"), p("final_ln.bias"))
    if cfg.mode == "classifier":
        seqs = x.reshape(-1, n, cfg.d_model)
        x = (seqs[:, 0] if cfg.pooling == "cls" else  # the mean of a row's own positions
             np.where(valid[..., None], seqs, 0.0).sum(axis=1) / valid.sum(axis=-1)[..., None])
        lead = lead[:-1]
    return (x @ p("head.w").T + p("head.b")).reshape(*lead, -1), taps


def _batches(model: TransformerModel, sequences):
    """Yield (indices into ``sequences``, their lengths, int64 token matrix)
    per batch, longest first (a stable sort), each right-padded with token 0
    and at most ``MAX_BATCH_TOKENS`` padded tokens unless one sequence. This
    is the one token check of ``residual_prefix``, and so of ``evaluate``,
    and of capture: each sequence once, in order, before the first batch, so
    an error names the first bad token in ``sequences``."""
    checked = [_check_tokens(model.config, seq) for seq in sequences]
    order = sorted(range(len(checked)), key=lambda j: -len(checked[j]))
    while order:
        step = max(1, MAX_BATCH_TOKENS // len(checked[order[0]]))
        idx, order = np.array(order[:step]), order[step:]
        lens = np.array([len(checked[j]) for j in idx])
        toks = np.zeros((len(idx), lens[0]), dtype=np.int64)
        for row, j in zip(toks, idx):
            row[:len(checked[j])] = checked[j]
        yield idx, lens, toks


# -- activation capture -------------------------------------------------------


@dataclass
class ActivationSet:
    """Per-layer feature matrices captured at one tap point: ``per_layer[i]``
    is layer i's matrix, for every layer of the model in order.

    Row r holds the features of the same input position in every layer.
    """

    tap: str
    per_layer: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.tap not in TAPS:
            raise ValueError(f"tap must be one of {TAPS}, got {self.tap!r}")
        if not self.per_layer:
            raise ValueError("activation set has no layers")
        shapes = {m.shape for m in self.per_layer}
        if any(len(shape) != 2 for shape in shapes):
            raise ValueError(f"per-layer matrices must be 2-D, got {sorted(shapes)}")
        if len(shapes) != 1:
            raise ValueError(f"inconsistent per-layer shapes: {sorted(shapes)}")

    @property
    def sample_count(self) -> int:
        return self.per_layer[0].shape[0]

    @property
    def width(self) -> int:
        return self.per_layer[0].shape[1]


def capture_activations(model: TransformerModel, dataset: Dataset, tap: str,
                        max_samples: int) -> ActivationSet:
    """Run the model over the dataset and collect per-position features.

    Rows are taken in dataset order at every layer at once, cast to float32
    per batch, cut to ``max_samples`` and made read-only; the pass stops
    before the head. The swiglu ff_pre_act tap is the gated product.
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
    parts = [[None] * len(prefix) for _ in range(model.config.n_layers)]
    for idx, lens, toks in _batches(model, prefix):
        taps = _run(model, toks, tap, stop=model.config.n_layers, lens=lens)[1]
        while taps:  # each layer's float64 batch tap is dropped once cast
            i, mats = taps.popitem()
            for j, n, mat in zip(idx, lens, mats):
                parts[i][j] = mat[:n].astype(np.float32)
    per_layer = []
    while parts:  # each layer's pieces are dropped once joined
        joined = np.concatenate(parts.pop(0))
        joined.flags.writeable = False  # before the cut, so a store shares the rows
        per_layer.append(joined[:max_samples])
    return ActivationSet(tap=tap, per_layer=tuple(per_layer))


def write_activations(acts: ActivationSet, path) -> None:
    store = ParameterStore({f"acts.layer{i}": m for i, m in enumerate(acts.per_layer)})
    write_container(store, {"tap": acts.tap, "sample_count": acts.sample_count}, path)


def read_activations(path) -> ActivationSet:
    store, meta = read_container(path)
    if not isinstance(meta, dict) or "tap" not in meta:
        raise ValueError(f"{path} is not an activation dump")
    for i, name in enumerate(store.names):
        if name != f"acts.layer{i}":
            raise ValueError(f"unexpected entry {name!r} in activation dump, "
                             f"expected 'acts.layer{i}'")
    count = meta.get("sample_count")
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValueError(f"{path}: sample_count must be an integer, got {count!r}")
    acts = ActivationSet(tap=meta["tap"], per_layer=tuple(map(store.get, store.names)))
    if count != acts.sample_count:
        raise ValueError(f"{path}: sample_count {count} does not match "
                         f"{acts.sample_count} rows")
    return acts


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


@dataclass(frozen=True)
class ResidualPrefix:
    """``dataset`` checked and batched for ``evaluate``, with ``model``'s
    streams. Each batch is (indices, lengths, int64 tokens, streams), where
    ``streams[i]`` enters layer i for i in 0..stop: None at 0, which ``_run``
    embeds, then layer i - 1's ``resid_out``; stop x padded tokens x d_model x 8 B."""

    model: TransformerModel
    dataset: Dataset
    stop: int
    batches: tuple
    count: int
    labels: np.ndarray | None


def residual_prefix(model: TransformerModel, dataset: Dataset, stop: int) -> ResidualPrefix:
    """Check and batch ``dataset`` for ``evaluate`` (labels, then each token
    once, then the prediction count) and run ``model``'s layers 0..stop-1."""
    if not dataset.sequences:
        raise ValueError("cannot evaluate on an empty dataset")
    labels = None
    if model.config.mode == "classifier":
        if dataset.labels is None:
            raise ValueError("classifier evaluation requires labels")
        labels = np.asarray(dataset.labels, dtype=np.int64)
        if (labels < 0).any() or (labels >= model.config.n_classes).any():
            raise ValueError("label out of range")
    batches = list(_batches(model, dataset.sequences))
    # an LM sequence of length 1 is batched like the rest and predicts nothing
    count = len(labels) if labels is not None else sum(len(s) - 1 for s in dataset.sequences)
    if not count:
        raise ValueError("dataset has no sequences of length >= 2")
    # layer 0's stream is left for _run to embed; its taps come in layer order
    return ResidualPrefix(model, dataset, stop, tuple((idx, lens, toks, [None, *(
        _run(model, toks, "resid_out", stop=stop, lens=lens)[1].values() if stop else ())])
        for idx, lens, toks in batches), count, labels)


def evaluate(model: TransformerModel, dataset: Dataset, metric: EvalMetric, *,
             prefix: ResidualPrefix | None = None) -> float:
    """Score the model on a dataset.

    LM mode scores next-token prediction over every position (a length-1
    sequence is batched and scores nothing); classifier mode scores one
    pooled prediction per sequence against its label. Cross-entropy is the
    mean in nats, perplexity its exp (``math.inf`` once that overflows a
    float), accuracy the top-1 hit rate.

    Every score resumes from ``prefix`` (default ``residual_prefix(model,
    dataset, 0)``): it runs the layers from the first one below
    min(prefix.stop, n_layers) that is not the prefix model's, and the
    head, over the prefix's checked batches, for the same score bit for
    bit. It is refused unless ``dataset`` is the prefix's own object and
    the config differs from the prefix model's only in ``n_layers``.
    """
    prefix = residual_prefix(model, dataset, 0) if prefix is None else prefix
    base = prefix.model
    if dataset is not prefix.dataset:
        raise ValueError("cannot resume: the prefix was built on another dataset")
    if replace(model.config, n_layers=base.config.n_layers) != base.config:
        raise ValueError("cannot resume: the config differs from the prefix model's")
    # the first layer that holds another array; layers of identical arrays
    # compute the identical stream, and another embedding changes them all
    same = lambda names: all(model.store.get(n) is base.store.get(n) for n in names)
    stop = min(prefix.stop, model.config.n_layers)
    start = next((i for i in range(stop) if not same(layer_tensor_names(model.config, i))),
                 stop) if same(("embed.tok", "embed.pos")) else 0
    # per-sequence sums, added up below in dataset order
    ce_seq = np.zeros(len(dataset.sequences))
    hits = np.zeros(len(dataset.sequences), dtype=np.int64)
    for idx, lens, toks, streams in prefix.batches:
        logits, _ = _run(model, toks, start=start, x=streams[start], lens=lens)
        if model.config.mode == "lm":  # each row predicts up to its own end
            logits, targets = logits[:, :-1], toks[:, 1:]
            scored = np.arange(targets.shape[1]) < lens[:, None] - 1
        else:  # one pooled prediction per sequence
            logits, targets, scored = logits[:, None], prefix.labels[idx][:, None], True
        picked = np.take_along_axis(_log_softmax(logits), targets[..., None], -1)
        ce_seq[idx] = -np.where(scored, picked[..., 0], 0.0).sum(axis=1)
        hits[idx] = ((logits.argmax(axis=-1) == targets) & scored).sum(axis=1)
    ce_sum = 0.0
    for value in ce_seq:
        ce_sum += float(value)
    if metric.kind == "accuracy":
        return int(hits.sum()) / prefix.count
    ce = ce_sum / prefix.count
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
    """Read a model; an invalid ``__config__`` raises ``CheckpointFormatError``."""
    store, meta = read_container(path)
    try:
        config = ModelConfig.from_dict(meta)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(
            f"__config__ is not a valid model config: {exc}", offset=16) from exc
    return TransformerModel(config, store)
