"""Model architecture description and the canonical tensor naming scheme.

Every model checkpoint is self-describing: the configuration below travels
inside the checkpoint header, and all weights are stored under the canonical
names produced by the helpers here.

Weight convention: a matrix named with shape (out, in) maps a row vector x
of width `in` to `x @ W.T + b`.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields

MODES = ("lm", "classifier")
NORM_PLACEMENTS = ("pre_ln", "post_ln")
FF_KINDS = ("relu", "gelu", "swiglu")
POOLINGS = ("cls", "mean")

ATTN_PARAM_NAMES = ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")

# The axis of each feed-forward tensor that indexes hidden units; permuting
# the units gathers every tensor along this axis. b_out has none.
FF_HIDDEN_AXIS = {"w_in": 0, "b_in": 0, "w_up": 0, "v_gate": 0,
                  "w_out": 1, "w_down": 1, "b_out": None}

_SIZE_FIELDS = ("n_layers", "d_model", "d_ff", "n_heads", "vocab_size", "max_seq_len")
_CHOICE_FIELDS = {"mode": MODES, "norm_placement": NORM_PLACEMENTS, "ff_kind": FF_KINDS,
                  "pooling": POOLINGS}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of a desk-scale transformer.

    ``separator_id`` is the reserved token id that delimits sequences in
    token dataset files; it is part of the model's vocabulary.
    """

    mode: str
    n_layers: int
    d_model: int
    d_ff: int
    n_heads: int
    vocab_size: int
    max_seq_len: int
    norm_placement: str
    ff_kind: str
    has_ff_biases: bool = True
    n_classes: int | None = None
    pooling: str = "mean"
    separator_id: int = 0

    def __post_init__(self):
        # a checkpoint header can carry any JSON value; bool is an int subclass
        optional = () if self.n_classes is None else ("n_classes",)
        for field in _SIZE_FIELDS + ("separator_id",) + optional:
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{field} must be an integer, got {value!r}")
        if not isinstance(self.has_ff_biases, bool):
            raise ValueError(
                f"has_ff_biases must be a boolean, got {self.has_ff_biases!r}")
        for field, choices in _CHOICE_FIELDS.items():
            value = getattr(self, field)
            if value not in choices:
                raise ValueError(f"{field} must be one of {choices}, got {value!r}")
        for field in _SIZE_FIELDS:
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.ff_kind == "swiglu" and self.has_ff_biases:
            raise ValueError("swiglu feed-forwards carry no biases")
        if self.mode == "classifier":
            if self.n_classes is None or self.n_classes < 2:
                raise ValueError("classifier mode requires n_classes >= 2")
        if not 0 <= self.separator_id < self.vocab_size:
            raise ValueError("separator_id must be a valid token id")

    @property
    def head_width(self) -> int:
        return self.vocab_size if self.mode == "lm" else int(self.n_classes)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if not isinstance(d, dict):
            raise ValueError("model config must be a JSON object")
        required = {f.name for f in fields(cls) if f.default is MISSING}
        missing = required - d.keys()
        if missing:
            raise ValueError(f"model config missing fields: {sorted(missing)}")
        unknown = d.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"model config has unknown fields: {sorted(unknown)}")
        return cls(**d)


def ff_param_basenames(config: ModelConfig) -> tuple[str, ...]:
    """Base names of the feed-forward tensors of one layer."""
    if config.ff_kind == "swiglu":
        return ("w_up", "v_gate", "w_down")
    if config.has_ff_biases:
        return ("w_in", "b_in", "w_out", "b_out")
    return ("w_in", "w_out")


def ff_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every feed-forward basename at this config's widths."""
    d, f = config.d_model, config.d_ff
    return {"w_in": (f, d), "b_in": (f,), "w_out": (d, f), "b_out": (d,),
            "w_up": (f, d), "v_gate": (f, d), "w_down": (d, f)}


def ff_tensor_names(config: ModelConfig, layer: int) -> list[str]:
    return [f"layer{layer}.ff.{base}" for base in ff_param_basenames(config)]


def layer_tensor_names(config: ModelConfig, layer: int) -> list[str]:
    names = [f"layer{layer}.attn.{p}" for p in ATTN_PARAM_NAMES]
    names += ff_tensor_names(config, layer)
    names += [f"layer{layer}.ln1.gain", f"layer{layer}.ln1.bias",
              f"layer{layer}.ln2.gain", f"layer{layer}.ln2.bias"]
    return names


def model_tensor_names(config: ModelConfig) -> list[str]:
    """All tensor names a checkpoint of this architecture must contain."""
    names = ["embed.tok", "embed.pos"]
    for i in range(config.n_layers):
        names += layer_tensor_names(config, i)
    names += ["head.w", "head.b"]
    if config.norm_placement == "pre_ln":
        names += ["final_ln.gain", "final_ln.bias"]
    return names


def expected_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Map every required tensor name, in ``model_tensor_names`` order, to its shape."""
    d = config.d_model
    # by full name, else by base name (the part after the last dot), else (d,)
    known = {"embed.tok": (config.vocab_size, d), "embed.pos": (config.max_seq_len, d),
             "head.w": (config.head_width, d), "head.b": (config.head_width,),
             "wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d), **ff_shapes(config)}
    return {name: known.get(name, known.get(name.rsplit(".", 1)[1], (d,)))
            for name in model_tensor_names(config)}
