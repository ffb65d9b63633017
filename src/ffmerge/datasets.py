"""Binary token and label datasets.

Token files carry a 16-byte header (magic ``FFMTOKS1``, little-endian u64
count) followed by that many little-endian u32 token ids. Sequences are
delimited by the reserved separator id recorded in the model config; the
separator itself belongs to no sequence. Classifier datasets add a parallel
label file (magic ``FFMLBLS1``, same layout, one label per sequence).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write_bytes, sealed

TOKENS_MAGIC = b"FFMTOKS1"
LABELS_MAGIC = b"FFMLBLS1"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Token sequences, with per-sequence labels in classifier settings, frozen
    once built: a tuple of 1-D sequences and the labels (a 1-D integer array,
    one per sequence), each kept by ``checkpoint.sealed``, so no later edit of
    the caller's list or arrays reaches them."""

    sequences: tuple[np.ndarray, ...]
    labels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "sequences", tuple(map(sealed, self.sequences)))
        for i, seq in enumerate(self.sequences):
            if seq.ndim != 1:
                raise ValueError(f"sequence {i} must be 1-D, got {seq.ndim}-D")
        labels = None if self.labels is None else sealed(self.labels)
        if labels is not None and (labels.ndim != 1 or labels.dtype.kind not in "iu"):
            raise ValueError(f"labels must be a 1-D integer array, got {labels.ndim}-D "
                             f"dtype {labels.dtype}")
        if labels is not None and len(labels) != len(self.sequences):
            raise ValueError(f"{len(labels)} labels for {len(self.sequences)} sequences")
        object.__setattr__(self, "labels", labels)


def _u32(values, what: str) -> np.ndarray:
    """``values`` as u32; a value outside it would wrap into another valid id."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {values.dtype}")
    bad = np.flatnonzero((values < 0) | (values > 0xFFFFFFFF))
    if bad.size:
        raise ValueError(f"{what} {values.flat[bad[0]]} at position {bad[0]} is outside [0, 2**32)")
    return values.astype("<u4")


def _write_u32_file(path, magic: bytes, values: np.ndarray) -> None:
    values = np.ascontiguousarray(values, dtype="<u4")
    payload = magic + struct.pack("<Q", values.size) + values.tobytes()
    atomic_write_bytes(path, payload)


def _read_u32_file(path, magic: bytes) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:8] != magic:
        raise ValueError(f"{path}: not a {magic.decode()} file")
    (count,) = struct.unpack("<Q", data[8:16])
    if len(data) != 16 + 4 * count:
        raise ValueError(f"{path}: expected {count} u32 values, file size is off")
    values = np.frombuffer(data, dtype="<u4", offset=16).astype(np.int64)
    values.flags.writeable = False  # so a Dataset shares it, uncopied
    return values


def write_token_file(path, sequences: list[np.ndarray], separator_id: int) -> None:
    """Flatten 1-D, non-empty sequences into one token stream, separator-delimited."""
    parts = []
    for i, seq in enumerate(sequences):
        seq = _u32(seq, f"sequence {i}: token")
        if seq.ndim != 1 or not seq.size:
            raise ValueError(f"sequence {i} must be 1-D and non-empty, got shape {seq.shape}")
        if (seq == separator_id).any():
            raise ValueError("sequence contains the reserved separator id")
        parts.append(seq)
        parts.append(np.array([separator_id], dtype="<u4"))
    flat = np.concatenate(parts) if parts else np.array([], dtype="<u4")
    _write_u32_file(path, TOKENS_MAGIC, flat)


def read_token_file(path, separator_id: int) -> list[np.ndarray]:
    """The token stream split at the separator id, as read-only views of one
    array; empty segments are dropped."""
    flat = _read_u32_file(path, TOKENS_MAGIC)
    ends = np.flatnonzero(flat == separator_id)
    return [flat[a:b] for a, b in zip(np.r_[0, ends + 1], np.r_[ends, flat.size]) if b > a]


def write_label_file(path, labels: np.ndarray) -> None:
    if np.ndim(labels) != 1:
        raise ValueError(f"labels must be 1-D, got {np.ndim(labels)}-D")
    _write_u32_file(path, LABELS_MAGIC, _u32(labels, "label"))


def read_label_file(path) -> np.ndarray:
    return _read_u32_file(path, LABELS_MAGIC)


def label_path_for(token_path) -> str:
    """Conventional sidecar label path: token path with a .lbls suffix."""
    root, _ = os.path.splitext(os.fspath(token_path))
    return root + ".lbls"


def load_dataset(token_path, separator_id: int, label_path=None) -> Dataset:
    sequences = read_token_file(token_path, separator_id)
    labels = read_label_file(label_path) if label_path is not None else None
    return Dataset(sequences=sequences, labels=labels)
