"""FFMC-v1 checkpoint container: named float32 tensors with alias entries.

Weight tying is realized on disk and in memory by alias entries: an alias
names another (non-alias) entry and resolves to the exact same storage.
Alias chains are restricted to depth 1.

File layout (all integers little-endian):

    bytes 0..7    magic ASCII "FFMCKPT1"
    bytes 8..15   unsigned 64-bit header byte length H
    bytes 16..    UTF-8 JSON header of H bytes:
                    "__config__": metadata object (model config, or an
                                  activation-dump header)
                    one key per tensor name mapping to
                      {"dtype":"f32","shape":[...],"offset":o,"length":l}
                    or {"alias_of":"<name>","shape":[...]}
    bytes 16+H..  data region; offsets are relative to its start; tensors
                  are row-major little-endian float32, packed, no padding

Writes are atomic (temp file in the target directory, then rename).
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig

MAGIC = b"FFMCKPT1"
OWNER_FIELDS = {"dtype", "shape", "offset", "length"}
ALIAS_FIELDS = {"alias_of", "shape"}


class CheckpointFormatError(ValueError):
    """A malformed checkpoint file; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class BadMagicError(CheckpointFormatError):
    pass


class TruncatedFileError(CheckpointFormatError):
    pass


class AliasError(CheckpointFormatError):
    pass


class EntryMismatchError(CheckpointFormatError):
    pass


def _check_tensor(name: str, array) -> np.ndarray:
    arr = np.ascontiguousarray(array, dtype=np.float32)
    if arr.ndim < 1:
        raise ValueError(f"tensor {name!r} must have at least one dimension")
    if not np.isfinite(arr).all():
        raise ValueError(f"tensor {name!r} contains NaN or Inf")
    return arr


class ParameterStore:
    """Ordered map of tensor names to float32 arrays, with alias entries.

    An alias shares the exact storage of its (non-alias) target: mutating
    the payload behind a tied name is observed through every alias.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}
        self._alias: dict[str, str] = {}
        self._order: list[str] = []

    # -- construction ----------------------------------------------------

    def add(self, name: str, array) -> None:
        if name in self._arrays or name in self._alias:
            raise ValueError(f"duplicate tensor name {name!r}")
        self._arrays[name] = _check_tensor(name, array)
        self._order.append(name)

    def add_alias(self, name: str, target: str) -> None:
        if name in self._arrays or name in self._alias:
            raise ValueError(f"duplicate tensor name {name!r}")
        self._check_alias_target(name, target)
        self._alias[name] = target
        self._order.append(name)

    @classmethod
    def from_entries(cls, names, owners: dict,
                     aliases: dict[str, str]) -> "ParameterStore":
        """A store listing ``names`` in order, each either an owner in
        ``owners`` (name -> array) or an alias in ``aliases`` (name ->
        target), with the same checks as ``add`` and ``add_alias``."""
        store = cls()
        for name, array in owners.items():
            store.add(name, array)
        for name, target in aliases.items():
            store.add_alias(name, target)
        if sorted(names) != sorted(store._order):
            raise ValueError("entry order must list every owner and alias once")
        store._order = list(names)
        return store

    def _check_alias_target(self, name: str, target: str) -> None:
        if name == target:
            raise ValueError(f"alias {name!r} cannot point at itself")
        if target in self._alias:
            raise ValueError(
                f"alias {name!r} points at alias {target!r}; chains must have depth 1"
            )
        if target not in self._arrays:
            raise ValueError(f"alias {name!r} points at missing entry {target!r}")

    # -- rebinding (used by merge/drop surgery) --------------------------

    def set_owner(self, name: str, array) -> None:
        """Make ``name`` own ``array``, replacing a previous alias or payload."""
        arr = _check_tensor(name, array)
        if name not in self._arrays and name not in self._alias:
            raise KeyError(f"unknown tensor {name!r}")
        self._alias.pop(name, None)
        self._arrays[name] = arr

    def set_alias(self, name: str, target: str) -> None:
        """Rebind an existing entry as an alias of ``target``."""
        if name not in self._arrays and name not in self._alias:
            raise KeyError(f"unknown tensor {name!r}")
        self._check_alias_target(name, target)
        if name in self._arrays and self.dependents(name):
            raise ValueError(
                f"cannot alias {name!r}: entries {self.dependents(name)} still point at it"
            )
        self._arrays.pop(name, None)
        self._alias[name] = target

    # -- access ----------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return list(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._arrays or name in self._alias

    def __len__(self) -> int:
        return len(self._order)

    def is_alias(self, name: str) -> bool:
        return name in self._alias

    def alias_target(self, name: str) -> str | None:
        return self._alias.get(name)

    def dependents(self, name: str) -> list[str]:
        return [a for a, t in self._alias.items() if t == name]

    def get(self, name: str) -> np.ndarray:
        """Resolve ``name`` to its storage (aliases share the target's array)."""
        if name in self._alias:
            return self._arrays[self._alias[name]]
        try:
            return self._arrays[name]
        except KeyError:
            raise KeyError(f"unknown tensor {name!r}") from None

    def copy(self) -> "ParameterStore":
        """Deep copy: fresh arrays, same names, same alias structure."""
        return ParameterStore.from_entries(
            self._order, {n: a.copy() for n, a in self._arrays.items()}, self._alias)

    # -- parameter accounting ---------------------------------------------

    def total_parameter_count(self) -> int:
        """Logical parameter count: every entry, aliases included."""
        return sum(self.get(name).size for name in self._order)

    def unique_parameter_count(self) -> int:
        """Deduplicated parameter count: owned payloads only."""
        return sum(arr.size for arr in self._arrays.values())


@dataclass(frozen=True)
class TieReport:
    """Parameter accounting of a store: logical vs deduplicated counts."""

    total_parameters: int
    unique_parameters: int
    reduction_ratio: float


def tie_report(store: ParameterStore) -> TieReport:
    total = store.total_parameter_count()
    unique = store.unique_parameter_count()
    ratio = 0.0 if total == 0 else 1.0 - unique / total
    return TieReport(total_parameters=total, unique_parameters=unique,
                     reduction_ratio=ratio)


# -- low-level container ---------------------------------------------------


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a temp file plus rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ffmc-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write UTF-8 text to ``path`` via a temp file plus rename."""
    atomic_write_bytes(path, text.encode("utf-8"))


def serialize_container(store: ParameterStore, meta: dict) -> bytes:
    """Encode a store plus metadata object as FFMC-v1 bytes."""
    header: dict = {"__config__": meta}
    chunks: list[bytes] = []
    offset = 0
    for name in store.names:
        arr = store.get(name)
        if store.is_alias(name):
            header[name] = {"alias_of": store.alias_target(name),
                            "shape": list(arr.shape)}
            continue
        if not np.isfinite(arr).all():
            raise ValueError(f"tensor {name!r} contains NaN or Inf")
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        header[name] = {"dtype": "f32", "shape": list(arr.shape),
                        "offset": offset, "length": len(raw)}
        chunks.append(raw)
        offset += len(raw)
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([MAGIC, struct.pack("<Q", len(header_bytes)),
                     header_bytes, *chunks])


def write_container(store: ParameterStore, meta: dict, path) -> None:
    atomic_write_bytes(path, serialize_container(store, meta))


def _entry_shape(name: str, value) -> tuple[int, ...]:
    if (not isinstance(value, list) or not value
            or any(type(s) is not int or s < 0 for s in value)):
        raise EntryMismatchError(f"entry {name!r} has invalid shape {value!r}",
                                 offset=16)
    return tuple(value)


def parse_container(data: bytes) -> tuple[ParameterStore, dict]:
    """Decode FFMC-v1 bytes into a store and its metadata object.

    Only canonical files parse: every entry has exactly its kind's fields,
    and owner spans tile the data region in header order, with no gap,
    overlap or trailing bytes.
    """
    if len(data) < 16:
        raise TruncatedFileError("file shorter than the fixed 16-byte prefix",
                                 offset=len(data))
    if data[:8] != MAGIC:
        raise BadMagicError(f"bad magic {data[:8]!r}, expected {MAGIC!r}", offset=0)
    (header_len,) = struct.unpack("<Q", data[8:16])
    data_start = 16 + header_len
    if data_start > len(data):
        raise TruncatedFileError(
            f"header claims {header_len} bytes but file ends early", offset=16)
    try:
        header = json.loads(data[16:data_start].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointFormatError(f"header is not valid JSON: {exc}",
                                    offset=16) from exc
    if not isinstance(header, dict) or "__config__" not in header:
        raise CheckpointFormatError('header must be an object with a "__config__" key',
                                    offset=16)
    meta = header["__config__"]

    owners: dict[str, np.ndarray] = {}
    aliases: dict[str, dict] = {}
    order: list[str] = []
    end = data_start  # where the next owner span must start
    for name, entry in header.items():
        if name == "__config__":
            continue
        order.append(name)
        if not isinstance(entry, dict):
            raise CheckpointFormatError(f"entry {name!r} is not an object", offset=16)
        fields = ALIAS_FIELDS if "alias_of" in entry else OWNER_FIELDS
        if entry.keys() != fields:
            raise CheckpointFormatError(
                f"entry {name!r} has fields {sorted(entry)}, expected "
                f"{sorted(fields)}", offset=16)
        if "alias_of" in entry:
            aliases[name] = entry
            continue
        if entry["dtype"] != "f32":
            raise CheckpointFormatError(
                f"entry {name!r} has unsupported dtype {entry['dtype']!r}", offset=16)
        shape = _entry_shape(name, entry["shape"])
        offset, length = entry["offset"], entry["length"]
        if type(offset) is not int or type(length) is not int:
            raise EntryMismatchError(
                f"entry {name!r} offset and length must be integers", offset=16)
        count = math.prod(shape)
        if length != 4 * count:
            raise EntryMismatchError(
                f"entry {name!r} length {length} does not match "
                f"shape {shape} (expected {4 * count})", offset=16)
        start = data_start + offset
        if start != end:
            raise EntryMismatchError(
                f"entry {name!r} data starts at {start}, expected {end}: spans "
                f"must tile the data region in header order", offset=start)
        end = start + length
        if end > len(data):
            raise TruncatedFileError(
                f"entry {name!r} data region [{start}, {end}) exceeds file size "
                f"{len(data)}", offset=start)
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=start)
        owners[name] = arr.reshape(shape).copy()
    if end != len(data):
        raise CheckpointFormatError(
            f"{len(data) - end} trailing bytes after the last tensor", offset=end)

    targets: dict[str, str] = {}
    for name, entry in aliases.items():
        target = entry["alias_of"]
        if not isinstance(target, str):
            raise AliasError(f"alias {name!r} target must be a string", offset=16)
        if target in aliases:
            raise AliasError(
                f"alias {name!r} points at alias {target!r}; chains must have depth 1",
                offset=16)
        if target not in owners:
            raise AliasError(f"alias {name!r} points at missing entry {target!r}",
                             offset=16)
        declared = _entry_shape(name, entry["shape"])
        if declared != owners[target].shape:
            raise EntryMismatchError(
                f"alias {name!r} declares shape {declared} but target has "
                f"shape {owners[target].shape}", offset=16)
        targets[name] = target
    try:
        return ParameterStore.from_entries(order, owners, targets), meta
    except ValueError as exc:  # a non-finite value in the data region
        raise CheckpointFormatError(str(exc), offset=data_start) from exc


def read_container(path) -> tuple[ParameterStore, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_container(data)


# -- model checkpoints ------------------------------------------------------


def write_checkpoint(store: ParameterStore, config: ModelConfig, path) -> None:
    """Write a model checkpoint; read_checkpoint inverts it bit-exactly."""
    write_container(store, config.to_dict(), path)


def read_checkpoint(path) -> tuple[ParameterStore, ModelConfig]:
    store, meta = read_container(path)
    try:
        config = ModelConfig.from_dict(meta)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(
            f"__config__ is not a valid model config: {exc}", offset=16) from exc
    return store, config
