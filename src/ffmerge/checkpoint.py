"""FFMC-v1 checkpoint container: named float32 tensors with alias entries.

Weight tying is realized on disk and in memory by alias entries: an alias
names another (non-alias) entry and resolves to the exact same storage.
Alias chains are restricted to depth 1. In memory a ``ParameterStore`` is
one table shaped like the header: each name, in header order, maps to its
payload, or for an alias to its owner's name.

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
    """A finite, read-only C-contiguous float32 ``array``, taken over if it is one."""
    arr = np.ascontiguousarray(array, dtype=np.float32)  # at least 1-D
    if not np.isfinite(arr).all():
        raise ValueError(f"tensor {name!r} contains NaN or Inf")
    arr.flags.writeable = False
    return arr


class ParameterStore:
    """One ordered table of tensor entries, in header order.

    ``ParameterStore(entries)`` takes ``{name: payload or owner name}``: a
    payload becomes a finite, read-only float32 array (a C-contiguous
    float32 array is taken over, not copied), and a ``str`` value makes
    ``name`` an alias of that owner, resolving to its very array. An alias
    may not name itself, another alias or a missing entry. Payloads are
    never rebound, so stores share them: an edited model is a ``copy``.
    """

    def __init__(self, entries: dict):
        table = {name: value if isinstance(value, str) else _check_tensor(name, value)
                 for name, value in entries.items()}
        for name, target in table.items():
            if not isinstance(target, str):
                continue
            if target == name:
                raise ValueError(f"alias {name!r} cannot point at itself")
            if isinstance(table.get(target), str):
                raise ValueError(
                    f"alias {name!r} points at alias {target!r}; chains must have depth 1")
            if target not in table:
                raise ValueError(f"alias {name!r} points at missing entry {target!r}")
        self._table = table

    @classmethod
    def _of(cls, table: dict) -> "ParameterStore":
        """A store over ``table``, whose payloads and aliases are already checked."""
        store = cls.__new__(cls)
        store._table = table
        return store

    # -- access ----------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return list(self._table)

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __len__(self) -> int:
        return len(self._table)

    def is_alias(self, name: str) -> bool:
        return isinstance(self._table.get(name), str)

    def alias_target(self, name: str) -> str | None:
        target = self._table.get(name)
        return target if isinstance(target, str) else None

    def get(self, name: str) -> np.ndarray:
        """Resolve ``name`` to its storage (aliases share the target's array)."""
        try:
            value = self._table[name]
        except KeyError:
            raise KeyError(f"unknown tensor {name!r}") from None
        return self._table[value] if isinstance(value, str) else value

    def copy(self, layout=None, replace=None) -> "ParameterStore":
        """A new store, sharing every payload it keeps; the one way to edit a model.

        ``layout`` lists ``(new name, source entry)`` pairs in header order
        (default: every entry under its own name) and ``replace`` maps a new
        name to a new payload. Entries whose sources share an old tie group
        stay tied, and one rule picks each group's owner: a name with a new
        payload owns it, and every entry listing the same source aliases
        it; otherwise the old owner keeps ownership if it is listed,
        possibly renamed; otherwise the group's first listed member owns a
        copy of the old payload. A name that leaves a group never changes
        the payload of the members that stay.
        """
        # entry -> the owner of its tie group (itself, for an owner)
        roots = {name: value if isinstance(value, str) else name
                 for name, value in self._table.items()}
        layout = [(name, name) for name in roots] if layout is None else list(layout)
        replace = replace or {}
        # a replaced name's source ties to it, not to its old group
        claimed = {src: new for new, src in layout if new in replace}
        if len(claimed) != len(replace):
            raise ValueError("each replaced name must be listed, with a source of its own")
        # old group root -> new owner: the old owner if listed (first listing
        # wins), else the group's first listed member
        owner_of = {src: new for new, src in reversed(layout)
                    if roots.get(src) == src and src not in claimed}
        for new, src in layout:
            if src not in claimed:
                owner_of.setdefault(roots.get(src, src), new)
        table: dict[str, np.ndarray | str] = {}
        for new, src in layout:
            if new in table:
                raise ValueError(f"layout lists {new!r} twice")
            root = roots.get(src, src)
            owner = claimed[src] if src in claimed else owner_of[root]
            if owner != new:
                table[new] = owner
            elif new in replace:
                table[new] = _check_tensor(new, np.array(replace[new], dtype=np.float32))
            else:
                table[new] = self.get(root)
        return ParameterStore._of(table)

    # -- parameter accounting ---------------------------------------------

    def total_parameter_count(self) -> int:
        """Logical parameter count: every entry, aliases included."""
        return sum(self.get(name).size for name in self._table)

    def unique_parameter_count(self) -> int:
        """Deduplicated parameter count: owned payloads only."""
        return sum(value.size for value in self._table.values()
                   if not isinstance(value, str))


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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json`` object hook: a repeated key makes the header non-canonical."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) != len(keys):
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise CheckpointFormatError(f"header repeats key {repeated!r}", offset=16)
    return dict(pairs)


def parse_container(data: bytes) -> tuple[ParameterStore, dict]:
    """Decode FFMC-v1 bytes into a store and its metadata object.

    Only canonical files parse: no JSON object repeats a key, every entry
    has exactly its kind's fields, and owner spans tile the data region in
    header order, with no gap, overlap or trailing bytes.
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
        header = json.loads(data[16:data_start].decode("utf-8"),
                            object_pairs_hook=_unique_keys)
    except CheckpointFormatError:
        raise
    except (ValueError, RecursionError) as exc:
        raise CheckpointFormatError(f"header is not valid JSON: {exc}",
                                    offset=16) from exc
    if not isinstance(header, dict) or "__config__" not in header:
        raise CheckpointFormatError('header must be an object with a "__config__" key',
                                    offset=16)
    meta = header["__config__"]

    entries: dict[str, np.ndarray | str] = {}  # the store's table, in header order
    aliases: dict[str, dict] = {}
    end = data_start  # where the next owner span must start
    for name, entry in header.items():
        if name == "__config__":
            continue
        if not isinstance(entry, dict):
            raise CheckpointFormatError(f"entry {name!r} is not an object", offset=16)
        fields = ALIAS_FIELDS if "alias_of" in entry else OWNER_FIELDS
        if entry.keys() != fields:
            raise CheckpointFormatError(
                f"entry {name!r} has fields {sorted(entry)}, expected "
                f"{sorted(fields)}", offset=16)
        if "alias_of" in entry:
            aliases[name] = entry
            entries[name] = entry["alias_of"]  # checked once every owner is read
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
        entries[name] = arr.reshape(shape).copy()
    if end != len(data):
        raise CheckpointFormatError(
            f"{len(data) - end} trailing bytes after the last tensor", offset=end)

    for name, entry in aliases.items():
        target = entry["alias_of"]
        if not isinstance(target, str):
            raise AliasError(f"alias {name!r} target must be a string", offset=16)
        if target in aliases:
            raise AliasError(
                f"alias {name!r} points at alias {target!r}; chains must have depth 1",
                offset=16)
        if target not in entries:
            raise AliasError(f"alias {name!r} points at missing entry {target!r}",
                             offset=16)
        declared = _entry_shape(name, entry["shape"])
        if declared != entries[target].shape:
            raise EntryMismatchError(
                f"alias {name!r} declares shape {declared} but target has "
                f"shape {entries[target].shape}", offset=16)
    try:
        return ParameterStore(entries), meta
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
