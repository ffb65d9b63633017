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

There is one canonical form, built by ``_header``: compact JSON with
``__config__`` first, then every entry in store order, owners at packed
offsets. A reader accepts a file only if its header is, byte for byte, the
one the writer produces for the tensors and metadata it describes, and the
data region ends with the last tensor; so a parse/serialize round trip is
byte-identical. Writes are atomic (temp file in the target directory, then
rename).
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

MAGIC = b"FFMCKPT1"


class CheckpointFormatError(ValueError):
    """A malformed checkpoint file; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class BadMagicError(CheckpointFormatError):
    pass


class TruncatedFileError(CheckpointFormatError):
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
        possibly renamed; otherwise the group's first listed member owns the
        old payload itself, shared and not copied. A name that leaves a
        group never changes the payload of the members that stay.
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


@dataclass(frozen=True)
class TieReport:
    """Parameter accounting of a store: logical vs deduplicated counts."""

    total_parameters: int
    unique_parameters: int
    reduction_ratio: float


def tie_report(store: ParameterStore) -> TieReport:
    """Count every entry, aliases included, and every owned payload once."""
    total = sum(store.get(name).size for name in store.names)
    unique = sum(store.get(name).size for name in store.names if not store.is_alias(name))
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


def _header(store: ParameterStore, meta: dict) -> bytes:
    """The canonical header: compact JSON, ``__config__`` first, then every
    entry in store order, owners at packed offsets."""
    header: dict = {"__config__": meta}
    offset = 0
    for name in store.names:
        shape = list(store.get(name).shape)
        if store.is_alias(name):
            header[name] = {"alias_of": store.alias_target(name), "shape": shape}
            continue
        length = 4 * math.prod(shape)
        header[name] = {"dtype": "f32", "shape": shape, "offset": offset,
                        "length": length}
        offset += length
    return json.dumps(header, separators=(",", ":")).encode("utf-8")


def serialize_container(store: ParameterStore, meta: dict) -> bytes:
    """Encode a store plus metadata object as FFMC-v1 bytes."""
    chunks: list[bytes] = []
    for name in store.names:
        if store.is_alias(name):
            continue
        arr = store.get(name)
        if not np.isfinite(arr).all():
            raise ValueError(f"tensor {name!r} contains NaN or Inf")
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    header = _header(store, meta)
    return b"".join([MAGIC, struct.pack("<Q", len(header)), header, *chunks])


def write_container(store: ParameterStore, meta: dict, path) -> None:
    atomic_write_bytes(path, serialize_container(store, meta))


def parse_container(data: bytes) -> tuple[ParameterStore, dict]:
    """Decode FFMC-v1 bytes into a store and its metadata object.

    A file parses only if its header is, byte for byte, the one
    ``serialize_container`` writes for the tensors and metadata it
    describes, and its data region ends with the last tensor. The header
    is decoded, each owner's data is sliced by its shape in header order,
    the store is built (refusing non-finite payloads and bad aliases), and
    the header is then compared with the canonical one.
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
    found = data[16:data_start]
    try:
        header = json.loads(found.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointFormatError(f"header is not valid JSON: {exc}",
                                    offset=16) from exc
    if not isinstance(header, dict) or "__config__" not in header:
        raise CheckpointFormatError('header must be an object with a "__config__" key',
                                    offset=16)
    meta = header.pop("__config__")

    entries: dict[str, np.ndarray | str] = {}  # the store's table, in header order
    end = data_start  # where the next owner's data starts
    for name, entry in header.items():
        if not isinstance(entry, dict):
            raise CheckpointFormatError(f"entry {name!r} is not an object", offset=16)
        if "alias_of" in entry:
            if not isinstance(entry["alias_of"], str):
                raise CheckpointFormatError(
                    f"alias {name!r} target must be a string", offset=16)
            entries[name] = entry["alias_of"]
            continue
        shape = entry.get("shape")
        if (not isinstance(shape, list) or not shape
                or any(type(s) is not int or s < 0 for s in shape)):
            raise CheckpointFormatError(f"entry {name!r} has invalid shape {shape!r}",
                                        offset=16)
        count = math.prod(shape)
        if end + 4 * count > len(data):
            raise TruncatedFileError(
                f"entry {name!r} data region [{end}, {end + 4 * count}) exceeds "
                f"file size {len(data)}", offset=end)
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=end)
        try:
            entries[name] = arr.reshape(shape).copy()
        except ValueError as exc:  # more dimensions than numpy allows
            raise CheckpointFormatError(f"entry {name!r} has invalid shape: {exc}",
                                        offset=16) from exc
        end += 4 * count
    if end != len(data):
        raise CheckpointFormatError(
            f"{len(data) - end} trailing bytes after the last tensor", offset=end)

    try:
        store = ParameterStore(entries)
    except ValueError as exc:  # a non-finite payload, or a bad alias
        raise CheckpointFormatError(str(exc), offset=16) from exc
    try:
        canonical = _header(store, meta)
    except RecursionError as exc:  # json.dumps nests one frame deeper than loads
        raise CheckpointFormatError("header nests too deeply", offset=16) from exc
    if found != canonical:
        i = next((i for i, (a, b) in enumerate(zip(found, canonical)) if a != b),
                 min(len(found), len(canonical)))
        raise CheckpointFormatError(
            f"header is not canonical: found {found[i:i + 24]!r} where the writer "
            f"emits {canonical[i:i + 24]!r}", offset=16 + i)
    return store, meta


def read_container(path) -> tuple[ParameterStore, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_container(data)
