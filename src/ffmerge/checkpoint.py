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
rename), and the file gets the umask's mode. A read file lands in one
buffer with its data region on a 64-byte boundary, and each payload is a
read-only view into it: the buffer lives while any of its tensors does.
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
    """Any defect of a checkpoint file; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def sealed(values, dtype=None) -> np.ndarray:
    """``values`` as an aligned, C-contiguous, read-only array: the input itself if
    it is one that no writable handle reaches, else a new array; no caller's flag changes."""
    arr = np.asarray(values, dtype=dtype, order="C")
    fresh = arr is not values and arr.flags.owndata  # made here, so no one else holds it
    if not arr.flags.aligned or not fresh and _written_elsewhere(arr):
        arr = arr.copy()  # a view at an odd offset, or memory a caller can write
    arr.flags.writeable = False  # a new array's flag, or one already clear
    return arr


def _written_elsewhere(arr: np.ndarray) -> bool:
    """Whether a writable array or buffer reaches ``arr``'s memory: one on its
    base chain, or a buffer that chain ends in other than ``bytes``."""
    base = arr
    while isinstance(base, (np.ndarray, memoryview)):
        if base.flags.writeable if isinstance(base, np.ndarray) else not base.readonly:
            return True
        base = base.base if isinstance(base, np.ndarray) else base.obj
    return not (base is None or isinstance(base, bytes))


def _check_tensor(name: str, array) -> np.ndarray:
    arr = sealed(np.atleast_1d(array), np.float32)  # finite float32, at least 1-D
    if not np.isfinite(arr).all():
        raise ValueError(f"tensor {name!r} contains NaN or Inf")
    return arr


class ParameterStore:
    """One ordered table of tensor entries, in header order.

    ``ParameterStore(entries)`` takes ``{name: payload or owner name}``: a
    payload is kept as a finite float32 array by ``sealed``, the one rule
    for every array the package keeps, and a ``str`` value makes ``name``
    an alias of that owner, resolving to its very array. An alias may not
    name itself, another alias or a missing entry, but may precede its
    owner. Payloads are never rebound, so stores share them: an edited
    model is a ``copy``. A store read from a file holds views into that
    file's one buffer, which stays alive while any of its tensors does.
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

    # -- access ----------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return list(self._table)

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __len__(self) -> int:
        return len(self._table)

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

    def copy(self, entries: dict) -> "ParameterStore":
        """A new store of ``entries``, ``{name: array}`` in header order; the
        one way to edit a model.

        An array this store holds is shared, not checked again; any other is
        kept once by ``_check_tensor``, however many names give it. Names
        that give one array are tied, and the first of them owns it.
        """
        held = {id(value) for value in self._table.values() if not isinstance(value, str)}
        first = {}  # id of a given array -> the first name giving it
        table: dict[str, np.ndarray | str] = {}
        for name, array in entries.items():
            owner = first.setdefault(id(array), name)
            if owner != name:
                table[name] = owner
            else:
                table[name] = array if id(array) in held else _check_tensor(name, array)
        store = ParameterStore.__new__(ParameterStore)  # its table is checked already
        store._table = table
        return store


@dataclass(frozen=True)
class TieReport:
    """Parameter accounting of a store: logical vs deduplicated counts."""

    total_parameters: int
    unique_parameters: int
    reduction_ratio: float


def tie_report(store: ParameterStore) -> TieReport:
    """Count every entry, aliases included, and every owned payload once."""
    total = sum(store.get(name).size for name in store.names)
    unique = sum(store.get(n).size for n in store.names if store.alias_target(n) is None)
    ratio = 0.0 if total == 0 else 1.0 - unique / total
    return TieReport(total_parameters=total, unique_parameters=unique,
                     reduction_ratio=ratio)


# -- low-level container ---------------------------------------------------


def atomic_write_bytes(path, payload) -> None:
    """Write bytes-like ``payload`` to ``path`` via a temp file plus rename;
    the file gets the mode ``open(path, "wb")`` would create it with."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    umask = os.umask(0o077)  # reading the umask sets it: set it back
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ffmc-")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # mkstemp creates 0600
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(store: ParameterStore, meta: dict) -> bytes:
    """The canonical header: compact JSON, ``__config__`` first, then every
    entry in store order, owners at packed offsets."""
    header: dict = {"__config__": meta}
    offset = 0
    for name in store.names:
        shape = list(store.get(name).shape)
        if store.alias_target(name) is not None:
            header[name] = {"alias_of": store.alias_target(name), "shape": shape}
            continue
        length = 4 * math.prod(shape)
        header[name] = {"dtype": "f32", "shape": shape, "offset": offset,
                        "length": length}
        offset += length
    return json.dumps(header, separators=(",", ":")).encode("utf-8")


def serialize_container(store: ParameterStore, meta: dict) -> bytearray:
    """Encode a store plus metadata object as FFMC-v1 bytes: the file image
    is allocated once and each owned payload copied into it once."""
    header = _header(store, meta)
    owners = {n: store.get(n) for n in store.names if store.alias_target(n) is None}
    end = 16 + len(header)
    out = bytearray(end + sum(arr.nbytes for arr in owners.values()))
    with memoryview(out) as image:  # slice-assigning ``out`` itself copies the source
        image[:end] = MAGIC + struct.pack("<Q", len(header)) + header
        for name, arr in owners.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"tensor {name!r} contains NaN or Inf")
            image[end:end + arr.nbytes] = memoryview(np.ascontiguousarray(arr, "<f4")).cast("B")
            end += arr.nbytes
    return out


def write_container(store: ParameterStore, meta: dict, path) -> None:
    atomic_write_bytes(path, serialize_container(store, meta))


def parse_container(data) -> tuple[ParameterStore, dict]:
    """Decode FFMC-v1 bytes into a store and its metadata object.

    A file parses only if its header is, byte for byte, the one
    ``serialize_container`` writes for the tensors and metadata it
    describes, and its data region ends with the last tensor. The header
    is decoded, each owner's data is sliced by its shape in header order,
    the store is built (refusing non-finite payloads and bad aliases), and
    the header is then compared with the canonical one. Each payload is a
    read-only view into ``data`` if nothing can write ``data``, else a copy.
    """
    data = memoryview(data).cast("B")
    if len(data) < 16:
        raise CheckpointFormatError("file shorter than the fixed 16-byte prefix",
                                    offset=len(data))
    if data[:8] != MAGIC:
        raise CheckpointFormatError(f"bad magic {bytes(data[:8])!r}, expected {MAGIC!r}", offset=0)
    (header_len,) = struct.unpack("<Q", data[8:16])
    data_start = 16 + header_len
    if data_start > len(data):
        raise CheckpointFormatError(
            f"header claims {header_len} bytes but file ends early", offset=16)
    found = bytes(data[16:data_start])
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
            raise CheckpointFormatError(
                f"entry {name!r} data region [{end}, {end + 4 * count}) exceeds "
                f"file size {len(data)}", offset=end)
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=end)
        try:
            entries[name] = arr.reshape(shape)
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
    """Parse a container file read with one ``readinto`` into one buffer,
    placed so the data region starts on a 64-byte boundary."""
    with open(path, "rb") as fh:
        data = fh.read(16)
        if len(data) == 16:  # sized by fstat, which gives 0 for a pipe
            raw = np.empty(max(os.fstat(fh.fileno()).st_size, 16) + 64, dtype=np.uint8)
            start = -(raw.ctypes.data + 16 + struct.unpack("<Q", data[8:])[0]) % 64
            buf = raw[start:start + len(raw) - 64]
            buf[:16] = np.frombuffer(data, dtype=np.uint8)
            end = start + 16 + fh.readinto(buf[16:])
            raw.flags.writeable = False  # so no writable array reaches a payload
            data = raw[start:end]
        rest = fh.read()  # a pipe, or a file longer than fstat said: read on to EOF
    return parse_container(bytes(data) + rest if rest else data)
