"""Container format tests: store semantics, byte-exact round trips, parse
errors with positions, and tie accounting."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffmerge.checkpoint import (MAGIC, BadMagicError, CheckpointFormatError,
                                ParameterStore, TruncatedFileError,
                                atomic_write_bytes, parse_container,
                                read_container, serialize_container,
                                tie_report, write_container)
from ffmerge.config import ModelConfig
from ffmerge.engine import load_model, save_model
from ffmerge.fixtures import default_config, random_model


def random_table(rng, with_aliases: bool) -> dict:
    """A random entries table: 2-6 owners, then 1-3 aliases if asked."""
    table = {}
    for i in range(int(rng.integers(2, 7))):
        if rng.random() < 0.5:
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        else:
            shape = (int(rng.integers(1, 12)),)
        table[f"t{i}"] = rng.normal(size=shape).astype(np.float32)
    owners = list(table)
    if with_aliases:
        for j in range(int(rng.integers(1, 4))):
            table[f"a{j}"] = owners[int(rng.integers(0, len(owners)))]
    return table


def random_store(rng, with_aliases: bool) -> ParameterStore:
    return ParameterStore(random_table(rng, with_aliases))


ONES2 = np.ones(2, dtype=np.float32)


class TestParameterStore:
    def test_add_and_get(self):
        store = ParameterStore({"w": np.ones((2, 3), dtype=np.float32)})
        assert store.get("w").shape == (2, 3)
        assert "w" in store and len(store) == 1

    def test_alias_shares_storage(self):
        store = ParameterStore({"w": np.ones(3, dtype=np.float32), "v": "w"})
        assert store.get("v") is store.get("w")

    def test_mutation_seen_through_alias(self):
        # payloads are read-only, and the alias resolves to the owner's array
        store = ParameterStore({"w": np.ones(3, dtype=np.float32), "v": "w"})
        with pytest.raises(ValueError, match="read-only"):
            store.get("w")[:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            store.get("v")[0] = 0.0
        assert store.get("v") is store.get("w")
        np.testing.assert_array_equal(store.get("v"), np.ones(3))

    def test_add_takes_a_float32_array_over(self):
        # the constructor takes a C-contiguous float32 payload over, uncopied
        mine = np.ones(3, dtype=np.float32)
        converted = np.ones(3)  # float64: stored as a float32 copy
        store = ParameterStore({"w": mine, "v": converted})
        assert store.get("w") is mine
        with pytest.raises(ValueError, match="read-only"):
            mine[:] = 0.0
        converted[:] = 0.0
        np.testing.assert_array_equal(store.get("v"), np.ones(3))

    def test_alias_chain_rejected(self):
        with pytest.raises(ValueError, match="depth 1"):
            ParameterStore({"w": ONES2, "v": "w", "u": "v"})
        with pytest.raises(ValueError, match="depth 1"):
            ParameterStore({"u": "v", "v": "w", "w": ONES2})

    def test_alias_to_missing_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ParameterStore({"v": "w"})

    def test_self_alias_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            ParameterStore({"w": ONES2, "v": "v"})

    def test_table_keeps_given_order(self):
        store = ParameterStore({"b": "a", "a": np.ones(2, dtype=np.float32)})
        assert store.names == ["b", "a"]
        assert store.get("b") is store.get("a")
        assert store.is_alias("b") and store.alias_target("b") == "a"
        assert not store.is_alias("a") and store.alias_target("a") is None

    def test_from_entries_checks_order_and_aliases(self):
        # an entries table is taken in its own order, an alias may come
        # before its owner, and an alias must name an owner that is there
        store = ParameterStore({"b": "a", "a": ONES2, "c": ONES2})
        assert store.names == ["b", "a", "c"]
        assert store.get("b") is store.get("a")
        with pytest.raises(ValueError, match="missing"):
            ParameterStore({"a": ONES2, "b": "z"})
        with pytest.raises(ValueError, match="depth 1"):
            ParameterStore({"b": "c", "a": ONES2, "c": "a"})

    def test_copy_preserves_structure_with_fresh_arrays(self):
        # a copy shares every payload it keeps
        rng = np.random.default_rng(0)
        store = random_store(rng, with_aliases=True)
        dup = store.copy()
        assert dup.names == store.names
        for name in store.names:
            assert dup.get(name) is store.get(name)
            assert dup.is_alias(name) == store.is_alias(name)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ParameterStore({"w": np.array([np.nan], dtype=np.float32)})


def tied_store() -> ParameterStore:
    """Owner ``a`` with aliases ``b`` and ``c``, and an untied ``d``."""
    return ParameterStore({"a": np.ones(2, dtype=np.float32), "b": "a", "c": "a",
                           "d": np.zeros(2, dtype=np.float32)})


def structure(store: ParameterStore) -> list:
    return [(n, store.alias_target(n), store.get(n).tolist()) for n in store.names]


class TestStoreCopy:
    """The one tie-ownership rule of ``ParameterStore.copy``."""

    def test_copy_layout_ties_owner(self):
        store = tied_store()
        dup = store.copy([("a", "a"), ("d", "a")])
        assert structure(dup) == [("a", None, [1, 1]), ("d", "a", [1, 1])]
        assert dup.get("a") is store.get("a")

    def test_copy_replace_promotes_alias(self):
        store = tied_store()
        seven = np.full(2, 7.0, dtype=np.float32)
        dup = store.copy(replace={"b": seven})
        assert structure(dup) == [("a", None, [1, 1]), ("b", None, [7, 7]),
                                  ("c", "a", [1, 1]), ("d", None, [0, 0])]
        seven[:] = 0.0  # the store holds its own copy
        assert dup.get("b").tolist() == [7, 7]

    def test_replaced_name_owns_and_listed_source_aliases_it(self):
        # the merge shape: b gets a new payload, c and d list b as source
        dup = tied_store().copy([("a", "a"), ("b", "b"), ("c", "b"), ("d", "b")],
                                replace={"b": np.full(2, 5.0, dtype=np.float32)})
        assert structure(dup) == [("a", None, [1, 1]), ("b", None, [5, 5]),
                                  ("c", "b", [5, 5]), ("d", "b", [5, 5])]

    def test_copy_layout_reties_owner_with_dependents(self):
        # the owner leaves its group, whose first member left owns the old
        # payload; of two names listing one owner, the first owns
        dup = tied_store().copy([("a", "d"), ("b", "b"), ("c", "c"), ("d", "d")])
        assert structure(dup) == [("a", None, [0, 0]), ("b", None, [1, 1]),
                                  ("c", "b", [1, 1]), ("d", "a", [0, 0])]

    def test_renamed_owner_keeps_ownership(self):
        dup = tied_store().copy([("x", "c"), ("y", "a"), ("z", "d")])
        assert structure(dup) == [("x", "y", [1, 1]), ("y", None, [1, 1]),
                                  ("z", None, [0, 0])]

    def test_first_listed_member_owns_when_owner_is_gone(self):
        dup = tied_store().copy([("c", "c"), ("b", "b")])
        assert structure(dup) == [("c", None, [1, 1]), ("b", "c", [1, 1])]

    def test_replacing_the_owner_leaves_members_their_payload(self):
        dup = tied_store().copy(replace={"a": np.full(2, 3.0, dtype=np.float32)})
        assert structure(dup) == [("a", None, [3, 3]), ("b", None, [1, 1]),
                                  ("c", "b", [1, 1]), ("d", None, [0, 0])]

    def test_bad_layout_or_replace_rejected(self):
        store = tied_store()
        one = np.ones(2, dtype=np.float32)
        with pytest.raises(ValueError, match="replaced name"):
            store.copy([("a", "a")], replace={"z": one})
        with pytest.raises(ValueError, match="replaced name"):
            store.copy([("a", "a"), ("b", "a")], replace={"a": one, "b": one})
        # a table keeps one entry a name, so a second listing is refused, not
        # left to replace the first
        with pytest.raises(ValueError, match="'a' twice"):
            store.copy([("a", "a"), ("a", "d")])
        with pytest.raises(ValueError, match="'x' twice"):
            store.copy([("a", "a"), ("x", "d"), ("x", "b")])
        with pytest.raises(KeyError, match="unknown"):
            store.copy([("z", "z")])
        with pytest.raises(ValueError, match="NaN"):
            store.copy(replace={"d": np.array([np.nan, 0.0])})


class TestTieReport:
    def test_no_aliases_zero_ratio(self):
        store = ParameterStore({"w": np.ones((3, 3), dtype=np.float32)})
        report = tie_report(store)
        assert report.total_parameters == report.unique_parameters == 9
        assert report.reduction_ratio == 0.0

    def test_alias_counted_in_total_only(self):
        store = ParameterStore({"a": np.ones((2, 2), dtype=np.float32), "b": "a"})
        report = tie_report(store)
        assert report.total_parameters == 8
        assert report.unique_parameters == 4
        assert report.reduction_ratio == 0.5

    def test_ratio_definition_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            store = random_store(rng, with_aliases=bool(rng.integers(0, 2)))
            report = tie_report(store)
            assert report.reduction_ratio == pytest.approx(
                1.0 - report.unique_parameters / report.total_parameters)

    def test_unique_strictly_decreases_when_tied(self):
        store = ParameterStore({"a": np.ones(4, dtype=np.float32),
                                "b": np.ones(4, dtype=np.float32)})
        before = tie_report(store).unique_parameters
        tied = store.copy([("a", "a"), ("b", "a")])
        after = tie_report(tied).unique_parameters
        assert after < before
        assert tie_report(tied).total_parameters == 8


def config_after_first_entry(header: dict) -> dict:
    first, *rest = [name for name in header if name != "__config__"]
    return {first: header[first], "__config__": header["__config__"],
            **{name: header[name] for name in rest}}


# valid headers that decode to the canonical one but are spelled otherwise
REENCODINGS = {
    "default-spacing": lambda text: json.dumps(json.loads(text)),
    "indent": lambda text: json.dumps(json.loads(text), indent=1),
    "leading-space": lambda text: " " + text,
    "trailing-newline": lambda text: text + "\n",
    "sort-keys": lambda text: json.dumps(json.loads(text), sort_keys=True,
                                         separators=(",", ":")),
    "owner-fields-reordered": lambda text: json.dumps(
        {name: dict(reversed(entry.items())) if "offset" in entry else entry
         for name, entry in json.loads(text).items()}, separators=(",", ":")),
    "config-after-first-entry": lambda text: json.dumps(
        config_after_first_entry(json.loads(text)), separators=(",", ":")),
    "exponent": lambda text: text.replace("1.5", "15e-1"),
    "negative-zero": lambda text: text.replace('"offset":0', '"offset":-0'),
    "escape": lambda text: text.replace('"note"', '"\\u006eote"'),
}


class TestContainerFormat:
    def test_single_tensor_file_size(self):
        store = ParameterStore({"w": np.ones((2, 2), dtype=np.float32)})
        data = serialize_container(store, {})
        (header_len,) = struct.unpack("<Q", data[8:16])
        assert len(data) == 8 + 8 + header_len + 16

    def test_round_trip_bytes_identical(self):
        rng = np.random.default_rng(2)
        store = random_store(rng, with_aliases=True)
        data = serialize_container(store, {"note": 1})
        parsed, meta = parse_container(data)
        assert meta == {"note": 1}
        assert serialize_container(parsed, meta) == data

    def test_hand_built_minimal_file(self):
        header = {"__config__": {},
                  "t": {"dtype": "f32", "shape": [1, 1], "offset": 0,
                        "length": 4}}
        hj = json.dumps(header, separators=(",", ":")).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj + struct.pack("<f", 1.0)
        store, meta = parse_container(data)
        np.testing.assert_array_equal(store.get("t"), [[1.0]])

    def test_alias_listed_before_target_parses_and_reserializes(self):
        header = {"__config__": {},
                  "b": {"alias_of": "a", "shape": [2]},
                  "a": {"dtype": "f32", "shape": [2], "offset": 0,
                        "length": 8}}
        hj = json.dumps(header, separators=(",", ":")).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj + struct.pack("<ff", 1, 2)
        store, _ = parse_container(data)
        assert store.names == ["b", "a"]
        assert store.get("b") is store.get("a")
        again, _ = parse_container(serialize_container(store, {}))
        assert again.names == ["b", "a"]

    def test_header_order_preserved(self):
        store = ParameterStore({"z": np.ones(1, dtype=np.float32),
                                "a": np.ones(1, dtype=np.float32)})
        parsed, _ = parse_container(serialize_container(store, {}))
        assert parsed.names == ["z", "a"]

    def test_bad_magic(self):
        with pytest.raises(BadMagicError) as err:
            parse_container(b"NOTMAGIC" + b"\0" * 16)
        assert err.value.offset == 0

    def test_truncated_prefix(self):
        with pytest.raises(TruncatedFileError):
            parse_container(b"FFMC")

    def test_truncated_header(self):
        data = MAGIC + struct.pack("<Q", 100) + b"{}"
        with pytest.raises(TruncatedFileError):
            parse_container(data)

    def test_truncated_data_region(self):
        store = ParameterStore({"w": np.ones(4, dtype=np.float32)})
        data = serialize_container(store, {})
        with pytest.raises(TruncatedFileError):
            parse_container(data[:-4])

    def test_invalid_json_header(self):
        bad = b"{nope"
        data = MAGIC + struct.pack("<Q", len(bad)) + bad
        with pytest.raises(CheckpointFormatError) as err:
            parse_container(data)
        assert err.value.offset == 16

    def test_alias_chain_in_file_rejected(self):
        header = {"__config__": {},
                  "a": {"dtype": "f32", "shape": [1], "offset": 0, "length": 4},
                  "b": {"alias_of": "a", "shape": [1]},
                  "c": {"alias_of": "b", "shape": [1]}}
        hj = json.dumps(header, separators=(",", ":")).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj + struct.pack("<f", 0.5)
        with pytest.raises(CheckpointFormatError, match="depth 1"):
            parse_container(data)

    def test_alias_to_missing_in_file_rejected(self):
        header = {"__config__": {}, "b": {"alias_of": "nope", "shape": [1]}}
        hj = json.dumps(header, separators=(",", ":")).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj
        with pytest.raises(CheckpointFormatError, match="missing"):
            parse_container(data)

    def test_length_shape_mismatch_rejected(self):
        header = {"__config__": {},
                  "w": {"dtype": "f32", "shape": [2, 2], "offset": 0,
                        "length": 8}}
        hj = json.dumps(header, separators=(",", ":")).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj + b"\0" * 8
        # the shape, not the length, sizes the data: 16 bytes are missing 8
        with pytest.raises(TruncatedFileError) as err:
            parse_container(data)
        assert err.value.offset == 16 + len(hj)
        # with the 16 bytes the shape asks for, the length is not canonical
        with pytest.raises(CheckpointFormatError, match="not canonical") as err:
            parse_container(data + b"\0" * 8)
        assert err.value.offset == 16 + hj.index(b'8}')

    def test_alias_shape_mismatch_rejected(self):
        header = {"__config__": {},
                  "a": {"dtype": "f32", "shape": [2], "offset": 0, "length": 8},
                  "b": {"alias_of": "a", "shape": [3]}}
        hj = json.dumps(header, separators=(",", ":")).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj + b"\0" * 8
        with pytest.raises(CheckpointFormatError, match="not canonical") as err:
            parse_container(data)
        assert err.value.offset == 16 + hj.index(b"[3]") + 1

    def test_round_trip_property(self):
        # a store built from a table parses back to the same table
        rng = np.random.default_rng(7)
        for trial in range(25):
            table = random_table(rng, with_aliases=trial % 2 == 0)
            if trial % 3 == 0:  # aliases listed before their owners
                table = dict(reversed(table.items()))
            data = serialize_container(ParameterStore(table), {"trial": trial})
            parsed, meta = parse_container(data)
            assert serialize_container(parsed, meta) == data
            assert parsed.names == list(table)
            for name, value in table.items():
                if isinstance(value, str):
                    assert parsed.alias_target(name) == value
                    assert parsed.get(name) is parsed.get(value)
                else:
                    np.testing.assert_array_equal(parsed.get(name), value)


    @pytest.mark.parametrize("entry,field,value", [
        ("a", "offset", 0.0), ("a", "length", True), ("a", "shape", [True]),
        ("a", "shape", 1), ("a", "shape", [1.0]), ("a", "dtype", ["f32"]),
        ("b", "alias_of", ["c"]), ("b", "shape", None), ("b", "extra", 1),
        ("a", "shape", [2, 3] + [1] * 63),  # more dimensions than numpy allows
    ])
    def test_mistyped_header_field_rejected(self, entry, field, value):
        header, payload = split_container(aliased_container())
        header[entry][field] = value
        with pytest.raises(CheckpointFormatError):
            parse_container(build_container(header, payload))

    @pytest.mark.parametrize("entry,repeat", [
        ('"b":', '"b":{"alias_of":"a","shape":[2,3]},"b":'),
        ('"a":', '"__config__":{"note":2},"a":'),
        ('"length":12', '"length":12,"length":12'),
    ], ids=["alias", "config", "field"])
    def test_repeated_header_key_rejected(self, entry, repeat):
        data = aliased_container()
        text = header_text(data)
        assert text.count(entry) == 1
        repeated = text.replace(entry, repeat)
        with pytest.raises(CheckpointFormatError, match="not canonical") as err:
            parse_container(reencode(data, repeated))
        # json keeps a repeated key's last value at its first position
        canonical = json.dumps(json.loads(repeated), separators=(",", ":"))
        assert err.value.offset == 16 + first_difference(repeated, canonical)

    def test_overlapping_spans_rejected(self):
        # owners are sliced by shape in header order: two [2] owners need
        # 16 bytes, and the file holds 12
        header = {"__config__": {},
                  "a": {"dtype": "f32", "shape": [2], "offset": 0, "length": 8},
                  "b": {"dtype": "f32", "shape": [2], "offset": 4, "length": 8}}
        data = build_container(header, b"\0" * 12)
        with pytest.raises(TruncatedFileError) as err:
            parse_container(data)
        assert err.value.offset == len(data) - 4

    def test_spans_out_of_header_order_rejected(self):
        header = {"__config__": {},
                  "a": {"dtype": "f32", "shape": [1], "offset": 4, "length": 4},
                  "b": {"dtype": "f32", "shape": [1], "offset": 0, "length": 4}}
        data = build_container(header, b"\0" * 8)
        with pytest.raises(CheckpointFormatError, match="not canonical") as err:
            parse_container(data)
        assert err.value.offset == data.index(b'"offset":4') + len('"offset":')

    @pytest.mark.parametrize("name", list(REENCODINGS))
    def test_reencoded_header_rejected(self, name):
        data = aliased_container({"note": 1.5})
        text = header_text(data)
        other = REENCODINGS[name](text)
        assert other != text and json.loads(other) == json.loads(text)
        with pytest.raises(CheckpointFormatError, match="not canonical") as err:
            parse_container(reencode(data, other))
        assert err.value.offset == 16 + first_difference(other, text)
        assert "\n" not in str(err.value)

    def test_deep_config_raises_only_format_error(self):
        # json.loads accepts a depth or so that json.dumps, one frame deeper,
        # does not; the sweep spans that boundary from any likely call depth
        data = serialize_container(
            ParameterStore({"w": np.ones(1, dtype=np.float32)}), {})
        parsed = refused = 0
        for depth in range(800, 1001):
            nested = '"__config__":' + "[" * depth + "]" * depth
            text = header_text(data).replace('"__config__":{}', nested)
            try:
                parse_container(reencode(data, text))
                parsed += 1
            except CheckpointFormatError:
                refused += 1
        assert parsed and refused

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CheckpointFormatError, match="trailing"):
            parse_container(aliased_container() + b"\0")

    def test_non_finite_data_rejected(self):
        header = {"__config__": {},
                  "a": {"dtype": "f32", "shape": [1], "offset": 0, "length": 4}}
        with pytest.raises(CheckpointFormatError, match="NaN"):
            parse_container(build_container(header, struct.pack("<f", np.nan)))


def build_container(header: dict, payload: bytes) -> bytes:
    hj = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(hj)) + hj + payload


def first_difference(a: str, b: str) -> int:
    """The index of the first character where ``a`` and ``b`` differ."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def split_container(data: bytes) -> tuple[dict, bytes]:
    (header_len,) = struct.unpack("<Q", data[8:16])
    return json.loads(data[16:16 + header_len]), data[16 + header_len:]


def aliased_container(meta=None) -> bytes:
    """Owners ``a`` (2x3) and ``c`` (3,), with ``b`` aliasing ``c`` between them."""
    store = ParameterStore({"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                            "b": "c", "c": np.ones(3, dtype=np.float32)})
    return serialize_container(store, {"note": 1} if meta is None else meta)


def reencode(data: bytes, text: str) -> bytes:
    """``data`` with its header replaced by ``text``."""
    (header_len,) = struct.unpack("<Q", data[8:16])
    raw = text.encode("utf-8")
    return MAGIC + struct.pack("<Q", len(raw)) + raw + data[16 + header_len:]


def header_text(data: bytes) -> str:
    (header_len,) = struct.unpack("<Q", data[8:16])
    return data[16:16 + header_len].decode("utf-8")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-40, 40) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


class TestContainerFuzz:
    """Mutated containers either parse canonically or raise
    CheckpointFormatError; no other exception may escape."""

    @settings(max_examples=400, deadline=None)
    @given(entry=st.sampled_from(["a", "b", "c"]),
           field=st.sampled_from(["dtype", "shape", "offset", "length",
                                  "alias_of", None]),
           value=JSON_VALUES)
    def test_header_field_mutation(self, entry, field, value):
        header, payload = split_container(aliased_container())
        if field is None:
            header[entry] = value
        else:
            header[entry][field] = value
        data = build_container(header, payload)
        try:
            store, meta = parse_container(data)
        except CheckpointFormatError:
            return
        assert serialize_container(store, meta) == data

    @settings(max_examples=400, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                          min_size=1, max_size=4),
           cut=st.integers(-8, 8))
    def test_byte_mutation(self, edits, cut):
        raw = bytearray(aliased_container())
        for position, value in edits:
            raw[position % len(raw)] = value
        raw = raw[:cut] if cut < 0 else raw + bytes(cut)
        try:
            parse_container(bytes(raw))
        except CheckpointFormatError:
            pass


    @settings(max_examples=200, deadline=None)
    @given(indent=st.sampled_from([None, 0, 1, 2]),
           separators=st.sampled_from([(",", ":"), (", ", ": "), (",", ": "),
                                       (", ", ":")]),
           sort_keys=st.booleans(), ensure_ascii=st.booleans())
    def test_reencoded_header_parses_only_if_canonical(self, indent, separators,
                                                       sort_keys, ensure_ascii):
        data = aliased_container({"note": 1.5, "name": "caf\u00e9"})
        text = header_text(data)
        other = json.dumps(json.loads(text), indent=indent, separators=separators,
                           sort_keys=sort_keys, ensure_ascii=ensure_ascii)
        reencoded = reencode(data, other)
        if reencoded == data:
            store, meta = parse_container(reencoded)
            assert serialize_container(store, meta) == data
        else:
            with pytest.raises(CheckpointFormatError, match="not canonical"):
                parse_container(reencoded)


class TestFileRoundTrip:
    def test_write_read_container(self, tmp_path):
        rng = np.random.default_rng(8)
        store = random_store(rng, with_aliases=True)
        path = tmp_path / "store.ffmc"
        write_container(store, {"x": [1, 2]}, path)
        parsed, meta = read_container(path)
        assert meta == {"x": [1, 2]}
        for name in store.names:
            np.testing.assert_array_equal(parsed.get(name), store.get(name))

    def test_checkpoint_embeds_config(self, tmp_path):
        model = random_model(default_config(n_layers=1, d_model=4, d_ff=8), seed=0)
        path = tmp_path / "m.ffmc"
        save_model(model, path)
        assert load_model(path).config == model.config
        assert read_container(path)[1] == model.config.to_dict()

    def test_bad_config_in_checkpoint(self, tmp_path):
        store = ParameterStore({"w": np.ones(2, dtype=np.float32)})
        path = tmp_path / "m.ffmc"
        good = ModelConfig(mode="lm", n_layers=1, d_model=4, d_ff=8, n_heads=1,
                           vocab_size=8, max_seq_len=8, norm_placement="pre_ln",
                           ff_kind="relu").to_dict()
        for meta in ({"mode": "lm"}, dict(good, n_layers=4.0),
                     dict(good, n_layers=True), dict(good, has_ff_biases=1)):
            write_container(store, meta, path)
            with pytest.raises(CheckpointFormatError, match="config"):
                load_model(path)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"hello")
        assert path.read_bytes() == b"hello"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_write_into_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            atomic_write_bytes(tmp_path / "nope" / "out.bin", b"x")
