"""Container format tests: store semantics, byte-exact round trips, parse
errors with positions, and tie accounting."""

import json
import os
import struct
import tempfile
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ffmerge.checkpoint import (MAGIC, CheckpointFormatError, ParameterStore,
                                atomic_write_bytes, parse_container,
                                read_container, serialize_container,
                                tie_report, write_container)
from ffmerge.config import ModelConfig, ff_tensor_names
from ffmerge.datasets import Dataset, read_token_file, write_token_file
from ffmerge.engine import (ActivationSet, TransformerModel, capture_activations, load_model,
                            read_activations, save_model, write_activations)
from ffmerge.fixtures import default_config, random_model, token_sequences
from ffmerge.selection import drop_layers


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


def entries(store: ParameterStore) -> dict:
    """``store`` as the ``{name: array}`` table ``copy`` takes."""
    return {name: store.get(name) for name in store.names}


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

    def test_add_shares_only_a_read_only_float32_array(self):
        # a read-only float32 payload is kept uncopied; a writable one, or
        # one of another dtype, is copied and keeps the caller's flag
        shared = np.ones(3, dtype=np.float32)
        shared.flags.writeable = False
        mine = np.ones(3, dtype=np.float32)
        converted = np.ones(3)  # float64: stored as a float32 copy
        store = ParameterStore({"s": shared, "w": mine, "v": converted})
        assert store.get("s") is shared
        assert mine.flags.writeable and converted.flags.writeable
        mine[:] = 0.0
        converted[:] = 0.0
        for name in ("w", "v"):
            np.testing.assert_array_equal(store.get(name), np.ones(3))

    def test_a_view_of_a_writable_array_is_copied(self):
        # a write through the view's writable base must not reach a payload
        # that is flagged read-only
        base = np.ones(8, dtype=np.float32)
        store = ParameterStore({"a": base[:4]})
        base[0] = 5.0
        assert store.get("a").tolist() == [1.0] * 4

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
        assert store.alias_target("b") == "a" and store.alias_target("a") is None

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
        # a copy shares every payload it keeps; aliases follow their owners
        rng = np.random.default_rng(0)
        store = random_store(rng, with_aliases=True)
        dup = store.copy(entries(store))
        assert dup.names == store.names
        for name in store.names:
            assert dup.get(name) is store.get(name)
            assert dup.alias_target(name) == store.alias_target(name)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ParameterStore({"w": np.array([np.nan], dtype=np.float32)})


def kept_input(kind: str, values: list, dtype):
    """An input of ``kind`` holding ``values`` as ``dtype`` (float64 and list
    kinds aside), and every writable array that reaches its memory."""
    arr = np.array(values, dtype=dtype)
    if kind == "owned":
        return arr, [arr]
    if kind == "slice":
        owner = np.concatenate([arr, arr])
        return owner[:len(values)], [owner]
    if kind == "reshape":
        owner = arr[None]
        return owner.reshape(-1), [owner]
    if kind == "fortran":
        owner = np.asfortranarray(np.stack([arr, arr]))
        return owner, [owner]
    if kind == "bytes":  # one byte in, so never aligned
        return np.frombuffer(b"\0" + arr.tobytes(), dtype=dtype, offset=1), []
    if kind == "read-only":
        arr.flags.writeable = False
        return arr, []
    if kind == "read-only view":  # the read-only flag is the view's, not its owner's
        owner = np.concatenate([arr, arr])
        view = owner[:len(values)]
        view.flags.writeable = False
        return view, [owner]
    if kind == "float64":
        return arr.astype(np.float64), []
    return list(values), []


KEEPERS = {  # how each consumer keeps one input
    "store": lambda x: ParameterStore({"w": x}).get("w"),
    "sequence": lambda x: Dataset(sequences=[x]).sequences[0],
    "labels": lambda x: Dataset(sequences=[np.ones(1)] * len(x), labels=x).labels,
}


class TestOneKeepRule:
    """Every array a store or dataset keeps is read-only, aligned and
    C-contiguous; it is the input itself only if that was read-only, and no
    write through a handle the caller holds reaches it."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["owned", "slice", "reshape", "fortran", "bytes",
                                 "read-only", "read-only view", "float64", "list"]),
           keeper=st.sampled_from(sorted(KEEPERS)),
           values=st.lists(st.integers(0, 100), min_size=1, max_size=12))
    def test_kept_array_is_sealed_and_cut_off(self, kind, keeper, values):
        if keeper != "store" and kind == "fortran":
            return  # a dataset keeps 1-D arrays only
        if keeper == "labels" and kind == "float64":
            return  # refused: labels are integers
        x, handles = kept_input(kind, values, np.float32 if keeper == "store" else np.int64)
        flag = x.flags.writeable if isinstance(x, np.ndarray) else None
        kept = KEEPERS[keeper](x)
        assert not kept.flags.writeable
        assert kept.flags.aligned and kept.flags.c_contiguous
        if isinstance(x, np.ndarray):
            assert x.flags.writeable == flag
            assert not np.shares_memory(kept, x) or not flag
        assert (kept is x) == (kind == "read-only")
        for handle in handles:
            handle[...] = 101  # outside the drawn values
        assert (kept == np.array(values)).all()  # both rows of a fortran input

    def test_what_a_reader_or_capture_made_is_shared(self, tmp_path):
        # read-only down to memory no one else holds, so kept uncopied
        cfg = default_config(n_layers=2, d_model=8, d_ff=16)
        model = random_model(cfg, seed=0)
        data = token_sequences(cfg, 3, 5, seed=1)
        save_model(model, tmp_path / "m.ffmc")
        write_token_file(tmp_path / "t.toks", data.sequences, cfg.separator_id)
        stored = load_model(tmp_path / "m.ffmc").store.get("layer0.ff.w_in")
        rows = capture_activations(model, data, "ff_pre_act", max_samples=7).per_layer[0]
        for array in (stored, rows):
            assert ParameterStore({"w": array}).get("w") is array
        views = read_token_file(tmp_path / "t.toks", cfg.separator_id)
        assert all(a is b for a, b in zip(Dataset(views).sequences, views, strict=True))


def tied_store() -> ParameterStore:
    """Owner ``a`` with aliases ``b`` and ``c``, and an untied ``d``."""
    return ParameterStore({"a": np.ones(2, dtype=np.float32), "b": "a", "c": "a",
                           "d": np.zeros(2, dtype=np.float32)})


def structure(store: ParameterStore) -> list:
    return [(n, store.alias_target(n), store.get(n).tolist()) for n in store.names]


class TestStoreCopy:
    """The one rule of ``ParameterStore.copy``: an array the store holds is
    shared, any other kept once, and the names giving one array are tied,
    the first of them in header order owning it."""

    def test_held_array_stays_tied_and_its_first_name_owns_it(self):
        store = tied_store()
        dup = store.copy({"x": store.get("c"), "y": store.get("a"), "z": store.get("d")})
        assert structure(dup) == [("x", None, [1, 1]), ("y", "x", [1, 1]),
                                  ("z", None, [0, 0])]
        assert dup.get("x") is store.get("a") and dup.get("z") is store.get("d")

    def test_copy_layout_ties_owner(self):
        store = tied_store()
        dup = store.copy({"a": store.get("a"), "d": store.get("a")})
        assert structure(dup) == [("a", None, [1, 1]), ("d", "a", [1, 1])]
        assert dup.get("d") is store.get("a")

    def test_copy_replace_promotes_alias(self):
        store = tied_store()
        seven = np.full(2, 7.0, dtype=np.float32)
        dup = store.copy(entries(store) | {"b": seven})
        assert structure(dup) == [("a", None, [1, 1]), ("b", None, [7, 7]),
                                  ("c", "a", [1, 1]), ("d", None, [0, 0])]
        seven[:] = 0.0  # a writable array is copied: the store holds its own
        assert dup.get("b").tolist() == [7, 7]

    def test_replaced_name_owns_and_listed_source_aliases_it(self):
        # the merge shape: b, c and d give one new array, kept once, b owning it
        store = tied_store()
        five = np.full(2, 5.0, dtype=np.float32)
        dup = store.copy({"a": store.get("a"), "b": five, "c": five, "d": five})
        assert structure(dup) == [("a", None, [1, 1]), ("b", None, [5, 5]),
                                  ("c", "b", [5, 5]), ("d", "b", [5, 5])]
        assert dup.get("c") is dup.get("b") is not five

    def test_copy_layout_reties_owner_with_dependents(self):
        # the owner leaves its group for d's array: b, the first member
        # left, owns the old payload, and d, after a, is a's alias
        store = tied_store()
        dup = store.copy(entries(store) | {"a": store.get("d")})
        assert structure(dup) == [("a", None, [0, 0]), ("b", None, [1, 1]),
                                  ("c", "b", [1, 1]), ("d", "a", [0, 0])]

    def test_first_listed_member_owns_when_owner_is_gone(self):
        store = tied_store()
        dup = store.copy({"c": store.get("c"), "b": store.get("b")})
        assert structure(dup) == [("c", None, [1, 1]), ("b", "c", [1, 1])]

    def test_replacing_the_owner_leaves_members_their_payload(self):
        store = tied_store()
        dup = store.copy(entries(store) | {"a": np.full(2, 3.0, dtype=np.float32)})
        assert structure(dup) == [("a", None, [3, 3]), ("b", None, [1, 1]),
                                  ("c", "b", [1, 1]), ("d", None, [0, 0])]
        assert dup.get("b") is store.get("a")

    def test_non_finite_new_array_refused(self):
        store = tied_store()
        with pytest.raises(ValueError, match="'d' contains NaN"):
            store.copy(entries(store) | {"d": np.array([np.nan, 0.0])})


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
        tied = store.copy({"a": store.get("a"), "b": store.get("a")})
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

    def test_owner_listed_after_its_aliases_is_kept_until_an_edit(self, tmp_path):
        # a file may name a later entry as owner, here layer 2 for a tied
        # window 1..3: it round-trips, and an edit gives the group to its
        # first member left
        cfg = default_config(n_layers=4, d_model=8, d_ff=16)
        store = random_model(cfg, seed=3).store
        owners = dict(zip(ff_tensor_names(cfg, 1) + ff_tensor_names(cfg, 3),
                          ff_tensor_names(cfg, 2) * 2))
        path = tmp_path / "mid.ffmc"
        save_model(TransformerModel(cfg, ParameterStore(
            {name: owners.get(name) or store.get(name) for name in store.names})), path)
        data = path.read_bytes()
        model = load_model(path)
        assert model.store.alias_target("layer1.ff.w_in") == "layer2.ff.w_in"
        save_model(model, tmp_path / "again.ffmc")
        assert (tmp_path / "again.ffmc").read_bytes() == data
        for start, first in ((3, 1), (0, 0)):
            dropped = drop_layers(model, start, 1)
            group = [f"layer{i}.ff.w_in" for i in range(first, first + 2)]
            assert [dropped.store.alias_target(name) for name in group] == [None, group[0]]
            assert dropped.store.get(group[0]) is model.store.get("layer2.ff.w_in")

    def test_serialize_rechecks_finiteness(self):
        # a store-owned payload flipped back to writable can take a NaN
        store = ParameterStore({"w": np.ones(3, dtype=np.float32)})
        payload = store.get("w")
        payload.flags.writeable = True
        payload[1] = np.nan
        with pytest.raises(ValueError, match="'w' contains NaN or Inf"):
            serialize_container(store, {})

    def test_header_order_preserved(self):
        store = ParameterStore({"z": np.ones(1, dtype=np.float32),
                                "a": np.ones(1, dtype=np.float32)})
        parsed, _ = parse_container(serialize_container(store, {}))
        assert parsed.names == ["z", "a"]

    def test_bad_magic(self):
        with pytest.raises(CheckpointFormatError, match="bad magic") as err:
            parse_container(b"NOTMAGIC" + b"\0" * 16)
        assert err.value.offset == 0

    def test_truncated_prefix(self):
        with pytest.raises(CheckpointFormatError, match="shorter than the fixed 16-byte prefix"):
            parse_container(b"FFMC")

    def test_truncated_header(self):
        data = MAGIC + struct.pack("<Q", 100) + b"{}"
        with pytest.raises(CheckpointFormatError, match="header claims 100 bytes"):
            parse_container(data)

    def test_truncated_data_region(self):
        store = ParameterStore({"w": np.ones(4, dtype=np.float32)})
        data = serialize_container(store, {})
        with pytest.raises(CheckpointFormatError, match="exceeds file size"):
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
        with pytest.raises(CheckpointFormatError, match="exceeds file size") as err:
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
        with pytest.raises(CheckpointFormatError, match="exceeds file size") as err:
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


class TestAnyShapeRoundTrips:
    """Whatever float32 shape a store accepts, zero extents included, it
    writes, reads back equal and writes again to the same bytes."""

    @settings(max_examples=150, deadline=None)
    @given(shapes=st.lists(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
                           min_size=1, max_size=4),
           tie=st.booleans(), seed=st.integers(0, 2**16))
    def test_serialize_parse_serialize(self, shapes, tie, seed):
        rng = np.random.default_rng(seed)
        table = {f"t{i}": rng.normal(size=shape).astype(np.float32)
                 for i, shape in enumerate(shapes)}
        if tie:
            table["tied"] = "t0"
        data = serialize_container(ParameterStore(table), {"seed": seed})
        parsed, meta = parse_container(bytes(data))
        assert meta == {"seed": seed}
        assert parsed.names == list(table)
        for name, value in table.items():
            if isinstance(value, str):
                assert parsed.get(name) is parsed.get(value)
            else:
                assert parsed.get(name).shape == value.shape
                np.testing.assert_array_equal(parsed.get(name), value)
        assert serialize_container(parsed, meta) == data

    def test_zero_row_activation_set(self, tmp_path):
        acts = ActivationSet(tap="ff_pre_act", per_layer=tuple(
            np.ones((0, 3), np.float32) for _ in range(3)))
        write_activations(acts, tmp_path / "acts.ffmc")
        back = read_activations(tmp_path / "acts.ffmc")
        assert back.tap == "ff_pre_act" and back.sample_count == 0
        assert [m.shape for m in back.per_layer] == [(0, 3)] * 3


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
        assert read_container(path)[1] == asdict(model.config)

    def test_bad_config_in_checkpoint(self, tmp_path):
        store = ParameterStore({"w": np.ones(2, dtype=np.float32)})
        path = tmp_path / "m.ffmc"
        good = asdict(ModelConfig(mode="lm", n_layers=1, d_model=4, d_ff=8, n_heads=1,
                                  vocab_size=8, max_seq_len=8, norm_placement="pre_ln",
                                  ff_kind="relu"))
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

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # a payload the file cannot take, then a rename onto a directory
        with pytest.raises(TypeError):
            atomic_write_bytes(tmp_path / "out.bin", object())
        (tmp_path / "dir").mkdir()
        with pytest.raises(OSError):
            atomic_write_bytes(tmp_path / "dir", b"x")
        assert os.listdir(tmp_path) == ["dir"] and not os.listdir(tmp_path / "dir")

    def test_write_into_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            atomic_write_bytes(tmp_path / "nope" / "out.bin", b"x")


def capture_like_store() -> ParameterStore:
    """Eight 256x512 float32 layers, the shape of an activation dump."""
    rng = np.random.default_rng(4)
    return ParameterStore({f"acts.layer{i}": rng.normal(size=(256, 512)).astype(np.float32)
                           for i in range(8)})


def traced_peak(fn) -> int:
    """Peak traced bytes allocated while ``fn`` runs, above those held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestReadViews:
    """``read_container`` reads a file into one buffer, and each payload is
    a read-only view into it, the data region on a 64-byte boundary."""

    @settings(max_examples=64, deadline=None)
    @given(pad=st.integers(0, 63))
    def test_payloads_are_aligned_read_only_views(self, pad):
        # the pad walks the header length through every residue mod 64
        table = {"a": np.arange(3, dtype=np.float32), "b": "a",
                 "c": np.linspace(-1, 1, 10, dtype=np.float32).reshape(2, 5)}
        store = ParameterStore(table)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.ffmc")
            write_container(store, {"pad": "x" * pad}, path)
            parsed, meta = read_container(path)
        assert meta == {"pad": "x" * pad}
        assert parsed.get("a").ctypes.data % 64 == 0
        for name in parsed.names:
            arr = parsed.get(name)
            assert arr.flags.aligned and not arr.flags.writeable
            np.testing.assert_array_equal(arr, store.get(name))
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    @pytest.mark.parametrize("pad", range(4))
    def test_edits_of_a_bytearray_input_do_not_reach_payloads(self, pad):
        # one of the four pads puts the payloads at float32-aligned offsets
        data = bytearray(aliased_container({"pad": "x" * pad}))
        store, _ = parse_container(data)
        before = {name: store.get(name).copy() for name in store.names}
        data[16:] = bytes(len(data) - 16)
        data.extend(b"\0")  # no buffer of the input is still exported
        for name, value in before.items():
            np.testing.assert_array_equal(store.get(name), value)

    def test_read_through_a_pipe(self):
        rng = np.random.default_rng(5)
        store = ParameterStore({"w": rng.normal(size=(300, 100)).astype(np.float32),
                                "v": "w"})
        data = serialize_container(store, {"via": "pipe"})
        assert len(data) > 65536  # more than one pipe buffer
        r, w = os.pipe()

        def feed():
            with os.fdopen(w, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            parsed, meta = read_container(f"/dev/fd/{r}")
        finally:
            writer.join(timeout=10)
            os.close(r)
        assert not writer.is_alive()
        assert meta == {"via": "pipe"}
        assert serialize_container(parsed, meta) == data

    def test_truncated_file_fails_as_its_bytes_do(self, tmp_path):
        data = aliased_container()
        (header_len,) = struct.unpack("<Q", data[8:16])
        path = tmp_path / "cut.ffmc"
        # the messages of the three ways a file can end too early
        truncated = "shorter than the fixed 16-byte prefix|file ends early|exceeds file size"
        for cut in (0, 7, 15, 16, 17 + header_len // 2, 16 + header_len,
                    len(data) - 13, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(CheckpointFormatError, match=truncated) as from_bytes:
                parse_container(data[:cut])
            with pytest.raises(CheckpointFormatError, match=truncated) as from_file:
                read_container(path)
            assert str(from_file.value) == str(from_bytes.value)
            assert from_file.value.offset == from_bytes.value.offset

    def test_read_peaks_below_1_1_times_the_file(self, tmp_path):
        path = tmp_path / "acts.ffmc"
        write_container(capture_like_store(), {"tap": "ff_out"}, path)
        assert traced_peak(lambda: read_container(path)) < 1.1 * path.stat().st_size

    def test_write_peaks_below_1_1_times_the_payload(self, tmp_path):
        store = capture_like_store()
        payload = sum(store.get(name).nbytes for name in store.names)
        peak = traced_peak(lambda: write_container(store, {"tap": "ff_out"},
                                                   tmp_path / "acts.ffmc"))
        assert peak < 1.1 * payload
