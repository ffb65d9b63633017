"""Container format tests: store semantics, byte-exact round trips, parse
errors with positions, and tie accounting."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffmerge.checkpoint import (MAGIC, AliasError, BadMagicError,
                                CheckpointFormatError, EntryMismatchError,
                                ParameterStore, TruncatedFileError,
                                atomic_write_bytes, parse_container,
                                read_checkpoint, read_container,
                                serialize_container, tie_report,
                                write_checkpoint, write_container)
from ffmerge.config import ModelConfig


def random_store(rng, with_aliases: bool) -> ParameterStore:
    store = ParameterStore()
    n = int(rng.integers(2, 7))
    owners = []
    for i in range(n):
        if rng.random() < 0.5:
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        else:
            shape = (int(rng.integers(1, 12)),)
        name = f"t{i}"
        store.add(name, rng.normal(size=shape).astype(np.float32))
        owners.append(name)
    if with_aliases:
        for j in range(int(rng.integers(1, 4))):
            store.add_alias(f"a{j}", owners[int(rng.integers(0, len(owners)))])
    return store


class TestParameterStore:
    def test_add_and_get(self):
        store = ParameterStore()
        store.add("w", np.ones((2, 3), dtype=np.float32))
        assert store.get("w").shape == (2, 3)
        assert "w" in store and len(store) == 1

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", np.ones(2, dtype=np.float32))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", np.ones(2, dtype=np.float32))

    def test_alias_shares_storage(self):
        store = ParameterStore()
        store.add("w", np.ones(3, dtype=np.float32))
        store.add_alias("v", "w")
        assert store.get("v") is store.get("w")

    def test_mutation_seen_through_alias(self):
        store = ParameterStore()
        store.add("w", np.ones(3, dtype=np.float32))
        store.add_alias("v", "w")
        store.set_owner("w", np.zeros(3, dtype=np.float32))
        np.testing.assert_array_equal(store.get("v"), np.zeros(3))

    def test_alias_chain_rejected(self):
        store = ParameterStore()
        store.add("w", np.ones(2, dtype=np.float32))
        store.add_alias("v", "w")
        with pytest.raises(ValueError, match="depth 1"):
            store.add_alias("u", "v")

    def test_alias_to_missing_rejected(self):
        store = ParameterStore()
        with pytest.raises(ValueError, match="missing"):
            store.add_alias("v", "w")

    def test_self_alias_rejected(self):
        store = ParameterStore()
        store.add("w", np.ones(2, dtype=np.float32))
        with pytest.raises(ValueError, match="itself"):
            store.set_alias("w", "w")

    def test_set_alias_rebinds_owner(self):
        store = ParameterStore()
        store.add("a", np.ones(2, dtype=np.float32))
        store.add("b", np.zeros(2, dtype=np.float32))
        store.set_alias("b", "a")
        assert store.is_alias("b") and store.get("b") is store.get("a")
        assert store.unique_parameter_count() == 2

    def test_set_alias_refuses_owner_with_dependents(self):
        store = ParameterStore()
        store.add("a", np.ones(2, dtype=np.float32))
        store.add("b", np.zeros(2, dtype=np.float32))
        store.add_alias("c", "a")
        with pytest.raises(ValueError, match="still point"):
            store.set_alias("a", "b")

    def test_set_owner_promotes_alias(self):
        store = ParameterStore()
        store.add("a", np.ones(2, dtype=np.float32))
        store.add_alias("b", "a")
        store.set_owner("b", np.full(2, 7.0, dtype=np.float32))
        assert not store.is_alias("b")
        np.testing.assert_array_equal(store.get("a"), np.ones(2))

    def test_from_entries_keeps_given_order(self):
        store = ParameterStore.from_entries(
            ["b", "a"], {"a": np.ones(2, dtype=np.float32)}, {"b": "a"})
        assert store.names == ["b", "a"]
        assert store.get("b") is store.get("a")

    def test_from_entries_checks_order_and_aliases(self):
        owners = {"a": np.ones(2, dtype=np.float32)}
        with pytest.raises(ValueError, match="order"):
            ParameterStore.from_entries(["a", "a"], owners, {})
        with pytest.raises(ValueError, match="order"):
            ParameterStore.from_entries(["a"], owners, {"b": "a"})
        with pytest.raises(ValueError, match="missing"):
            ParameterStore.from_entries(["a", "b"], owners, {"b": "z"})

    def test_copy_preserves_structure_with_fresh_arrays(self):
        rng = np.random.default_rng(0)
        store = random_store(rng, with_aliases=True)
        dup = store.copy()
        assert dup.names == store.names
        for name in store.names:
            np.testing.assert_array_equal(dup.get(name), store.get(name))
            assert dup.is_alias(name) == store.is_alias(name)
            if not store.is_alias(name):
                assert dup.get(name) is not store.get(name)

    def test_dependents(self):
        store = ParameterStore()
        store.add("a", np.ones(2, dtype=np.float32))
        store.add_alias("b", "a")
        store.add_alias("c", "a")
        assert sorted(store.dependents("a")) == ["b", "c"]

    def test_non_finite_rejected(self):
        store = ParameterStore()
        with pytest.raises(ValueError, match="NaN"):
            store.add("w", np.array([np.nan], dtype=np.float32))


class TestTieReport:
    def test_no_aliases_zero_ratio(self):
        store = ParameterStore()
        store.add("w", np.ones((3, 3), dtype=np.float32))
        report = tie_report(store)
        assert report.total_parameters == report.unique_parameters == 9
        assert report.reduction_ratio == 0.0

    def test_alias_counted_in_total_only(self):
        store = ParameterStore()
        store.add("a", np.ones((2, 2), dtype=np.float32))
        store.add_alias("b", "a")
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
        store = ParameterStore()
        store.add("a", np.ones(4, dtype=np.float32))
        store.add("b", np.ones(4, dtype=np.float32))
        before = tie_report(store).unique_parameters
        store.set_alias("b", "a")
        after = tie_report(store).unique_parameters
        assert after < before
        assert tie_report(store).total_parameters == 8


class TestContainerFormat:
    def test_single_tensor_file_size(self):
        store = ParameterStore()
        store.add("w", np.ones((2, 2), dtype=np.float32))
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
        hj = json.dumps(header).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj + struct.pack("<f", 1.0)
        store, meta = parse_container(data)
        np.testing.assert_array_equal(store.get("t"), [[1.0]])

    def test_alias_listed_before_target_parses_and_reserializes(self):
        header = {"__config__": {},
                  "b": {"alias_of": "a", "shape": [2]},
                  "a": {"dtype": "f32", "shape": [2], "offset": 0,
                        "length": 8}}
        hj = json.dumps(header).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj + struct.pack("<ff", 1, 2)
        store, _ = parse_container(data)
        assert store.names == ["b", "a"]
        assert store.get("b") is store.get("a")
        again, _ = parse_container(serialize_container(store, {}))
        assert again.names == ["b", "a"]

    def test_header_order_preserved(self):
        store = ParameterStore()
        store.add("z", np.ones(1, dtype=np.float32))
        store.add("a", np.ones(1, dtype=np.float32))
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
        store = ParameterStore()
        store.add("w", np.ones(4, dtype=np.float32))
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
        hj = json.dumps(header).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj + struct.pack("<f", 0.5)
        with pytest.raises(AliasError, match="depth 1"):
            parse_container(data)

    def test_alias_to_missing_in_file_rejected(self):
        header = {"__config__": {}, "b": {"alias_of": "nope", "shape": [1]}}
        hj = json.dumps(header).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj
        with pytest.raises(AliasError, match="missing"):
            parse_container(data)

    def test_length_shape_mismatch_rejected(self):
        header = {"__config__": {},
                  "w": {"dtype": "f32", "shape": [2, 2], "offset": 0,
                        "length": 8}}
        hj = json.dumps(header).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj + b"\0" * 8
        with pytest.raises(EntryMismatchError):
            parse_container(data)

    def test_alias_shape_mismatch_rejected(self):
        header = {"__config__": {},
                  "a": {"dtype": "f32", "shape": [2], "offset": 0, "length": 8},
                  "b": {"alias_of": "a", "shape": [3]}}
        hj = json.dumps(header).encode("utf-8")
        data = MAGIC + struct.pack("<Q", len(hj)) + hj + b"\0" * 8
        with pytest.raises(EntryMismatchError):
            parse_container(data)

    def test_round_trip_property(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            store = random_store(rng, with_aliases=trial % 2 == 0)
            data = serialize_container(store, {"trial": trial})
            parsed, meta = parse_container(data)
            assert serialize_container(parsed, meta) == data


    @pytest.mark.parametrize("entry,field,value", [
        ("a", "offset", 0.0), ("a", "length", True), ("a", "shape", [True]),
        ("a", "shape", 1), ("a", "shape", [1.0]), ("a", "dtype", ["f32"]),
        ("b", "alias_of", ["c"]), ("b", "shape", None), ("b", "extra", 1),
    ])
    def test_mistyped_header_field_rejected(self, entry, field, value):
        header, payload = split_container(aliased_container())
        header[entry][field] = value
        with pytest.raises(CheckpointFormatError):
            parse_container(build_container(header, payload))

    def test_overlapping_spans_rejected(self):
        header = {"__config__": {},
                  "a": {"dtype": "f32", "shape": [2], "offset": 0, "length": 8},
                  "b": {"dtype": "f32", "shape": [2], "offset": 4, "length": 8}}
        with pytest.raises(CheckpointFormatError, match="tile"):
            parse_container(build_container(header, b"\0" * 12))

    def test_spans_out_of_header_order_rejected(self):
        header = {"__config__": {},
                  "a": {"dtype": "f32", "shape": [1], "offset": 4, "length": 4},
                  "b": {"dtype": "f32", "shape": [1], "offset": 0, "length": 4}}
        with pytest.raises(CheckpointFormatError, match="tile"):
            parse_container(build_container(header, b"\0" * 8))

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


def split_container(data: bytes) -> tuple[dict, bytes]:
    (header_len,) = struct.unpack("<Q", data[8:16])
    return json.loads(data[16:16 + header_len]), data[16 + header_len:]


def aliased_container() -> bytes:
    """Owners ``a`` (2x3) and ``c`` (3,), with ``b`` aliasing ``c`` between them."""
    store = ParameterStore.from_entries(
        ["a", "b", "c"], {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                          "c": np.ones(3, dtype=np.float32)}, {"b": "c"})
    return serialize_container(store, {"note": 1})


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
        cfg = ModelConfig(mode="lm", n_layers=1, d_model=4, d_ff=8, n_heads=1,
                          vocab_size=8, max_seq_len=8, norm_placement="pre_ln",
                          ff_kind="relu")
        store = ParameterStore()
        store.add("w", np.ones(2, dtype=np.float32))
        path = tmp_path / "m.ffmc"
        write_checkpoint(store, cfg, path)
        parsed, cfg2 = read_checkpoint(path)
        assert cfg2 == cfg

    def test_bad_config_in_checkpoint(self, tmp_path):
        store = ParameterStore()
        store.add("w", np.ones(2, dtype=np.float32))
        path = tmp_path / "m.ffmc"
        good = ModelConfig(mode="lm", n_layers=1, d_model=4, d_ff=8, n_heads=1,
                           vocab_size=8, max_seq_len=8, norm_placement="pre_ln",
                           ff_kind="relu").to_dict()
        for meta in ({"mode": "lm"}, dict(good, n_layers=4.0),
                     dict(good, n_layers=True), dict(good, has_ff_biases=1)):
            write_container(store, meta, path)
            with pytest.raises(CheckpointFormatError, match="config"):
                read_checkpoint(path)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"hello")
        assert path.read_bytes() == b"hello"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_write_into_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            atomic_write_bytes(tmp_path / "nope" / "out.bin", b"x")
