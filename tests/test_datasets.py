"""Token and label file round trips and error handling."""

import struct
import tempfile
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffmerge.datasets import (LABELS_MAGIC, TOKENS_MAGIC, Dataset,
                              label_path_for, load_dataset, read_label_file,
                              read_token_file, write_label_file,
                              write_token_file)


def seqs(*lists):
    return [np.array(lst, dtype=np.uint32) for lst in lists]


class TestDataset:
    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            Dataset(sequences=seqs([1, 2]), labels=np.array([0, 1]))

    def test_len(self):
        data = Dataset(sequences=seqs([1], [2, 3]))
        assert isinstance(data.sequences, tuple) and len(data.sequences) == 2

    @pytest.mark.parametrize("labels,message", [
        (np.array([0.7, 1.9]), "1-D integer array, got 1-D dtype float64"),
        (np.array([True, False]), "1-D integer array, got 1-D dtype bool"),
        (np.array([[0], [1]]), "1-D integer array, got 2-D dtype int64"),
        ([0.0, 1.0], "got 1-D dtype float64"),
    ])
    def test_non_integer_labels_refused(self, labels, message):
        # each would have been truncated or cast to class ids silently
        with pytest.raises(ValueError, match=message):
            Dataset(sequences=seqs([1, 2], [3]), labels=labels)

    def test_frozen_once_built(self):
        # the tuple and its read-only arrays are held in test_resume.py
        data = Dataset(sequences=seqs([1, 2], [3]), labels=np.array([0, 1]))
        with pytest.raises(FrozenInstanceError):
            data.sequences = seqs([4])
        with pytest.raises(ValueError, match="read-only"):
            data.labels[0] = 1


class TestTokenFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.toks"
        original = seqs([1, 2, 3], [4, 5], [6])
        write_token_file(path, original, separator_id=0)
        back = read_token_file(path, separator_id=0)
        assert len(back) == 3
        for a, b in zip(original, back):
            np.testing.assert_array_equal(a, b)

    def test_file_layout(self, tmp_path):
        path = tmp_path / "d.toks"
        write_token_file(path, seqs([7, 8]), separator_id=0)
        data = path.read_bytes()
        assert data[:8] == TOKENS_MAGIC
        (count,) = struct.unpack("<Q", data[8:16])
        assert count == 3  # two tokens plus one separator
        assert np.frombuffer(data[16:], dtype="<u4").tolist() == [7, 8, 0]

    def test_separator_inside_sequence_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="separator"):
            write_token_file(tmp_path / "d.toks", seqs([1, 0, 2]),
                             separator_id=0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), separator=st.integers(0, 2**32 - 1))
    def test_round_trip_keeps_every_sequence(self, data, separator):
        token = st.integers(0, 2**32 - 1).filter(lambda t: t != separator)
        sequences = data.draw(st.lists(st.lists(token, min_size=1, max_size=6), max_size=6))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/d.toks"
            write_token_file(path, [np.array(s, dtype=np.int64) for s in sequences], separator)
            back = read_token_file(path, separator)
        assert [s.tolist() for s in back] == sequences

    @pytest.mark.parametrize("seq,shape", [
        (np.array([], dtype=np.int64), r"\(0,\)"),
        (np.array([[1, 2]]), r"\(1, 2\)"),
        (np.array(5), r"\(\)"),
    ], ids=["empty", "2-D", "0-D"])
    def test_empty_or_non_1d_sequence_refused(self, tmp_path, seq, shape):
        # an empty one would read back as no sequence at all, shifting the labels
        path = tmp_path / "d.toks"
        with pytest.raises(ValueError, match=f"sequence 1 must be 1-D and non-empty, got shape {shape}"):
            write_token_file(path, [np.array([7]), seq, np.array([8])], separator_id=0)
        assert not path.exists()

    def test_empty_segments_dropped(self, tmp_path):
        path = tmp_path / "d.toks"
        write_token_file(path, seqs([1], [2]), separator_id=9)
        back = read_token_file(path, separator_id=9)
        assert [s.tolist() for s in back] == [[1], [2]]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "d.toks"
        path.write_bytes(b"WRONGMAG" + struct.pack("<Q", 0))
        with pytest.raises(ValueError, match="magic"):
            read_token_file(path, separator_id=0)

    @pytest.mark.parametrize("seq,message", [
        (np.array([1, 2**32 + 5], dtype=np.int64), r"sequence 1: token 4294967301 at position 1"),
        (np.array([3, 4, -1], dtype=np.int64), r"sequence 1: token -1 at position 2"),
        (np.array([2**64 - 1], dtype=np.uint64), r"token 18446744073709551615 at position 0"),
        (np.array([1.0, 2.0]), "must be integers, got dtype float64"),
        ([True], "must be integers, got dtype bool"),
    ])
    def test_value_outside_uint32_refused(self, tmp_path, seq, message):
        # each would have been written wrapped, as another valid token id
        path = tmp_path / "d.toks"
        with pytest.raises(ValueError, match=message):
            write_token_file(path, [np.array([7]), seq], separator_id=0)
        assert not path.exists()

    def test_uint32_extremes_round_trip(self, tmp_path):
        path = tmp_path / "d.toks"
        write_token_file(path, [np.array([2**32 - 1, 1], dtype=np.int64)], separator_id=0)
        assert [s.tolist() for s in read_token_file(path, separator_id=0)] == [[2**32 - 1, 1]]

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "d.toks"
        path.write_bytes(TOKENS_MAGIC + struct.pack("<Q", 4) + b"\0\0\0\0")
        with pytest.raises(ValueError):
            read_token_file(path, separator_id=0)


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.lbls"
        write_label_file(path, np.array([0, 2, 1], dtype=np.uint32))
        np.testing.assert_array_equal(read_label_file(path), [0, 2, 1])

    def test_magic(self, tmp_path):
        path = tmp_path / "d.lbls"
        write_label_file(path, np.array([1], dtype=np.uint32))
        assert path.read_bytes()[:8] == LABELS_MAGIC

    @pytest.mark.parametrize("labels,message", [
        (np.array([0, -1]), "label -1 at position 1"),
        (np.array([2**32, 0], dtype=np.int64), "label 4294967296 at position 0"),
        (np.array([0.0, 1.0]), "must be integers, got dtype float64"),
    ])
    def test_value_outside_uint32_refused(self, tmp_path, labels, message):
        path = tmp_path / "d.lbls"
        with pytest.raises(ValueError, match=message):
            write_label_file(path, labels)
        assert not path.exists()

    def test_non_1d_labels_refused(self, tmp_path):
        # they would be written flattened, one label per entry
        path = tmp_path / "d.lbls"
        with pytest.raises(ValueError, match="labels must be 1-D, got 2-D"):
            write_label_file(path, np.array([[0, 1], [1, 0]]))
        assert not path.exists()

    def test_label_path_convention(self):
        assert label_path_for("data/train.toks") == "data/train.lbls"

    def test_load_dataset_with_labels(self, tmp_path):
        toks = tmp_path / "d.toks"
        lbls = tmp_path / "d.lbls"
        write_token_file(toks, seqs([1, 2], [3]), separator_id=0)
        write_label_file(lbls, np.array([1, 0], dtype=np.uint32))
        ds = load_dataset(toks, separator_id=0, label_path=lbls)
        assert len(ds.sequences) == 2
        np.testing.assert_array_equal(ds.labels, [1, 0])
