"""Centering and column statistics tests against straight-line scalar
oracles and numpy's own mean and std."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ffmerge import analysis
from ffmerge.alignment import centered
from ffmerge.linalg import center, column_stats


def stats(x):
    """Column stds through the two steps ``alignment.centered`` takes."""
    return column_stats(center(x))


def column_stats_oracle(x):
    """Two-pass mean then variance, scalar loops."""
    n, c = x.shape
    means = np.zeros(c)
    for j in range(c):
        means[j] = sum(float(x[i, j]) for i in range(n)) / n
    stds = np.zeros(c)
    for j in range(c):
        stds[j] = (sum((float(x[i, j]) - means[j]) ** 2 for i in range(n)) / n) ** 0.5
    return means, stds


@st.composite
def matrices(draw):
    """Finite 2-D matrices of float16/32/64 or int32 entries."""
    dtype = np.dtype(draw(st.sampled_from(["float16", "float32", "float64", "int32"])))
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=40))
    elements = (st.integers(-2**20, 2**20) if dtype.kind == "i"
                else st.floats(-1e4, 1e4, width=8 * dtype.itemsize))
    return draw(hnp.arrays(dtype, shape, elements=elements))


class TestColumnStats:
    @settings(max_examples=200, deadline=None)
    @given(x=matrices())
    def test_bit_equal_to_var_formula(self, x):
        x64 = np.asarray(x, dtype=np.float64)
        xc, stds = centered(x)
        assert xc.tobytes() == (x64 - x64.mean(axis=0)).tobytes()
        assert stds.tobytes() == np.sqrt(np.maximum(x64.var(axis=0), 0.0)).tobytes()
        assert stds.tobytes() == x64.std(axis=0).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(x=matrices(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           row=st.integers(0, 39), col=st.integers(0, 39), paired=st.booleans())
    def test_nan_or_inf_refused(self, x, bad, row, col, paired):
        x = x.astype(np.float64) if x.dtype.kind == "i" else x.copy()
        n, p = x.shape
        x[row % n, col % p] = bad
        if paired and n > 1:  # +Inf and -Inf in one column make its mean NaN
            x[(row + 1) % n, col % p] = -bad
        # refused with one error, and no RuntimeWarning on the way
        with warnings.catch_warnings(), \
                pytest.raises(ValueError, match="x contains NaN or Inf"):
            warnings.simplefilter("error", RuntimeWarning)
            centered(x)

    def test_finite_column_whose_sum_overflows_is_not_refused(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            xc, stds = centered(np.array([[1e308, 1.0], [1e308, 3.0]]))
        # the mean of column 0 is +Inf, so its centered entries are -Inf
        assert (xc[:, 0] == -np.inf).all() and xc[:, 1].tolist() == [-1.0, 1.0]
        assert stds[0] == np.inf and stds[1] == 1.0

    def test_two_point_column(self):
        xc, stds = centered(np.array([[1.0], [3.0]], dtype=np.float32))
        np.testing.assert_array_equal(xc, [[-1.0], [1.0]])
        np.testing.assert_array_equal(stds, [1.0])

    def test_constant_column_zero_std(self):
        xc, stds = centered(np.array([[5.0], [5.0], [5.0]], dtype=np.float32))
        np.testing.assert_array_equal(xc, np.zeros((3, 1)))
        np.testing.assert_array_equal(stds, [0.0])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 8)).astype(np.float32)
        xc, stds = centered(x)
        oracle_means, oracle_stds = column_stats_oracle(x)
        np.testing.assert_allclose(x - xc, np.broadcast_to(oracle_means, x.shape),
                                   atol=1e-6)
        np.testing.assert_allclose(stds, oracle_stds, atol=1e-6)

    def test_stds_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=(10, 5)).astype(np.float32)
            assert (stats(x) >= 0).all()

    def test_permuted_columns_permute_stats(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 6)).astype(np.float32)
        perm = rng.permutation(6)
        base_xc, base_stds = centered(x)
        moved_xc, moved_stds = centered(np.ascontiguousarray(x[:, perm]))
        np.testing.assert_array_equal(moved_xc, base_xc[:, perm])
        np.testing.assert_array_equal(moved_stds, base_stds[perm])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            stats(np.zeros((0, 3), dtype=np.float32))

    def test_rejects_non_2d(self):
        for bad in (np.zeros(3), np.zeros((2, 3, 4)), np.float64(1.0)):
            with pytest.raises(ValueError, match="2-D"):
                stats(bad)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            stats(np.array([[np.nan, 0.0]]))

    def test_float64_input_kept_exact(self):
        # statistics of float64 data are taken on the data, not on a
        # float32 rounding of it, and the data is not written
        x = np.array([[0.1], [0.3]])
        before = x.copy()
        xc, _ = centered(x)
        assert xc[0, 0] == 0.1 - (0.1 + 0.3) / 2
        assert xc is not x and x.tobytes() == before.tobytes()


def layouts(x):
    """``x`` as C-ordered, Fortran-ordered, row-strided and column-strided arrays."""
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x),
            "rows": np.repeat(x, 2, axis=0)[::2],
            "cols": np.repeat(x, 2, axis=1)[:, ::2]}


class TestMemoryOrder:
    @settings(max_examples=100, deadline=None)
    @given(x=matrices())
    def test_layout_does_not_change_bits(self, x):
        # also when centered into a buffer, and x is never written
        c64 = np.array(x, dtype=np.float64, order="C")
        for layout, arr in layouts(x).items():
            before = arr.copy()
            xc, stds = centered(arr)
            assert xc.tobytes() == (c64 - c64.mean(axis=0)).tobytes(), layout
            assert stds.tobytes() == c64.std(axis=0).tobytes(), layout
            buf = np.full(arr.shape, np.nan)
            assert center(arr, out=buf) is buf
            assert buf.tobytes() == xc.tobytes(), layout
            assert arr.tobytes() == before.tobytes(), layout

    def test_tall_float32_layouts_agree(self):
        x = np.random.default_rng(7).normal(size=(300, 40)).astype(np.float32)
        want = [a.tobytes() for a in centered(x)]
        for layout, arr in layouts(x).items():
            assert [a.tobytes() for a in centered(arr)] == want, layout

    def test_fortran_column_with_cancelling_extremes_is_not_refused(self):
        # summed row by row, each +1e308 meets its -1e308 and the mean is 0;
        # numpy's pairwise sum of a Fortran column adds rows 0 and 8 first,
        # which makes the mean inf + -inf = NaN and refuses the column
        x = np.zeros((16, 2))
        x[[0, 8], 0] = 1e308
        x[[1, 9], 0] = -1e308
        for layout, arr in layouts(x).items():
            with np.errstate(over="ignore", invalid="ignore"):
                _, stds = centered(arr)
            assert stds.tolist() == [np.inf, 0.0], layout


class TestCenterInto:
    """``center(x, out=buf)`` takes only a buffer it can fill like the fresh
    copy; ``TestMemoryOrder`` checks that it gets the same bits."""

    @pytest.mark.parametrize("make", [
        lambda x: np.empty((4, 3)), lambda x: np.empty((3, 4)),
        lambda x: np.empty(x.shape, np.float32),
        lambda x: np.empty(x.shape[::-1]).T, lambda x: np.empty((5, 6))[:, ::2],
        lambda x: x, lambda x: np.zeros(x.shape).tolist(),
    ], ids=["rows", "transposed-shape", "float32", "fortran", "strided", "x-itself", "list"])
    def test_any_other_out_refused(self, make):
        x = np.arange(15.0).reshape(5, 3)
        with pytest.raises(ValueError, match="C-contiguous float64 array of shape"):
            center(x, out=make(x))
        assert x.tolist() == np.arange(15.0).reshape(5, 3).tolist()


def test_alignment_and_cka_center_the_same_bits(monkeypatch):
    # CKA centers through the same routine as alignment, not a copy of it,
    # with or without its buffers
    rng = np.random.default_rng(6)
    x = (rng.normal(size=(64, 12)) * 3.0 + 1.5).astype(np.float32)
    seen = []

    def recording(a, out=None):
        seen.append(center(a, out))
        return seen[-1]

    monkeypatch.setattr(analysis, "center", recording)
    analysis.linear_cka(x, x[:, ::-1])
    assert len(seen) == 2
    assert seen[0].tobytes() == centered(x)[0].tobytes()
    out = (np.empty(x.shape), np.empty(x.shape))
    analysis.linear_cka(x, x[:, ::-1], out=out)
    assert len(seen) == 4
    assert seen[2] is out[0] and seen[3] is out[1]
    assert seen[2].tobytes() == centered(x)[0].tobytes()
    assert seen[3].tobytes() == seen[1].tobytes()
