"""Column statistics tests against straight-line scalar oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ffmerge.linalg import column_stats


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
        means, stds = column_stats(x)
        assert means.tobytes() == x64.mean(axis=0).tobytes()
        assert stds.tobytes() == np.sqrt(np.maximum(x64.var(axis=0), 0.0)).tobytes()

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
            column_stats(x)

    def test_finite_column_whose_sum_overflows_is_not_refused(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            means, stds = column_stats(np.array([[1e308, 1.0], [1e308, 3.0]]))
        assert means[0] == np.inf and means[1] == 2.0 and stds[1] == 1.0

    def test_two_point_column(self):
        means, stds = column_stats(np.array([[1.0], [3.0]], dtype=np.float32))
        np.testing.assert_array_equal(means, [2.0])
        np.testing.assert_array_equal(stds, [1.0])

    def test_constant_column_zero_std(self):
        means, stds = column_stats(np.array([[5.0], [5.0], [5.0]], dtype=np.float32))
        np.testing.assert_array_equal(means, [5.0])
        np.testing.assert_array_equal(stds, [0.0])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 8)).astype(np.float32)
        means, stds = column_stats(x)
        oracle_means, oracle_stds = column_stats_oracle(x)
        np.testing.assert_allclose(means, oracle_means, atol=1e-6)
        np.testing.assert_allclose(stds, oracle_stds, atol=1e-6)

    def test_stds_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=(10, 5)).astype(np.float32)
            assert (column_stats(x)[1] >= 0).all()

    def test_permuted_columns_permute_stats(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 6)).astype(np.float32)
        perm = rng.permutation(6)
        base_means, base_stds = column_stats(x)
        moved_means, moved_stds = column_stats(np.ascontiguousarray(x[:, perm]))
        np.testing.assert_array_equal(moved_means, base_means[perm])
        np.testing.assert_array_equal(moved_stds, base_stds[perm])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            column_stats(np.zeros((0, 3), dtype=np.float32))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            column_stats(np.zeros(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            column_stats(np.array([[np.nan, 0.0]]))

    def test_float64_input_kept_exact(self):
        # statistics of float64 data are taken on the data, not on a
        # float32 rounding of it
        x = np.array([[0.1], [0.3]])
        means, _ = column_stats(x)
        assert means[0] == (0.1 + 0.3) / 2
