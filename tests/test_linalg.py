"""Column statistics tests against straight-line scalar oracles."""

import numpy as np
import pytest

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


class TestColumnStats:
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
