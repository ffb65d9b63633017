"""Alignment tests: permutation objects, cross-correlation against a
per-pair Pearson oracle, assignment solving against brute-force search,
and weight-space permutation application."""

import itertools
import math

import numpy as np
import pytest

from ffmerge.alignment import (CorrelationMatrix, Permutation,
                               align_units, apply_permutation,
                               cross_correlation,
                               matched_score, solve_assignment)
from ffmerge.engine import FFParams, ff_forward, swiglu_forward

# -- oracles ------------------------------------------------------------------


def pearson_oracle(a, b) -> float:
    """Two-pass scalar Pearson correlation of two 1-D samples."""
    n = len(a)
    ma = sum(float(v) for v in a) / n
    mb = sum(float(v) for v in b) / n
    cov = sum((float(x) - ma) * (float(y) - mb) for x, y in zip(a, b)) / n
    va = sum((float(x) - ma) ** 2 for x in a) / n
    vb = sum((float(y) - mb) ** 2 for y in b) / n
    if va == 0.0 or vb == 0.0:
        return 0.0
    return cov / math.sqrt(va * vb)


def brute_force_assignment(values: np.ndarray) -> tuple:
    """Enumerate every permutation; return (best mapping, best total)."""
    d = values.shape[0]
    best, best_total = None, -math.inf
    for cand in itertools.permutations(range(d)):
        total = sum(values[j, cand[j]] for j in range(d))
        if total > best_total:
            best, best_total = cand, total
    return np.array(best), best_total


def random_ff(rng, d_model=6, d_ff=8) -> FFParams:
    return FFParams(
        w_in=rng.normal(size=(d_ff, d_model)).astype(np.float32),
        b_in=rng.normal(size=d_ff).astype(np.float32),
        w_out=rng.normal(size=(d_model, d_ff)).astype(np.float32),
        b_out=rng.normal(size=d_model).astype(np.float32))


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.is_identity() and p.size == 4
        np.testing.assert_array_equal(p.mapping, [0, 1, 2, 3])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            d = int(rng.integers(2, 12))
            p = Permutation(rng.permutation(d).astype(np.int64))
            assert p.compose(p.inverse()).is_identity()
            assert p.inverse().compose(p).is_identity()

    def test_inverse_is_argsort(self):
        sigma = np.array([2, 0, 3, 1])
        p = Permutation(sigma)
        np.testing.assert_array_equal(p.inverse().mapping, np.argsort(sigma))

    def test_compose_order(self):
        # p.compose(q) gathers like applying q first, then p
        rng = np.random.default_rng(69)
        p = Permutation(np.array([1, 2, 0]))
        q = Permutation(np.array([2, 1, 0]))
        np.testing.assert_array_equal(p.compose(q).mapping,
                                      q.mapping[p.mapping])
        x = rng.normal(size=3)
        np.testing.assert_array_equal(x[q.mapping][p.mapping],
                                      x[p.compose(q).mapping])

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 2]))
        with pytest.raises(ValueError):
            Permutation(np.array([0, 1, 3]))
        with pytest.raises(ValueError):
            Permutation(np.array([], dtype=np.int64))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0.5, 1.5]))


class TestCrossCorrelation:
    def test_matches_pearson_oracle(self):
        rng = np.random.default_rng(71)
        a = rng.normal(size=(40, 5))
        b = rng.normal(size=(40, 5))
        corr = cross_correlation(a, b)
        for j in range(5):
            for m in range(5):
                assert corr.values[j, m] == pytest.approx(
                    pearson_oracle(a[:, j], b[:, m]), abs=1e-6)

    def test_self_correlation_diagonal_one(self):
        rng = np.random.default_rng(72)
        a = rng.normal(size=(60, 6))
        corr = cross_correlation(a, a)
        np.testing.assert_allclose(np.diag(corr.values), 1.0, atol=1e-9)

    def test_column_swap_moves_peak(self):
        rng = np.random.default_rng(73)
        a = rng.normal(size=(50, 4))
        sigma = np.array([2, 0, 3, 1])
        b = a[:, sigma]
        corr = cross_correlation(a, b)
        # unit j of a reappears as column argsort(sigma)[j] of b
        inv = np.argsort(sigma)
        for j in range(4):
            assert corr.values[j, inv[j]] == pytest.approx(1.0, abs=1e-6)

    def test_transpose_identity(self):
        rng = np.random.default_rng(74)
        a = rng.normal(size=(30, 5))
        b = rng.normal(size=(30, 5))
        ab = cross_correlation(a, b).values
        ba = cross_correlation(b, a).values
        np.testing.assert_allclose(ab, ba.T, atol=1e-12)

    def test_zero_variance_columns(self):
        rng = np.random.default_rng(75)
        a = rng.normal(size=(20, 3))
        a[:, 1] = 4.0
        b = rng.normal(size=(20, 3))
        b[:, 2] = -1.0
        corr = cross_correlation(a, b)
        assert corr.zero_variance_cols_a == frozenset({1})
        assert corr.zero_variance_cols_b == frozenset({2})
        np.testing.assert_array_equal(corr.values[1, :], 0.0)
        np.testing.assert_array_equal(corr.values[:, 2], 0.0)

    def test_values_clipped(self):
        rng = np.random.default_rng(76)
        a = rng.normal(size=(25, 8))
        corr = cross_correlation(a, a * 2.0 + 1.0)
        assert float(np.max(corr.values)) <= 1.0
        assert float(np.min(corr.values)) >= -1.0
        # scaled copy correlates perfectly unit-by-unit
        np.testing.assert_allclose(np.diag(corr.values), 1.0, atol=1e-6)

    def test_errors(self):
        with pytest.raises(ValueError, match="sample"):
            cross_correlation(np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="shape"):
            cross_correlation(np.zeros((5, 3)), np.zeros((6, 3)))
        with pytest.raises(ValueError, match="shape"):
            cross_correlation(np.zeros((5, 3)), np.zeros((5, 4)))


class TestSolveAssignment:
    def test_two_by_two_identity_case(self):
        corr = np.array([[0.9, 0.1], [0.2, 0.8]])
        perm = solve_assignment(corr)
        np.testing.assert_array_equal(perm.mapping, [0, 1])
        assert corr[0, 0] + corr[1, 1] == pytest.approx(1.7)

    def test_two_by_two_swap_case(self):
        corr = np.array([[0.1, 0.9], [0.8, 0.2]])
        perm = solve_assignment(corr)
        np.testing.assert_array_equal(perm.mapping, [1, 0])
        assert corr[0, 1] + corr[1, 0] == pytest.approx(1.7)

    def test_matches_brute_force_totals(self):
        rng = np.random.default_rng(77)
        for trial in range(30):
            d = 2 + trial % 7  # sizes 2..8
            values = rng.uniform(-1.0, 1.0, size=(d, d))
            perm = solve_assignment(values)
            _, best_total = brute_force_assignment(values)
            total = float(values[np.arange(d), perm.mapping].sum())
            assert total == pytest.approx(best_total, abs=1e-9)

    def test_constant_matrix_any_permutation_valid(self):
        perm = solve_assignment(np.full((5, 5), 0.3))
        assert sorted(perm.mapping.tolist()) == [0, 1, 2, 3, 4]

    def test_matched_score(self):
        corr = cross_correlation(np.eye(4) + 0.1, np.eye(4) + 0.1)
        perm = solve_assignment(corr)
        total = matched_score(corr, perm)
        assert total == pytest.approx(
            float(corr.values[np.arange(4), perm.mapping].sum()), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="square"):
            solve_assignment(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            solve_assignment(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestApplyPermutation:
    def test_identity_is_bitwise_noop(self):
        rng = np.random.default_rng(78)
        params = random_ff(rng)
        out = apply_permutation(params, Permutation.identity(8))
        np.testing.assert_array_equal(out["w_in"], params["w_in"])
        np.testing.assert_array_equal(out["b_in"], params["b_in"])
        np.testing.assert_array_equal(out["w_out"], params["w_out"])
        np.testing.assert_array_equal(out["b_out"], params["b_out"])

    def test_row_gather_small(self):
        params = FFParams(
            w_in=np.array([[1.0], [2.0], [3.0]], dtype=np.float32),
            b_in=np.array([10.0, 20.0, 30.0], dtype=np.float32),
            w_out=np.array([[1.0, 2.0, 3.0]], dtype=np.float32),
            b_out=np.array([0.5], dtype=np.float32))
        perm = Permutation(np.array([2, 0, 1]))
        out = apply_permutation(params, perm)
        np.testing.assert_array_equal(out["w_in"][:, 0], [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(out["b_in"], [30.0, 10.0, 20.0])
        np.testing.assert_array_equal(out["w_out"][0], [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(out["b_out"], [0.5])

    def test_function_preserved(self):
        rng = np.random.default_rng(79)
        params = random_ff(rng, d_model=6, d_ff=10)
        perm = Permutation(rng.permutation(10).astype(np.int64))
        moved = apply_permutation(params, perm)
        for _ in range(100):
            x = rng.normal(size=6).astype(np.float32)
            _, y0 = ff_forward(params, x, "gelu")
            _, y1 = ff_forward(moved, x, "gelu")
            assert np.abs(y0 - y1).max() <= 1e-5

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(80)
        params = random_ff(rng)
        perm = Permutation(rng.permutation(8).astype(np.int64))
        back = apply_permutation(apply_permutation(params, perm),
                                 perm.inverse())
        np.testing.assert_array_equal(back["w_in"], params["w_in"])
        np.testing.assert_array_equal(back["b_in"], params["b_in"])
        np.testing.assert_array_equal(back["w_out"], params["w_out"])
        np.testing.assert_array_equal(back["b_out"], params["b_out"])

    def test_size_mismatch(self):
        rng = np.random.default_rng(81)
        with pytest.raises(ValueError, match="d_ff"):
            apply_permutation(random_ff(rng, d_ff=8), Permutation.identity(6))

    def test_swiglu_function_preserved(self):
        rng = np.random.default_rng(82)
        params = FFParams(
            w_up=rng.normal(size=(10, 6)).astype(np.float32),
            v_gate=rng.normal(size=(10, 6)).astype(np.float32),
            w_down=rng.normal(size=(6, 10)).astype(np.float32))
        perm = Permutation(rng.permutation(10).astype(np.int64))
        moved = apply_permutation(params, perm)
        for _ in range(50):
            x = rng.normal(size=6).astype(np.float32)
            _, y0 = swiglu_forward(params, x)
            _, y1 = swiglu_forward(moved, x)
            assert np.abs(y0 - y1).max() <= 1e-5

    def test_swiglu_rows_move_jointly(self):
        rng = np.random.default_rng(83)
        params = FFParams(
            w_up=rng.normal(size=(4, 3)).astype(np.float32),
            v_gate=rng.normal(size=(4, 3)).astype(np.float32),
            w_down=rng.normal(size=(3, 4)).astype(np.float32))
        perm = Permutation(np.array([3, 1, 0, 2]))
        moved = apply_permutation(params, perm)
        np.testing.assert_array_equal(moved["w_up"], params["w_up"][perm.mapping])
        np.testing.assert_array_equal(moved["v_gate"],
                                      params["v_gate"][perm.mapping])
        np.testing.assert_array_equal(moved["w_down"],
                                      params["w_down"][:, perm.mapping])


class TestAlignUnits:
    def test_recovers_planted_permutation(self):
        rng = np.random.default_rng(84)
        for d in (4, 8, 16, 32, 64):
            acts = rng.normal(size=(200, d))
            sigma = rng.permutation(d)
            recovered = align_units(acts, acts[:, sigma])
            # acts[:, sigma] relabels unit sigma[m] as m; undo with argsort
            np.testing.assert_array_equal(recovered.mapping, np.argsort(sigma))

    def test_recovery_survives_small_noise(self):
        rng = np.random.default_rng(85)
        acts = rng.normal(size=(300, 12))
        sigma = rng.permutation(12)
        noisy = acts[:, sigma] + rng.normal(scale=0.01, size=(300, 12))
        recovered = align_units(acts, noisy)
        np.testing.assert_array_equal(recovered.mapping, np.argsort(sigma))

    def test_identity_for_identical_inputs(self):
        rng = np.random.default_rng(86)
        acts = rng.normal(size=(100, 9))
        assert align_units(acts, acts).is_identity()


class TestCorrelationMatrixType:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(values=np.zeros((2, 3)),
                              zero_variance_cols_a=frozenset(),
                              zero_variance_cols_b=frozenset())

    def test_holds_f64(self):
        rng = np.random.default_rng(87)
        corr = cross_correlation(rng.normal(size=(30, 4)).astype(np.float32),
                                 rng.normal(size=(30, 4)).astype(np.float32))
        assert corr.values.dtype == np.float64
