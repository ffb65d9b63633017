"""Alignment tests: permutation objects, centering, cross-correlation
against a per-pair Pearson oracle and bit for bit against the uncentered
formula, assignment solving against brute-force search, and weight-space
permutation application."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ffmerge
from ffmerge.alignment import (Permutation, apply_permutation, centered,
                               cross_correlation, matched_score,
                               solve_assignment)
from ffmerge.engine import FFParams, ff_forward

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


def uncentered_cross_correlation(ref, other) -> np.ndarray:
    """Correlation from raw activation matrices, each side cast, reduced to
    column stats and centered inside the call: the formula the centered
    form must reproduce bit for bit."""
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(other, dtype=np.float64)
    mean_a, std_a = a.mean(axis=0), np.sqrt(np.maximum(a.var(axis=0), 0.0))
    mean_b, std_b = b.mean(axis=0), np.sqrt(np.maximum(b.var(axis=0), 0.0))
    cov = ((a - mean_a).T @ (b - mean_b)) / a.shape[0]
    denom = np.outer(std_a, std_b)
    corr = np.clip(cov / np.where(denom == 0.0, 1.0, denom), -1.0, 1.0)
    corr[std_a == 0.0, :] = 0.0
    corr[:, std_b == 0.0] = 0.0
    return corr


def cross_correlation_expression(ref, other) -> np.ndarray:
    """``cross_correlation``'s arithmetic as plain expressions, verbatim from
    before it divided and clipped in place."""
    (a, std_a), (b, std_b) = ref, other
    cov = (a.T @ b) / a.shape[0]
    denom = np.outer(std_a, std_b)
    corr = np.clip(cov / np.where(denom == 0.0, 1.0, denom), -1.0, 1.0)
    corr[std_a == 0.0, :] = 0.0
    corr[:, std_b == 0.0] = 0.0
    return corr


@st.composite
def capture_pairs(draw):
    """Two activation matrices of one shape, each float32 or float64, with
    some columns constant."""
    rows, width = draw(st.integers(2, 12)), draw(st.integers(1, 8))
    pair = []
    for _ in range(2):
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        elements = st.floats(-1e3, 1e3, width=32 if dtype is np.float32 else 64)
        x = draw(arrays(dtype, (rows, width), elements=elements))
        for col in draw(st.sets(st.integers(0, width - 1), max_size=2)):
            x[:, col] = x[0, col]
        pair.append(x)
    return tuple(pair)


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
        assert p.size == 4
        np.testing.assert_array_equal(p.mapping, [0, 1, 2, 3])

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

    def test_equality(self):
        # another type takes the NotImplemented path, so == falls back to identity
        p = Permutation.identity(3)
        assert p == Permutation(np.arange(3)) and p != Permutation(np.array([1, 0, 2]))
        assert p.__eq__(object()) is NotImplemented and p != object()


class TestCentered:
    def test_float64_input_untouched(self):
        rng = np.random.default_rng(88)
        x = rng.normal(loc=3.0, size=(20, 5))
        before = x.copy()
        xc, std = centered(x)
        assert not np.shares_memory(xc, x)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(xc, x - x.mean(axis=0))
        np.testing.assert_array_equal(std, x.std(axis=0))

    def test_float32_input_gives_float64(self):
        x = np.array([[1.0, 5.0], [3.0, 5.0]], dtype=np.float32)
        xc, std = centered(x)
        assert xc.dtype == std.dtype == np.float64
        np.testing.assert_array_equal(xc, [[-1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(std, [1.0, 0.0])


class TestCrossCorrelation:
    @settings(max_examples=300, deadline=None)
    @given(pair=capture_pairs())
    def test_bit_identical_to_uncentered_formula(self, pair):
        a, b = pair
        got = cross_correlation(centered(a), centered(b))
        want = uncentered_cross_correlation(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(pair=capture_pairs())
    def test_in_place_arithmetic_matches_the_expression(self, pair):
        ref, other = centered(pair[0]), centered(pair[1])
        for arr in (*ref, *other):
            arr.setflags(write=False)  # an in-place write into an input raises
        with np.errstate(divide="raise", invalid="raise"):  # no unit's 0 std divides
            got = cross_correlation(ref, other)
        want = cross_correlation_expression(ref, other)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_matches_pearson_oracle(self):
        rng = np.random.default_rng(71)
        a = rng.normal(size=(40, 5))
        b = rng.normal(size=(40, 5))
        corr = cross_correlation(centered(a), centered(b))
        for j in range(5):
            for m in range(5):
                assert corr[j, m] == pytest.approx(
                    pearson_oracle(a[:, j], b[:, m]), abs=1e-6)

    def test_self_correlation_diagonal_one(self):
        rng = np.random.default_rng(72)
        a = rng.normal(size=(60, 6))
        corr = cross_correlation(centered(a), centered(a))
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-9)

    def test_column_swap_moves_peak(self):
        rng = np.random.default_rng(73)
        a = rng.normal(size=(50, 4))
        sigma = np.array([2, 0, 3, 1])
        b = a[:, sigma]
        corr = cross_correlation(centered(a), centered(b))
        # unit j of a reappears as column argsort(sigma)[j] of b
        inv = np.argsort(sigma)
        for j in range(4):
            assert corr[j, inv[j]] == pytest.approx(1.0, abs=1e-6)

    def test_transpose_identity(self):
        rng = np.random.default_rng(74)
        a = rng.normal(size=(30, 5))
        b = rng.normal(size=(30, 5))
        ab = cross_correlation(centered(a), centered(b))
        ba = cross_correlation(centered(b), centered(a))
        np.testing.assert_allclose(ab, ba.T, atol=1e-12)

    def test_zero_variance_columns(self):
        rng = np.random.default_rng(75)
        a = rng.normal(size=(20, 3))
        a[:, 1] = 4.0
        b = rng.normal(size=(20, 3))
        b[:, 2] = -1.0
        corr = cross_correlation(centered(a), centered(b))
        np.testing.assert_array_equal(corr[1, :], 0.0)
        np.testing.assert_array_equal(corr[:, 2], 0.0)

    def test_values_clipped(self):
        rng = np.random.default_rng(76)
        a = rng.normal(size=(25, 8))
        corr = cross_correlation(centered(a), centered(a * 2.0 + 1.0))
        assert float(np.max(corr)) <= 1.0
        assert float(np.min(corr)) >= -1.0
        # scaled copy correlates perfectly unit-by-unit
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-6)

    def test_returns_f64_array(self):
        rng = np.random.default_rng(87)
        a = rng.normal(size=(30, 4)).astype(np.float32)
        b = rng.normal(size=(30, 4)).astype(np.float32)
        corr = cross_correlation(centered(a), centered(b))
        assert type(corr) is np.ndarray
        assert corr.dtype == np.float64 and corr.shape == (4, 4)

    def test_errors(self):
        with pytest.raises(ValueError, match="sample"):
            cross_correlation(centered(np.zeros((1, 3))), centered(np.zeros((1, 3))))
        with pytest.raises(ValueError, match="shape"):
            cross_correlation(centered(np.zeros((5, 3))), centered(np.zeros((6, 3))))
        with pytest.raises(ValueError, match="shape"):
            cross_correlation(centered(np.zeros((5, 3))), centered(np.zeros((5, 4))))
        with pytest.raises(TypeError, match="centered"):
            cross_correlation(np.zeros((5, 3)), np.zeros((5, 3)))


class TestSolveAssignment:
    def test_import_ffmerge_leaves_scipy_unloaded(self):
        # scipy is imported by the first assignment solve, not at start-up
        src = os.path.dirname(os.path.dirname(ffmerge.__file__))
        code = "import ffmerge, sys; assert 'scipy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src))

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
        a = np.eye(4) + 0.1
        corr = cross_correlation(centered(a), centered(a))
        perm = solve_assignment(corr)
        total = matched_score(corr, perm)
        assert total == pytest.approx(
            float(corr[np.arange(4), perm.mapping].sum()), abs=1e-12)

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
                                 Permutation(np.argsort(perm.mapping)))
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
            _, y0 = ff_forward(params, x, "swiglu")
            _, y1 = ff_forward(moved, x, "swiglu")
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
    """Aligning two layers' units: correlate, then assign."""

    def test_recovers_planted_permutation(self):
        rng = np.random.default_rng(84)
        for d in (4, 8, 16, 32, 64):
            acts = rng.normal(size=(200, d))
            sigma = rng.permutation(d)
            recovered = solve_assignment(
                cross_correlation(centered(acts), centered(acts[:, sigma])))
            # acts[:, sigma] relabels unit sigma[m] as m; undo with argsort
            np.testing.assert_array_equal(recovered.mapping, np.argsort(sigma))

    def test_recovery_survives_small_noise(self):
        rng = np.random.default_rng(85)
        acts = rng.normal(size=(300, 12))
        sigma = rng.permutation(12)
        noisy = acts[:, sigma] + rng.normal(scale=0.01, size=(300, 12))
        recovered = solve_assignment(
            cross_correlation(centered(acts), centered(noisy)))
        np.testing.assert_array_equal(recovered.mapping, np.argsort(sigma))

    def test_identity_for_identical_inputs(self):
        rng = np.random.default_rng(86)
        acts = rng.normal(size=(100, 9))
        assert (solve_assignment(cross_correlation(centered(acts), centered(acts)))
                == Permutation.identity(9))
