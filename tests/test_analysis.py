"""Similarity-analysis tests: linear CKA against a centered-Gram oracle,
its invariances, the layer-by-layer matrix against pairwise CKA, and its
export formats."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ffmerge.analysis import CkaMatrix, cka_matrix, linear_cka
from ffmerge.engine import ActivationSet, capture_activations
from ffmerge.fixtures import default_config, duplicate_model, random_model, \
    token_sequences, zeroed_layer_model


def cka_gram_oracle(x: np.ndarray, y: np.ndarray) -> float:
    """Linear CKA via explicitly centered Gram matrices.

    Independent route: build K = X Xt and L = Y Yt, double-center both with
    H = I - 1/n, and take tr(K H L H) normalized by the self terms.
    """
    n = x.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n
    k = x.astype(np.float64) @ x.astype(np.float64).T
    l = y.astype(np.float64) @ y.astype(np.float64).T
    kc = h @ k @ h
    lc = h @ l @ h
    cross = np.trace(kc @ lc)
    denom = np.sqrt(np.trace(kc @ kc) * np.trace(lc @ lc))
    if denom == 0.0:
        return 0.0
    return float(cross / denom)


def gram_norm(x) -> float:
    """``||Xc^T Xc||_F`` the way ``linear_cka`` forms it."""
    xc = np.array(x, dtype=np.float64)
    xc -= xc.mean(axis=0)
    return float(np.linalg.norm(xc.T @ xc))


class TestLinearCka:
    def test_self_similarity_one(self):
        rng = np.random.default_rng(100)
        x = rng.normal(size=(50, 8))
        assert linear_cka(x, x) == pytest.approx(1.0, abs=1e-6)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            x = rng.normal(size=(50, 4))
            y = rng.normal(size=(50, 6))
            assert linear_cka(x, y) == pytest.approx(cka_gram_oracle(x, y),
                                                     abs=1e-6)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(102)
        x = rng.normal(size=(40, 7))
        y = rng.normal(size=(40, 7))
        base = linear_cka(x, y)
        perm = rng.permutation(7)
        assert linear_cka(x, y[:, perm]) == pytest.approx(base, abs=1e-6)
        assert linear_cka(x[:, perm], y) == pytest.approx(base, abs=1e-6)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(103)
        x = rng.normal(size=(40, 5))
        y = rng.normal(size=(40, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert linear_cka(x, y @ q) == pytest.approx(linear_cka(x, y),
                                                     abs=1e-6)

    def test_isotropic_scale_invariance(self):
        rng = np.random.default_rng(104)
        x = rng.normal(size=(30, 6))
        y = rng.normal(size=(30, 6))
        base = linear_cka(x, y)
        assert linear_cka(x * 3.5, y) == pytest.approx(base, abs=1e-6)
        assert linear_cka(x, y * 0.02) == pytest.approx(base, abs=1e-6)

    def test_constant_features_zero(self):
        rng = np.random.default_rng(105)
        x = np.full((20, 4), 2.0)
        y = rng.normal(size=(20, 4))
        assert linear_cka(x, y) == 0.0
        assert linear_cka(y, x) == 0.0
        assert linear_cka(x, x) == 0.0

    def test_range(self):
        rng = np.random.default_rng(106)
        for _ in range(20):
            x = rng.normal(size=(25, 5))
            y = rng.normal(size=(25, 9))
            v = linear_cka(x, y)
            assert 0.0 <= v <= 1.0 + 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(107)
        x = rng.normal(size=(30, 4))
        y = rng.normal(size=(30, 8))
        assert linear_cka(x, y) == pytest.approx(linear_cka(y, x), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="2-D"):
            linear_cka(np.zeros(5), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="row"):
            linear_cka(np.zeros((5, 2)), np.zeros((6, 2)))
        with pytest.raises(ValueError, match="row"):
            linear_cka(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_does_not_touch_inputs(self):
        rng = np.random.default_rng(109)
        x = rng.normal(size=(20, 3))
        before = x.copy()
        linear_cka(x, x, norms=(gram_norm(x), gram_norm(x)))
        linear_cka(x, x)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_refused(self, bad):
        rng = np.random.default_rng(110)
        x = rng.normal(size=(20, 3))
        y = x.copy()
        y[4, 1] = bad
        with pytest.raises(ValueError, match="Gram norm of y is nan"):
            linear_cka(x, y)
        with pytest.raises(ValueError, match="Gram norm of x is nan"):
            linear_cka(y, x)

    def test_non_finite_norms_refused(self):
        x = np.random.default_rng(111).normal(size=(20, 3))
        for norms in [(np.nan, 1.0), (1.0, np.inf)]:
            with pytest.raises(ValueError, match="not finite"):
                linear_cka(x, x, norms=norms)

    def test_gram_overflow_refused(self):
        x = np.random.default_rng(112).normal(size=(20, 3))
        with pytest.raises(ValueError, match="Gram norm of x is inf"):
            linear_cka(x * 1e160, x)
        assert linear_cka(x * 1e70, x) == pytest.approx(1.0, abs=1e-12)

    def test_underflowing_score_above_one_refused(self):
        # the Gram entries' squares underflow and the score leaves [0, 1],
        # where scale invariance says 1.0
        x = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(ValueError, match=r"outside \[0, 1\]: the features are too small"):
            linear_cka(x * 5e-82, x)
        acts = ActivationSet(tap="ff_out", per_layer=(x * 5e-82, x))
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            cka_matrix(acts)


class TestCkaMatrix:
    def capture(self, model, cfg, seed):
        data = token_sequences(cfg, 12, 12, seed=seed)
        return capture_activations(model, data, "ff_out", max_samples=100)

    def test_duplicate_layers_fully_similar(self):
        cfg = default_config(n_layers=5, d_model=16, d_ff=32)
        model = duplicate_model(cfg, seed=5)
        matrix = cka_matrix(self.capture(model, cfg, seed=6))
        assert matrix.size == 5
        for i in range(5):
            for j in range(5):
                assert matrix.values[i, j] == pytest.approx(1.0, abs=1e-5)

    def test_random_layers_less_similar_off_diagonal(self):
        cfg = default_config(n_layers=4, d_model=16, d_ff=32)
        model = random_model(cfg, seed=108)
        matrix = cka_matrix(self.capture(model, cfg, seed=109))
        off = [matrix.values[i, j] for i in range(4) for j in range(4)
               if i != j]
        assert max(off) < 0.999

    def test_repeat_capture_is_identical(self):
        cfg = default_config(n_layers=3, d_model=16, d_ff=32)
        model = random_model(cfg, seed=110)
        a = cka_matrix(self.capture(model, cfg, seed=111))
        b = cka_matrix(self.capture(model, cfg, seed=111))
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_layer_named(self, bad):
        rng = np.random.default_rng(113)
        per_layer = rng.normal(size=(3, 10, 4)).astype(np.float32)
        per_layer[2, 3, 0] = bad
        acts = ActivationSet(tap="ff_out", per_layer=tuple(per_layer))
        with pytest.raises(ValueError, match="^layer 2 Gram norm is nan"):
            cka_matrix(acts)

    @pytest.mark.parametrize("tap", ["ff_pre_act", "ff_out", "attn_out"])
    def test_dead_layer_scores_zero(self, tap):
        cfg = default_config(n_layers=4, d_model=16, d_ff=32)
        model = zeroed_layer_model(cfg, zero_layer=1, seed=19)
        data = token_sequences(cfg, 8, 12, seed=3)
        matrix = cka_matrix(capture_activations(model, data, tap,
                                                max_samples=80))
        assert not matrix.values[1].any() and not matrix.values[:, 1].any()
        live = [0, 2, 3]
        assert (np.diag(matrix.values)[live] == 1.0).all()

    def test_needs_two_layers(self):
        cfg = default_config(n_layers=1, d_model=8, d_ff=16)
        model = random_model(cfg, seed=112)
        acts = self.capture(model, cfg, seed=113)
        with pytest.raises(ValueError, match="layers"):
            cka_matrix(acts)

    def test_csv_format(self):
        values = np.array([[1.0, 0.123456789], [0.123456789, 1.0]])
        matrix = CkaMatrix(values=values, tap="ff_out")
        lines = matrix.to_csv().splitlines()
        assert lines == ["1,0.123457", "0.123457,1"]
        assert matrix.to_csv().endswith("\n")

    def test_json_schema(self):
        values = np.array([[1.0, 0.25], [0.25, 1.0]])
        matrix = CkaMatrix(values=values, tap="ff_pre_act")
        doc = json.loads(matrix.to_json())
        assert set(doc) == {"tap", "values"}
        assert doc["tap"] == "ff_pre_act"
        assert doc["values"] == [[1.0, 0.25], [0.25, 1.0]]


@st.composite
def captures(draw):
    """A hand-built capture: float32 or float64, 2+ rows, any width, with
    some layers dead and some columns constant, and some layers scaled by a
    power of ten from 1e-90 to 1e70 (a float32 layer may underflow to 0 or
    overflow to inf)."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n_layers = draw(st.integers(2, 5))
    rows = draw(st.integers(2, 12))
    width = draw(st.sampled_from([1, 2, 3, 5, 8]))
    elements = st.floats(-1e3, 1e3, width=32 if dtype is np.float32 else 64)
    values = draw(arrays(dtype, (n_layers, rows, width), elements=elements))
    for layer in draw(st.sets(st.integers(0, n_layers - 1), max_size=2)):
        values[layer] = values[layer, 0]
    for col in draw(st.sets(st.integers(0, width - 1), max_size=2)):
        values[:, :, col] = values[:, :1, col]
    exponents = st.just(0.0) | st.floats(-90, 70)
    scales = 10.0 ** np.array(draw(st.lists(exponents, min_size=n_layers,
                                            max_size=n_layers)))
    with np.errstate(over="ignore", under="ignore"):
        values = (values * scales[:, None, None]).astype(dtype)
    return ActivationSet(tap="ff_out", per_layer=tuple(values))


class TestCkaMatrixAgainstPairs:
    @settings(max_examples=150, deadline=None)
    @given(acts=captures())
    def test_matches_pairwise_cka(self, acts):
        """``cka_matrix`` refuses a capture, or builds the matrix of its
        pairwise ``linear_cka`` scores: L x L, exactly symmetric, a diagonal
        of exactly 0.0 or 1.0, and every entry in [0, 1 + 1e-6]."""
        mats = acts.per_layer
        try:
            values = cka_matrix(acts).values
        except ValueError:
            # then a pair is refused on its own, or a layer's Gram norm is
            with pytest.raises(ValueError):
                for i, x in enumerate(mats):
                    for y in mats[i + 1:]:
                        linear_cka(x, y)
            return
        assert values.shape == (len(mats), len(mats))
        np.testing.assert_array_equal(values, values.T)
        assert np.isin(np.diag(values), [0.0, 1.0]).all()
        assert ((0.0 <= values) & (values <= 1.0 + 1e-6)).all()
        for i, x in enumerate(mats):
            norm = gram_norm(x)
            assert values[i, i] == (1.0 if norm > 0.0 else 0.0)
            for j in range(i + 1, len(mats)):
                y = mats[j]
                plain = linear_cka(x, y)
                assert values[i, j] == values[j, i] == plain
                assert linear_cka(x, y, norms=(norm, gram_norm(y))) == plain

    @pytest.mark.parametrize("n_layers", [3, 6])
    def test_peak_memory_stays_below_three_layer_copies(self, n_layers):
        rows, width = 4096, 16
        rng = np.random.default_rng(114)
        acts = ActivationSet(tap="ff_out", per_layer=tuple(
            rng.normal(size=(rows, width)).astype(np.float32) for _ in range(n_layers)))
        tracemalloc.start()
        try:
            cka_matrix(acts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * rows * width * 8
