"""Similarity-analysis tests: linear CKA against a centered-Gram oracle,
its invariances, and the layer-by-layer matrix with its export formats."""

import json

import numpy as np
import pytest

from ffmerge.analysis import CkaMatrix, cka_matrix, linear_cka
from ffmerge.engine import capture_activations
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

    def test_structural_validation(self):
        good = np.array([[1.0, 0.5], [0.5, 1.0]])
        CkaMatrix(values=good, tap="ff_out")
        with pytest.raises(ValueError):
            CkaMatrix(values=np.array([[1.0, 0.5], [0.4, 1.0]]), tap="ff_out")
        with pytest.raises(ValueError, match="degenerate"):
            CkaMatrix(values=np.array([[0.0, 0.2], [0.2, 1.0]]), tap="ff_out")
        with pytest.raises(ValueError, match="degenerate"):
            CkaMatrix(values=np.array([[0.5, 0.0], [0.0, 1.0]]), tap="ff_out")
        # a dead layer's whole row and column are 0, diagonal included
        CkaMatrix(values=np.array([[0.0, 0.0], [0.0, 1.0]]), tap="ff_out")
        with pytest.raises(ValueError, match="degenerate"):
            CkaMatrix(values=np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.3],
                                       [0.0, 0.3, 0.9]]), tap="ff_out")
        with pytest.raises(ValueError):
            CkaMatrix(values=np.array([[1.0, 1.5], [1.5, 1.0]]), tap="ff_out")

    @pytest.mark.parametrize("tap", ["ff_pre_act", "ff_out", "attn_out"])
    def test_dead_layer_scores_zero(self, tap):
        cfg = default_config(n_layers=4, d_model=16, d_ff=32)
        model = zeroed_layer_model(cfg, zero_layer=1, seed=19)
        data = token_sequences(cfg, 8, 12, seed=3)
        matrix = cka_matrix(capture_activations(model, data, tap,
                                                max_samples=80))
        assert not matrix.values[1].any() and not matrix.values[:, 1].any()
        live = [0, 2, 3]
        np.testing.assert_allclose(np.diag(matrix.values)[live], 1.0,
                                   atol=1e-6, rtol=0.0)

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
