"""Linear Centered Kernel Alignment between per-layer activation sets.

CKA scores how similar two feature matrices are, ignoring orthogonal
transforms and isotropic rescaling of either side. Computed pairwise over
the layers of an activation capture it shows which sublayers compute alike,
which is what makes some windows merge losslessly and others not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .engine import ActivationSet


def linear_cka(x, y) -> float:
    """Linear CKA between two feature matrices with matching rows.

    With column-centered X and Y this is ||Y^T X||_F^2 divided by
    ||X^T X||_F * ||Y^T Y||_F. Widths may differ. All-constant features
    make a denominator factor 0; the score is defined as 0 there.
    """
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("linear_cka needs 2-D feature matrices")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    num = float(np.linalg.norm(b.T @ a) ** 2)
    da = float(np.linalg.norm(a.T @ a))
    db = float(np.linalg.norm(b.T @ b))
    if da == 0.0 or db == 0.0:
        return 0.0
    return num / (da * db)


@dataclass(frozen=True)
class CkaMatrix:
    """Pairwise CKA over the layers of one activation capture.

    values[i, j] compares layer i with layer j in ascending layer order. A
    layer whose features are constant (a dead layer) has an all-zero row and
    column, diagonal included.
    """

    values: np.ndarray
    tap: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"CKA matrix must be square, got {v.shape}")
        if not np.allclose(v, v.T, atol=1e-6, rtol=0.0):
            raise ValueError("CKA matrix is not symmetric")
        # linear_cka scores a layer with constant features 0 against every
        # layer, itself included; every other layer must score 1 against itself
        dead = ~(v.any(axis=0) | v.any(axis=1))
        if np.abs(np.diag(v)[~dead] - 1.0).max(initial=0.0) > 1e-6:
            raise ValueError(
                "CKA diagonal differs from 1; a layer's features are degenerate"
            )
        if v.min() < 0.0 or v.max() > 1.0 + 1e-6:
            raise ValueError("CKA entries must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def to_csv(self) -> str:
        lines = [",".join(format(v, ".6g") for v in row) for row in self.values]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"tap": self.tap, "values": self.values.tolist()},
                          indent=2) + "\n"


def cka_matrix(acts: ActivationSet) -> CkaMatrix:
    """Pairwise linear CKA between every layer pair of a capture.

    The upper triangle is computed and mirrored, so the result is symmetric
    by construction.
    """
    layers = acts.layers()
    if len(layers) < 2:
        raise ValueError("need at least 2 layers to compare")
    n = len(layers)
    values = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            values[i, j] = linear_cka(acts.per_layer[layers[i]],
                                      acts.per_layer[layers[j]])
            values[j, i] = values[i, j]
    return CkaMatrix(values=values, tap=acts.tap)
