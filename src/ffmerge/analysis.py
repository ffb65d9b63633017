"""Linear Centered Kernel Alignment between per-layer activation sets.

CKA scores how similar two feature matrices are, ignoring orthogonal
transforms and isotropic rescaling of either side. Computed pairwise over
the layers of an activation capture it shows which sublayers compute alike,
which is what makes some windows merge losslessly and others not.

Layers are centered by ``linalg.center``, as alignment centers them. A
matrix over L layers costs L Gram products (one per layer, for its norm)
and L(L-1)/2 cross products, one per layer pair. Layers are centered again
for every pair rather than cached, into the same two float64 buffers,
allocated once per matrix, however many layers there are.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .engine import ActivationSet
from .linalg import center


def _gram_norm(a: np.ndarray, what: str) -> float:
    """``||A^T A||_F`` of a centered matrix, refused when not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(a.T @ a))
    if not math.isfinite(norm):
        raise ValueError(f"{what} is {norm}: the features hold NaN or Inf, "
                         "or overflow float64")
    return norm


def linear_cka(x, y, *, norms: tuple[float, float] | None = None,
               out: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Linear CKA between two feature matrices with matching rows.

    With column-centered X and Y this is ||Y^T X||_F^2 divided by
    ||X^T X||_F * ||Y^T Y||_F. Widths may differ. All-constant features
    make a denominator factor 0; the score is defined as 0 there.

    ``norms`` passes the two Gram norms ``(||Xc^T Xc||_F, ||Yc^T Yc||_F)``
    when the caller already has them, so only the cross product is formed;
    without it both are computed here. Given the norms this function would
    compute, the score is the same to the bit. A Gram norm that is not
    finite, computed or passed (NaN or Inf features, or float64 overflow),
    raises ``ValueError``, and so does a score above 1 + 1e-6 or NaN: the
    features were too small or too large for float64 to score. ``out`` is a
    pair of separate ``linalg.center`` buffers for ``x`` and ``y``, same score.
    """
    if np.ndim(x) != 2 or np.ndim(y) != 2:
        raise ValueError("linear_cka needs 2-D feature matrices")
    rows = (np.shape(x)[0], np.shape(y)[0])
    if rows[0] != rows[1]:
        raise ValueError(f"row counts differ: {rows[0]} vs {rows[1]}")
    if rows[0] < 2:
        raise ValueError("need at least 2 rows")
    a, b = (center(x), center(y)) if out is None else (center(x, out[0]), center(y, out[1]))
    if norms is None:
        da, db = _gram_norm(a, "Gram norm of x"), _gram_norm(b, "Gram norm of y")
    else:
        da, db = map(float, norms)
        if not (math.isfinite(da) and math.isfinite(db)):
            raise ValueError(f"passed Gram norms ({da}, {db}) are not finite")
    if da == 0.0 or db == 0.0:
        return 0.0
    score = float(np.linalg.norm(b.T @ a) ** 2) / (da * db)
    if not score <= 1.0 + 1e-6:
        raise ValueError(f"CKA score {score} is outside [0, 1]: the features are "
                         "too small or too large to score in float64")
    return score


@dataclass(frozen=True)
class CkaMatrix:
    """Pairwise CKA over the layers of one capture, as ``cka_matrix``
    builds it: values[i, j] is layer i's ``linear_cka`` score against layer
    j, in [0, 1 + 1e-6] and symmetric. The diagonal is exactly 1.0, or 0.0
    for a dead layer (constant features), whose whole row and column are 0."""

    values: np.ndarray
    tap: str

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

    Each layer's Gram norm is computed once and sets its diagonal entry
    exactly: 1.0 for a live layer, 0.0 for a dead one. Each pair above the
    diagonal is one ``linear_cka`` call given both norms, and is mirrored,
    so the result is symmetric by construction. A layer whose Gram norm is
    not finite is refused by name, and ``linear_cka`` refuses the rest.
    """
    mats = acts.per_layer
    if len(mats) < 2:
        raise ValueError("need at least 2 layers to compare")
    out = (np.empty(mats[0].shape), np.empty(mats[0].shape))
    norms = [_gram_norm(center(m, out[0]), f"layer {i} Gram norm") for i, m in enumerate(mats)]
    values = np.diag([1.0 if norm > 0.0 else 0.0 for norm in norms])
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            values[i, j] = values[j, i] = linear_cka(
                mats[i], mats[j], norms=(norms[i], norms[j]), out=out)
    return CkaMatrix(values=values, tap=acts.tap)
