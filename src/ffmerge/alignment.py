"""Permutation alignment of feed-forward hidden units.

Two sublayers of the same width are aligned by (1) centering each one's
hidden-unit activations over a shared batch of inputs once, (2) computing
the entrywise Pearson correlation between the two centered matrices and (3)
solving the linear assignment problem that maximizes the total matched
correlation. Applying the winning permutation to a sublayer's parameters
reorders its hidden units without changing its input-output function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FF_HIDDEN_AXIS
from .engine import FFParams
from .linalg import center, column_stats


@dataclass(frozen=True, eq=False)
class Permutation:
    """A hidden-unit reordering; mapping[j] is the unit matched to slot j.

    As a matrix this is P with P[j, mapping[j]] = 1; it is never
    materialized, parameters are reordered by index gathers.
    """

    mapping: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return bool(np.array_equal(self.mapping, other.mapping))

    def __post_init__(self):
        raw = np.asarray(self.mapping)
        if raw.dtype.kind not in "iu":
            raise ValueError("permutation mapping must hold integers")
        m = raw.astype(np.int64)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("permutation mapping must be 1-D and non-empty")
        if not np.array_equal(np.sort(m), np.arange(m.size)):
            raise ValueError("mapping is not a permutation of 0..n-1")
        object.__setattr__(self, "mapping", m)

    @property
    def size(self) -> int:
        return self.mapping.size

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.int64))


def centered(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One activation matrix made ready to correlate: ``linalg.center``'s
    float64 copy of ``x`` less its column means, and the column standard
    deviations ``linalg.column_stats`` takes from that copy.

    The mean is subtracted once and ``x`` itself is never written to. A
    caller that correlates one layer with several others centers it once
    and passes the pair to each ``cross_correlation``.
    """
    xc = center(x)
    return xc, column_stats(xc)


def cross_correlation(ref: tuple[np.ndarray, np.ndarray],
                      other: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Correlate the columns of two ``centered`` activation matrices.

    Returns the float64 matrix whose [j, l] entry correlates unit j of
    ``ref`` with unit l of ``other``. Rows of ``ref`` and ``other`` must
    describe the same inputs. Values are clipped to [-1, 1] to shed float
    round-off; pairs involving a constant (zero-variance) unit are 0.
    """
    if not (isinstance(ref, tuple) and isinstance(other, tuple)):
        raise TypeError("cross_correlation takes two centered(x) results")
    (a, std_a), (b, std_b) = ref, other
    if a.shape != b.shape:
        raise ValueError(f"activation shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] < 2:
        raise ValueError("need at least 2 samples to correlate")
    corr = a.T @ b
    corr /= a.shape[0]
    denom = np.outer(std_a, std_b)
    denom[denom == 0.0] = 1.0
    np.clip(np.divide(corr, denom, out=corr), -1.0, 1.0, out=corr)
    corr[std_a == 0.0, :] = 0.0
    corr[:, std_b == 0.0] = 0.0
    return corr


def solve_assignment(values: np.ndarray) -> Permutation:
    """Maximize the summed matched correlation over all permutations.

    Solved exactly with the Jonker-Volgonant solver behind
    scipy's ``linear_sum_assignment``.
    """
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"assignment needs a square matrix, got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("assignment matrix contains non-finite values")
    from scipy.optimize import linear_sum_assignment  # deferred: slow to import
    rows, cols = linear_sum_assignment(values, maximize=True)
    mapping = np.empty(values.shape[0], dtype=np.int64)
    mapping[rows] = cols
    return Permutation(mapping)


def matched_score(values: np.ndarray, perm: Permutation) -> float:
    """The total correlation collected by a permutation."""
    return float(np.asarray(values)[np.arange(perm.size), perm.mapping].sum())


def apply_permutation(params: FFParams, perm: Permutation) -> FFParams:
    """Reorder a sublayer's hidden units; function is preserved.

    Every tensor is gathered along its hidden axis (``FF_HIDDEN_AXIS``), so
    the rows that make each hidden unit move together with the matching
    columns of the output matrix, which undoes the reordering; b_out has no
    hidden axis and is copied unchanged.
    """
    if perm.size != params.d_ff:
        raise ValueError(
            f"permutation size {perm.size} does not match d_ff {params.d_ff}"
        )
    gathered = FFParams()
    for base, arr in params.items():
        axis = FF_HIDDEN_AXIS[base]
        gathered[base] = arr.copy() if axis is None else np.take(arr, perm.mapping, axis=axis)
    return gathered
