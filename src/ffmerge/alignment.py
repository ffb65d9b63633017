"""Permutation alignment of feed-forward hidden units.

Two sublayers of the same width are aligned by (1) computing the entrywise
Pearson correlation between their hidden-unit activations over a shared
batch of inputs and (2) solving the linear assignment problem that maximizes
the total matched correlation. Applying the winning permutation to a
sublayer's parameters reorders its hidden units without changing its
input-output function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import FF_HIDDEN_AXIS
from .engine import FFParams
from .linalg import column_stats


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

    def inverse(self) -> "Permutation":
        inv = np.empty(self.size, dtype=np.int64)
        inv[self.mapping] = np.arange(self.size)
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """The permutation equivalent to applying ``other`` then ``self``."""
        if other.size != self.size:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(other.mapping[self.mapping])

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.mapping, np.arange(self.size)))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Entrywise Pearson correlations between two sets of hidden units.

    values[j, l] correlates unit j of the first layer with unit l of the
    second. Pairs involving a constant (zero-variance) unit are set to 0;
    the offending unit indexes are recorded per side.
    """

    values: np.ndarray
    zero_variance_cols_a: frozenset[int] = field(default_factory=frozenset)
    zero_variance_cols_b: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]


def cross_correlation(ref: np.ndarray, other: np.ndarray) -> CorrelationMatrix:
    """Correlate the columns of two activation matrices of equal shape.

    Rows of ``ref`` and ``other`` must describe the same inputs. Values are
    clipped to [-1, 1] to shed float round-off.
    """
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(other, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("activation matrices must be 2-D")
    if a.shape != b.shape:
        raise ValueError(f"activation shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] < 2:
        raise ValueError("need at least 2 samples to correlate")
    sa = column_stats(a)
    sb = column_stats(b)
    ac = a - sa.means
    bc = b - sb.means
    cov = (ac.T @ bc) / a.shape[0]
    denom = np.outer(sa.stds, sb.stds)
    zero_rows = np.flatnonzero(sa.stds == 0.0)
    zero_cols = np.flatnonzero(sb.stds == 0.0)
    safe = np.where(denom == 0.0, 1.0, denom)
    corr = np.clip(cov / safe, -1.0, 1.0)
    if zero_rows.size:
        corr[zero_rows, :] = 0.0
    if zero_cols.size:
        corr[:, zero_cols] = 0.0
    return CorrelationMatrix(values=corr,
                             zero_variance_cols_a=frozenset(int(i) for i in zero_rows),
                             zero_variance_cols_b=frozenset(int(i) for i in zero_cols))


def solve_assignment(corr: CorrelationMatrix | np.ndarray) -> Permutation:
    """Maximize the summed matched correlation over all permutations.

    Solved exactly with the Jonker-Volgonant solver behind
    scipy's ``linear_sum_assignment``.
    """
    values = corr.values if isinstance(corr, CorrelationMatrix) else np.asarray(corr)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"assignment needs a square matrix, got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("assignment matrix contains non-finite values")
    rows, cols = linear_sum_assignment(values, maximize=True)
    mapping = np.empty(values.shape[0], dtype=np.int64)
    mapping[rows] = cols
    return Permutation(mapping)


def matched_score(corr: CorrelationMatrix | np.ndarray, perm: Permutation) -> float:
    """The total correlation collected by a permutation."""
    values = corr.values if isinstance(corr, CorrelationMatrix) else np.asarray(corr)
    return float(values[np.arange(perm.size), perm.mapping].sum())


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


def align_units(ref_acts: np.ndarray, other_acts: np.ndarray) -> Permutation:
    """Correlate then assign: the permutation aligning ``other`` to ``ref``.

    ``apply_permutation`` with this result reorders the other layer's units
    so that slot j holds the unit best matching reference unit j.
    """
    return solve_assignment(cross_correlation(ref_acts, other_acts))
