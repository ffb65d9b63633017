"""Column statistics of dense float32 matrices, used by alignment.

Storage is always float32, row-major. Statistics accumulate in float64,
which keeps correlation numbers stable across permutations of the
summation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_matrix(values, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``values`` to a finite, C-contiguous float32 2-D array."""
    m = np.ascontiguousarray(values, dtype=np.float32)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf")
    return m


@dataclass(frozen=True)
class ColumnStats:
    """Per-column mean and population standard deviation of a matrix.

    ``stds`` entries are >= 0; a zero entry marks a constant column and
    is left for callers to handle (nothing here divides by it).
    """

    means: np.ndarray
    stds: np.ndarray


def column_stats(x: np.ndarray) -> ColumnStats:
    """Column means and population standard deviations (divide by n)."""
    x = as_matrix(x, name="x")
    if x.shape[0] < 1:
        raise ValueError("column_stats requires at least one row")
    x64 = x.astype(np.float64)
    means = x64.mean(axis=0)
    # E[x^2] - mean^2 can go slightly negative from rounding; clamp.
    variances = np.maximum(x64.var(axis=0), 0.0)
    return ColumnStats(means=means, stds=np.sqrt(variances))
