"""Column statistics of dense activation matrices, used by alignment.

Statistics accumulate in float64, which keeps correlation numbers stable
across permutations of the summation order.
"""

from __future__ import annotations

import numpy as np


def column_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and population standard deviations (divide by n).

    Standard deviations are >= 0; a zero entry marks a constant column and
    is left for callers to handle (nothing here divides by it).
    """
    x64 = np.asarray(x, dtype=np.float64)
    if x64.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x64.shape}")
    if x64.shape[0] < 1:
        raise ValueError("column_stats requires at least one row")
    with np.errstate(invalid="ignore"):  # Inf - Inf; refused just below
        mean = x64.mean(axis=0)
    # a NaN or Inf entry makes its column mean NaN or Inf; only then scan x
    if not np.isfinite(mean).all() and not np.isfinite(x64).all():
        raise ValueError("x contains NaN or Inf")
    # np.var's own steps (one temporary, squared in place, mean), so the bits match
    d = x64 - mean
    return mean, np.sqrt(np.multiply(d, d, out=d).mean(axis=0))
