"""The one centering of activation matrices, shared by alignment and CKA,
and the column standard deviations alignment takes from it, in float64."""

from __future__ import annotations

import numpy as np


def center(x: np.ndarray) -> np.ndarray:
    """A fresh C-ordered float64 copy of 2-D ``x`` less its column means, the
    same bits whatever ``x``'s memory order; ``x`` is not written. NaN or Inf
    in ``x`` leaves NaN in its column, for callers to refuse."""
    xc = np.array(x, dtype=np.float64, order="C")
    if xc.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {xc.shape}")
    if xc.shape[0] < 1:
        raise ValueError("x must hold at least one row")
    with np.errstate(invalid="ignore"):  # Inf - Inf
        xc -= xc.mean(axis=0)
    return xc


def column_stats(xc: np.ndarray) -> np.ndarray:
    """Population stds of a ``center`` result's columns, bit for bit
    ``x.std(axis=0)`` in float64 (``np.var``'s steps: square, then mean).

    A zero marks a constant column. NaN or Inf in ``x`` gives a NaN std and
    is refused; a finite column whose sum overflows gets an infinite std."""
    std = np.sqrt(np.multiply(xc, xc).mean(axis=0))
    if np.isnan(std).any():
        raise ValueError("x contains NaN or Inf")
    return std
