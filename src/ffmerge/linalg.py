"""The one centering of activation matrices, shared by alignment and CKA,
and the column standard deviations alignment takes from it, in float64."""

from __future__ import annotations

import numpy as np


def center(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A fresh C-ordered float64 copy of 2-D ``x`` less its column means, the
    same bits whatever ``x``'s memory order; ``x`` is not written. ``out``, a
    C-contiguous float64 array of ``x``'s shape apart from ``x``, takes the same
    bits in place of the copy; any other ``out`` raises ``ValueError``. NaN or
    Inf in ``x`` leaves NaN in its column, for callers to refuse."""
    if out is None:
        out = np.empty(np.shape(x))
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.flags.c_contiguous
              and out.shape == np.shape(x) and not np.may_share_memory(out, x)):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {np.shape(x)}")
    np.copyto(out, x)
    if out.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {out.shape}")
    if out.shape[0] < 1:
        raise ValueError("x must hold at least one row")
    with np.errstate(invalid="ignore"):  # Inf - Inf
        out -= out.mean(axis=0)
    return out


def column_stats(xc: np.ndarray) -> np.ndarray:
    """Population stds of a ``center`` result's columns, bit for bit
    ``x.std(axis=0)`` in float64 (``np.var``'s steps: square, then mean).

    A zero marks a constant column. NaN or Inf in ``x`` gives a NaN std and
    is refused; a finite column whose sum overflows gets an infinite std."""
    std = np.sqrt(np.multiply(xc, xc).mean(axis=0))
    if np.isnan(std).any():
        raise ValueError("x contains NaN or Inf")
    return std
