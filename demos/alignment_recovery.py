"""
Recovering a hidden unit permutation from activations
=====================================================

Two feed-forward sublayers that differ only by an internal reordering of
their hidden units compute the same function. This script plants such a
reordering, then recovers it purely from pre-activation statistics.
"""

import numpy as np

from ffmerge.alignment import (Permutation, apply_permutation, centered,
                               cross_correlation, solve_assignment)
from ffmerge.engine import FFParams, ff_forward

rng = np.random.default_rng(1)
d_model, d_ff = 16, 64

# a random feed-forward and a copy with shuffled hidden units
base = FFParams(
    w_in=rng.normal(size=(d_ff, d_model)).astype(np.float32),
    b_in=rng.normal(size=d_ff).astype(np.float32),
    w_out=rng.normal(size=(d_model, d_ff)).astype(np.float32),
    b_out=rng.normal(size=d_model).astype(np.float32))
sigma = Permutation(rng.permutation(d_ff).astype(np.int64))
shuffled = apply_permutation(base, sigma)

# the two parameterizations are different numbers ...
print(f"w_in rows moved: {int((base['w_in'] != shuffled['w_in']).any(axis=1).sum())}"
      f" of {d_ff}")

# ... but the same function
x = rng.normal(size=(300, d_model)).astype(np.float32)
pre_base, y_base = ff_forward(base, x, "relu")
pre_shuf, y_shuf = ff_forward(shuffled, x, "relu")
print(f"max output difference: {np.abs(y_base - y_shuf).max():.2e}")

# unit-by-unit correlation of the centered pre-activations exposes the
# reordering: each base unit correlates perfectly with exactly one shuffled
# unit
corr = cross_correlation(centered(pre_base), centered(pre_shuf))
print(f"correlation peaks per row: "
      f"{np.sort(corr.max(axis=1))[:3]} ... all ~1")

# the assignment problem turns the correlation table into a permutation
recovered = solve_assignment(corr)

# applying the recovered permutation to the shuffled copy restores base
restored = apply_permutation(shuffled, recovered)
print(f"recovered == planted inverse: "
      f"{np.array_equal(recovered.mapping, np.argsort(sigma.mapping))}")
print(f"restored w_in identical: "
      f"{np.array_equal(restored['w_in'], base['w_in'])}")
