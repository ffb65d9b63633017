"""
Merging a window of feed-forwards into shared storage
=====================================================

The permuted-copy fixture hides one feed-forward inside layers 2-4, each
copy reordered differently. Aligning and averaging the window collapses
the three sublayers into one set of weights, tied via checkpoint aliases,
without changing the model's outputs.
"""

import numpy as np

from ffmerge.checkpoint import tie_report
from ffmerge.engine import capture_activations
from ffmerge.fixtures import (default_config, permuted_copy_model,
                              token_sequences)
from ffmerge.merging import MergeSpec, merge_window

cfg = default_config(n_layers=6, d_model=16, d_ff=64, ff_kind="relu")
fixture = permuted_copy_model(cfg, seed=7)
model = fixture.model
print(f"fixture group: layers {fixture.group_layers}")

# alignment statistics come from one activation capture on token data
data = token_sequences(cfg, 24, 16, seed=3)
acts = capture_activations(model, data, "ff_pre_act", max_samples=200)

# merge the window: align each member onto the anchor, average, tie
spec = MergeSpec(start=fixture.group_start, k=fixture.group_len)
merged, diag = merge_window(model, acts, spec)
for member in diag.members:
    print(f"layer {member.layer}: mean matched correlation "
          f"{member.mean_matched_correlation:.6f}")

# the merged model answers exactly like the original
toks = np.array([3, 9, 4, 12, 1, 6], dtype=np.int64)
delta = np.abs(merged.forward(toks) - model.forward(toks)).max()
print(f"max logit change after merging: {delta:.2e}")

# later member layers now alias the merged tensors, owned by the window's first layer
for name in ("layer3.ff.w_in", "layer4.ff.w_out"):
    print(f"  {name} -> {merged.store.alias_target(name)}")

before = tie_report(model.store)
after = tie_report(merged.store)
print(f"unique parameters {before.unique_parameters} -> "
      f"{after.unique_parameters} "
      f"(reduction ratio {after.reduction_ratio:.4f})")
