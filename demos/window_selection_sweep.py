"""
Sweeping every candidate window to find the mergeable one
=========================================================

Only one window of the fixture hides redundant feed-forwards. Scoring a
trial merge of every contiguous window on held-out sequences singles it
out: damaged windows cost cross-entropy, the redundant one costs nothing.
"""

from ffmerge.engine import EvalMetric, capture_activations, evaluate
from ffmerge.fixtures import (default_config, greedy_sequences,
                              permuted_copy_model, token_sequences)
from ffmerge.selection import select_best_window

cfg = default_config(n_layers=6, d_model=16, d_ff=64, ff_kind="relu")
fixture = permuted_copy_model(cfg, seed=7)
model = fixture.model

# one capture of the unmerged model serves every candidate
data = token_sequences(cfg, 24, 16, seed=3)
acts = capture_activations(model, data, "ff_pre_act", max_samples=200)

# score on sequences the model itself continues greedily, so surgery
# damage shows up as a strictly worse score
eval_data = greedy_sequences(model, 8, 24, seed=11)
metric = EvalMetric("cross_entropy")
base_score = evaluate(model, eval_data, metric)
print(f"unmerged cross-entropy: {base_score:.6f}")

report, best_model = select_best_window(model, acts, 3, eval_data, metric)
for cand in report.candidates:
    marker = "  <- best" if cand.start == report.best.start else ""
    print(f"  window layers {cand.start}-{cand.start + 2}: "
          f"{cand.score:.6f}{marker}")

print(f"selected start {report.best.start} "
      f"(fixture group starts at {fixture.group_start})")
print(f"score change vs unmerged: "
      f"{report.best.score - base_score:+.2e}")
print(report.to_json())
