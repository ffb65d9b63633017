"""
Merging versus dropping at a matched parameter budget
=====================================================

The natural baseline for merge-and-tie compression is simply deleting
layers. This script prunes a model with one provably dead layer, then runs
the merge sweep and the drop sweep at a matched parameter budget side by
side.
"""

from ffmerge.engine import EvalMetric, capture_activations, evaluate
from ffmerge.fixtures import (default_config, greedy_sequences,
                              permuted_copy_model, token_sequences,
                              zeroed_layer_model)
from ffmerge.selection import (matched_drop_count, select_best_drop,
                               select_best_window)

# part 1: a model whose layer 2 adds exactly nothing to the residual stream
cfg = default_config(n_layers=5, d_model=16, d_ff=32, ff_kind="gelu")
model = zeroed_layer_model(cfg, zero_layer=2, seed=19)
eval_data = greedy_sequences(model, 8, 24, seed=23)
metric = EvalMetric("cross_entropy")
base_score = evaluate(model, eval_data, metric)

report, pruned = select_best_drop(model, 1, eval_data, metric)
print("drop sweep over the dead-layer model:")
for cand in report.candidates:
    marker = "  <- best" if cand.start == report.best.start else ""
    print(f"  drop layer {cand.start}: {cand.score:.6f}{marker}")
print(f"kept function: score delta "
      f"{report.best.score - base_score:+.2e}, "
      f"{model.config.n_layers} -> {pruned.config.n_layers} layers")

# part 2: the merge sweep against the drop sweep at a matched budget
cfg = default_config(n_layers=6, d_model=16, d_ff=64, ff_kind="relu")
fixture = permuted_copy_model(cfg, seed=7)
data = token_sequences(cfg, 24, 16, seed=3)
acts = capture_activations(fixture.model, data, "ff_pre_act",
                           max_samples=200)
eval_data = greedy_sequences(fixture.model, 8, 24, seed=11)

count = matched_drop_count(cfg, 3)
print(f"\nmerging k=3 frees about as many parameters as dropping "
      f"{count} layer(s)")
merge_report, merged = select_best_window(fixture.model, acts, 3,
                                          eval_data, metric)
drop_report, _ = select_best_drop(fixture.model, count, eval_data, metric)
print(f"best merge window: start {merge_report.best.start}, "
      f"score {merge_report.best.score:.6f}")
print(f"best layer drop:   start {drop_report.best.start}, "
      f"score {drop_report.best.score:.6f}")
print("the merge keeps all six layers and ties their storage; the drop "
      "shortens the model instead")
