"""Compress transformers by aligning, averaging, and tying groups of
adjacent feed-forward sublayers.

The pieces: a small numpy inference engine with activation taps, hidden-unit
alignment by correlation plus exact assignment, window merging with
parameter tying, sliding-window selection against a held-out score, a
layer-drop baseline, CKA similarity analysis, and a binary checkpoint
format that stores tied tensors once.
"""

from .alignment import (Permutation, apply_permutation, centered,
                        cross_correlation, matched_score, solve_assignment)
from .analysis import CkaMatrix, cka_matrix, linear_cka
from .checkpoint import (CheckpointFormatError, ParameterStore, TieReport,
                         read_container, tie_report, write_container)
from .config import ModelConfig
from .datasets import (Dataset, load_dataset, read_label_file, read_token_file,
                       write_label_file, write_token_file)
from .engine import (ActivationSet, EvalMetric, FFParams, TransformerModel,
                     capture_activations, evaluate, ff_forward, ff_params,
                     load_model, read_activations, save_model,
                     write_activations)
from .fixtures import (PermutedCopyFixture, default_config, duplicate_model,
                       gen_fixture, greedy_sequences, noisy_permuted_pair,
                       permuted_copy_model, random_model, token_sequences,
                       zeroed_layer_model)
from .merging import MergeDiagnostics, MergeSpec, merge_ff, merge_window
from .selection import (SelectionReport, WindowCandidate, drop_layers,
                        enumerate_drop_starts, enumerate_windows,
                        select_best_drop, select_best_window)

__version__ = "0.1.0"

__all__ = [
    "ActivationSet", "CheckpointFormatError", "CkaMatrix",
    "Dataset", "EvalMetric", "FFParams", "MergeDiagnostics", "MergeSpec",
    "ModelConfig", "ParameterStore", "Permutation", "PermutedCopyFixture",
    "SelectionReport", "TieReport", "TransformerModel", "WindowCandidate",
    "apply_permutation", "capture_activations", "centered", "cka_matrix",
    "cross_correlation", "default_config",
    "drop_layers", "duplicate_model", "enumerate_drop_starts",
    "enumerate_windows", "evaluate", "ff_forward", "ff_params", "gen_fixture",
    "greedy_sequences", "linear_cka", "load_dataset", "load_model",
    "matched_score", "merge_ff", "merge_window",
    "noisy_permuted_pair", "permuted_copy_model", "random_model",
    "read_activations", "read_container", "read_label_file",
    "read_token_file", "save_model", "select_best_drop",
    "select_best_window", "solve_assignment", "tie_report",
    "token_sequences", "write_activations", "write_container",
    "write_label_file", "write_token_file", "zeroed_layer_model",
]
