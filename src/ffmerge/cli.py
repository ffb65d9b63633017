"""Command-line front end.

Every subcommand maps onto exactly one library operation; no numeric logic
lives here. Outputs are written atomically (temp file + rename). Exit codes:
0 success, 1 validation or usage error (bad flags, malformed files, bad
values), 2 operating-system I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import cka_matrix
from .checkpoint import atomic_write_text, tie_report
from .datasets import label_path_for, load_dataset
from .engine import (EvalMetric, TransformerModel, capture_activations, evaluate,
                     load_model, read_activations, save_model, write_activations)
from .fixtures import FIXTURE_KINDS, gen_fixture
from .merging import ANCHOR_POSITIONS, MergeDiagnostics, MergeSpec, merge_window
from .selection import SelectionReport, select_best_drop, select_best_window

TAP_FLAGS = {"ff-pre-act": "ff_pre_act", "ff-out": "ff_out",
             "attn-out": "attn_out"}
METRIC_FLAGS = ("xent", "ppl", "acc")


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_window(text: str) -> tuple[int, int]:
    """start:end, inclusive of start, exclusive of end; k = end - start."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"window must look like START:END, got {text!r}")
    try:
        start, end = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"window bounds must be integers, got {text!r}") from None
    if start < 0 or end - start < 2:
        raise ValueError(
            f"window {text!r} must satisfy 0 <= start and end - start >= 2"
        )
    return start, end - start


def _inclusive(start: int, k: int) -> str:
    return f"layers {start}-{start + k - 1}"


def format_report(report: SelectionReport, kind: str = "merge") -> str:
    """Human-readable selection summary; ranges are printed inclusive."""
    lines = []
    if kind == "merge":
        lines.append(
            f"merge selection: k={report.k} anchor={report.anchor_position} "
            f"permutation={'on' if report.use_permutation else 'off'}"
        )
    else:
        lines.append(f"drop selection: count={report.k}")
    lines.append("candidates:")
    for c in report.candidates:
        lines.append(f"  start {c.start} ({_inclusive(c.start, report.k)}): "
                     f"score {c.score:.10g}")
    lines.append(f"best: start {report.best.start} "
                 f"({_inclusive(report.best.start, report.k)}) "
                 f"score {report.best.score:.10g}")
    if kind == "merge":
        lines.append("note: recovery fine-tuning of the selected model would "
                      "run here; not implemented.")
    return "\n".join(lines)


def _load_eval_data(model: TransformerModel, path):
    sep = model.config.separator_id
    if model.config.mode == "classifier":
        sidecar = label_path_for(path)
        labels = sidecar if os.path.exists(sidecar) else None
        return load_dataset(path, sep, label_path=labels)
    return load_dataset(path, sep)


def _cmd_capture(args) -> int:
    model = load_model(args.model)
    data = _load_eval_data(model, args.data)
    acts = capture_activations(model, data, TAP_FLAGS[args.tap],
                               args.max_samples)
    write_activations(acts, args.out)
    print(f"captured {acts.sample_count} rows at {acts.tap} over "
          f"{len(acts.per_layer)} layers -> {args.out}")
    return 0


def _print_merge_diag(diag: MergeDiagnostics) -> None:
    spec = diag.spec
    print(f"merged {_inclusive(spec.start, spec.k)} "
          f"(anchor layer {diag.anchor_layer}, "
          f"permutation {'on' if spec.use_permutation else 'off'})")
    for m in diag.members:
        print(f"  layer {m.layer}: mean matched correlation "
              f"{m.mean_matched_correlation:.6f}")


def _cmd_merge(args) -> int:
    model = load_model(args.model)
    acts = read_activations(args.acts)
    start, k = _parse_window(args.window)
    spec = MergeSpec(start=start, k=k, anchor_position=args.anchor,
                     use_permutation=not args.no_permute)
    merged, diag = merge_window(model, acts, spec)
    save_model(merged, args.out)
    _print_merge_diag(diag)
    report = tie_report(merged.store)
    print(f"parameters: total {report.total_parameters}, "
          f"unique {report.unique_parameters} "
          f"(reduction {report.reduction_ratio:.4f}) -> {args.out}")
    return 0


def _finish_sweep(args, report: SelectionReport, best: TransformerModel,
                  kind: str) -> int:
    save_model(best, args.out)
    atomic_write_text(args.report, report.to_json())
    print(format_report(report, kind=kind))
    print(f"wrote {args.out} and {args.report}")
    return 0


def _cmd_select(args) -> int:
    model = load_model(args.model)
    acts = read_activations(args.acts)
    data = _load_eval_data(model, args.eval_data)
    report, best = select_best_window(
        model, acts, args.k, data, EvalMetric.from_name(args.metric),
        anchor_position=args.anchor, use_permutation=not args.no_permute,
        include_final_window=args.include_final_window)
    return _finish_sweep(args, report, best, "merge")


def _cmd_drop(args) -> int:
    model = load_model(args.model)
    data = _load_eval_data(model, args.eval_data)
    report, best = select_best_drop(model, args.count, data,
                                    EvalMetric.from_name(args.metric))
    return _finish_sweep(args, report, best, "drop")


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    data = _load_eval_data(model, args.data)
    value = evaluate(model, data, EvalMetric.from_name(args.metric))
    print(f"{args.metric} {value:.10g}")
    return 0


def _cmd_cka(args) -> int:
    acts = read_activations(args.acts)
    matrix = cka_matrix(acts)
    text = matrix.to_json() if args.format == "json" else matrix.to_csv()
    atomic_write_text(args.out, text)
    print(f"wrote {matrix.size}x{matrix.size} CKA matrix ({args.format}) "
          f"-> {args.out}")
    return 0


def _cmd_info(args) -> int:
    model = load_model(args.model)
    cfg = model.config
    report = tie_report(model.store)
    print(f"mode {cfg.mode}, {cfg.n_layers} layers, d_model {cfg.d_model}, "
          f"d_ff {cfg.d_ff}, {cfg.n_heads} heads, ff_kind {cfg.ff_kind}, "
          f"{cfg.norm_placement}")
    print(f"parameters: total {report.total_parameters}, "
          f"unique {report.unique_parameters}, "
          f"reduction {report.reduction_ratio:.4f}")
    tied = [n for n in model.store.names if model.store.is_alias(n)]
    if tied:
        print(f"tied tensors: {len(tied)}")
    return 0


def _cmd_gen_fixture(args) -> int:
    model = gen_fixture(args.kind, n_layers=args.layers, d_model=args.d_model,
                        d_ff=args.d_ff, ff_kind=args.ff_kind, seed=args.seed)
    save_model(model, args.out)
    print(f"wrote {args.kind} fixture ({args.layers} layers, "
          f"d_model {args.d_model}, d_ff {args.d_ff}, {args.ff_kind}) "
          f"-> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ffmerge",
                     description="Merge and tie adjacent transformer "
                                 "feed-forward sublayers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capture", help="record per-layer activations")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tap", required=True, choices=sorted(TAP_FLAGS))
    p.add_argument("--max-samples", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("merge", help="merge one window of feed-forwards")
    p.add_argument("--model", required=True)
    p.add_argument("--acts", required=True)
    p.add_argument("--window", required=True,
                   help="START:END, start inclusive, end exclusive")
    p.add_argument("--anchor", default="first", choices=ANCHOR_POSITIONS)
    p.add_argument("--no-permute", action="store_true",
                   help="average in stored unit order (vanilla merge)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("select", help="score every window and keep the best")
    p.add_argument("--model", required=True)
    p.add_argument("--acts", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eval-data", required=True)
    p.add_argument("--metric", required=True, choices=METRIC_FLAGS)
    p.add_argument("--anchor", default="first", choices=ANCHOR_POSITIONS)
    p.add_argument("--no-permute", action="store_true")
    p.add_argument("--include-final-window", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("drop", help="score every contiguous layer drop")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--eval-data", required=True)
    p.add_argument("--metric", required=True, choices=METRIC_FLAGS)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("eval", help="score a model on token data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metric", required=True, choices=METRIC_FLAGS)

    p = sub.add_parser("cka", help="pairwise CKA matrix of a capture")
    p.add_argument("--acts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="csv", choices=("csv", "json"))

    p = sub.add_parser("info", help="print model shape and tie accounting")
    p.add_argument("--model", required=True)

    p = sub.add_parser("gen-fixture", help="build a constructed test model")
    p.add_argument("--kind", required=True, choices=FIXTURE_KINDS)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--d-model", type=int, required=True)
    p.add_argument("--d-ff", type=int, required=True)
    p.add_argument("--ff-kind", default="gelu", choices=("relu", "gelu", "swiglu"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


_COMMANDS = {
    "capture": _cmd_capture,
    "merge": _cmd_merge,
    "select": _cmd_select,
    "drop": _cmd_drop,
    "eval": _cmd_eval,
    "cka": _cmd_cka,
    "info": _cmd_info,
    "gen-fixture": _cmd_gen_fixture,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"ffmerge: i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"ffmerge: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
