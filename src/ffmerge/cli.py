"""Command-line front end.

Every subcommand maps onto exactly one library operation; no numeric logic
lives here. Outputs are written atomically (temp file + rename). Exit codes:
0 success, 1 validation or usage error (bad flags, malformed files, bad
values), 2 operating-system I/O failure or a size too large to allocate.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import cka_matrix
from .checkpoint import atomic_write_bytes, tie_report
from .datasets import label_path_for, load_dataset
from .config import FF_KINDS
from .engine import (METRIC_ALIASES, TAPS, EvalMetric, TransformerModel, capture_activations,
                     evaluate, load_model, read_activations, save_model, write_activations)
from .fixtures import FIXTURE_KINDS, gen_fixture
from .merging import ANCHOR_POSITIONS, MergeSpec, merge_window
from .selection import SelectionReport, select_best_drop, select_best_window

TAP_FLAGS = {tap.replace("_", "-"): tap for tap in TAPS}
METRIC_FLAGS = tuple(METRIC_ALIASES)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_window(text: str) -> tuple[int, int]:
    """START:END as (start, k = END - START); ``MergeSpec`` bounds both."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"window must look like START:END, got {text!r}")
    try:
        start, end = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"window bounds must be integers, got {text!r}") from None
    return start, end - start


def _inclusive(start: int, k: int) -> str:
    return f"layers {start}-{start + k - 1}"


def format_report(report: SelectionReport) -> str:
    """Human-readable summary of a merge or (no anchor) drop sweep; ranges inclusive."""
    merge = report.anchor_position is not None
    lines = []
    if merge:
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
    if merge:
        lines.append("note: recovery fine-tuning of the selected model would "
                      "run here; not implemented.")
    return "\n".join(lines)


def _load_eval_data(model: TransformerModel, path):
    sidecar = label_path_for(path)
    labels = sidecar if model.config.mode == "classifier" and os.path.exists(sidecar) else None
    return load_dataset(path, model.config.separator_id, label_path=labels)


def _cmd_capture(args) -> int:
    model = load_model(args.model)
    data = _load_eval_data(model, args.data)
    acts = capture_activations(model, data, TAP_FLAGS[args.tap],
                               args.max_samples)
    write_activations(acts, args.out)
    if acts.sample_count < args.max_samples:
        print(f"ffmerge: warning: data holds {acts.sample_count} rows, fewer "
              f"than --max-samples {args.max_samples}", file=sys.stderr)
    print(f"captured {acts.sample_count} rows at {acts.tap} over "
          f"{len(acts.per_layer)} layers -> {args.out}")
    return 0


def _cmd_merge(args) -> int:
    model = load_model(args.model)
    acts = read_activations(args.acts)
    start, k = _parse_window(args.window)
    spec = MergeSpec(start=start, k=k, anchor_position=args.anchor,
                     use_permutation=not args.no_permute)
    merged, diag = merge_window(model, acts, spec)
    save_model(merged, args.out)
    print(f"merged {_inclusive(start, k)} (anchor layer {spec.anchor_layer}, "
          f"permutation {'on' if spec.use_permutation else 'off'})")
    for m in diag.members:
        print(f"  layer {m.layer}: mean matched correlation {m.mean_matched_correlation:.6f}")
    report = tie_report(merged.store)
    print(f"parameters: total {report.total_parameters}, "
          f"unique {report.unique_parameters} "
          f"(reduction {report.reduction_ratio:.4f}) -> {args.out}")
    return 0


def _finish_sweep(args, report: SelectionReport, best: TransformerModel) -> int:
    save_model(best, args.out)
    atomic_write_bytes(args.report, report.to_json().encode("utf-8"))
    print(format_report(report))
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
    return _finish_sweep(args, report, best)


def _cmd_drop(args) -> int:
    model = load_model(args.model)
    data = _load_eval_data(model, args.eval_data)
    report, best = select_best_drop(model, args.count, data,
                                    EvalMetric.from_name(args.metric))
    return _finish_sweep(args, report, best)


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
    atomic_write_bytes(args.out, text.encode("utf-8"))
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
    tied = [n for n in model.store.names if model.store.alias_target(n) is not None]
    if tied:
        print(f"tied tensors: {len(tied)}")
    for owner in model.store.names:
        members = [n for n in tied if model.store.alias_target(n) == owner]
        if members:
            print(f"tie group {owner} <- {', '.join(members)}")
    return 0


def _cmd_gen_fixture(args) -> int:
    model = gen_fixture(args.kind, n_layers=args.layers, d_model=args.d_model,
                        d_ff=args.d_ff, ff_kind=args.ff_kind, seed=args.seed)
    save_model(model, args.out)
    print(f"wrote {args.kind} fixture ({args.layers} layers, "
          f"d_model {args.d_model}, d_ff {args.d_ff}, {args.ff_kind}) "
          f"-> {args.out}")
    return 0


# Every flag, once: its add_argument keywords.
_FLAGS = {
    "--model": dict(required=True),
    "--data": dict(required=True),
    "--acts": dict(required=True),
    "--eval-data": dict(required=True),
    "--tap": dict(required=True, choices=sorted(TAP_FLAGS)),
    "--max-samples": dict(type=int, required=True),
    "--window": dict(required=True, help="START:END, start inclusive, end exclusive"),
    "--k": dict(type=int, required=True),
    "--count": dict(type=int, required=True),
    "--metric": dict(required=True, choices=METRIC_FLAGS),
    "--anchor": dict(default="first", choices=ANCHOR_POSITIONS),
    "--no-permute": dict(action="store_true",
                         help="average in stored unit order (vanilla merge)"),
    "--include-final-window": dict(action="store_true"),
    "--format": dict(default="csv", choices=("csv", "json")),
    "--kind": dict(required=True, choices=FIXTURE_KINDS),
    "--layers": dict(type=int, required=True),
    "--d-model": dict(type=int, required=True),
    "--d-ff": dict(type=int, required=True),
    "--ff-kind": dict(default="gelu", choices=FF_KINDS),
    "--seed": dict(type=int, default=0),
    "--out": dict(required=True),
    "--report": dict(required=True),
}

# Every subcommand, once: its handler, help line and flags in order.
_SUBCOMMANDS = {
    "capture": (_cmd_capture, "record per-layer activations",
                "--model --data --tap --max-samples --out"),
    "merge": (_cmd_merge, "merge one window of feed-forwards",
              "--model --acts --window --anchor --no-permute --out"),
    "select": (_cmd_select, "score every window and keep the best",
               "--model --acts --k --eval-data --metric --anchor --no-permute "
               "--include-final-window --out --report"),
    "drop": (_cmd_drop, "score every contiguous layer drop",
             "--model --count --eval-data --metric --out --report"),
    "eval": (_cmd_eval, "score a model on token data", "--model --data --metric"),
    "cka": (_cmd_cka, "pairwise CKA matrix of a capture", "--acts --out --format"),
    "info": (_cmd_info, "print model shape and tie accounting", "--model"),
    "gen-fixture": (_cmd_gen_fixture, "build a constructed test model",
                    "--kind --layers --d-model --d-ff --ff-kind --seed --out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ffmerge",
                     description="Merge and tie adjacent transformer "
                                 "feed-forward sublayers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outputs = [p for p in (getattr(args, "out", None), getattr(args, "report", None)) if p]
        for path in outputs:
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(f"no directory for output {path!r}")
        if len({os.path.realpath(path) for path in outputs}) < len(outputs):
            raise ValueError(f"--out and --report name one file, {outputs[0]!r}")
        return _SUBCOMMANDS[args.command][0](args)
    except (OSError, MemoryError) as exc:
        what = "i/o error" if isinstance(exc, OSError) else "out of memory"
        print(f"ffmerge: {what}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"ffmerge: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
