"""The three seeded workloads: set-up, timed stages and output checks.

Each workload builds its model and token files from the seed, then drives
the same seven stages: the six CLI stages (``capture``, ``eval``, ``cka``,
``merge``, ``select``, ``drop``) through ``ffmerge.cli.main`` and
``fixtures.greedy_sequences``. Every workload has its own heavy stages,
the ones its ``why`` names; the others run at a small size so that every
end-to-end metric exists on every workload.

The program only sees the generated files, except ``greedy_sequences``,
which is a library call on the loaded model. Checks run after each stage
call, outside its timing, and hold for any seed. Each check also puts the
stage's scores into the run's score record, which must not change between
the passes of one run nor between runs of the same code and seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ffmerge import cli, datasets, engine, fixtures
from ffmerge.config import ModelConfig, ff_tensor_names

SEPARATOR = 0  # the separator id of every model built here


class Run:
    """The files, reference values and score record of one workload run."""

    def __init__(self, directory: str, seed: int):
        self.dir = directory
        self.seed = seed
        self.facts: dict = {}
        self.record: dict = {}
        self.model = None  # loaded model for greedy_sequences
        os.makedirs(directory, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, salt])

    def put(self, key: str, value) -> list[str]:
        """Record a score; it must equal what an earlier pass recorded."""
        if key in self.record and self.record[key] != value:
            return [f"score record {key!r} changed between passes"]
        self.record[key] = value
        return []


@dataclass
class Stage:
    """One timed stage. ``prepare`` returns the zero-argument call to time;
    ``check`` inspects its result and captured stdout and returns problems."""

    metric: str
    prepare: Callable[[Run], Callable[[], object]]
    check: Callable[[Run, object, str], list[str]]


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[Run], None]          # timed: models and token files
    prepare_checks: Callable[[Run], None]  # untimed: reference values
    stages: list[Stage]
    builder: str                            # fixture builder the set-up calls


def cli_stage(metric: str, argv: Callable[[Run], list[str]],
              check: Callable[[Run, str], list[str]]) -> Stage:
    def prepare(run: Run):
        args = argv(run)
        return lambda: cli.main(args)

    def checked(run: Run, rc, out: str) -> list[str]:
        if rc != 0:
            return [f"{metric}: ffmerge exited {rc}"]
        return check(run, out)

    return Stage(metric, prepare, checked)


def greedy_stage(n_sequences: int, seq_len: int) -> Stage:
    def prepare(run: Run):
        model, seed = run.model, int(run.rng(7).integers(1 << 31))
        return lambda: fixtures.greedy_sequences(model, n_sequences, seq_len, seed)

    def check(run: Run, data, out: str) -> list[str]:
        seqs = data.sequences
        problems = []
        if len(seqs) != n_sequences or any(len(s) != seq_len for s in seqs):
            problems.append(f"greedy_gen: expected {n_sequences}x{seq_len} tokens")
        flat = np.concatenate(seqs)
        if (flat == SEPARATOR).any() or (flat >= run.model.config.vocab_size).any():
            problems.append("greedy_gen: separator or out-of-vocabulary token emitted")
        # later stages read the generated data from a token file
        datasets.write_token_file(run.path("greedy.toks"), seqs, SEPARATOR)
        return problems + run.put("greedy_sha256", _sha256(flat.astype("<u4").tobytes()))

    return Stage("greedy_gen", prepare, check)


# -- shared helpers ----------------------------------------------------------


def _argv(*parts: str):
    """CLI arguments; ``@name`` stands for the file ``name`` of the run."""
    def build(run: Run) -> list[str]:
        return [run.path(p[1:]) if p.startswith("@") else p for p in parts]
    return build


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_tokens(run: Run, name: str, rng: np.random.Generator, vocab: int,
                  lengths) -> None:
    seqs = [rng.integers(1, vocab, int(n)).astype(np.uint32) for n in lengths]
    datasets.write_token_file(run.path(name), seqs, SEPARATOR)


def _reference_score(run: Run, model: str, data: str, metric: str) -> float:
    loaded = engine.load_model(run.path(model))
    dataset = datasets.load_dataset(run.path(data), SEPARATOR)
    return engine.evaluate(loaded, dataset, engine.EvalMetric.from_name(metric))


def _printed_value(out: str, metric: str) -> str | None:
    m = re.search(rf"^{metric} (\S+)$", out, re.MULTILINE)
    return m.group(1) if m else None


def _check_eval(run: Run, out: str, metric: str) -> list[str]:
    text = _printed_value(out, metric)
    if text is None:
        return [f"eval: no '{metric}' line in output"]
    ref = run.facts["ref_eval"]
    # the CLI prints 10 significant digits
    if not abs(float(text) - ref) <= 1e-9 * abs(ref):
        return [f"eval: printed {text}, reference {ref!r}"]
    return run.put("eval", text)


def _check_capture(run: Run, out: str, rows: int) -> list[str]:
    if f"captured {rows} rows" not in out:
        return [f"capture: expected {rows} rows, output was {out.strip()!r}"]
    run.facts["working_set_bytes"] = os.path.getsize(run.path("acts.ffmc"))
    return []


def _check_cka(run: Run, out: str, n_layers: int,
               group: range | None) -> list[str]:
    with open(run.path("cka.json"), "rb") as fh:
        raw = fh.read()
    values = np.array(json.loads(raw)["values"], dtype=np.float64)
    problems = []
    if values.shape != (n_layers, n_layers):
        problems.append(f"cka: matrix shape {values.shape}")
    elif not np.array_equal(values, values.T) or values.min() < 0.0:
        problems.append("cka: matrix is not symmetric and non-negative")
    elif group is not None:
        block = values[np.ix_(group, group)]
        if block.min() < 1.0 - 1e-9:
            problems.append(f"cka: planted-group CKA {block.min()!r} < 1 - 1e-9")
    return problems + run.put("cka_sha256", _sha256(raw))


def _report_scores(run: Run, name: str, count: int) -> tuple[dict, list[str]]:
    with open(run.path(f"{name}.json")) as fh:
        report = json.load(fh)
    starts = [c["start"] for c in report["candidates"]]
    scores = [c["score"] for c in report["candidates"]]
    problems = []
    if starts != list(range(count)):
        problems.append(f"{name}: candidate starts {starts}, expected 0..{count - 1}")
    if report["best"] not in report["candidates"]:
        problems.append(f"{name}: best candidate is not among the candidates")
    return report, problems + run.put(name, scores)


def _check_lossless_windows(run: Run, report: dict, k: int,
                            group: range) -> list[str]:
    """Windows inside the planted group merge losslessly: they score the
    unmerged model within 1e-12."""
    ref = run.facts["ref_eval"]
    inside = [c for c in report["candidates"]
              if c["start"] >= group.start and c["start"] + k <= group.stop]
    if not inside:
        return ["select: no candidate window lies inside the planted group"]
    return [f"select: window at {c['start']} scores {c['score']!r}, "
            f"unmerged {ref!r}"
            for c in inside if abs(c["score"] - ref) > 1e-12]


def _matched_correlations(out: str) -> dict[int, str]:
    return {int(layer): value for layer, value in
            re.findall(r"layer (\d+): mean matched correlation (\S+)", out)}


def _check_planted_merge(run: Run, out: str, window: range) -> list[str]:
    """Members of a planted window match the anchor exactly: the printed
    correlation is 1 to its 6 decimals, the anchor keeps its weights bit for
    bit, and every other member aliases it."""
    corr = _matched_correlations(out)
    anchor = window.start
    problems = []
    if sorted(corr) != list(window)[1:] or any(v != "1.000000" for v in corr.values()):
        problems.append(f"merge: matched correlations {corr}")
    original = engine.load_model(run.path("model.ffmc"))
    merged = engine.load_model(run.path("merged.ffmc"))
    cfg = merged.config
    for name in ff_tensor_names(cfg, anchor):
        if not np.array_equal(merged.store.get(name), original.store.get(name)):
            problems.append(f"merge: anchor tensor {name} changed")
    for layer in list(window)[1:]:
        for name, target in zip(ff_tensor_names(cfg, layer),
                                ff_tensor_names(cfg, anchor)):
            if merged.store.alias_target(name) != target:
                problems.append(f"merge: {name} does not alias {target}")
    return problems + run.put("merge", corr)


# -- the planted workloads ------------------------------------------------------


def _planted_prepare(run: Run) -> None:
    run.facts["ref_eval"] = _reference_score(run, "model.ffmc", "eval.toks", "xent")
    run.model = engine.load_model(run.path("model.ffmc"))


def planted_workload(name: str, why: str, *, ff_kind: str, n_layers: int,
                     d_model: int, d_ff: int, group: range, capture: tuple[int, int],
                     evals: tuple[int, int], window: range,
                     include_final_window: bool, greedy: tuple[int, int]) -> Workload:
    """A permuted-copy fixture whose ``group`` layers are hidden-permuted
    copies of one FF; ``capture`` and ``evals`` are (sequences, length) of
    random tokens. ``window`` lies inside the group, so its merge is
    lossless, and so is every k=3 select window inside the group."""
    k = 3
    rows = capture[0] * capture[1]

    def setup(run: Run) -> None:
        cfg = fixtures.default_config(n_layers=n_layers, d_model=d_model, d_ff=d_ff,
                                      ff_kind=ff_kind)
        fixture = fixtures.permuted_copy_model(
            cfg, seed=int(run.rng(1).integers(1 << 31)),
            group_start=group.start, group_len=len(group))
        engine.save_model(fixture.model, run.path("model.ffmc"))
        _write_tokens(run, "capture.toks", run.rng(2), cfg.vocab_size,
                      [capture[1]] * capture[0])
        _write_tokens(run, "eval.toks", run.rng(3), cfg.vocab_size, [evals[1]] * evals[0])

    def check_select(run: Run, out: str) -> list[str]:
        n_candidates = n_layers - k + include_final_window
        report, problems = _report_scores(run, "select", n_candidates)
        return problems + _check_lossless_windows(run, report, k, group)

    final = ["--include-final-window"] if include_final_window else []
    return Workload(
        name=name, why=why, setup=setup, prepare_checks=_planted_prepare,
        builder="fixtures.permuted_copy_model",
        stages=[
            cli_stage("capture", _argv("capture", "--model", "@model.ffmc",
                                       "--data", "@capture.toks", "--tap", "ff-pre-act",
                                       "--max-samples", str(rows), "--out", "@acts.ffmc"),
                      lambda run, out: _check_capture(run, out, rows)),
            cli_stage("eval", _argv("eval", "--model", "@model.ffmc",
                                    "--data", "@eval.toks", "--metric", "xent"),
                      lambda run, out: _check_eval(run, out, "xent")),
            cli_stage("cka", _argv("cka", "--acts", "@acts.ffmc", "--format", "json",
                                   "--out", "@cka.json"),
                      lambda run, out: _check_cka(run, out, n_layers, group)),
            cli_stage("merge", _argv("merge", "--model", "@model.ffmc",
                                     "--acts", "@acts.ffmc",
                                     "--window", f"{window.start}:{window.stop}",
                                     "--out", "@merged.ffmc"),
                      lambda run, out: _check_planted_merge(run, out, window)),
            cli_stage("select", _argv("select", "--model", "@model.ffmc",
                                      "--acts", "@acts.ffmc", "--k", str(k), *final,
                                      "--eval-data", "@eval.toks", "--metric", "xent",
                                      "--out", "@best.ffmc", "--report", "@select.json"),
                      check_select),
            cli_stage("drop", _argv("drop", "--model", "@model.ffmc", "--count", "1",
                                    "--eval-data", "@eval.toks", "--metric", "xent",
                                    "--out", "@pruned.ffmc", "--report", "@drop.json"),
                      lambda run, out: _report_scores(run, "drop", n_layers)[1]),
            greedy_stage(*greedy),
        ],
    )


SURGERY_GELU12 = planted_workload(
    "surgery-gelu12",
    "north star: 12-layer gelu LM; select and drop spend ~90% of their time in "
    "engine.evaluate, so engine hot-path and sweep work shows here",
    ff_kind="gelu", n_layers=12, d_model=64, d_ff=256, group=range(4, 10),
    capture=(16, 64), evals=(4, 64), window=range(4, 7),
    include_final_window=False, greedy=(3, 24))

ALIGN_WIDE_SWIGLU = planted_workload(
    "align-wide-swiglu",
    "wide swiglu FF with a 34 MB capture: alignment, CKA and container i/o "
    "dominate while the engine does little",
    ff_kind="swiglu", n_layers=8, d_model=32, d_ff=512, group=range(2, 6),
    capture=(32, 64), evals=(8, 32), window=range(2, 5),
    include_final_window=True, greedy=(4, 32))


# -- greedy-ragged-postln -----------------------------------------------------

POSTLN_WINDOW = range(1, 5)  # merged with --anchor middle: owner is layer 2
POSTLN_DROP = 2


def _postln_config() -> ModelConfig:
    return ModelConfig(mode="lm", n_layers=8, d_model=32, d_ff=128, n_heads=4,
                       vocab_size=64, max_seq_len=64, norm_placement="post_ln",
                       ff_kind="relu", separator_id=SEPARATOR)


def _postln_setup(run: Run) -> None:
    cfg = _postln_config()
    model = fixtures.random_model(cfg, seed=int(run.rng(1).integers(1 << 31)))
    engine.save_model(model, run.path("model.ffmc"))
    # every length from 2 to 64 once, in seeded order: ragged, with the same
    # token count for every seed
    lengths = run.rng(4).permutation(np.arange(2, 65))
    _write_tokens(run, "ragged.toks", run.rng(2), cfg.vocab_size, lengths)
    run.facts["ragged_tokens"] = int(lengths.sum())


def _postln_prepare(run: Run) -> None:
    run.model = engine.load_model(run.path("model.ffmc"))


def _tied_count(run: Run, model: str) -> tuple[int | None, list[str]]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(["info", "--model", run.path(model)])
    if rc != 0:
        return None, [f"info on {model} exited {rc}"]
    m = re.search(r"^tied tensors: (\d+)$", buf.getvalue(), re.MULTILINE)
    return (int(m.group(1)) if m else 0), []


def _check_resave(run: Run, model: str) -> list[str]:
    """A loaded tied checkpoint saves back to the same bytes."""
    copy = run.path("resaved.ffmc")
    engine.save_model(engine.load_model(run.path(model)), copy)
    with open(run.path(model), "rb") as a, open(copy, "rb") as b:
        same = a.read() == b.read()
    return [] if same else [f"re-saving {model} changed its bytes"]


def _check_postln_merge(run: Run, out: str) -> list[str]:
    problems = []
    if "(anchor layer 2," not in out:
        problems.append("merge: anchor is not layer 2")
    per_layer = len(ff_tensor_names(_postln_config(), 0))
    tied, errors = _tied_count(run, "tied.ffmc")
    expected = per_layer * (len(POSTLN_WINDOW) - 1)
    if tied != expected:
        problems.append(f"merge: info reports {tied} tied tensors, expected {expected}")
    problems += errors + _check_resave(run, "tied.ffmc")
    return problems + run.put("merge", _matched_correlations(out))


def _check_postln_drop(run: Run, out: str) -> list[str]:
    cfg = _postln_config()
    report, problems = _report_scores(run, "drop", cfg.n_layers - POSTLN_DROP + 1)
    best = report["best"]["start"]
    survivors = [i for i in POSTLN_WINDOW if not best <= i < best + POSTLN_DROP]
    per_layer = len(ff_tensor_names(cfg, 0))
    expected = per_layer * max(len(survivors) - 1, 0)
    tied, errors = _tied_count(run, "pruned.ffmc")
    if tied != expected:
        problems.append(f"drop: info reports {tied} tied tensors, expected {expected}")
    pruned = engine.load_model(run.path("pruned.ffmc"))
    if pruned.config.n_layers != cfg.n_layers - POSTLN_DROP:
        problems.append(f"drop: pruned model has {pruned.config.n_layers} layers")
    return problems + errors + _check_resave(run, "pruned.ffmc")


def _check_ppl(run: Run, out: str) -> list[str]:
    text = _printed_value(out, "ppl")
    if text is None or not 1.0 < float(text) < math.inf:
        return [f"eval: perplexity {text!r} is not a finite value above 1"]
    return run.put("eval", text)


GREEDY_RAGGED_POSTLN = Workload(
    name="greedy-ragged-postln",
    why=("post-LN relu LM run as ~420 short forwards over ragged lengths: "
         "per-call overhead, greedy generation and tied-checkpoint i/o"),
    setup=_postln_setup,
    prepare_checks=_postln_prepare,
    builder="fixtures.random_model",
    stages=[
        greedy_stage(4, 64),
        cli_stage("capture", lambda run: [
                      "capture", "--model", run.path("model.ffmc"),
                      "--data", run.path("ragged.toks"), "--tap", "ff-pre-act",
                      "--max-samples", str(run.facts["ragged_tokens"]),
                      "--out", run.path("acts.ffmc")],
                  lambda run, out: _check_capture(run, out, run.facts["ragged_tokens"])),
        cli_stage("cka", _argv("cka", "--acts", "@acts.ffmc", "--format", "json",
                               "--out", "@cka.json"),
                  lambda run, out: _check_cka(run, out, 8, None)),
        cli_stage("merge", _argv("merge", "--model", "@model.ffmc",
                                 "--acts", "@acts.ffmc", "--window", "1:5",
                                 "--anchor", "middle", "--out", "@tied.ffmc"),
                  _check_postln_merge),
        cli_stage("select", _argv("select", "--model", "@model.ffmc",
                                  "--acts", "@acts.ffmc", "--k", "3",
                                  "--eval-data", "@greedy.toks", "--metric", "xent",
                                  "--out", "@best.ffmc", "--report", "@select.json"),
                  lambda run, out: _report_scores(run, "select", 5)[1]),
        cli_stage("drop", _argv("drop", "--model", "@tied.ffmc",
                                "--count", str(POSTLN_DROP),
                                "--eval-data", "@greedy.toks", "--metric", "acc",
                                "--out", "@pruned.ffmc", "--report", "@drop.json"),
                  _check_postln_drop),
        cli_stage("eval", _argv("eval", "--model", "@tied.ffmc",
                                "--data", "@ragged.toks", "--metric", "ppl"),
                  _check_ppl),
    ],
)


WORKLOADS = {w.name: w for w in (SURGERY_GELU12, ALIGN_WIDE_SWIGLU,
                                 GREEDY_RAGGED_POSTLN)}
