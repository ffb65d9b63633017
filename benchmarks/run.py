"""ffmerge benchmark: seeded surgery workloads driven through the real CLI.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs, each in its own process, one
after another. A workload run builds its model and token files from the
seed (set-up, timed), makes one untimed warm-up pass over its stages, then
repeats timed passes for about ``--seconds`` seconds. Stages call
``ffmerge.cli.main`` in-process, so their times include the container and
token-file i/o a user pays but not interpreter start-up. Every stage call
is checked; a call that exits non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics: spans around the
package's public functions (see ``tracing.py``), FF kernel micro-timings
and the tracing overhead. Threads are left as the user gets them: no
thread variable is set and ``--jobs`` keeps its default.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Score records, results and
spans go to ``.bench_out/`` at the repository root.
"""

import time

PROCESS_START = time.perf_counter()  # set-up is timed from here


import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# the keys of workloads.WORKLOADS, known before ffmerge can be imported
WORKLOAD_NAMES = ("surgery-gelu12", "align-wide-swiglu", "greedy-ragged-postln")

SETUP_REPEATS = 3
MIN_STAGE_SECONDS = 0.25  # a stage shorter than this repeats within a pass
MAX_STAGE_REPEATS = 12
STAGES = ("capture", "eval", "cka", "merge", "select", "drop", "greedy_gen")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = ([("setup_s", "s")] + [(f"{s}_s", "s") for s in STAGES]
              + [("pipeline_s", "s"), ("peak_rss_mb", "MB")])

NOTES = (
    "no wait metrics: one process, one thread of Python, --jobs left at its "
    "default, so no layer waits on another",
    "not measured: LayerNorm, attention and the head/log-softmax have no "
    "public entry point; they wait for in-program tracing",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- machine facts --------------------------------------------------------------


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# -- one workload ---------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_stage(stage, run, tally: Tally, tracer=None, pass_index=None) -> float:
    """Time one stage call, then check it outside the timing."""
    action = stage.prepare(run)
    out, err = io.StringIO(), io.StringIO()
    value, problems = None, []
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.begin(stage.metric, pass_index)
        start = time.perf_counter()
        try:
            value = action()
        except Exception:
            problems.append(f"{stage.metric}: raised\n{traceback.format_exc()}")
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
    if not problems:
        try:
            problems = stage.check(run, value, out.getvalue())
        except Exception:
            problems = [f"{stage.metric}: check raised\n{traceback.format_exc()}"]
    tally.attempted += 1
    if problems:
        tally.failed += 1
        print(f"FAILED {stage.metric}: {'; '.join(problems)}\n{err.getvalue()}",
              file=sys.stderr)
    return elapsed


def run_pass(workload, run, reps, tally, tracer=None, pass_index=None):
    """One pass over the stages; returns each stage's call times."""
    return {stage.metric: [run_stage(stage, run, tally, tracer, pass_index)
                           for _ in range(reps.get(stage.metric, 1))]
            for stage in workload.stages}


def pipeline_seconds(times: dict) -> float:
    """The pass's time to a surgery result: one call of every stage."""
    return sum(statistics.median(calls) for calls in times.values())


def set_up(workload, seed: int, base: str, tracer):
    """Build the workload's files SETUP_REPEATS times, each in a fresh
    directory; keep the last. Set-up repeat r is traced as pass -1 - r."""
    import workloads

    times, run = [], None
    for r in range(SETUP_REPEATS):
        if run is not None:
            shutil.rmtree(run.dir)
        run = workloads.Run(os.path.join(base, f"setup{r}"), seed)
        if tracer is not None:
            tracer.begin("setup", -1 - r)
        start = time.perf_counter()
        workload.setup(run)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end()
    return run, statistics.median(times)


def measure(workload, run, tally, seconds: int, tracer=None):
    """One untimed warm-up pass, then timed passes until the next would end
    after ``seconds``. With a tracer, every second pass is traced."""
    warm_start = time.perf_counter()
    warm = run_pass(workload, run, {}, tally)
    estimate = time.perf_counter() - warm_start
    reps = {m: min(MAX_STAGE_REPEATS, max(1, math.ceil(MIN_STAGE_SECONDS / t[0])))
            for m, t in warm.items()}
    passes = []  # (traced, stage times)
    timed_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        pass_start = time.perf_counter()
        # a traced pass calls each stage once, so its counts are per pipeline
        times = run_pass(workload, run, {} if traced else reps, tally,
                         tracer if traced else None, len(passes))
        if traced:
            tracer.uninstall()
        passes.append((traced, times))
        estimate = (estimate + time.perf_counter() - pass_start) / 2
        if (time.perf_counter() - timed_start + estimate > seconds
                and (tracer is None or len(passes) >= 2)):
            return reps, passes


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "ffmerge")):
        print(f"error: no ffmerge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ffmerge  # noqa: F401  (import time is part of set-up)
    import_s = time.perf_counter() - PROCESS_START
    import layers
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(workload.name) if args.trace else None
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}"
    base = tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT)
    tally = Tally()
    try:
        if tracer is not None:
            tracer.install()
        run, setup_build_s = set_up(workload, args.seed, base, tracer)
        if tracer is not None:
            bindings = tracer.bindings()
            tracer.uninstall()
        workload.prepare_checks(run)
        reps, passes = measure(workload, run, tally, args.seconds, tracer)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    untraced = [t for traced, t in passes if not traced]
    samples = {m: [x for t in untraced for x in t[m]] for m in STAGES}
    metrics = {f"{m}_s": statistics.median(samples[m]) for m in STAGES}
    metrics["setup_s"] = import_s + setup_build_s
    metrics["pipeline_s"] = statistics.median(pipeline_seconds(t) for t in untraced)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    repeats = {f"{m}_s": len(samples[m]) for m in STAGES}
    repeats.update(setup_s=SETUP_REPEATS, pipeline_s=len(untraced), peak_rss_mb=1)
    e2e_units = dict(END_TO_END)

    facts = machine_facts()
    working_set = run.facts.get("working_set_bytes")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} timed passes after one warm-up pass; {workload.why}")
    print("machine: " + json.dumps(facts))
    print(f"working_set_bytes {working_set} (activation container)")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {metrics[name]:12.6f} {unit:<3} (median of {repeats[name]})")

    if tracer is None:
        reported, units = {name: metrics[name] for name in e2e_units}, e2e_units
    else:
        traced_passes = [i for i, (traced, _) in enumerate(passes) if traced]
        overhead = (statistics.median(pipeline_seconds(t) for tr, t in passes if tr)
                    - metrics["pipeline_s"])
        problems = layers.span_self_check(tracer, workload.builder, traced_passes)
        tally.attempted += 1
        if problems:
            tally.failed += 1
            print("SPAN SELF-CHECK FAILED: " + "; ".join(problems), file=sys.stderr)
        setup_passes = list(range(-SETUP_REPEATS, 0))
        reported = layers.layer_metrics(tracer, workload.builder, traced_passes,
                                        setup_passes, overhead)
        units = dict(layers.PER_LAYER)
        print(f"traced run: wrappers in {len(bindings)} bindings "
              f"({', '.join(bindings)}), "
              f"{len(traced_passes)} traced passes; "
              f"span self-check {'FAILED' if problems else 'passed'}")
        for name, unit in layers.PER_LAYER:
            print(f"  {name:<42} {reported[name]:16.6f} {unit}")
        print("all spans, mean per traced pass or set-up repeat:")
        for label, chosen in (("pass", traced_passes), ("set-up", setup_passes)):
            for name, fields in sorted(tracer.layer_totals(set(chosen)).items()):
                per = ", ".join(f"{k} {v / len(chosen):.6g}" for k, v in fields.items())
                print(f"  [{label}] {name}: {per}")
    checked = "stage calls" + (" and the span self-check" if tracer else "")
    print(f"  failed_op_frac   {tally.failed / max(tally.attempted, 1):12.6f} "
          f"({tally.failed} of {tally.attempted} {checked})")
    for note in NOTES:
        print(f"note: {note}")

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in reported.items()}}
    _write_json(f"{tag}-scores.json", run.record)
    _write_json(f"{tag}-trace{args.trace}.json", dict(
        result, workload=workload.name, seed=args.seed, seconds=args.seconds,
        machine=facts, working_set_bytes=working_set, repeats=repeats,
        stage_repeats_per_pass=reps, end_to_end=metrics, samples=samples,
        notes=NOTES))
    if tracer is not None:
        _write_json(f"{tag}-spans.json", tracer.spans)
    print(json.dumps(result))
    return 0


def _write_json(name: str, doc) -> None:
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(doc, fh, indent=1)


# -- every workload ---------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
