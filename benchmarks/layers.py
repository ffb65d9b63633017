"""Per-layer metrics of a traced run: span totals, FF kernel
micro-timings and the span self-check.

Layers are the package modules. Each span metric is summed over one traced
pass (one call of every stage) and reported as the median over the traced
passes; ``fixtures.build_model.self_s`` is the median over the set-up
repeats of whichever fixture builder the workload calls.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from ffmerge import engine

import tracing

# span name -> the fields reported as per-layer metrics "<span>.<field>"
SPAN_FIELDS = {
    "engine.evaluate": ("calls", "self_s", "tokens"),
    "engine.forward": ("calls", "self_s", "tokens"),
    "engine.capture_activations": ("calls", "self_s", "rows"),
    "engine.load_model": ("self_s",),
    "engine.save_model": ("self_s",),
    "engine.read_activations": ("self_s",),
    "engine.write_activations": ("self_s",),
    "checkpoint.read_container": ("self_s",),
    "checkpoint.parse_container": ("self_s", "bytes"),
    "checkpoint.serialize_container": ("self_s", "bytes"),
    "checkpoint.atomic_write_bytes": ("self_s", "bytes"),
    "checkpoint.ParameterStore.copy": ("calls", "self_s"),
    "datasets.load_dataset": ("calls", "self_s"),
    "merging.merge_window": ("calls", "self_s"),
    "selection.drop_layers": ("calls", "self_s"),
    "alignment.cross_correlation": ("calls", "self_s"),
    "alignment.solve_assignment": ("calls", "self_s"),
    "linalg.column_stats": ("calls", "self_s"),
    "analysis.cka_matrix": ("self_s",),
    "analysis.linear_cka": ("calls", "self_s", "flop"),
    "selection.select_best_window": ("self_s",),
    "selection.select_best_drop": ("self_s",),
    "fixtures.greedy_sequences": ("self_s",),
    "cli.main": ("self_s",),  # reported as cli.self_s
}
UNITS = {"calls": "count", "self_s": "s", "tokens": "count", "rows": "count",
         "bytes": "B", "flop": "flop"}
# per-layer metric -> (span name, field)
SPAN_METRICS = {f"{span.removesuffix('.main')}.{field}": (span, field)
                for span, fields in SPAN_FIELDS.items() for field in fields}
KERNELS = ("ff_forward.relu", "ff_forward.gelu", "swiglu_forward")
KERNEL_FIELDS = (("s_per_call", "s"), ("flop", "flop"), ("bytes_computed", "B"))

PER_LAYER = ([(name, UNITS[field]) for name, (_, field) in SPAN_METRICS.items()]
             + [("selection.candidates", "count"),
                ("selection.useful_layer_work_frac", "ratio"),
                ("fixtures.build_model.self_s", "s")]
             + [(f"engine.{k}.{f}", u) for k in KERNELS for f, u in KERNEL_FIELDS]
             + [("trace.overhead_s", "s")])


def ff_kernel_timings() -> dict:
    """Median seconds per call of the public FF kernels on a fixed
    2048x64 input with d_ff 256; flop and bytes are computed from shapes."""
    n, d, f = 2048, 64, 256
    rng = np.random.default_rng(0)

    def w(*shape):
        return (rng.normal(size=shape) / math.sqrt(shape[-1])).astype(np.float32)

    x = rng.normal(size=(n, d)).astype(np.float32)
    ff = engine.FFParams(w_in=w(f, d), b_in=w(f), w_out=w(d, f), b_out=w(d))
    sw = engine.SwigluFFParams(w_up=w(f, d), v_gate=w(f, d), w_down=w(d, f))
    # flop: the matmuls, bias adds and per-hidden-unit activation ops (relu 1;
    # gelu 8: cube, scale, add, tanh, add, two multiplies and a half; swish 4
    # plus the gating multiply). bytes: the float64 input, weight casts,
    # hidden and output arrays, plus the float32 results.
    outputs32 = (n * f + n * d) * 4
    ff_bytes = 8 * (n * d + 2 * f * d + f + d + 2 * n * f + n * d) + outputs32
    kernels = {
        "ff_forward.relu": (lambda: engine.ff_forward(ff, x, "relu"),
                            4 * n * d * f + n * (f + d) + n * f, ff_bytes),
        "ff_forward.gelu": (lambda: engine.ff_forward(ff, x, "gelu"),
                            4 * n * d * f + n * (f + d) + 8 * n * f, ff_bytes),
        "swiglu_forward": (lambda: engine.swiglu_forward(sw, x),
                           6 * n * d * f + 5 * n * f,
                           8 * (n * d + 3 * f * d + 3 * n * f + n * d) + outputs32),
    }
    metrics = {}
    for name, (call, flop, nbytes) in kernels.items():
        call()
        samples: list[float] = []
        while len(samples) < 5 or sum(samples) < 0.3:
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
        metrics[f"engine.{name}.s_per_call"] = statistics.median(samples)
        metrics[f"engine.{name}.flop"] = flop
        metrics[f"engine.{name}.bytes_computed"] = nbytes
    return metrics


def layer_metrics(tracer: tracing.Tracer, builder: str, traced_passes: list[int],
                  setup_passes: list[int], overhead_s: float) -> dict:
    per_pass = [tracer.layer_totals({p}) for p in traced_passes]

    def med(span: str, field: str) -> float:
        return statistics.median(t.get(span, {}).get(field, 0.0) for t in per_pass)

    metrics = {name: med(span, field) for name, (span, field) in SPAN_METRICS.items()}
    metrics["selection.candidates"] = sum(med(s, "candidates") for s in tracing.SWEEPS)
    useful = sum(med(s, "useful_layer_tokens") for s in tracing.SWEEPS)
    metrics["selection.useful_layer_work_frac"] = (
        useful / med("engine.evaluate", "sweep_layer_tokens"))
    metrics["fixtures.build_model.self_s"] = statistics.median(
        tracer.layer_totals({p}).get(builder, {}).get("self_s", 0.0)
        for p in setup_passes)
    metrics.update(ff_kernel_timings())
    metrics["trace.overhead_s"] = overhead_s
    return metrics


def span_self_check(tracer: tracing.Tracer, builder: str,
                    traced_passes: list[int]) -> list[str]:
    """Every traced function the workload calls must have fired, and the
    sweeps' own binding of ``evaluate`` must have been wrapped."""
    builders = {"fixtures.permuted_copy_model", "fixtures.random_model"}
    expected = {t[2] for t in tracing.TARGETS} - (builders - {builder})
    problems = [f"span {name} fired 0 times" for name in sorted(expected - tracer.fired())]
    totals = tracer.layer_totals(set(traced_passes))
    if not totals.get("engine.evaluate", {}).get("sweep_layer_tokens"):
        problems.append("no engine.evaluate span inside a select/drop sweep")
    return problems
