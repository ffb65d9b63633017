"""The names the benchmark harness under ``benchmarks/`` reaches into the
package for must exist, so a change that deletes one fails here first.

``benchmarks/tracing.py`` is loaded read-only for its ``TARGETS`` table and
its ``Tracer``, ``benchmarks/workloads.py`` to run one checked pass of every
workload, and ``benchmarks/layers.py`` for the span self-check of that pass;
the harness files are also parsed, for the ``module.attribute`` names they
use of the ``ffmerge`` modules they import.
"""

import ast
import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ffmerge import engine
from ffmerge.fixtures import default_config, random_model

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _harness(name: str):
    """``benchmarks/<name>.py`` as a module. It is registered in
    ``sys.modules`` first, where ``@dataclass`` looks up the module of a
    class whose annotations are strings."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # leave no bytecode cache under benchmarks/
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def _tracing_targets():
    return [(mod, attr) for mod, attr, _, _ in _harness("tracing").TARGETS]


def _resolve(module_name: str, attr: str):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _used_names(path: Path) -> set[tuple[str, str]]:
    """``(ffmerge module, attribute)`` for every ``m.attr`` in the file where
    ``m`` is a module imported by ``from ffmerge import m``, plus every name
    imported by ``from ffmerge.m import name``."""
    tree = ast.parse(path.read_text())
    modules: dict[str, str] = {}
    used: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ffmerge":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"ffmerge.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ffmerge."):
            used.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((modules[node.value.id], node.attr))
    return used


@pytest.mark.parametrize("module_name,attr", _tracing_targets())
def test_traced_target_exists(module_name, attr):
    assert callable(_resolve(module_name, attr))


def test_layer_kernels_exist():
    used = _used_names(BENCHMARKS / "layers.py")
    expected = {("ffmerge.engine", name) for name in
                ("FFParams", "SwigluFFParams", "ff_forward", "swiglu_forward")}
    assert expected <= used
    for module_name, attr in used:
        _resolve(module_name, attr)


def test_workload_names_exist():
    used = _used_names(BENCHMARKS / "workloads.py")
    assert ("ffmerge.cli", "main") in used
    for module_name, attr in used:
        _resolve(module_name, attr)


def test_container_spans_count_the_file(tmp_path):
    # a writer or reader that bypasses these four fails here, not only in
    # the benchmark's span self-check
    model = random_model(default_config(n_layers=1, d_model=4, d_ff=8), seed=0)
    path = tmp_path / "m.ffmc"
    tracer = _harness("tracing").Tracer("contract")
    tracer.install()
    try:
        tracer.begin("round-trip", 0)
        engine.save_model(model, path)
        engine.load_model(path)
        tracer.end()
    finally:
        tracer.uninstall()
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span["name"], []).append(span)
    size = path.stat().st_size
    for name in ("serialize_container", "atomic_write_bytes", "read_container",
                 "parse_container"):
        assert len(spans.get(f"checkpoint.{name}", [])) == 1, name
    for name in ("serialize_container", "atomic_write_bytes", "parse_container"):
        assert spans[f"checkpoint.{name}"][0]["counts"]["bytes"] == size, name


@pytest.mark.parametrize("name", sorted(_harness("workloads").WORKLOADS))
def test_workload_pass_passes_its_checks(name, tmp_path, monkeypatch):
    # set-up, reference values and one pass of every stage at seed 0: a
    # change the benchmark would report as incorrect output fails here first.
    # The harness's tracer is installed as ``run.py --trace 1`` installs it,
    # so a refactor that stops a traced function firing fails here too.
    workloads = _harness("workloads")
    tracing = _harness("tracing")
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # layers.py imports it
    layers = _harness("layers")
    workload = workloads.WORKLOADS[name]
    run = workloads.Run(str(tmp_path / name), 0)
    tracer = tracing.Tracer(name)
    tracer.install()
    try:
        tracer.begin("setup", -1)
        workload.setup(run)
        tracer.end()
        workload.prepare_checks(run)
        for stage in workload.stages:
            action = stage.prepare(run)
            out = io.StringIO()
            tracer.begin(stage.metric, 0)
            with redirect_stdout(out):
                value = action()
            tracer.end()
            assert stage.check(run, value, out.getvalue()) == [], stage.metric
    finally:
        tracer.uninstall()
    assert layers.span_self_check(tracer, workload.builder, [0]) == []
