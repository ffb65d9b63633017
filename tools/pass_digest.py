"""Digest one checked pass of a benchmark workload, for same-bytes checks.

    python3 tools/pass_digest.py ROOT WORKLOAD SEED

Runs the workload's set-up and one checked pass of its stages from the
checkout at ``ROOT``: the package under ``ROOT/src`` and the harness in
``ROOT/benchmarks/workloads.py``, loaded with bytecode off so the checkout
is left as it was. Taking the root, not this file's own checkout, lets it
judge a checkout older than the tool. Prints one JSON line: the stage
checks' problems, and the sha256 of every file the run wrote, of its score
record, and of each stage's stdout with the run directory masked. Two
checkouts compute the same numbers when their lines are equal.

The BLAS thread count can change the last bits of a product, so each of
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` is set
to 1 before numpy loads unless the caller has set it, and the line reports
all three: lines compare across machines only at equal thread counts.
"""

import argparse
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _workloads(root: str):
    """``ROOT/benchmarks/workloads.py`` as a module, importing ``ffmerge``
    from ``ROOT/src``. It is registered in ``sys.modules`` first, where
    ``@dataclass`` looks up the module of a class."""
    sys.dont_write_bytecode = True  # leave no cache in the checkout
    sys.path.insert(0, os.path.join(root, "src"))
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(root, "benchmarks", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def digest(root: str, name: str, seed: int) -> dict:
    workloads = _workloads(root)
    workload = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as base:
        run = workloads.Run(os.path.join(base, "run"), seed)
        workload.setup(run)
        workload.prepare_checks(run)
        problems, stdout = [], {}
        for stage in workload.stages:
            action = stage.prepare(run)
            out = io.StringIO()
            with redirect_stdout(out):
                value = action()
            problems += stage.check(run, value, out.getvalue())
            stdout[stage.metric] = _sha256(out.getvalue().replace(run.dir, "<run>").encode())
        files = {}
        for folder, _, names in os.walk(run.dir):
            for file in names:
                path = os.path.join(folder, file)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, run.dir)] = _sha256(fh.read())
    record = json.dumps(run.record, sort_keys=True).encode()
    return {"workload": name, "seed": seed, "problems": problems,
            "files": dict(sorted(files.items())), "record": _sha256(record),
            "stdout": stdout,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", help="the checkout whose src/ and benchmarks/ run")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    args = p.parse_args(argv)
    for var in BLAS_THREADS:  # before the workloads import numpy
        os.environ.setdefault(var, "1")
    print(json.dumps(digest(os.path.abspath(args.root), args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
