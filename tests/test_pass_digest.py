"""``tools/pass_digest.py``, the same-bytes check between two checkouts,
runs one checked workload pass from a checkout and digests what it wrote."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digest_of_one_pass():
    # a BLAS thread count the caller sets is kept, and the others default to 1
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["MKL_NUM_THREADS"] = "3"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pass_digest.py"), str(ROOT),
         "greedy-ragged-postln", "0"], capture_output=True, text=True, check=True, env=env)
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    digest = json.loads(lines[0])
    assert digest["problems"] == []
    assert digest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                      "MKL_NUM_THREADS": "3"}
    assert {"model.ffmc", "acts.ffmc", "select.json", "drop.json"} <= set(digest["files"])
    assert set(digest["stdout"]) == {"capture", "eval", "cka", "merge", "select",
                                     "drop", "greedy_gen"}
    hashes = [digest["record"], *digest["files"].values(), *digest["stdout"].values()]
    assert all(len(h) == 64 and set(h) <= set("0123456789abcdef") for h in hashes)
