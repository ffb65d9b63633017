"""``tools/pass_digest.py``, the same-bytes check between two checkouts,
runs one checked workload pass from a checkout and digests what it wrote."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digest_of_one_pass():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pass_digest.py"), str(ROOT),
         "greedy-ragged-postln", "0"], capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    digest = json.loads(lines[0])
    assert digest["problems"] == []
    assert {"model.ffmc", "acts.ffmc", "select.json", "drop.json"} <= set(digest["files"])
    assert set(digest["stdout"]) == {"capture", "eval", "cka", "merge", "select",
                                     "drop", "greedy_gen"}
    hashes = [digest["record"], *digest["files"].values(), *digest["stdout"].values()]
    assert all(len(h) == 64 and set(h) <= set("0123456789abcdef") for h in hashes)
