"""Property test of the CLI contract over in-process ``cli.main``.

Every subcommand is fed tiny fixture files, truncated and byte-flipped
copies of them, and flags crossed in from other subcommands. Whatever the
input, ``main`` exits 0, 1 or 2 and never lets a traceback out. A usage
error prints argparse's usage (one to four lines at 80 columns) and one
error line; every other failure prints exactly one stderr line.

Sizes are either tiny or far beyond any address space, so no example
really allocates: 2**55 hidden units need at least 2**57 bytes, which
malloc refuses whatever the overcommit policy.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffmerge.cli import main
from ffmerge.datasets import Dataset, write_token_file
from ffmerge.engine import capture_activations, save_model, write_activations
from ffmerge.fixtures import default_config, permuted_copy_model, token_sequences

HUGE = 2**55

# each subcommand's own flags; SWITCHES take no value
OWN = {
    "capture": ("--model", "--data", "--tap", "--max-samples", "--out"),
    "merge": ("--model", "--acts", "--window", "--anchor", "--no-permute", "--out"),
    "select": ("--model", "--acts", "--k", "--eval-data", "--metric", "--anchor",
               "--no-permute", "--include-final-window", "--out", "--report"),
    "drop": ("--model", "--count", "--eval-data", "--metric", "--out", "--report"),
    "eval": ("--model", "--data", "--metric"),
    "cka": ("--acts", "--out", "--format"),
    "info": ("--model",),
    "gen-fixture": ("--kind", "--layers", "--d-model", "--d-ff", "--ff-kind",
                    "--seed", "--out"),
}
SWITCHES = ("--no-permute", "--include-final-window")
INPUTS = ("model", "acts", "toks")
PATH_FLAGS = {"--model": "model", "--acts": "acts", "--data": "toks",
              "--eval-data": "toks"}
SMALL = st.sampled_from([4, 8, 2, 16, 3, 1, 0, -1])
# (file, intact/truncate/flip, byte position, xor mask), made by _realize
INPUT_SPECS = st.tuples(st.sampled_from(INPUTS + ("missing", "directory")),
                        st.sampled_from(["intact"] * 4 + ["truncate", "flip"]),
                        st.integers(0, 2**16), st.integers(1, 255))
OUTPUT_NAMES = st.sampled_from(["out.ffmc", "report.json", "nodir/out.ffmc", "model.ffmc"])
VALUES = {
    "--tap": st.sampled_from(["ff-pre-act", "ff-out", "attn-out"]),
    "--max-samples": st.sampled_from([40, 7, 1, 10**6, 0, -1, 2**70]),
    "--window": st.sampled_from(["0:2", "1:3", "0:3", "2:4", "3:1", "0:99", "a:b",
                                 str(2**70) + ":" + str(2**70 + 2)]),
    "--anchor": st.sampled_from(["first", "middle", "last"]),
    "--k": st.sampled_from([2, 3, 4, 1, 0, -1, 99, 2**70]),
    "--metric": st.sampled_from(["xent", "ppl", "acc"]),
    "--count": st.sampled_from([1, 2, 3, 4, 0, -1, 2**70]),
    "--format": st.sampled_from(["csv", "json"]),
    "--kind": st.sampled_from(["random", "duplicate", "permuted-copy"]),
    "--layers": SMALL,
    "--d-model": SMALL,
    "--d-ff": st.one_of(SMALL, st.just(HUGE)),
    "--ff-kind": st.sampled_from(["relu", "gelu", "swiglu"]),
    "--seed": st.sampled_from([0, 7, -1, 2**70]),
}
ALL_FLAGS = sorted({flag for flags in OWN.values() for flag in flags})
# true one draw in 16, and false when shrunk
RARELY = st.sampled_from([False] * 15 + [True])


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The bytes of a tiny model, its capture and its token file (which
    holds a length-1 sequence)."""
    base = tmp_path_factory.mktemp("contract")
    cfg = default_config(n_layers=4, d_model=8, d_ff=16, ff_kind="relu")
    model = permuted_copy_model(cfg, seed=3).model
    data = Dataset(sequences=[*token_sequences(cfg, 5, 6, seed=4).sequences,
                              np.array([5], dtype=np.int64)])
    paths = {name: base / name for name in INPUTS}
    save_model(model, paths["model"])
    write_activations(capture_activations(model, data, "ff_pre_act", 40), paths["acts"])
    write_token_file(paths["toks"], data.sequences, cfg.separator_id)
    return {name: path.read_bytes() for name, path in paths.items()}


def _realize(work: str, spec, originals) -> str:
    """Write one input (intact, truncated or with one byte flipped) into
    ``work`` and return its path."""
    kind, how, pos, mask = spec
    if kind == "missing":
        return os.path.join(work, "absent.ffmc")
    if kind == "directory":
        return work
    data = bytearray(originals[kind])
    if how == "truncate":
        data = data[:pos % len(data)]
    elif how == "flip":
        data[pos % len(data)] ^= mask
    path = os.path.join(work, f"{kind}-{how}-{pos}-{mask}")
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    return path


@st.composite
def invocations(draw):
    """(argv template, input specs): the subcommand's flags, each kept with
    high probability, plus a few flags of other subcommands."""
    command = draw(st.sampled_from(sorted(OWN)))
    flags = [f for f in OWN[command] if not draw(RARELY)]
    if draw(RARELY) or draw(RARELY) or draw(RARELY):
        flags.append(draw(st.sampled_from(ALL_FLAGS)))
    argv, specs = [command], {}
    for flag in dict.fromkeys(draw(st.permutations(flags))):
        argv.append(flag)
        if flag in SWITCHES:
            continue
        if flag in PATH_FLAGS:
            spec = draw(INPUT_SPECS)
            if not draw(RARELY):  # mostly the file kind the flag reads
                spec = (PATH_FLAGS[flag],) + spec[1:]
            specs[len(argv)] = spec
            argv.append(None)
        elif flag in ("--out", "--report"):
            argv.append(("out", draw(OUTPUT_NAMES)))
        else:
            # "x" is outside every flag's choices and not an integer
            argv.append("x" if draw(RARELY) else str(draw(VALUES[flag])))
    return argv, specs


def _call(argv) -> tuple[int, bool, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc, usage = main(argv), False
        except SystemExit as exc:
            rc, usage = exc.code, True
    return rc, usage, out.getvalue(), err.getvalue()


def _assert_contract(rc, usage, out, err) -> None:
    assert rc in (0, 1, 2), (rc, err)
    assert "Traceback" not in out + err
    if usage:
        lines = err.splitlines()
        assert rc == 1 and lines[0].startswith("usage: ffmerge"), err
        assert 2 <= len(lines) <= 5 and ": error: " in lines[-1], err
    elif rc:
        assert err.count("\n") == 1 and err.startswith("ffmerge: "), err
    else:
        assert err.count("\n") <= 1, err


class TestCliContract:
    @settings(max_examples=250, deadline=None)
    @given(call=invocations())
    def test_exit_code_and_one_line_errors(self, originals, call):
        template, specs = call
        with tempfile.TemporaryDirectory() as work, \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            argv = []
            for i, arg in enumerate(template):
                if i in specs:
                    arg = _realize(work, specs[i], originals)
                elif isinstance(arg, tuple):
                    arg = os.path.join(work, arg[1])
                argv.append(arg)
            _assert_contract(*_call(argv))

    def test_size_beyond_memory_is_one_line_exit_2(self, tmp_path):
        rc, usage, out, err = _call(["gen-fixture", "--kind", "random", "--layers", "2",
                                     "--d-model", "16", "--d-ff", str(HUGE),
                                     "--out", str(tmp_path / "x.ffmc")])
        assert (rc, usage, out) == (2, False, "")
        assert err.startswith("ffmerge: out of memory: ") and err.count("\n") == 1
        assert not os.listdir(tmp_path)
