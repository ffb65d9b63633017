"""Command-line tests driven through main() with temp files."""

import argparse
import json
import os
import stat
import struct
from dataclasses import replace

import numpy as np
import pytest

from ffmerge.checkpoint import MAGIC, ParameterStore, tie_report, write_container
from ffmerge import cli as cli_mod
from ffmerge.cli import _parse_window, main
from ffmerge.config import ff_tensor_names
from ffmerge.datasets import write_token_file
from ffmerge.engine import (TransformerModel, load_model, read_activations, save_model,
                            write_activations)
from ffmerge.fixtures import default_config, greedy_sequences, \
    permuted_copy_model, random_model, token_sequences, zeroed_layer_model
from ffmerge.selection import enumerate_windows


@pytest.fixture
def workdir(tmp_path):
    """A permuted-copy model checkpoint plus capture and eval token files."""
    cfg = default_config(n_layers=6, d_model=16, d_ff=64, ff_kind="relu")
    fixture = permuted_copy_model(cfg, seed=7)
    paths = {
        "model": str(tmp_path / "model.ffmc"),
        "capture_data": str(tmp_path / "capture.toks"),
        "eval_data": str(tmp_path / "eval.toks"),
        "acts": str(tmp_path / "acts.ffmc"),
        "dir": tmp_path,
    }
    save_model(fixture.model, paths["model"])
    capture = token_sequences(cfg, 24, 16, seed=3)
    write_token_file(paths["capture_data"], capture.sequences,
                     cfg.separator_id)
    greedy = greedy_sequences(fixture.model, 8, 24, seed=11)
    write_token_file(paths["eval_data"], greedy.sequences, cfg.separator_id)
    rc = main(["capture", "--model", paths["model"],
               "--data", paths["capture_data"], "--tap", "ff-pre-act",
               "--max-samples", "200", "--out", paths["acts"]])
    assert rc == 0
    return paths


class TestParseWindow:
    def test_parses(self):
        assert _parse_window("2:5") == (2, 3)
        assert _parse_window("0:2") == (0, 2)

    def test_rejects(self):
        for bad in ("2", "2:5:7", "a:b", "-1:2", "3:4", "5:5"):
            with pytest.raises(ValueError):
                _parse_window(bad)


class TestCaptureCommand:
    def test_writes_activation_file(self, workdir):
        acts = read_activations(workdir["acts"])
        assert acts.tap == "ff_pre_act"
        assert acts.sample_count == 200
        assert len(acts.per_layer) == 6

    @pytest.mark.parametrize("max_samples,shortfall", [(10000, True),
                                                       (200, False)])
    def test_row_shortfall_is_one_stderr_line(self, workdir, capsys,
                                              max_samples, shortfall):
        out = str(workdir["dir"] / "more.ffmc")
        capsys.readouterr()
        rc = main(["capture", "--model", workdir["model"],
                   "--data", workdir["capture_data"], "--tap", "ff-pre-act",
                   "--max-samples", str(max_samples), "--out", out])
        assert rc == 0
        captured = capsys.readouterr()
        rows = min(max_samples, 24 * 16)
        assert captured.out.startswith(f"captured {rows} rows at ff_pre_act")
        if shortfall:
            assert captured.err.count("\n") == 1
            assert f"{rows} rows" in captured.err and "10000" in captured.err
        else:
            assert captured.err == ""

    def test_zero_max_samples_is_one_line_error(self, workdir, capsys):
        out = workdir["dir"] / "zero.ffmc"
        capsys.readouterr()
        assert main(["capture", "--model", workdir["model"], "--data", workdir["capture_data"],
                     "--tap", "ff-out", "--max-samples", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "max_samples must be >= 1" in err
        assert not out.exists()

    def test_missing_model_file_is_io_error(self, workdir):
        rc = main(["capture", "--model", str(workdir["dir"] / "nope.ffmc"),
                   "--data", workdir["capture_data"], "--tap", "ff-out",
                   "--max-samples", "10",
                   "--out", str(workdir["dir"] / "x.ffmc")])
        assert rc == 2


class TestMergeCommand:
    def test_merges_window(self, workdir):
        out = str(workdir["dir"] / "merged.ffmc")
        rc = main(["merge", "--model", workdir["model"],
                   "--acts", workdir["acts"], "--window", "2:5",
                   "--out", out])
        assert rc == 0
        merged = load_model(out)
        base = load_model(workdir["model"])
        toks = np.array([3, 9, 4, 12], dtype=np.int64)
        assert np.abs(merged.forward(toks) - base.forward(toks)).max() <= 1e-4
        store = merged.store
        assert store.alias_target("layer3.ff.w_in") == "layer2.ff.w_in"
        p = 64 * 16 + 64 + 16 * 64 + 16
        report = tie_report(store)
        assert report.total_parameters - report.unique_parameters == 2 * p

    def test_anchor_middle_round_trips(self, workdir):
        out = str(workdir["dir"] / "mid.ffmc")
        rc = main(["merge", "--model", workdir["model"],
                   "--acts", workdir["acts"], "--window", "2:5",
                   "--anchor", "middle", "--out", out])
        assert rc == 0
        merged = load_model(out)
        # the window's first layer owns the merge, whatever the anchor
        for layer in (3, 4):
            assert merged.store.alias_target(f"layer{layer}.ff.w_in") == "layer2.ff.w_in"
        assert merged.store.alias_target("layer2.ff.w_in") is None
        save_model(merged, str(workdir["dir"] / "again.ffmc"))
        assert (workdir["dir"] / "again.ffmc").read_bytes() == (workdir["dir"] / "mid.ffmc").read_bytes()

    def test_deterministic_output_bytes(self, workdir):
        a = workdir["dir"] / "a.ffmc"
        b = workdir["dir"] / "b.ffmc"
        for out in (a, b):
            rc = main(["merge", "--model", workdir["model"],
                       "--acts", workdir["acts"], "--window", "2:5",
                       "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_window_overflow_is_usage_error(self, workdir):
        rc = main(["merge", "--model", workdir["model"],
                   "--acts", workdir["acts"], "--window", "4:7",
                   "--out", str(workdir["dir"] / "x.ffmc")])
        assert rc == 1

    def test_bad_window_string(self, workdir):
        rc = main(["merge", "--model", workdir["model"],
                   "--acts", workdir["acts"], "--window", "banana",
                   "--out", str(workdir["dir"] / "x.ffmc")])
        assert rc == 1


def one_line_error(capsys, argv, *needles) -> None:
    """``main(argv)`` exits 1 with one stderr line holding every needle."""
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and all(needle in err for needle in needles), err


@pytest.mark.parametrize("command", ["merge", "select"])
class TestMismatchedCapture:
    """A capture that does not belong to the model is refused before a merge."""

    def argv(self, workdir, command, model, acts):
        out = str(workdir["dir"] / "out.ffmc")
        flags = (["--window", "0:2"] if command == "merge" else
                 ["--k", "2", "--eval-data", workdir["eval_data"], "--metric", "xent",
                  "--report", str(workdir["dir"] / "report.json")])
        return [command, "--model", model, "--acts", acts, *flags, "--out", out]

    @pytest.mark.parametrize("depth", [4, 12])
    def test_capture_of_another_depth(self, workdir, capsys, command, depth):
        acts = read_activations(workdir["acts"])
        path = str(workdir["dir"] / "deep.ffmc")
        write_activations(replace(acts, per_layer=(acts.per_layer * 2)[:depth]), path)
        one_line_error(capsys, self.argv(workdir, command, workdir["model"], path),
                       f"activation set holds {depth} layers, the model 6")
        assert not (workdir["dir"] / "out.ffmc").exists()

    def test_capture_of_another_width(self, workdir, capsys, command):
        # the d_ff 64 capture against a d_ff 32 model of the same depth
        cfg = default_config(n_layers=6, d_model=16, d_ff=32, ff_kind="relu")
        model = str(workdir["dir"] / "narrow.ffmc")
        save_model(random_model(cfg, seed=2), model)
        one_line_error(capsys, self.argv(workdir, command, model, workdir["acts"]),
                       "activation width 64 does not match d_ff 32")

    def test_model_checkpoint_as_capture(self, workdir, capsys, command):
        one_line_error(capsys, self.argv(workdir, command, workdir["model"], workdir["model"]),
                       "is not an activation dump")


class TestSelectCommand:
    def test_select_finds_group(self, workdir, capsys):
        out = str(workdir["dir"] / "best.ffmc")
        report_path = workdir["dir"] / "report.json"
        rc = main(["select", "--model", workdir["model"],
                   "--acts", workdir["acts"], "--k", "3",
                   "--eval-data", workdir["eval_data"], "--metric", "xent",
                   "--out", out, "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert len(report["candidates"]) == len(enumerate_windows(6, 3))
        assert report["best"]["start"] == 2
        printed = capsys.readouterr().out
        assert "layers 2-4" in printed
        assert printed.startswith("merge selection: k=3 anchor=first permutation=on\n")
        assert "note: recovery fine-tuning" in printed
        load_model(out)


    def test_no_window_error_names_the_flag(self, tmp_path, capsys):
        # k = n_layers fits only the full-width window, which the default
        # bound leaves out; the message names the flag that lets it in
        cfg = default_config(n_layers=3, d_model=8, d_ff=16, ff_kind="relu")
        model = str(tmp_path / "m.ffmc")
        save_model(random_model(cfg, 0), model)
        data = str(tmp_path / "d.toks")
        write_token_file(data, token_sequences(cfg, 3, 8, seed=1).sequences, cfg.separator_id)
        acts = str(tmp_path / "a.ffmc")
        assert main(["capture", "--model", model, "--data", data, "--tap", "ff-pre-act",
                     "--max-samples", "20", "--out", acts]) == 0
        capsys.readouterr()
        rc = main(["select", "--model", model, "--acts", acts, "--k", "3",
                   "--eval-data", data, "--metric", "xent",
                   "--out", str(tmp_path / "o.ffmc"), "--report", str(tmp_path / "r.json")])
        assert rc == 1
        assert "pass --include-final-window" in capsys.readouterr().err


class TestDropCommand:
    def test_drop_sweep(self, workdir, capsys):
        out = str(workdir["dir"] / "pruned.ffmc")
        report_path = workdir["dir"] / "drop.json"
        rc = main(["drop", "--model", workdir["model"], "--count", "1",
                   "--eval-data", workdir["eval_data"], "--metric", "xent",
                   "--out", out, "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert len(report["candidates"]) == 6
        assert report["anchor"] is None
        printed = capsys.readouterr().out
        assert printed.startswith("drop selection: count=1\ncandidates:\n")
        assert "note:" not in printed
        pruned = load_model(out)
        assert pruned.config.n_layers == 5


@pytest.mark.parametrize("command", ["select", "drop"])
@pytest.mark.parametrize("bad", ["out", "report"])
class TestSweepOutputDirs:
    """An output that cannot be written fails before any model is loaded."""

    def test_missing_directory_writes_nothing(self, workdir, capsys, monkeypatch,
                                              command, bad):
        def boom(*args, **kwargs):
            raise AssertionError("model loaded before the output check")

        monkeypatch.setattr(cli_mod, "load_model", boom)
        outs = {"out": workdir["dir"] / "best.ffmc",
                "report": workdir["dir"] / "report.json"}
        outs[bad] = workdir["dir"] / "nodir" / outs[bad].name
        flags = (["--acts", workdir["acts"], "--k", "3"] if command == "select"
                 else ["--count", "1"])
        before = sorted(workdir["dir"].rglob("*"))
        capsys.readouterr()
        rc = main([command, "--model", workdir["model"], *flags,
                   "--eval-data", workdir["eval_data"], "--metric", "xent",
                   "--out", str(outs["out"]), "--report", str(outs["report"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nodir" in err
        assert sorted(workdir["dir"].rglob("*")) == before


@pytest.mark.parametrize("command", ["select", "drop"])
@pytest.mark.parametrize("spelling", ["same", "symlink"])
def test_out_and_report_naming_one_file(workdir, capsys, monkeypatch, command, spelling):
    # the report would overwrite the model just written; refused before any load
    def boom(*args, **kwargs):
        raise AssertionError("model loaded before the output check")

    monkeypatch.setattr(cli_mod, "load_model", boom)
    out = workdir["dir"] / "s.ffmc"
    report = out
    if spelling == "symlink":
        report = workdir["dir"] / "link.json"
        report.symlink_to(out)
    flags = (["--acts", workdir["acts"], "--k", "3"] if command == "select"
             else ["--count", "1"])
    one_line_error(capsys, [command, "--model", workdir["model"], *flags,
                            "--eval-data", workdir["eval_data"], "--metric", "xent",
                            "--out", str(out), "--report", str(report)],
                   "--out and --report name one file")
    assert not out.exists()


class TestTiedCheckpointSurgery:
    """Merges and sweeps over a checkpoint already tied over layers 2-4."""

    @pytest.fixture
    def tied(self, workdir):
        path = str(workdir["dir"] / "tied.ffmc")
        assert main(["merge", "--model", workdir["model"], "--acts", workdir["acts"],
                     "--window", "2:5", "--out", path]) == 0
        return path

    def test_merge_window_taking_the_group_owner(self, workdir, tied):
        out = str(workdir["dir"] / "remerged.ffmc")
        assert main(["merge", "--model", tied, "--acts", workdir["acts"],
                     "--window", "1:3", "--out", out]) == 0
        before, after = load_model(tied), load_model(out)
        assert after.store.alias_target("layer2.ff.w_in") == "layer1.ff.w_in"
        assert after.store.alias_target("layer4.ff.w_in") == "layer3.ff.w_in"
        for name in ff_tensor_names(before.config, 3) + ff_tensor_names(before.config, 4):
            assert after.store.get(name).tobytes() == before.store.get(name).tobytes()

    def test_select_k2_over_the_group(self, workdir, tied):
        assert main(["select", "--model", tied, "--acts", workdir["acts"],
                     "--k", "2", "--eval-data", workdir["eval_data"],
                     "--metric", "xent", "--out", str(workdir["dir"] / "best.ffmc"),
                     "--report", str(workdir["dir"] / "report.json")]) == 0


class TestEvalCommand:
    def test_prints_score(self, workdir, capsys):
        rc = main(["eval", "--model", workdir["model"],
                   "--data", workdir["eval_data"], "--metric", "xent"])
        assert rc == 0
        out = capsys.readouterr().out
        value = float(out.strip().split()[-1])
        assert value == pytest.approx(1.0485834889043009, abs=1e-6)

    def test_bad_token_in_short_sequence_is_one_line_error(self, workdir,
                                                           capsys):
        path = str(workdir["dir"] / "bad.toks")
        write_token_file(path, [np.array([999]), np.array([1, 2, 3])], 0)
        assert main(["eval", "--model", workdir["model"], "--data", path,
                     "--metric", "xent"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "token id 999 out of vocabulary" in err

    def test_accuracy_metric(self, workdir, capsys):
        rc = main(["eval", "--model", workdir["model"],
                   "--data", workdir["eval_data"], "--metric", "acc"])
        assert rc == 0
        value = float(capsys.readouterr().out.strip().split()[-1])
        assert 0.0 <= value <= 1.0

    def test_perplexity_overflow_prints_inf(self, workdir, capsys):
        path = overflowing_model(workdir)
        rc = main(["eval", "--model", path, "--data", workdir["eval_data"],
                   "--metric", "ppl"])
        assert rc == 0
        assert capsys.readouterr().out == "ppl inf\n"

    @pytest.mark.parametrize("command", ["select", "drop"])
    def test_perplexity_overflow_ranks_sweep(self, workdir, capsys, command):
        # eval prints ppl inf for this model, so every candidate of a sweep
        # scores +inf too: the sweep ranks them and keeps the smallest start
        report_path = workdir["dir"] / "x.json"
        argv = [command, "--model", overflowing_model(workdir),
                "--eval-data", workdir["eval_data"], "--metric", "ppl",
                "--out", str(workdir["dir"] / "x.ffmc"), "--report", str(report_path)]
        argv += (["--acts", workdir["acts"], "--k", "3"] if command == "select"
                 else ["--count", "1"])
        assert main(argv) == 0
        assert "score inf" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert all(c["score"] == float("inf") for c in report["candidates"])
        assert report["best"] == report["candidates"][0]


def entries(store: ParameterStore) -> dict:
    """``store`` as the ``{name: array}`` table ``copy`` takes."""
    return {name: store.get(name) for name in store.names}


def overflowing_model(workdir) -> str:
    """The workdir model with head.w scaled so cross-entropy passes the
    ~709.78 nats at which exp overflows a float."""
    model = load_model(workdir["model"])
    store = model.store.copy(entries(model.store) | {"head.w": model.store.get("head.w") * 1e4})
    path = str(workdir["dir"] / "overflow.ffmc")
    save_model(TransformerModel(model.config, store), path)
    return path


class TestCkaCommand:
    def test_csv_output(self, workdir):
        out = workdir["dir"] / "cka.csv"
        rc = main(["cka", "--acts", workdir["acts"], "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in
                out.read_text().strip().splitlines()]
        assert len(rows) == 6 and all(len(r) == 6 for r in rows)
        values = np.array([[float(v) for v in row] for row in rows])
        np.testing.assert_allclose(np.diag(values), 1.0, atol=1e-5)

    def test_json_output(self, workdir):
        out = workdir["dir"] / "cka.json"
        rc = main(["cka", "--acts", workdir["acts"], "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["tap"] == "ff_pre_act"
        assert len(doc["values"]) == 6


    @pytest.mark.parametrize("count", [[32], True, 32.0, None])
    def test_mistyped_sample_count_is_one_line_error(self, tmp_path, capsys,
                                                     count):
        store = ParameterStore({f"acts.layer{layer}": np.ones((32, 4), dtype=np.float32)
                                for layer in (0, 1)})
        path = str(tmp_path / "acts.ffmc")
        write_container(store, {"tap": "ff_pre_act", "sample_count": count},
                        path)
        rc = main(["cka", "--acts", path, "--out", str(tmp_path / "c.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sample_count" in err

    def test_dead_layer_capture(self, tmp_path):
        cfg = default_config(n_layers=4, d_model=16, d_ff=32)
        model, data = str(tmp_path / "m.ffmc"), str(tmp_path / "d.toks")
        acts, out = str(tmp_path / "a.ffmc"), tmp_path / "cka.csv"
        save_model(zeroed_layer_model(cfg, zero_layer=1, seed=19), model)
        write_token_file(data, token_sequences(cfg, 8, 12, seed=3).sequences,
                         cfg.separator_id)
        assert main(["capture", "--model", model, "--data", data, "--tap",
                     "ff-out", "--max-samples", "80", "--out", acts]) == 0
        assert main(["cka", "--acts", acts, "--out", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.read_text().splitlines()]
        assert rows[1] == [0.0] * 4 and [r[1] for r in rows] == [0.0] * 4
        np.testing.assert_allclose([rows[i][i] for i in (0, 2, 3)], 1.0,
                                   atol=1e-5)

    def test_one_row_capture_is_one_line_error(self, workdir, capsys):
        acts = str(workdir["dir"] / "one.ffmc")
        assert main(["capture", "--model", workdir["model"], "--data", workdir["capture_data"],
                     "--tap", "ff-out", "--max-samples", "1", "--out", acts]) == 0
        one_line_error(capsys, ["cka", "--acts", acts, "--out", str(workdir["dir"] / "c.csv")],
                       "need at least 2 rows")


def write_dump(path, names, shape) -> str:
    store = ParameterStore({name: np.ones(shape, dtype=np.float32) for name in names})
    write_container(store, {"tap": "ff_pre_act", "sample_count": shape[0]},
                    path)
    return str(path)


class TestMalformedActivationDump:
    @pytest.mark.parametrize("command", ["merge", "select", "cka"])
    def test_one_dimensional_layers(self, workdir, capsys, command):
        acts = write_dump(workdir["dir"] / "flat.ffmc",
                          [f"acts.layer{i}" for i in range(6)], (32,))
        out = str(workdir["dir"] / "out")
        argv = {"merge": ["--model", workdir["model"], "--window", "0:2"],
                "select": ["--model", workdir["model"], "--k", "2",
                           "--eval-data", workdir["eval_data"],
                           "--metric", "xent", "--report", out + ".json"],
                "cka": []}[command]
        capsys.readouterr()
        rc = main([command, "--acts", acts, "--out", out, *argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "2-D" in err

    @pytest.mark.parametrize("name", ["acts.layer01", "acts.layer+1",
                                      "acts.layer-1", "acts.layer", "acts.layer3",
                                      "acts.layer10"])
    def test_non_canonical_layer_name(self, tmp_path, capsys, name):
        # the writer names layers 0..L-1 in order; the first other entry is named
        acts = write_dump(tmp_path / "dup.ffmc",
                          ["acts.layer0", "acts.layer1", name], (32, 4))
        one_line_error(capsys, ["cka", "--acts", acts, "--out", str(tmp_path / "c.csv")],
                       repr(name), "expected 'acts.layer2'")

    def test_layers_out_of_order(self, tmp_path, capsys):
        acts = write_dump(tmp_path / "order.ffmc", ["acts.layer1", "acts.layer0"], (32, 4))
        one_line_error(capsys, ["cka", "--acts", acts, "--out", str(tmp_path / "c.csv")],
                       "'acts.layer1'", "expected 'acts.layer0'")


class TestInfoCommand:
    def test_reports_tie_accounting(self, workdir, capsys):
        merged = str(workdir["dir"] / "merged.ffmc")
        assert main(["merge", "--model", workdir["model"],
                     "--acts", workdir["acts"], "--window", "2:5",
                     "--out", merged]) == 0
        assert main(["info", "--model", merged]) == 0
        out = capsys.readouterr().out
        base = load_model(workdir["model"])
        merged_model = load_model(merged)
        report = tie_report(merged_model.store)
        assert str(report.total_parameters) in out
        assert str(report.unique_parameters) in out
        assert report.total_parameters == tie_report(base.store).total_parameters

    @pytest.mark.parametrize("biases,per_member", [(True, 4), (False, 2)])
    def test_counts_tied_tensors(self, tmp_path, capsys, biases, per_member):
        cfg = replace(default_config(n_layers=6, d_model=16, d_ff=64,
                                     ff_kind="relu"), has_ff_biases=biases)
        fixture = permuted_copy_model(cfg, seed=7)
        model, data = str(tmp_path / "m.ffmc"), str(tmp_path / "d.toks")
        acts, merged = str(tmp_path / "a.ffmc"), str(tmp_path / "t.ffmc")
        save_model(fixture.model, model)
        write_token_file(data, token_sequences(cfg, 24, 16, seed=3).sequences,
                         cfg.separator_id)
        assert main(["capture", "--model", model, "--data", data, "--tap",
                     "ff-pre-act", "--max-samples", "200", "--out", acts]) == 0
        assert main(["merge", "--model", model, "--acts", acts,
                     "--window", "2:5", "--out", merged]) == 0
        capsys.readouterr()
        assert main(["info", "--model", merged]) == 0
        assert f"tied tensors: {2 * per_member}\n" in capsys.readouterr().out

    def test_lists_tie_groups(self, workdir, capsys):
        merged = str(workdir["dir"] / "merged.ffmc")
        assert main(["merge", "--model", workdir["model"],
                     "--acts", workdir["acts"], "--window", "2:5",
                     "--out", merged]) == 0
        capsys.readouterr()
        assert main(["info", "--model", merged]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:] == ["tied tensors: 8"] + [
            f"tie group layer2.ff.{base} <- layer3.ff.{base}, layer4.ff.{base}"
            for base in ("w_in", "b_in", "w_out", "b_out")]

    def test_untied_model_lists_no_group(self, workdir, capsys):
        capsys.readouterr()
        assert main(["info", "--model", workdir["model"]]) == 0
        assert "tie" not in capsys.readouterr().out

    def test_tensor_outside_the_config_is_one_line_error(self, workdir, capsys):
        # an entry the config does not define is refused, not counted
        model = load_model(workdir["model"])
        store = model.store.copy(entries(model.store)
                                 | {"junk.extra": model.store.get("embed.tok")})
        path = str(workdir["dir"] / "junk.ffmc")
        write_container(store, model.config.to_dict(), path)
        capsys.readouterr()
        assert main(["info", "--model", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "'junk.extra'" in captured.err

    def test_tensor_of_the_wrong_shape_is_one_line_error(self, workdir, capsys):
        model = load_model(workdir["model"])
        store = model.store.copy(entries(model.store)
                                 | {"layer3.ff.b_in": np.zeros(63, np.float32)})
        path = str(workdir["dir"] / "shape.ffmc")
        write_container(store, model.config.to_dict(), path)
        one_line_error(capsys, ["info", "--model", path],
                       "tensor 'layer3.ff.b_in' has shape (63,), expected (64,)")

    @pytest.mark.parametrize("edit,needle", [
        ({"ff_kind": "tanh"}, "ff_kind must be one of"),
        ({"pooling": "max"}, "pooling must be one of"),
        (None, "model config must be a JSON object")])
    def test_bad_config_value_is_one_line_error(self, workdir, capsys, edit, needle):
        model = load_model(workdir["model"])
        meta = [model.config.to_dict()] if edit is None else dict(model.config.to_dict(), **edit)
        path = str(workdir["dir"] / "config.ffmc")
        write_container(model.store, meta, path)
        one_line_error(capsys, ["info", "--model", path], "__config__ is not a valid", needle)

    def test_huge_layer_claim_fails_at_first_missing_tensor(self, workdir, capsys):
        # a small file whose config claims 10**12 layers is refused at the
        # first tensor it lacks, with no table entry built per claimed layer
        model = load_model(workdir["model"])
        path = str(workdir["dir"] / "huge.ffmc")
        write_container(model.store, dict(model.config.to_dict(), n_layers=10**12), path)
        capsys.readouterr()
        assert main(["info", "--model", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "missing tensor 'layer6.attn.wq'" in captured.err

    def test_malformed_container_is_one_line_error(self, tmp_path, capsys):
        entry = {"dtype": "f32", "shape": [1], "offset": 0, "length": 4}
        config = default_config(n_layers=4).to_dict()
        path = tmp_path / "bad.ffmc"
        for header in ({"__config__": {}, "w": dict(entry, offset=0.0)},
                       {"__config__": dict(config, n_layers=4.0), "w": entry},
                       {"__config__": dict(config, n_layers=True), "w": entry}):
            text = json.dumps(header, separators=(",", ":"))
            path.write_bytes(MAGIC + struct.pack("<Q", len(text))
                             + text.encode() + b"\0" * 4)
            assert main(["info", "--model", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("ffmerge: error:")

    @pytest.mark.parametrize("key", ["alias", "__config__"])
    def test_repeated_header_key_is_one_line_error(self, tmp_path, capsys,
                                                   key):
        cfg = default_config(n_layers=2, d_model=8, d_ff=16)
        model = random_model(cfg, seed=5)
        owner, alias = ff_tensor_names(cfg, 0)[0], ff_tensor_names(cfg, 1)[0]
        store = model.store.copy(entries(model.store) | {alias: model.store.get(owner)})
        path = tmp_path / "tied.ffmc"
        save_model(TransformerModel(cfg, store), str(path))
        data = path.read_bytes()
        (header_len,) = struct.unpack("<Q", data[8:16])
        text = data[16:16 + header_len].decode()
        name = alias if key == "alias" else key
        entry = f'"{name}":' + json.dumps(json.loads(text)[name],
                                          separators=(",", ":"))
        assert entry in text
        text = text.replace(entry, entry + "," + entry)
        path.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text.encode()
                         + data[16 + header_len:])
        assert main(["info", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not canonical" in err

    def test_indented_header_is_one_line_error(self, workdir, capsys):
        data = open(workdir["model"], "rb").read()
        (header_len,) = struct.unpack("<Q", data[8:16])
        text = json.dumps(json.loads(data[16:16 + header_len]), indent=1)
        path = workdir["dir"] / "indented.ffmc"
        path.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text.encode()
                         + data[16 + header_len:])
        capsys.readouterr()
        assert main(["info", "--model", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "not canonical" in captured.err


class TestGenFixtureCommand:
    def test_reproducible(self, workdir):
        a = workdir["dir"] / "fa.ffmc"
        b = workdir["dir"] / "fb.ffmc"
        for out in (a, b):
            rc = main(["gen-fixture", "--kind", "duplicate", "--layers", "4",
                       "--d-model", "8", "--d-ff", "16", "--seed", "9",
                       "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        cfg = load_model(str(a)).config
        assert cfg.n_layers == 4 and cfg.d_model == 8

    def test_bad_kind_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["gen-fixture", "--kind", "mystery", "--layers", "4",
                  "--d-model", "8", "--d-ff", "16",
                  "--out", str(workdir["dir"] / "x.ffmc")])
        assert exc.value.code == 1


# One minimal valid argv per subcommand, and every dest it parses to.
MINIMAL_ARGS = {
    "capture": ("--model m --data d --tap ff-out --max-samples 5 --out o",
                dict(model="m", data="d", tap="ff-out", max_samples=5, out="o")),
    "merge": ("--model m --acts a --window 0:2 --out o",
              dict(model="m", acts="a", window="0:2", anchor="first",
                   no_permute=False, out="o")),
    "select": ("--model m --acts a --k 2 --eval-data e --metric xent --out o --report r",
               dict(model="m", acts="a", k=2, eval_data="e", metric="xent",
                    anchor="first", no_permute=False, include_final_window=False,
                    out="o", report="r")),
    "drop": ("--model m --count 1 --eval-data e --metric acc --out o --report r",
             dict(model="m", count=1, eval_data="e", metric="acc", out="o", report="r")),
    "eval": ("--model m --data d --metric ppl", dict(model="m", data="d", metric="ppl")),
    "cka": ("--acts a --out o", dict(acts="a", out="o", format="csv")),
    "info": ("--model m", dict(model="m")),
    "gen-fixture": ("--kind random --layers 3 --d-model 8 --d-ff 16 --out o",
                    dict(kind="random", layers=3, d_model=8, d_ff=16, ff_kind="gelu",
                         seed=0, out="o")),
}


class TestParser:
    def test_every_subcommand_has_a_case(self):
        sub = next(a for a in cli_mod.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(MINIMAL_ARGS)

    @pytest.mark.parametrize("command", list(MINIMAL_ARGS))
    def test_minimal_argv_parses_to_every_default(self, command):
        argv, want = MINIMAL_ARGS[command]
        args = cli_mod.build_parser().parse_args([command, *argv.split()])
        assert vars(args) == {"command": command, **want}
        # ints parse as ints, not as equal floats or strings
        assert {k: type(v) for k, v in vars(args).items()} == \
            {"command": str, **{k: type(v) for k, v in want.items()}}


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", "whatever"])
        assert exc.value.code == 1

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


@pytest.mark.parametrize("mask", [0o022, 0o077])
def test_output_files_get_the_umask_mode(tmp_path, mask):
    # a checkpoint, a token file, an activation dump and a JSON report
    cfg = default_config(n_layers=2, d_model=8, d_ff=16)
    paths = {name: str(tmp_path / name)
             for name in ("model.ffmc", "data.toks", "acts.ffmc", "cka.json")}
    old = os.umask(mask)
    try:
        save_model(random_model(cfg, seed=0), paths["model.ffmc"])
        write_token_file(paths["data.toks"], token_sequences(cfg, 4, 8, seed=1).sequences,
                         cfg.separator_id)
        assert main(["capture", "--model", paths["model.ffmc"], "--data", paths["data.toks"],
                     "--tap", "ff-out", "--max-samples", "16",
                     "--out", paths["acts.ffmc"]]) == 0
        assert main(["cka", "--acts", paths["acts.ffmc"], "--out", paths["cka.json"],
                     "--format", "json"]) == 0
    finally:
        os.umask(old)
    for path in paths.values():
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~mask, path
