"""Command-line tests driven through main() with temp files."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from ffmerge.checkpoint import MAGIC, ParameterStore, read_checkpoint, \
    write_container
from ffmerge.cli import _parse_window, main
from ffmerge.datasets import write_token_file
from ffmerge.engine import load_model, read_activations, save_model
from ffmerge.fixtures import default_config, greedy_sequences, \
    permuted_copy_model, token_sequences, zeroed_layer_model
from ffmerge.selection import SelectionReport, enumerate_windows


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
        assert store.is_alias("layer3.ff.w_in")
        assert store.alias_target("layer3.ff.w_in") == "layer2.ff.w_in"
        p = 64 * 16 + 64 + 16 * 64 + 16
        assert store.total_parameter_count() \
            - store.unique_parameter_count() == 2 * p

    def test_anchor_middle_round_trips(self, workdir):
        out = str(workdir["dir"] / "mid.ffmc")
        rc = main(["merge", "--model", workdir["model"],
                   "--acts", workdir["acts"], "--window", "2:5",
                   "--anchor", "middle", "--out", out])
        assert rc == 0
        merged = load_model(out)
        assert merged.store.is_alias("layer2.ff.w_in")
        assert merged.store.alias_target("layer2.ff.w_in") == \
            "layer3.ff.w_in"

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


class TestSelectCommand:
    def test_select_finds_group(self, workdir, capsys):
        out = str(workdir["dir"] / "best.ffmc")
        report_path = workdir["dir"] / "report.json"
        rc = main(["select", "--model", workdir["model"],
                   "--acts", workdir["acts"], "--k", "3",
                   "--eval-data", workdir["eval_data"], "--metric", "xent",
                   "--out", out, "--report", str(report_path)])
        assert rc == 0
        report = SelectionReport.from_json(report_path.read_text())
        assert len(report.candidates) == len(enumerate_windows(6, 3))
        assert report.best.start == 2
        printed = capsys.readouterr().out
        assert "layers 2-4" in printed
        load_model(out)


class TestDropCommand:
    def test_drop_sweep(self, workdir, capsys):
        out = str(workdir["dir"] / "pruned.ffmc")
        report_path = workdir["dir"] / "drop.json"
        rc = main(["drop", "--model", workdir["model"], "--count", "1",
                   "--eval-data", workdir["eval_data"], "--metric", "xent",
                   "--out", out, "--report", str(report_path)])
        assert rc == 0
        report = SelectionReport.from_json(report_path.read_text())
        assert len(report.candidates) == 6
        assert report.anchor_position is None
        pruned = load_model(out)
        assert pruned.config.n_layers == 5


class TestEvalCommand:
    def test_prints_score(self, workdir, capsys):
        rc = main(["eval", "--model", workdir["model"],
                   "--data", workdir["eval_data"], "--metric", "xent"])
        assert rc == 0
        out = capsys.readouterr().out
        value = float(out.strip().split()[-1])
        assert value == pytest.approx(1.0485834889043009, abs=1e-6)

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
    def test_perplexity_overflow_fails_sweep(self, workdir, capsys, command):
        argv = [command, "--model", overflowing_model(workdir),
                "--eval-data", workdir["eval_data"], "--metric", "ppl",
                "--out", str(workdir["dir"] / "x.ffmc"),
                "--report", str(workdir["dir"] / "x.json")]
        argv += (["--acts", workdir["acts"], "--k", "3"] if command == "select"
                 else ["--count", "1"])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "candidate score must be finite" in err


def overflowing_model(workdir) -> str:
    """The workdir model with head.w scaled so cross-entropy passes the
    ~709.78 nats at which exp overflows a float."""
    model = load_model(workdir["model"])
    model.store.set_owner("head.w", model.store.get("head.w") * 1e4)
    path = str(workdir["dir"] / "overflow.ffmc")
    save_model(model, path)
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
        store = ParameterStore()
        for layer in (0, 1):
            store.add(f"acts.layer{layer}", np.ones((32, 4), dtype=np.float32))
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
        assert str(merged_model.store.total_parameter_count()) in out
        assert str(merged_model.store.unique_parameter_count()) in out
        assert merged_model.store.total_parameter_count() == \
            base.store.total_parameter_count()

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

    def test_malformed_container_is_one_line_error(self, tmp_path, capsys):
        entry = {"dtype": "f32", "shape": [1], "offset": 0, "length": 4}
        config = default_config(n_layers=4).to_dict()
        path = tmp_path / "bad.ffmc"
        for header in ({"__config__": {}, "w": dict(entry, offset=0.0)},
                       {"__config__": dict(config, n_layers=4.0), "w": entry},
                       {"__config__": dict(config, n_layers=True), "w": entry}):
            text = json.dumps(header)
            path.write_bytes(MAGIC + struct.pack("<Q", len(text))
                             + text.encode() + b"\0" * 4)
            assert main(["info", "--model", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("ffmerge: error:")


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
        store, cfg = read_checkpoint(str(a))
        assert cfg.n_layers == 4 and cfg.d_model == 8

    def test_bad_kind_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["gen-fixture", "--kind", "mystery", "--layers", "4",
                  "--d-model", "8", "--d-ff", "16",
                  "--out", str(workdir["dir"] / "x.ffmc")])
        assert exc.value.code == 1


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
