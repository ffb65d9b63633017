"""Every script under demos/ runs to completion in-process."""

import pathlib
import runpy
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # demos that write files put them under tempfile's directory
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
    assert not any(tmp_path.iterdir()), "demo left files in the temp dir"
