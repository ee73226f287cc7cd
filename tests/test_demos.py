"""Every demo runs to completion against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, tmp_path, monkeypatch):
    # demos write their CSVs into the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QDS_DATA_DIR", raising=False)
    runpy.run_path(str(path), run_name="__main__")
