"""Smoke tests of the studies in scripts/: each runs to the end and
writes its table."""

import os
import runpy
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


@pytest.mark.parametrize("script,table", [
    ("run_attractor_study.py", "attractor_study.csv"),
    ("run_regime_sweep.py", "sweep_regimes.csv"),
])
def test_script_writes_its_table(tmp_path, monkeypatch, capsys, script, table):
    path = os.path.join(SCRIPTS, script)
    monkeypatch.setattr(sys, "argv", [path, "--out", str(tmp_path)])
    runpy.run_path(path, run_name="__main__")
    assert (tmp_path / table).stat().st_size > 0
    assert str(tmp_path / table) in capsys.readouterr().out
