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


def test_attractor_study_drift_where_q_underflows(tmp_path, monkeypatch,
                                                  capsys):
    # At F2 = 1e-200, F_X^2 and so Q underflow to 0: the drift is the
    # absolute one, 0.0, with no warning (warnings are errors here)
    path = os.path.join(SCRIPTS, "run_attractor_study.py")
    monkeypatch.setattr(sys, "argv", [path, "--out", str(tmp_path),
                                      "--F2", "1e-200"])
    runpy.run_path(path, run_name="__main__")
    with open(tmp_path / "attractor_study.csv", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    assert rows[0][-1] == "Q_drift" and len(rows) == 14
    assert all(row[-1] == "0.0" for row in rows[1:])
    assert "Q drift=0.00e+00" in capsys.readouterr().out
