"""End-to-end tests of the command-line interface.

Each test drives kessence.cli.main in-process and inspects the files it
writes: headers, frozen cell strings, summaries, exit codes, and the
byte-for-byte determinism contract.
"""

import contextlib
import filecmp
import glob
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from datetime import timedelta
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from kessence import cli, evolution
from kessence.cli import _fmt, main, run_wall
from kessence.config import (
    MAX_ROWS,
    PRESET_NAMES,
    parse_config,
    preset_config,
    serialize_config,
)
from kessence.errors import ConfigError, StepFailure
from kessence.evolution import DeSitter, initial_state
from kessence.model import (
    KineticModel,
    QuadraticPotential,
    classify_regimes,
    cs2_thinwall_approx,
    eos_w,
    eval_F,
    eval_F_X,
    sound_speed,
    sound_speed_perturbed,
    w_perturbed_exact,
    w_thinwall_approx,
)
from kessence.walls import WallProfile

EOS_HEADER = ("X,F,F_X,w_exact,cs2_exact,w_perturbed_eq14,"
              "cs2_perturbed_eq11,regime,note")
PROFILE_HEADER = "x,phi,dphi_dx,X_mag"
SHARPNESS_HEADER = "b,L,peak_value,peak_position,half_width,integral"
TRAJECTORY_HEADER = "t,a,phi,phidot,X,w,cs2,Q"
REGIMES_HEADER = ("b,L,X_estimate,eps0,F2,w_exact,w_paper,"
                  "cs2_exact,cs2_paper,regime_label")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

BASE_DOC = {
    "model": {"F2": 1000.0, "X0": 1000.0, "eps0": 0.01, "F0": -1.0},
    "potential": {"kind": "constant", "V0": 1.0},
    "background": {"kind": "desitter", "H": 1.0},
}


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert text.endswith("\n")
    return text.splitlines()


def _run(args):
    return main(list(args))


def _range(lo, hi, count):
    return {"min": lo, "max": hi, "count": count}


# ---------------------------------------------------------------------------
# eos-scan
# ---------------------------------------------------------------------------

def test_eos_scan_anchor_rows(tmp_path):
    doc = dict(BASE_DOC)
    doc["scan"] = {"X": {"min": 1000.0, "max": 2000.0, "count": 101}}
    doc["output"] = {"directory": "out", "stem": "eos"}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["eos-scan", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    rows = _rows(out / "eos_eos_scan.csv")
    assert rows[0] == EOS_HEADER
    assert len(rows) == 102

    first = rows[1].split(",")
    # X = X0: w = -1 and cs2 = 0 exactly; perturbed cs2 undefined
    assert first[0] == "1000.0"
    assert first[3] == "-1.0"
    assert first[4] == "0.0"
    assert first[5] == "-1.0"
    assert first[6] == "NAN"
    assert first[7] == "CosmologicalConstant"
    assert "perturbed cs2 undefined at eps0 = 0" in first[8]

    last = rows[-1].split(",")
    # X = 2 X0: cs2 = (X - X0)/(3X - X0) = 1/5
    assert last[0] == "2000.0"
    assert last[4] == "0.2"

    summary = _rows(out / "eos_eos_scan_summary.txt")
    assert summary[0] == "eos-scan summary"
    assert "points: 101" in summary
    assert "table: eos_eos_scan.csv" in summary


def test_eos_scan_pole_and_below_extremum_rows(tmp_path):
    doc = dict(BASE_DOC)
    doc["model"] = {"F2": 1.0, "X0": 3.0}
    doc["scan"] = {"X": {"min": 0.5, "max": 1.5, "count": 3}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["eos-scan", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    rows = _rows(out / "run_eos_scan.csv")
    cells = [r.split(",") for r in rows[1:]]
    # the middle row sits exactly on the cs2 pole X = X0/3 = 1
    assert cells[1][0] == "1.0"
    assert cells[1][4] == "NAN"
    assert "pole at X = X0/3" in cells[1][8]
    # all three rows are below X0, so the perturbed columns are absent
    for c in cells:
        assert c[5] == "NAN" and c[6] == "NAN"
        assert "X < X0" in c[8]


def test_eos_scan_terms_whose_sum_overflows(tmp_path):
    # 2*X*F_X = 1.44e308 and -F = 6.4e307 are finite, but their sum is
    # not: both w columns hold the true w, not a silent -0.0 from num/inf
    doc = {**BASE_DOC, "model": {"F2": 1.0, "X0": 1.0, "F0": -1e308},
           "scan": {"X": _range(6e153, 6e153, 1)}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["eos-scan", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header, row = _rows(out / "run_eos_scan.csv")
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["w_exact"] == cells["w_perturbed_eq14"] == "-0.3076923076923076"
    assert cells["regime"] == "DarkEnergyMix" and cells["note"] == ""


def _eos_row(m, X):
    """One eos-scan row from scalar library calls."""
    w_e, w_pole = eos_w(m, X)
    cs2_e, cs2_pole = sound_speed(m, X)
    notes = []
    if w_pole:
        notes.append("w_exact guard: 2*X*F_X - F ~ 0")
    if cs2_pole:
        notes.append("cs2_exact guard: pole at X = X0/3")
    eps = X - m.X0
    if eps > 0.0:
        pm = KineticModel(F2=m.F2, X0=m.X0, eps0=eps, F0=m.F0)
        w_p, w_p_pole = w_perturbed_exact(pm)
        if w_p_pole:
            notes.append("w_perturbed_eq14 guard: denominator ~ 0")
        cs2_p, _ = sound_speed_perturbed(pm)
    elif eps == 0.0:
        w_p, _ = w_perturbed_exact(
            KineticModel(F2=m.F2, X0=m.X0, eps0=0.0, F0=m.F0))
        cs2_p = math.nan
        notes.append("X = X0: perturbed cs2 undefined at eps0 = 0")
    else:
        w_p = cs2_p = math.nan
        notes.append("X < X0: perturbed closed forms need X >= X0")
    cells = [_fmt(v) for v in (X, eval_F(m, X), eval_F_X(m, X), w_e, cs2_e,
                               w_p, cs2_p)]
    return ",".join(cells + [classify_regimes(w_e, cs2_e).item(),
                             "; ".join(notes)])


def _regimes_row(b, L, X0, eps0, F2, F0):
    """One regimes row (as cells) from scalar library calls."""
    m = KineticModel(F2=F2, X0=X0, eps0=eps0, F0=F0)
    w_e, _ = w_perturbed_exact(m)
    w_p, _ = w_thinwall_approx(m)
    cs2_e, _ = sound_speed_perturbed(m)
    cs2_p, _ = cs2_thinwall_approx(m)
    return [b, L, X0, eps0, F2, w_e, w_p, cs2_e, cs2_p,
            classify_regimes(w_p, cs2_p).item()]


def test_eos_scan_spot_check_against_library(tmp_path):
    # X0 = 3 puts the cs2 pole X0/3 = 1 and X = X0 on the grid, with rows
    # below X0; F0 = 63 makes both w denominators vanish at X = 6.
    doc = dict(BASE_DOC)
    doc["model"] = {"F2": 1.0, "X0": 3.0, "F0": 63.0}
    doc["scan"] = {"X": {"min": 0.0, "max": 8.0, "count": 17}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["eos-scan", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    rows = _rows(out / "run_eos_scan.csv")[1:]
    m = KineticModel(F2=1.0, X0=3.0, F0=63.0)
    assert rows == [_eos_row(m, X) for X in np.linspace(0.0, 8.0, 17)]
    assert "pole at X = X0/3" in rows[2]
    assert "w_exact guard" in rows[12] and "w_perturbed_eq14 guard" in rows[12]
    summary = _rows(out / "run_eos_scan_summary.txt")
    assert "rows with notes: 8" in summary


# The notes that may explain a NAN cell of each closed-form column.
_NAN_NOTES = {"w_exact": ("w_exact",), "cs2_exact": ("cs2_exact",),
              "w_perturbed_eq14": ("w_perturbed_eq14", "perturbed closed forms"),
              "cs2_perturbed_eq11": ("perturbed cs2", "perturbed closed forms")}


@pytest.mark.parametrize("model,X", [
    # w's term 2*X*F_X overflows at X = 1e154; the first row is X = X0
    ({"F2": 1.0, "X0": 1.0, "F0": -1.0}, _range(1.0, 1e154, 2)),
    # F itself overflows (the eos_scan.json model)
    ({"F2": 1e3, "X0": 1e3}, _range(1.7e159, 1e160, 4)),
    # F2 = 0: cs2 is 0/0 on every row; rows below, at and above X0
    ({"F2": 0.0, "X0": 1.0}, _range(0.5, 2.0, 4)),
    # the cs2 pole X = X0/3 = 1 among rows below X0
    ({"F2": 1.0, "X0": 3.0}, _range(0.5, 1.5, 3)),
], ids=["X-1e154", "X-1e160", "F2-zero", "cs2-pole"])
def test_eos_scan_every_nan_cell_has_a_true_note(tmp_path, model, X):
    doc = {**BASE_DOC, "model": model, "scan": {"X": X}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["eos-scan", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    m = KineticModel(**model)
    header, *rows = _rows(out / "run_eos_scan.csv")
    names = header.split(",")
    for row in rows:
        cells = dict(zip(names, row.split(",")))
        note = cells["note"]
        for name, texts in _NAN_NOTES.items():
            if cells[name] == "NAN":
                assert any(t in note for t in texts), (name, row)
        # A guard note ("~ 0", or a pole) only where its terms are finite.
        x, F, F_X = (float(cells[k]) for k in ("X", "F", "F_X"))
        e = x - m.X0
        with np.errstate(all="ignore"):
            terms = {"w_exact guard": (2.0 * x * F_X, F),
                     "cs2_exact guard": (F_X, 4.0 * m.F2 * x),
                     "w_perturbed_eq14 guard": (
                         m.F0 + m.F2 * e * e, 4.0 * (m.X0 + e) * m.F2 * e)}
        for guard, pair in terms.items():
            if guard in note:
                assert np.isfinite(pair).all(), (guard, row)
        # the pole at X0/3 needs F_X != 0; at F_X = 0 the quotient is 0/0
        if "pole at X = X0/3" in note:
            assert F_X != 0.0, row


def test_regimes_rows_against_library(tmp_path):
    # Both blocks start at eps0 = 0; with F0 = 7 the exact w has its pole
    # at X0 = eps0 = F2 = 1 and the thin-wall w at X0 = eps0 = 1, F2 = 4.
    doc = dict(BASE_DOC)
    doc["model"] = {"F2": 1.0, "X0": 1.0, "F0": 7.0}
    doc["scan"] = {"b": {"min": 1.0, "max": 2.0, "count": 2},
                   "L": {"min": 1.5, "max": 3.0, "count": 2},
                   "X0": {"min": 1.0, "max": 2.0, "count": 2},
                   "eps0": {"min": 0.0, "max": 1.0, "count": 3},
                   "F2": {"min": 1.0, "max": 4.0, "count": 2}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["regimes", "--config", cfg, "--out", str(out), "--quiet"]) == 0

    blocks = [(b, L, float(WallProfile(b=b, L=L).kinetic_magnitude(L / 2.0)))
              for b in (1.0, 2.0) for L in (1.5, 3.0)]
    blocks += [(math.nan, math.nan, X0) for X0 in (1.0, 2.0)]
    expect = [_regimes_row(b, L, X0, eps0, F2, 7.0) for b, L, X0 in blocks
              for eps0 in (0.0, 0.5, 1.0) for F2 in (1.0, 4.0)]
    rows = _rows(out / "run_regimes.csv")[1:]
    assert rows == [",".join(_fmt(c) if isinstance(c, float) else c
                             for c in r) for r in expect]
    assert sum(r.endswith(",-1.0,-1.0,NAN,NAN,Unclassified") for r in rows) == 12
    # w_exact at F2 = 1 and w_paper at F2 = 4 sit on their poles
    poles = [r.split(",")[5:7] for r in rows if r.startswith("NAN,NAN,1.0,1.0,")]
    assert poles[0][0] == "NAN" and poles[1][1] == "NAN"

    # The report names the first row with the largest gap, as a strict >
    # scan does: cs2 gaps repeat across F2, so ties are the rule there.
    report = _rows(out / "run_discrepancy.txt")
    for name, e, p in (("w", 5, 6), ("cs2", 7, 8)):
        best = best_row = None
        for r in expect:
            if math.isnan(r[e]) or math.isnan(r[p]):
                continue
            if best is None or abs(r[e] - r[p]) > best:
                best, best_row = abs(r[e] - r[p]), r
        i = report.index(f"max |{name}_exact - {name}_paper| = {_fmt(best)}")
        assert report[i + 1] == "  at " + " ".join(
            f"{k}={_fmt(v)}" for k, v in zip(("b", "L", "X0", "eps0", "F2"),
                                             best_row))


def _bad(code, command, block_updates, case_id, fragment=""):
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(block_updates)
    return pytest.param(code, command, doc, fragment, id=case_id)


_EVOLVE = {"t_end": 1.0, "X": 1050.0}
with open(os.path.join(CONFIG_DIR, "evolve_full_quadratic.json"), "r",
          encoding="utf-8") as _fh:
    _FULL_QUADRATIC = json.load(_fh)
_SUBNORMAL_F2 = {**_FULL_QUADRATIC["model"], "F2": 5e-324}
_REGIMES_SCAN = {"eps0": {"min": 0.1, "max": 0.1, "count": 1},
                 "F2": {"min": 10.0, "max": 10.0, "count": 1}}


# Runs that must fail before anything is written: (exit code, command,
# config, a fragment of the message).  Exit 2 is a config the command
# cannot run, exit 3 a numeric failure.
BAD_CONFIGS = [
    # the thin-wall w divides by F2, so a scan through F2 = 0 is an error
    _bad(2, "regimes", {"scan": {**_REGIMES_SCAN, "X0": _range(1.0, 1.0, 1),
                                 "F2": _range(0.0, 10.0, 2)}},
         "regimes-F2-zero"),
    _bad(2, "regimes", {"scan": {**_REGIMES_SCAN, "X0": _range(1.0, 1.0, 1),
                                 "F2": _range(-5.0, 10.0, 2)}},
         "regimes-F2-negative"),
    _bad(2, "regimes", {"scan": _REGIMES_SCAN}, "regimes-no-b-or-X0",
         "regimes needs scan.b or scan.X0"),
    _bad(2, "evolve", {"evolve": {**_EVOLVE, "rel_tol": 0.0}},
         "evolve-rel_tol-0"),
    _bad(2, "evolve", {"evolve": {**_EVOLVE, "n_output": 1}},
         "evolve-n_output-1"),
    _bad(2, "evolve", {"evolve": {**_EVOLVE, "t_start": 2.0}},
         "evolve-t_end-before-t_start"),
    _bad(2, "evolve", {"evolve": {**_EVOLVE, "a_start": 0.0}},
         "evolve-a_start-0"),
    _bad(2, "evolve", {"evolve": {**_EVOLVE, "X": -1.0}}, "evolve-X-negative"),
    _bad(2, "evolve", {"background": {"kind": "powerlaw", "p": 0.5},
                       "evolve": {**_EVOLVE, "t_start": 0.0}},
         "evolve-powerlaw-t_start-0"),
    _bad(2, "wall", {"wall": {"b": 1.0, "L": 1.0},
                     "scan": {"b": _range(-1.0, 1.0, 3)}},
         "wall-b-nonpositive"),
    _bad(2, "regimes", {"wall": {"b": 1.0, "L": 1.0},
                        "scan": {**_REGIMES_SCAN, "b": _range(-1.0, 1.0, 3)}},
         "regimes-b-nonpositive"),
    _bad(2, "regimes", {"scan": {**_REGIMES_SCAN, "b": _range(1.0, 2.0, 2),
                                 "L": _range(-1.0, 1.0, 3)}},
         "regimes-L-nonpositive"),
    _bad(2, "eos-scan", {"scan": {"X": _range(900.0, 1100.0, 3),
                                  "Xx": _range(1.0, 2.0, 2)}},
         "eos-scan-unknown-scan-name"),
    _bad(2, "eos-scan", {"scan": {"X": _range(math.nan, 1100.0, 3)}},
         "eos-scan-NaN-bound"),
    # np.linspace overflows stepping over max - min = inf
    _bad(2, "eos-scan", {"scan": {"X": _range(-1e308, 1e308, 3)}},
         "eos-scan-X-width-overflows"),
    _bad(2, "eos-scan", {"scan": {"X": _range(900.0, 1100.0, 3)},
                         "output": {"stem": "../x"}}, "eos-scan-stem-escapes"),
    # a command whose block or ranges are missing
    _bad(2, "eos-scan", {}, "eos-scan-no-scan-X"),
    _bad(2, "wall", {}, "wall-no-wall-block"),
    _bad(2, "evolve", {}, "evolve-no-evolve-block"),
    _bad(2, "regimes", {"scan": {"eps0": _range(0.01, 0.01, 1)}},
         "regimes-no-F2-no-b-no-X0"),
    _bad(2, "regimes", {"scan": {**_REGIMES_SCAN, "b": _range(5.0, 5.0, 1)}},
         "regimes-b-without-L"),
    # a wall whose kinetic scale X_estimate = X_mag(L/2) is 0, or whose
    # spike bound (pi b)^2 overflows: at b L = 1e-20 the two sech^2 terms
    # cancel to 0, at b = 1e-300 X_mag underflows, at b = 1e300 X_estimate
    # overflows, and at b = 1e154 X_estimate is finite but (pi b)^2 is not
    _bad(2, "regimes", {"scan": {**_REGIMES_SCAN, "b": _range(1.0, 1.0, 1),
                                 "L": _range(1e-20, 1e-20, 1)}},
         "regimes-X_estimate-0"),
    _bad(2, "regimes", {"scan": {**_REGIMES_SCAN, "b": _range(1e300, 1e300, 1),
                                 "L": _range(9.0, 9.0, 1)}},
         "regimes-X_estimate-inf"),
    _bad(2, "regimes", {"scan": {**_REGIMES_SCAN, "b": _range(1e154, 1e154, 1),
                                 "L": _range(1e-154, 1e-154, 1)}},
         "regimes-b-1e154-spike-overflows"),
    # an unusable wall after a usable one in the b x L grid
    _bad(2, "regimes", {"scan": {**_REGIMES_SCAN, "b": _range(1.0, 1e300, 2),
                                 "L": _range(9.0, 10.0, 2)}},
         "regimes-unusable-wall-mid-grid"),
    _bad(2, "wall", {"wall": {"b": 1e200, "L": 1e-196}}, "wall-X_mag-overflows"),
    _bad(2, "wall", {"wall": {"b": 1e-300, "L": 1e5}}, "wall-X_mag-underflows"),
    _bad(2, "wall", {"wall": {"b": 1e154, "L": 1e-154}},
         "wall-b-1e154-spike-overflows"),
    # an unusable wall block fails at parse time, under every command
    _bad(2, "eos-scan", {"wall": {"b": 1e308, "L": 9.0},
                         "scan": {"X": _range(900.0, 1100.0, 3)}},
         "eos-scan-unusable-wall"),
    # three b values that all print as b10 would write one profile file
    _bad(2, "wall", {"wall": {"b": 10.0, "L": 3.0},
                     "scan": {"b": _range(10.0, 10.00001, 3)}},
         "wall-profile-names-collide"),
    # a(t_end) past the largest float: 1e4 e-folds of de Sitter, and a
    # power law whose (3/1)^p overflows at p = 1e6
    _bad(2, "evolve", {"evolve": {**_EVOLVE, "t_end": 1e4}},
         "evolve-desitter-a-overflows"),
    _bad(2, "evolve", {"background": {"kind": "powerlaw", "p": 1e6},
                       "evolve": {**_EVOLVE, "t_start": 1.0, "t_end": 3.0}},
         "evolve-powerlaw-a-overflows"),
    # a window wider than the largest float: its times overflow
    _bad(2, "evolve", {"background": {"kind": "desitter", "H": 5e-324},
                       "evolve": {**_EVOLVE, "t_start": -1e308,
                                  "t_end": 1e308, "n_output": 2}},
         "evolve-window-wider-than-the-largest-float",
         "strictly increasing float times"),
    # fewer distinct float times in the window than n_output
    _bad(2, "evolve", {"evolve": {**_EVOLVE, "t_start": 1.0,
                                  "t_end": 1.000000000000001}},
         "evolve-window-narrower-than-n_output"),
    # tables over the row cap MAX_ROWS, given or derived
    _bad(2, "eos-scan", {"scan": {"X": _range(1.0, 2.0, MAX_ROWS + 1)}},
         "eos-scan-count-over-cap"),
    _bad(2, "evolve", {"evolve": {**_EVOLVE, "n_output": MAX_ROWS + 1}},
         "evolve-n_output-over-cap"),
    _bad(2, "regimes", {"scan": {"X0": _range(1.0, 2.0, 1001),
                                 "eps0": _range(0.0, 1.0, 1000),
                                 "F2": _range(1.0, 1.0, 1)}},
         "regimes-grid-over-cap"),
    # refused by the running profile total by its 1249th wall
    _bad(2, "wall", {"wall": {"b": 1.0, "L": 1.0},
                     "scan": {"b": _range(1.0, 2.0, 1001),
                              "L": _range(1.0, 2.0, 1000)}},
         "wall-1001x1000-scan-over-profile-total"),
    # 28 profiles of about 36.5k rows each, 1 023 148 rows in all
    _bad(2, "wall", {"wall": {"b": 100.0, "L": 9.0},
                     "scan": {"b": _range(100.0, 100.0, 1),
                              "L": _range(9.0, 9.27, 28)}},
         "wall-profiles-total-over-cap"),
    # profile grids too fine: the spacing underflows to 0 at b = 1e308
    _bad(2, "wall", {"wall": {"b": 1e308, "L": 9.0}}, "wall-b-1e308"),
    _bad(2, "wall", {"wall": {"b": 1e10, "L": 9.0}}, "wall-profile-over-cap"),
    # X = X0/3 makes the phidd coefficient singular
    _bad(3, "evolve", {"model": {"F2": 10.0, "X0": 3.0},
                       "evolve": {"t_end": 1.0, "X": 1.0}},
         "evolve-singular-coefficient", "vanished"),
    # a(1e308) = 1e154 is finite, but phi grows like phidot t past the
    # largest float
    _bad(3, "evolve", {"background": {"kind": "powerlaw", "p": 0.5},
                       "evolve": {**_EVOLVE, "t_start": 1.0, "t_end": 1e308,
                                  "n_output": 2}},
         "evolve-field-leaves-float-range", "float range"),
    # Q = X F_X^2 a^6 is not a float: by F_X, by F2, by a^6 from a_start
    _bad(3, "evolve", {"model": {"F2": 1e3, "X0": 1e-300},
                       "evolve": {"t_end": 3.0, "X": 1e300}},
         "evolve-Q-overflows-by-F_X", "Q left the float range by t=0.0"),
    _bad(3, "evolve", {"model": {"F2": 4.2678e153, "X0": 1e3},
                       "background": {"kind": "powerlaw", "p": 0.5},
                       "evolve": {**_EVOLVE, "t_start": 1.0, "t_end": 3.0}},
         "evolve-Q-overflows-by-F2", "Q left the float range by t=1.0"),
    _bad(3, "evolve", {"evolve": {**_EVOLVE, "a_start": 1e300}},
         "evolve-Q-overflows-by-a", "Q left the float range by t=0.0"),
    # both terms of the phidd coefficient overflow: not a vanishing one
    _bad(3, "evolve", {"model": {"F2": 1e10, "X0": 1e300},
                       "evolve": {"t_end": 1.0, "X": 1.05e300}},
         "evolve-coefficient-overflows", "overflow"),
    # configs/evolve_full_quadratic.json with F2 = 5e-324: the phidd
    # coefficient is subnormal, so phidd has lost its precision (with
    # phi = -1e308 as well, DOP853 would creep on for seconds)
    _bad(3, "evolve", {**_FULL_QUADRATIC, "model": _SUBNORMAL_F2},
         "evolve-full-subnormal-coefficient", "below the normal float range"),
    _bad(3, "evolve", {**_FULL_QUADRATIC, "model": _SUBNORMAL_F2,
                       "evolve": {**_FULL_QUADRATIC["evolve"],
                                  "phi": -1e308}},
         "evolve-full-subnormal-coefficient-far-phi",
         "below the normal float range"),
    # with F2 = 1e-150 the coefficient is normal, but the first step's
    # phidd takes phidot past the largest float
    _bad(3, "evolve", {**_FULL_QUADRATIC, "model": {
        **_FULL_QUADRATIC["model"], "F2": 1e-150}},
         "evolve-full-phidot-leaves-float-range",
         "phidot left the float range by t=1.0000000000000002"),
]


@pytest.mark.parametrize("code,command,doc,fragment", BAD_CONFIGS)
def test_bad_config_exits_two(tmp_path, capsys, code, command, doc, fragment):
    """Each row exits with its code, prints one line that holds its
    fragment, and writes nothing."""
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o" / "sub"
    assert _run([command, "--config", cfg, "--out", str(out),
                 "--quiet"]) == code
    err = capsys.readouterr().err
    prefix = {2: "config error: ", 3: "numeric failure: "}[code]
    assert err.startswith(prefix) and err.count("\n") == 1
    assert fragment in err
    # nothing was written, inside --out or next to it
    assert not out.exists()
    assert os.listdir(tmp_path) == ["cfg.json"]


# Config files the reader must refuse, as raw bytes, each with a fragment
# of its message.  _EOS_TEXT alone is a valid eos-scan run, so the one
# fault put into it is what fails each row.
_EOS_TEXT = json.dumps({**BASE_DOC, "scan": {"X": _range(1e3, 2e3, 3)}})
RAW_CONFIGS = [
    pytest.param(b"\xff" + _EOS_TEXT.encode(), "cannot read config",
                 id="not-utf-8"),
    pytest.param(("[" * 1100 + "]" * 1100).encode(), "not valid JSON",
                 id="nested-1100-deep"),
    pytest.param(_EOS_TEXT.replace("1000.0", "1" * 4301, 1).encode(),
                 "not valid JSON", id="integer-4301-digits"),
    pytest.param(('{"scan": {"X": {"min": 1.0, "max": 2.0, "count": 2}}, '
                  + _EOS_TEXT[1:]).encode(), "key 'scan' appears twice",
                 id="repeated-top-level-key"),
    pytest.param(_EOS_TEXT.replace('"F2": ', '"F2": 1.0, "F2": ', 1).encode(),
                 "key 'F2' appears twice", id="repeated-model-key"),
]


@pytest.mark.parametrize("raw,fragment", RAW_CONFIGS)
def test_unreadable_config_exits_two(tmp_path, capsys, raw, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(raw)
    out = tmp_path / "o"
    assert _run(["eos-scan", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert fragment in err
    assert os.listdir(tmp_path) == ["cfg.json"]


def _run_fuzz_case(command, raw):
    """main() on the config bytes `raw` in a fresh directory: a documented
    exit code, no file when the run failed, else files only under --out."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        cfg = os.path.join(root, "cfg.json")
        with open(cfg, "wb") as fh:
            fh.write(raw)
        out = os.path.join(root, "o", "sub")
        os.chdir(root)  # a stray relative write would land in root
        try:
            code = main([command, "--config", cfg, "--out", out, "--quiet"])
        finally:
            os.chdir(cwd)
        assert code in (0, 2, 3, 4)
        written = sorted(os.listdir(root))
        if code in (2, 3):
            assert written == ["cfg.json"]
        else:
            assert written in (["cfg.json"], ["cfg.json", "o"])
            if code == 0:
                assert os.listdir(os.path.join(root, "o")) == ["sub"]
                assert all(os.path.isfile(os.path.join(out, name))
                           for name in os.listdir(out))


# Fuzz gate on main(): shipped configs, presets and the BAD_CONFIGS rows,
# each run by a command that reads it, with wall, scan, evolve window and
# start, background and model values moved to the float extremes, must end
# in a documented exit code and write nothing but their own files under
# --out.
_FUZZ_COMMANDS = ("eos-scan", "wall", "regimes", "evolve")


def _fuzz_seeds():
    """(command, config) pairs."""
    readers = {"eos_scan": ["eos-scan"], "wall_trio": ["wall"],
               "regimes_sweep": ["regimes"], "figure1": ["wall"],
               "figure2": ["wall"], "evolve_desitter": ["evolve"],
               "evolve_full_quadratic": ["evolve"],
               "paper-point": list(_FUZZ_COMMANDS)}
    seeds = []
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        name = os.path.basename(path)[:-len(".json")]
        seeds.extend((cmd, doc) for cmd in readers.get(name, _FUZZ_COMMANDS))
    for name in PRESET_NAMES:
        doc = json.loads(serialize_config(preset_config(name)))
        seeds.extend((cmd, doc) for cmd in readers[name])
    # Left out: with its b count cut to 1 or 2,
    # wall-1001x1000-scan-over-profile-total is a valid run of 1000-2000
    # profile files, 0.8-1.6e6 rows that take seconds, and
    # wall-profiles-total-over-cap is one with a lower L min or a lower L count.
    seeds.extend((p.values[1], p.values[2]) for p in BAD_CONFIGS
                 if p.values[1] in _FUZZ_COMMANDS
                 and p.id not in ("wall-1001x1000-scan-over-profile-total",
                                  "wall-profiles-total-over-cap"))
    return seeds


# Moderate values that keep a run valid and positive float extremes; scan
# bounds and the evolve, background and model values also take values
# outside their domains.
_POSITIVE = (1.0, 9.0, 0.5, 3.0, 5e-324, 1e-154, 4.2678e153, 1e154, 1e308)
_ANY_SIGN = st.sampled_from(_POSITIVE + (0.0, -1.0, -1e308))
_SCAN_NAMES = st.sampled_from(("X", "eps0", "b", "L", "X0", "F2"))
_MUTATION = st.one_of(
    st.tuples(st.just("wall"), st.sampled_from(("b", "L")),
              st.sampled_from(_POSITIVE)),
    st.tuples(_SCAN_NAMES, st.sampled_from(("min", "max")), _ANY_SIGN),
    st.tuples(_SCAN_NAMES, st.just("count"),
              st.sampled_from((1, 2, 3, MAX_ROWS + 1))),
    st.tuples(st.just("evolve"),
              st.sampled_from(("t_end", "t_start", "X", "a_start", "phi")),
              _ANY_SIGN),
    st.tuples(st.just("background"), st.sampled_from(("H", "p")), _ANY_SIGN),
    st.tuples(st.just("model"), st.sampled_from(("F2", "X0")), _ANY_SIGN))
# The block a mutation adds where the config has none
_NEW_BLOCK = {"wall": {"b": 1.0, "L": 1.0}, "evolve": _EVOLVE}


def _mutate(doc, mutations):
    """doc with each (block, key, value) set; a missing block is added, and
    H (p) on a power-law (de Sitter) background replaces it with a de
    Sitter (power-law) one."""
    doc = json.loads(json.dumps(doc))
    for block, key, value in mutations:
        if block in ("wall", "evolve"):
            entry = doc.setdefault(block, dict(_NEW_BLOCK[block]))
        elif block == "model":
            entry = doc["model"]
        elif block == "background":
            entry = doc["background"]
            if key not in entry:
                entry = doc["background"] = {
                    "kind": {"H": "desitter", "p": "powerlaw"}[key]}
        else:
            entry = doc.setdefault("scan", {}).setdefault(
                block, {"min": 1.0, "max": 1.0, "count": 1})
        entry[key] = value
    return doc


@settings(max_examples=600, deadline=timedelta(seconds=5))
@given(st.sampled_from(_fuzz_seeds()), st.lists(_MUTATION, max_size=3))
# Run on every pass: with a subnormal phidd coefficient DOP853 shrinks its
# steps for seconds, so this draw needs the coefficient refused in time
@example(("evolve", _FULL_QUADRATIC),
         [("model", "F2", 5e-324), ("evolve", "phi", -1e308)])
def test_main_fuzz_exits_documented_and_writes_only_out(seed, mutations):
    command, doc = seed
    _run_fuzz_case(command, json.dumps(_mutate(doc, mutations)).encode())


# Fuzz gate on the document text: a valid config that every command runs,
# truncated, with a byte put in or taken out, with a key written twice, or
# nested in lists.  Its counts and values are small, so that a digit put in
# gives a small table and an evolve window short of the a^6 overflow.
_TEXT_FUZZ_DOC = {
    **BASE_DOC,
    "wall": {"b": 1.0, "L": 1.0},
    "scan": {"X": _range(1e3, 2e3, 3), "b": _range(1.0, 3.0, 2),
             "L": _range(1.0, 1.0, 1), "eps0": _range(0.0, 0.01, 2),
             "F2": _range(1.0, 1e3, 2)},
    "evolve": {"t_end": 1.0, "X": 1050.0, "n_output": 5},
}
_OFFSET = st.integers(0, 10 ** 6)
_TEXT_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), _OFFSET),
    st.tuples(st.just("insert"), _OFFSET,
              st.sampled_from(b'09-.e,:"{}[] \xff')),
    st.tuples(st.just("delete"), _OFFSET),
    st.tuples(st.just("repeat"), st.sampled_from((None, *_TEXT_FUZZ_DOC)),
              _OFFSET),
    st.tuples(st.just("nest"), st.sampled_from((1, 100, 1100, 5000))))


def _mutate_text(doc, mutation):
    """The bytes of `doc` as JSON, changed by one mutation."""
    op, arg, *rest = mutation
    raw = json.dumps(doc).encode()
    if op == "nest":
        return b"[" * arg + raw + b"]" * arg
    if op == "repeat":  # the key of block `arg` (the root for None), twice
        obj = doc if arg is None else doc[arg]
        key = list(obj)[rest[0] % len(obj)]
        text = json.dumps(obj)
        twice = f"{{{json.dumps(key)}: {json.dumps(obj[key])}, {text[1:]}"
        return json.dumps(doc).replace(text, twice, 1).encode()
    i = arg % (len(raw) + 1)
    if op == "truncate":
        return raw[:i]
    if op == "insert":
        return raw[:i] + bytes(rest) + raw[i:]
    return raw[:i] + raw[i + 1:]  # delete


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(st.sampled_from(tuple(cli._COMMANDS)), _TEXT_MUTATION)
def test_main_text_fuzz_exits_documented_and_writes_only_out(command,
                                                            mutation):
    _run_fuzz_case(command, _mutate_text(_TEXT_FUZZ_DOC, mutation))


# ---------------------------------------------------------------------------
# wall
# ---------------------------------------------------------------------------

def test_wall_total_rows_cap_boundary():
    """The profiles of one run may hold MAX_ROWS rows in all, checked
    before the first file is yielded."""
    doc = dict(BASE_DOC, wall={"b": 100.0, "L": 9.0},
               scan={"b": _range(100.0, 100.0, 1), "L": _range(9.0, 9.27, 27)})
    name, _, columns = next(run_wall(parse_config(json.dumps(doc))))
    assert name == "run_profile_b100_L9.csv" and len(columns[0]) == 36001
    doc["scan"]["L"]["count"] = 28
    with pytest.raises(ConfigError, match="1023148 rows, over the row cap"):
        next(run_wall(parse_config(json.dumps(doc))))


def test_wall_scan_stops_at_the_first_wall_over_the_cap(monkeypatch):
    """Every profile holds at least 801 rows, so the running profile total
    refuses a 1000 x 1000 scan by its 1249th wall, before the others are
    built."""
    calls = []
    grid = cli.default_grid

    def counted(wall):
        calls.append(wall)
        return grid(wall)

    monkeypatch.setattr(cli, "default_grid", counted)
    doc = dict(BASE_DOC, wall={"b": 1.0, "L": 1.0},
               scan={"b": _range(1.0, 2.0, 1000), "L": _range(1.0, 2.0, 1000)})
    with pytest.raises(ConfigError, match="the profile files together"):
        next(run_wall(parse_config(json.dumps(doc))))
    assert len(calls) <= 1249


def test_wall_figure2_trio(tmp_path):
    out = tmp_path / "o"
    assert _run(["wall", "--preset", "figure2", "--out", str(out),
                 "--quiet"]) == 0
    for L in (3, 6, 9):
        rows = _rows(out / f"figure2_profile_b10_L{L}.csv")
        assert rows[0] == PROFILE_HEADER
        assert len(rows) == 400 * L + 2  # grid [-2L, 2L] at spacing 1/100

    rows = _rows(out / "figure2_sharpness.csv")
    assert rows[0] == SHARPNESS_HEADER
    cells = [r.split(",") for r in rows[1:]]
    assert [c[3] for c in cells] == ["1.5", "3.0", "4.5"]
    for c in cells:
        assert float(c[2]) == pytest.approx(50.0 * math.pi ** 2, rel=1e-9)
        assert float(c[4]) == pytest.approx(
            2.0 * math.acosh(2.0 ** 0.25) / 10.0, rel=1e-2)

    summary = _rows(out / "figure2_wall_summary.txt")
    assert summary[0] == "wall summary"
    assert "combinations: 3" in summary
    assert "sharpness table: figure2_sharpness.csv" in summary


def test_wall_figure1_peak_scaling(tmp_path):
    out = tmp_path / "o"
    assert _run(["wall", "--preset", "figure1", "--out", str(out),
                 "--quiet"]) == 0
    cells = [r.split(",") for r in _rows(out / "figure1_sharpness.csv")[1:]]
    assert [c[0] for c in cells] == ["3.0", "10.0"]
    peak3, peak10 = float(cells[0][2]), float(cells[1][2])
    assert peak3 == pytest.approx(44.41321980490211, rel=1e-9)
    assert peak10 / peak3 == pytest.approx((10.0 / 3.0) ** 2, rel=1e-9)


def test_wall_doubling_ratio(tmp_path):
    doc = dict(BASE_DOC)
    doc["wall"] = {"b": 5.0, "L": 9.0}
    doc["scan"] = {"b": {"min": 5.0, "max": 10.0, "count": 2}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["wall", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    cells = [r.split(",") for r in _rows(out / "run_sharpness.csv")[1:]]
    peak5, peak10 = float(cells[0][2]), float(cells[1][2])
    w5, w10 = float(cells[0][4]), float(cells[1][4])
    i5, i10 = float(cells[0][5]), float(cells[1][5])
    assert peak10 / peak5 == pytest.approx(4.0, rel=1e-2)
    assert w5 / w10 == pytest.approx(2.0, rel=2e-2)
    assert i10 / i5 == pytest.approx(2.0, rel=1e-2)


def test_wall_overlapping_walls_half_width(tmp_path):
    """At b L = 0.3 the x > 0 spike sits on the grid edge x = 2L, so its
    half width runs from the half-maximum crossing to that edge."""
    cfg = _write(tmp_path, dict(BASE_DOC, wall={"b": 0.3, "L": 1.0}))
    out = tmp_path / "o"
    assert _run(["wall", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = _rows(out / "run_sharpness.csv")
    assert rows[0] == SHARPNESS_HEADER and len(rows) == 2
    b, L, peak, position, half_width, _ = map(float, rows[1].split(","))
    assert (b, L, position) == (0.3, 1.0, 2.0)
    p = WallProfile(b=0.3, L=1.0)
    x_lo = brentq(lambda x: p.kinetic_magnitude(x) - 0.5 * peak, 0.0, 2.0)
    assert half_width == pytest.approx(2.0 - x_lo, rel=1e-2)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_paper_point(tmp_path):
    out = tmp_path / "o"
    assert _run(["evolve", "--preset", "paper-point", "--out", str(out),
                 "--quiet"]) == 0
    rows = _rows(out / "paper_point_trajectory.csv")
    assert rows[0] == TRAJECTORY_HEADER
    assert len(rows) == 202
    first = rows[1].split(",")
    assert first[0] == "0.0" and first[1] == "1.0"
    # X(0) is the configured X, not 0.5 * sqrt(2 * 1050)^2
    assert first[4] == "1050.0"

    summary = _rows(out / "paper_point_evolve_summary.txt")
    assert "mode: kinetic_only" in summary
    assert "slope check: PASS (expected -3.0 +- 0.01)" in summary
    assert "conservation: PASS" in summary
    assert any(s.startswith("fitted eps1 = ") for s in summary)


def test_evolve_equilibrium_cells_exact(tmp_path):
    doc = dict(BASE_DOC)
    doc["model"] = {"F2": 1000.0, "X0": 800.0}
    doc["evolve"] = {"t_end": 2.0, "phidot": 40.0}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = _rows(out / "run_trajectory.csv")
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[4] == "800.0"
        assert cells[5] == "-1.0"
        assert cells[6] == "0.0"
        assert cells[7] == "0.0"
    summary = _rows(out / "run_evolve_summary.txt")
    assert "max absolute Q drift = 0.0 (Q(0) = 0)" in summary
    assert "conservation: PASS" in summary
    assert any(s.startswith("scaling fit not available") for s in summary)
    assert any(s.startswith("slope not available") for s in summary)


def test_evolve_short_tail_has_no_fit(tmp_path):
    doc = dict(BASE_DOC)
    doc["evolve"] = {"t_end": 3.0, "X": 1050.0, "n_output": 12}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = _rows(out / "run_evolve_summary.txt")
    assert ("scaling fit not available: need at least 10 rows in the fit "
            "tail, got 6 (trajectory has 12 rows)") in summary
    assert any(s.startswith("slope of log|X - X0| vs log(a) = ")
               for s in summary)


def test_evolve_reports_drift_failure(tmp_path):
    # Under a constant V both modes solve the first integral, and by t = 10
    # u = X - X0 = 4.8e-12 lies below the printed-X floor
    # ulp(X0) / (200 * rel_tol): the written X cannot hold Q to the bound.
    out = tmp_path / "o"
    for kinetic_only in (True, False):
        doc = {**BASE_DOC, "evolve": {"t_end": 10.0, "X": 1050.0,
                                      "kinetic_only": kinetic_only}}
        cfg = _write(tmp_path, doc)
        assert _run(["evolve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        summary = _rows(out / "run_evolve_summary.txt")
        assert "max relative Q drift = 0.008121309139781596" in summary
        assert "drift bound (100 * rel_tol) = 1e-06" in summary
        assert "conservation: FAILED" in summary


# Known open defect: a^6 in Q overflows at a = e^130, so the run exits 3
# (Q leaves the float range at t = 118.3).  Forming Q in log variables is
# half of the mend: from t = 11.7 on the written X is exactly X0, so Q must
# also be formed from the solver's u, which waits for a u column in the
# trajectory file.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Q = u^2 (X0 + u) a^6 overflows past a ~ 1e51, "
                          "so the run exits 3")
def test_evolve_late_time_overflow(tmp_path):
    doc = dict(BASE_DOC)
    doc["model"] = {"F2": 1e3, "X0": 1e3}
    doc["evolve"] = {"t_end": 130.0, "X": 1050.0}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    for row in _rows(out / "run_trajectory.csv")[1:]:
        assert all(math.isfinite(float(cell)) for cell in row.split(","))
    assert "conservation: PASS" in _rows(out / "run_evolve_summary.txt")


# perfbench checks a constant-V evolve's written X - X0 against the first
# integral at 100 * rel_tol, and counts a miss whose summary says
# "conservation: PASS" as a wrong output.  So while the trajectory file has
# no u column, the verdict must fail wherever the written X misses u.
@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.booleans(),
       st.floats(math.log(1e-3), math.log(0.5)), st.floats(0.5, 2.0),
       st.floats(0.2, 10.0))
@example(True, False, math.log(0.05), 1.0, 10.0)
def test_evolve_never_passes_a_written_x_that_misses_u(kinetic_only, powerlaw,
                                                      log_c, rate, k):
    if powerlaw:  # k Hubble times at the start, as in perfbench's sweep
        background = {"kind": "powerlaw", "p": 0.4 * rate, "t0": 1.0}
        t_start, t_end = 1.0, 1.0 + k / (0.4 * rate)
    else:
        background = {"kind": "desitter", "H": rate}
        t_start, t_end = 0.0, k / rate
    doc = {**BASE_DOC, "background": background,
           "evolve": {"t_start": t_start, "t_end": t_end,
                      "X": 1e3 * (1.0 + math.exp(log_c)),
                      "kinetic_only": kinetic_only}}
    config = parse_config(json.dumps(doc))
    ev = config.evolve
    tr = (evolution.evolve_kinetic_only(config.model, config.background,
                                        ev.init, ev.t_end, ev.control)
          if kinetic_only else
          evolution.evolve_full(config.model, config.potential,
                                config.background, ev.init, ev.t_end,
                                ev.control))
    with tempfile.TemporaryDirectory() as root:
        cfg = os.path.join(root, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert _run(["evolve", "--config", cfg, "--out", root,
                     "--quiet"]) == 0
        rows = _rows(os.path.join(root, "run_trajectory.csv"))[1:]
        summary = _rows(os.path.join(root, "run_evolve_summary.txt"))
    written = np.array([float(row.split(",")[4]) for row in rows])
    bound = 100.0 * ev.control.rel_tol
    if np.any(np.abs((written - 1e3) - tr.u) > bound * np.abs(tr.u)):
        assert "conservation: FAILED" in summary


def test_evolve_varying_potential_writes_its_start_as_row_0(tmp_path):
    # DOP853 integrates phidot, and no phidot gives X = 1100.0 back as
    # phidot^2 / 2, so row 0 is the start state as given
    cfg = os.path.join(CONFIG_DIR, "evolve_full_quadratic.json")
    out = tmp_path / "o"
    assert _run(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    row = _rows(out / "evolve_quad_trajectory.csv")[1].split(",")
    assert row[:5] == ["1.0", "1.0", "5.0", repr(math.sqrt(2200.0)), "1100.0"]
    assert 0.5 * math.sqrt(2200.0) ** 2 != 1100.0


def test_evolve_start_at_the_extremum_keeps_its_X(tmp_path):
    # No float phidot gives X = 1000.0 back as phidot^2/2, so the start at
    # the extremum (the paper's Lambda state) stays there only because the
    # state keeps the X it was given.
    out = tmp_path / "o"
    for kinetic_only in (True, False):
        doc = {**BASE_DOC, "model": {"F2": 1e3, "X0": 1e3},
               "evolve": {"t_end": 3.0, "X": 1000.0,
                          "kinetic_only": kinetic_only}}
        cfg = _write(tmp_path, doc)
        assert _run(["evolve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        rows = [r.split(",") for r in _rows(out / "run_trajectory.csv")[1:]]
        assert len(rows) == 201
        assert all(row[4:] == ["1000.0", "-1.0", "0.0", "0.0"] for row in rows)
        summary = _rows(out / "run_evolve_summary.txt")
        assert "max absolute Q drift = 0.0 (Q(0) = 0)" in summary
        assert "conservation: PASS" in summary


def test_evolve_subnormal_X_start_keeps_its_phidot(tmp_path):
    # X = phidot^2/2 is subnormal and keeps too few bits to give phidot back
    doc = {**BASE_DOC, "evolve": {"t_end": 1.0, "phidot": 3e-162}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert _rows(out / "run_trajectory.csv")[1].split(",")[3] == "3e-162"


def test_evolve_integration_failure_exits_three(tmp_path, capsys,
                                                monkeypatch):
    # A solve that reports failure is a StepFailure, so main exits 3 and
    # writes nothing.
    def failed(*args, **kwargs):
        return SimpleNamespace(success=False, message="step size too small")

    monkeypatch.setattr(evolution, "solve_ivp", failed, raising=False)
    with pytest.raises(StepFailure,
                       match=r"^integration failed: step size too small$"):
        evolution.evolve_full(KineticModel(F2=1e3, X0=1e3),
                              QuadraticPotential(m2=1e-4), DeSitter(H=1.0),
                              initial_state(phi=5.0, X=1050.0), 1.0)
    doc = {**BASE_DOC, "potential": {"kind": "quadratic", "m2": 1e-4},
           "evolve": {**_EVOLVE, "phi": 5.0, "kinetic_only": False}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: integration failed: step size too small\n")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_evolve_drift_over_a_subnormal_start_charge(tmp_path, capsys):
    # Q(0) = 2e-311 is subnormal, so Q/Q(0) overflows: the drift is inf,
    # with no warning (warnings are errors here)
    doc = {**BASE_DOC, "potential": {"kind": "quadratic", "m2": 1e-3},
           "evolve": {"t_end": 3.0, "X": 5e-324, "phi": 709.0,
                      "n_output": 5, "kinetic_only": False}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    summary = _rows(out / "run_evolve_summary.txt")
    assert "max relative Q drift = inf" in summary
    assert "conservation: FAILED" in summary


def test_evolve_constant_potential_with_subnormal_F2_runs(tmp_path):
    # The first integral never divides by the phidd coefficient, so a
    # subnormal F2 under a constant V runs in both modes, to one trajectory
    out = tmp_path / "o"
    for kinetic_only in (True, False):
        doc = {**_FULL_QUADRATIC, "model": _SUBNORMAL_F2,
               "potential": {"kind": "constant", "V0": 1.0},
               "evolve": {**_FULL_QUADRATIC["evolve"],
                          "kinetic_only": kinetic_only},
               "output": {"stem": f"k{kinetic_only:d}"}}
        cfg = _write(tmp_path, doc)
        assert _run(["evolve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    assert filecmp.cmp(out / "k1_trajectory.csv", out / "k0_trajectory.csv",
                       shallow=False)


def test_evolve_powerlaw_with_subnormal_p_runs_straight(tmp_path):
    # a = (t/t_start)^5e-324 is 1.0 in floats, so X keeps its start value
    # and phi = phi(0) + sqrt(2 X) (t - t_start)
    doc = {**BASE_DOC, "background": {"kind": "powerlaw", "p": 5e-324},
           "evolve": {"t_start": 1.0, "t_end": 3.0, "X": 1050.0, "phi": 2.0,
                      "n_output": 5}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = [[float(c) for c in row.split(",")[:5]]
            for row in _rows(out / "run_trajectory.csv")[1:]]
    assert [row[0] for row in rows] == [1.0, 1.5, 2.0, 2.5, 3.0]
    for t, a, phi, phidot, X in rows:
        assert a == 1.0 and X == rows[0][4]
        assert phi == pytest.approx(
            2.0 + math.sqrt(2.0 * 1050.0) * (t - 1.0), rel=1e-15)


def test_evolve_full_quadratic_notes_varying_potential(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "evolve_full_quadratic.json")
    out = tmp_path / "o"
    assert _run(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = _rows(out / "evolve_quad_evolve_summary.txt")
    assert "mode: full" in summary
    assert any("Q is a first integral of the constant-V equation only"
               in s for s in summary)


def test_evolve_kinetic_only_notes_the_unused_potential(tmp_path):
    out = tmp_path / "o"
    for kind, potential in (("quadratic", {"kind": "quadratic", "m2": 1e-4}),
                            ("constant", {"kind": "constant", "V0": 2.0})):
        doc = {**BASE_DOC, "potential": potential, "evolve": _EVOLVE,
               "output": {"directory": "out", "stem": kind}}
        cfg = _write(tmp_path, doc)
        assert _run(["evolve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    quadratic = _rows(out / "quadratic_evolve_summary.txt")
    assert "mode: kinetic_only" in quadratic
    assert ("note: kinetic_only integrates the constant-V equation; "
            "the configured potential was not used") in quadratic
    assert not any(s.startswith("note:")
                   for s in _rows(out / "constant_evolve_summary.txt"))


def test_evolve_full_constant_potential_has_no_note(tmp_path):
    doc = dict(BASE_DOC)
    doc["evolve"] = {**_EVOLVE, "kinetic_only": False}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = _rows(out / "run_evolve_summary.txt")
    assert "mode: full" in summary
    assert not any("first integral" in s for s in summary)


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def test_regimes_paper_point_frozen_row(tmp_path):
    out = tmp_path / "o"
    assert _run(["regimes", "--preset", "paper-point", "--out", str(out),
                 "--quiet"]) == 0
    rows = _rows(out / "paper_point_regimes.csv")
    assert rows[0] == REGIMES_HEADER
    assert len(rows) == 2
    assert rows[1] == ("NAN,NAN,1000.0,0.01,1000.0,"
                       "-2.249926877376485e-05,-1.0416666666666667,"
                       "4.999925001124983e-06,4.99989997700096e-09,"
                       "CosmologicalConstant")

    report = _rows(out / "paper_point_discrepancy.txt")
    assert report[0] == "regime discrepancy report"
    assert "max |w_exact - w_paper| = 1.041644167397893" in report
    assert ("  exact columns classify as DarkMatterLike; "
            "approx columns as CosmologicalConstant") in report
    assert "  w discrepancy exceeds 0.9: yes" in report


def test_regimes_b_indexed_rows(tmp_path):
    doc = dict(BASE_DOC)
    doc["scan"] = {"b": {"min": 3.0, "max": 10.0, "count": 2},
                   "L": {"min": 9.0, "max": 9.0, "count": 1},
                   "eps0": {"min": 0.01, "max": 0.01, "count": 1},
                   "F2": {"min": 1000.0, "max": 1000.0, "count": 1}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["regimes", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = _rows(out / "run_regimes.csv")
    assert len(rows) == 3
    c3 = rows[1].split(",")
    c10 = rows[2].split(",")
    # X_estimate is the kinetic spike height of the wall, (1/2)(pi b)^2
    assert c3[:3] == ["3.0", "9.0", "44.41321980490211"]
    assert c10[:3] == ["10.0", "9.0", "493.4802200544679"]
    assert c10[-1] == "CosmologicalConstant"


def test_regimes_takes_L_from_the_wall_block(tmp_path):
    # The shipped b-indexed sweep without scan.L takes L = 9.0 from its wall
    # block: the same bytes as a scan.L of that one value.
    with open(os.path.join(CONFIG_DIR, "regimes_sweep.json"), "r",
              encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["wall"]["L"] == 9.0
    outs = []
    for scan_L in ({}, {"L": _range(9.0, 9.0, 1)}):
        scan = {key: r for key, r in doc["scan"].items() if key != "L"}
        cfg = _write(tmp_path, {**doc, "scan": {**scan, **scan_L}},
                     name=f"cfg{len(outs)}.json")
        outs.append(tmp_path / f"o{len(outs)}")
        assert _run(["regimes", "--config", cfg, "--out", str(outs[-1]),
                     "--quiet"]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == ["sweep_discrepancy.txt", "sweep_regimes.csv"]
    assert sorted(os.listdir(outs[1])) == names
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)


def test_regimes_names_the_first_unusable_wall(tmp_path, capsys):
    """A wall grid is checked in one call; the error names the first wall
    (b-major) that breaks the wall rule, as its own scalar check would."""
    doc = dict(BASE_DOC, scan={**_REGIMES_SCAN, "b": _range(1.0, 1e300, 2),
                               "L": _range(9.0, 10.0, 2)})
    assert _run(["regimes", "--config", _write(tmp_path, doc), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "config error: invalid wall: the wall WallProfile(b=1e+300, L=9.0) "
        "has no usable kinetic scale: X_mag(L/2) must be > 0 and "
        "(pi b)^2 finite\n")


def test_regimes_grid_over_row_cap_is_refused_before_allocation():
    """A 1e6 x 1e6 wall grid is refused from the scan counts alone."""
    doc = dict(BASE_DOC, scan={**_REGIMES_SCAN,
                               "b": _range(1.0, 2.0, MAX_ROWS),
                               "L": _range(1.0, 2.0, MAX_ROWS)})
    config = parse_config(json.dumps(doc))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="1000000000000 rows, over the "
                                              "row cap"):
            next(cli.run_regimes(config))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("b", [10.0, 11.0, 12.0, 13.0])
def test_regimes_steep_walls_classify_as_constant(tmp_path, b):
    # at the reference eps0 = 1e-2, F2 = 1e3 the steep-wall rows sit well
    # inside the CosmologicalConstant window (it closes around b ~ 15)
    doc = dict(BASE_DOC)
    doc["scan"] = {"b": {"min": b, "max": b, "count": 1},
                   "L": {"min": 9.0, "max": 9.0, "count": 1},
                   "eps0": {"min": 0.001, "max": 0.01, "count": 3},
                   "F2": {"min": 1000.0, "max": 1000.0, "count": 1}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["regimes", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    for row in _rows(out / "run_regimes.csv")[1:]:
        assert row.split(",")[-1] == "CosmologicalConstant"


def test_regimes_zero_eps0_row(tmp_path):
    doc = dict(BASE_DOC)
    doc["scan"] = {"X0": {"min": 50.0, "max": 50.0, "count": 1},
                   "eps0": {"min": 0.0, "max": 0.0, "count": 1},
                   "F2": {"min": 10.0, "max": 10.0, "count": 1}}
    cfg = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert _run(["regimes", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = _rows(out / "run_regimes.csv")
    assert rows[1] == "NAN,NAN,50.0,0.0,10.0,-1.0,-1.0,NAN,NAN,Unclassified"


# ---------------------------------------------------------------------------
# cell formatting
# ---------------------------------------------------------------------------

def _plain_cells(column):
    """The rule `_cells` must keep: repr per float, NAN on NaN rows."""
    return ["NAN" if math.isnan(v) else repr(v) for v in column.tolist()]


def _nan_with(sign, payload):
    bits = (sign << 63) | (0x7FF << 52) | payload
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


_EDGE_FLOATS = np.array([
    np.nan, _nan_with(1, 1 << 51), _nan_with(0, (1 << 51) | 0x123),
    _nan_with(1, 7), -0.0, 0.0, 0.0, -0.0, -0.0, np.inf, np.inf, -np.inf,
    5e-324, 5e-324, -5e-324, 1e300, 1e-300, 1e-300, -1e300, 1.0, 1.0, 0.1,
])


@pytest.mark.parametrize("column", [
    np.empty(0), np.array([2.5]), np.array([np.nan]), np.full(50, -0.0),
    np.full(7, np.nan), _EDGE_FLOATS, _EDGE_FLOATS[::3], _EDGE_FLOATS[:4],
    np.repeat(_EDGE_FLOATS, 3)[::2], np.arange(30.0)[::3],
], ids=["empty", "one", "one-nan", "all-equal", "all-nan", "edges",
        "strided", "nan-signs-payloads", "runs-strided", "distinct-strided"])
def test_cells_match_repr_per_cell(column):
    assert cli._cells(column) == _plain_cells(column)
    # _fmt writes one float, numpy's or Python's, as its cell
    assert list(map(_fmt, column)) == _plain_cells(column)
    assert list(map(_fmt, column.tolist())) == _plain_cells(column)


def test_cells_keep_non_float_columns():
    labels = np.array(["DarkEnergyMix", "DarkEnergyMix", "Unclassified"],
                      dtype=object)
    assert cli._cells(labels) == labels.tolist()


@given(st.lists(st.tuples(st.sampled_from(_EDGE_FLOATS.tolist()
                                          + [3.0, -2.5, 1e-5]),
                          st.integers(1, 40)), max_size=30),
       st.integers(1, 3))
def test_cells_on_runs_match_repr_per_cell(runs, step):
    column = np.repeat([v for v, _ in runs], [n for _, n in runs])[::step]
    assert cli._cells(column) == _plain_cells(column)


@given(st.lists(st.sampled_from(_EDGE_FLOATS.tolist() + [3.0, -2.5, 1e-5]),
                max_size=200),
       st.integers(1, 3))
def test_cells_on_repeats_in_any_order_match_repr_per_cell(values, step):
    # Repeats that are not neighbours: NaN payloads and signs, -0.0 and 0.0,
    # infinities and subnormals, each formatted once per slice
    column = np.array(values, dtype=float)[::step]
    assert cli._cells(column) == _plain_cells(column)


def _reference_file(header, columns):
    """The bytes `_write_file` must write: `_plain_cells` per float column,
    the values themselves per string column."""
    cells = [_plain_cells(c) if c.dtype.kind == "f" else c.tolist()
             for c in columns]
    return (header + "\n" + "".join(",".join(row) + "\n"
                                    for row in zip(*cells))).encode("utf-8")


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the test, instead of hanging, if the block runs over `seconds`.
    pytest.fail is not an OSError, so main cannot turn it into exit 4."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s", pytrace=False)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}cpu")
def cpus(request, monkeypatch):
    """The CPUs `_write_file` may run on: 1 forks nothing, 2 and 3 fork one
    worker.  No worker may be left afterwards."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(request.param)))
    with _deadline(30):
        yield request.param
    _assert_no_children()


def test_write_file_repeats_across_chunks(tmp_path, cpus):
    # Ten values cycling row by row, so no two neighbours are equal
    cycle = np.array([0.1, -0.0, 0.0, np.nan, _nan_with(1, 7), 2.5, np.inf,
                      5e-324, -1e300, 0.1 + 0.2])
    columns = [np.tile(cycle, 300), np.arange(3000.0) / 7.0]
    assert 3000 > 2 * cli.CHUNK_ROWS
    path = tmp_path / "repeats.csv"
    cli._write_file(str(path), ["a,b"], columns)
    assert path.read_bytes() == _reference_file("a,b", columns)


def test_write_file_runs_across_chunks(tmp_path, cpus):
    # Runs of 7 to 700 rows, so several cross a CHUNK_ROWS boundary.
    lengths = [700, 7, 331, 1, 1200, 761]
    assert sum(lengths) == 3000 and 3000 > 2 * cli.CHUNK_ROWS
    values = np.repeat([0.1, -0.0, np.nan, 0.0, 1e-300, 2.5], lengths)
    columns = [values, values[::-1], np.arange(3000.0) / 7.0]
    path = tmp_path / "runs.csv"
    cli._write_file(str(path), ["a,b,c"], columns)
    assert path.read_bytes() == _reference_file("a,b,c", columns)


@pytest.mark.parametrize("rows", [0, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1,
                                  5 * cli.CHUNK_ROWS + 3])
def test_write_file_chunk_edges(tmp_path, cpus, rows):
    # A string column, and floats with NaN, both zeros, repeats and runs;
    # the last column is strictly decreasing.
    k = np.arange(rows)
    labels = np.array(["DarkEnergyMix", "Unclassified", ""],
                      dtype=object)[k % 3]
    cycle = np.array([np.nan, -0.0, 0.0, 0.1, 0.1, _nan_with(1, 7)])
    columns = [cycle[k % 6], labels, np.repeat(cycle, 700)[k % 4200],
               -k / 3.0]
    path = tmp_path / "edges.csv"
    cli._write_file(str(path), ["a,b,c,d"], columns)
    assert path.read_bytes() == _reference_file("a,b,c,d", columns)


def test_write_file_without_cpu_affinity_forks_nothing(tmp_path, monkeypatch):
    # Where os.sched_getaffinity is missing (not Linux), this process
    # formats every chunk.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    columns = [np.arange(3000.0) / 7.0]
    path = tmp_path / "one-process.csv"
    cli._write_file(str(path), ["a"], columns)
    assert path.read_bytes() == _reference_file("a", columns)


def _count_forks(monkeypatch):
    """Patch os.fork to record, in the parent, the process's OS thread
    count right after each fork: the count Python 3.12 and later warn on."""
    counts, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            counts.append(len(os.listdir("/proc/self/task")))
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return counts


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs Linux's /proc/self/task")
def test_write_file_forks_at_most_one_worker_from_one_thread(tmp_path,
                                                             monkeypatch):
    # Two CPUs, then three: one worker is forked each time.  A large matrix
    # product first starts numpy's BLAS threads; OpenBLAS stops them at the
    # fork, so each fork happens with this thread alone.
    counts = _count_forks(monkeypatch)
    columns = [np.arange(5000.0) / 7.0]
    path = tmp_path / "threads.csv"
    for n_cpus in (2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=n_cpus: set(range(n)))
        square = np.ones((400, 400))
        square @ square
        with _deadline(30):
            cli._write_file(str(path), ["a"], columns)
        _assert_no_children()
        assert path.read_bytes() == _reference_file("a", columns)
    assert counts == [1, 1]


def test_write_file_with_a_second_thread_forks_nothing(tmp_path,
                                                       monkeypatch):
    # A fork would copy whatever lock the other thread holds.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        columns = [np.arange(3000.0) / 7.0]
        path = tmp_path / "threaded.csv"
        cli._write_file(str(path), ["a"], columns)
    finally:
        stop.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert path.read_bytes() == _reference_file("a", columns)


def _scan_config(tmp_path, rows):
    return _write(tmp_path, {**BASE_DOC,
                             "scan": {"X": _range(900.0, 1100.0, rows)}})


@pytest.mark.parametrize("cpus", [3], indirect=True, ids=["3cpu"])
def test_write_file_worker_failure_exits_4(tmp_path, cpus, monkeypatch,
                                           capfd):
    # _cells raises only in the forked worker: the parent reads a short
    # chunk instead of writing a truncated table, and the worker says why.
    parent, cells = os.getpid(), cli._cells

    def cells_in_parent_only(column):
        if os.getpid() != parent:
            raise RuntimeError("worker failed")
        return cells(column)

    monkeypatch.setattr(cli, "_cells", cells_in_parent_only)
    cfg = _scan_config(tmp_path, 6 * cli.CHUNK_ROWS)
    assert _run(["eos-scan", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 4
    err = capfd.readouterr().err
    assert "formatting worker: RuntimeError('worker failed')" in err
    assert "worker stopped before its last chunk" in err


@pytest.mark.parametrize("cpus", [3], indirect=True, ids=["3cpu"])
def test_write_file_parent_failure_exits_4(tmp_path, cpus, monkeypatch,
                                           capfd):
    # The parent fails writing its second chunk while the worker still has
    # chunks to send; it must end on the closed pipe, leaving the parent
    # alone to report the failure.
    calls, write_lines = [], cli._write_lines

    def failing_write_lines(fh, lines):
        calls.append(lines)
        if len(calls) == 3:    # the header, chunk 0, then chunk 1
            raise OSError("no space left")
        write_lines(fh, lines)

    monkeypatch.setattr(cli, "_write_lines", failing_write_lines)
    cfg = _scan_config(tmp_path, 6 * cli.CHUNK_ROWS)
    assert _run(["eos-scan", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 4
    assert capfd.readouterr().err == "i/o failure: no space left\n"
    assert len(calls) == 3


def test_main_writes_every_chunk_and_leaves_no_worker(tmp_path, cpus):
    out = tmp_path / "o"
    cfg = _scan_config(tmp_path, 3 * cli.CHUNK_ROWS)
    assert _run(["eos-scan", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    assert len(_rows(out / "run_eos_scan.csv")) == 3 * cli.CHUNK_ROWS + 1


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command,preset", [
    ("eos-scan", None),
    ("wall", "figure2"),
    ("evolve", "paper-point"),
    ("regimes", "paper-point"),
])
def test_byte_identical_reruns(tmp_path, command, preset):
    if preset is None:
        doc = dict(BASE_DOC)
        doc["scan"] = {"X": {"min": 900.0, "max": 1400.0, "count": 64}}
        source = ["--config", _write(tmp_path, doc)]
    else:
        source = ["--preset", preset]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert _run([command, *source, "--out", str(d1), "--quiet"]) == 0
    assert _run([command, *source, "--out", str(d2), "--quiet"]) == 0
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


# ---------------------------------------------------------------------------
# exit codes, flags, dispatch
# ---------------------------------------------------------------------------

def test_exit_code_unknown_key(tmp_path):
    doc = dict(BASE_DOC)
    doc["turbo"] = True
    cfg = _write(tmp_path, doc)
    assert _run(["eos-scan", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2


def test_exit_code_missing_config(tmp_path):
    assert _run(["eos-scan", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_exit_code_io_failure(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory", encoding="utf-8")
    assert _run(["evolve", "--preset", "paper-point", "--out", str(blocker),
                 "--quiet"]) == 4


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(["evolve", "--preset", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run(["evolve"])  # --config / --preset required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run([])  # a command is required
    assert exc.value.code == 2
    cfg = _write(tmp_path, dict(BASE_DOC))
    with pytest.raises(SystemExit) as exc:
        _run(["evolve", "--config", cfg, "--preset", "figure1"])
    assert exc.value.code == 2


def test_quiet_suppresses_progress(tmp_path, capsys):
    out = tmp_path / "o"
    assert _run(["regimes", "--preset", "paper-point", "--out", str(out)]) == 0
    chatter = capsys.readouterr()
    assert "wrote" in chatter.out
    assert _run(["regimes", "--preset", "paper-point", "--out", str(out),
                 "--quiet"]) == 0
    silent = capsys.readouterr()
    assert silent.out == ""


def test_out_flag_overrides_config_directory(tmp_path, monkeypatch):
    doc = dict(BASE_DOC)
    doc["scan"] = {"X": {"min": 900.0, "max": 1100.0, "count": 5}}
    doc["output"] = {"directory": "from_config", "stem": "t"}
    cfg = _write(tmp_path, doc)
    monkeypatch.chdir(tmp_path)

    assert _run(["eos-scan", "--config", cfg, "--quiet"]) == 0
    assert (tmp_path / "from_config" / "t_eos_scan.csv").exists()

    assert _run(["eos-scan", "--config", cfg, "--out", str(tmp_path / "elsewhere"),
                 "--quiet"]) == 0
    assert (tmp_path / "elsewhere" / "t_eos_scan.csv").exists()


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

_SCIPY_PROBE = """
import json, os, sys
from kessence.cli import main
out = sys.argv[1]
for argv in (["eos-scan", "--preset", "paper-point"],
             ["wall", "--preset", "figure1"],
             ["regimes", "--preset", "paper-point"],
             ["evolve", "--preset", "paper-point"]):
    assert main([*argv, "--out", out, "--quiet"]) == 0, argv
full = os.path.join(sys.argv[2], "evolve_full_quadratic.json")
constant = os.path.join(out, "constant.json")
with open(full, "r", encoding="utf-8") as fh:
    doc = json.load(fh)
doc["potential"] = {"kind": "constant", "V0": 1.0}
with open(constant, "w", encoding="utf-8") as fh:
    json.dump(doc, fh)
assert main(["evolve", "--config", constant, "--out", out, "--quiet"]) == 0
print(sorted({m.split(".")[0] for m in sys.modules} & {"scipy"}))
assert main(["evolve", "--config", full, "--out", out, "--quiet"]) == 0
print("scipy" in sys.modules)
"""


def _python(*args):
    """Run a fresh interpreter, warnings as errors, on this checkout's src."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join([src] + [p for p in (
        os.environ.get("PYTHONPATH"),) if p])
    return subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_only_varying_potential_full_evolve_loads_scipy(tmp_path):
    # In a fresh interpreter: the other three commands, the kinetic-only
    # evolve and a full-mode evolve under a constant V run without
    # importing scipy; a full-mode evolve with a varying V imports it.
    run = _python("-c", _SCIPY_PROBE, str(tmp_path), CONFIG_DIR)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n") == ["[]", "True", ""]


def test_module_entry_point_exits_with_main_status(tmp_path):
    # `python -m kessence.cli` runs main and exits with its status.
    out = tmp_path / "o"
    run = _python("-m", "kessence.cli", "eos-scan", "--preset",
                  "paper-point", "--out", str(out), "--quiet")
    assert run.returncode == 0, run.stderr
    assert sorted(os.listdir(out)) == ["paper_point_eos_scan.csv",
                                       "paper_point_eos_scan_summary.txt"]
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff{}")
    run = _python("-m", "kessence.cli", "eos-scan", "--config", str(cfg),
                  "--out", str(tmp_path / "o2"), "--quiet")
    assert run.returncode == 2
    assert run.stderr.startswith("config error: ")
    assert not (tmp_path / "o2").exists()
