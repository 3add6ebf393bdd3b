"""Output checks: each operation's files against an independent reference.

* Shipped configs and presets (non-evolve): SHA-256 digests recorded from
  the seed commit in golden.json.  One changed byte fails the operation.
* Seeded eos-scan, regimes and wall tables: values, NAN pattern, labels,
  notes and row counts against a numpy evaluation of the closed forms
  written here from the formulas in README.md, not imported from kessence.
* Constant-V evolves: the X column against the algebraic first integral
  u^2 (X0 + u) a^6 = u0^2 (X0 + u0) a0^6 (u = X - X0), solved per row on
  the initial branch, at the program's own bound 100 * rel_tol.
* Varying-V evolves: exit, format and finiteness only.

Every number in a CSV must be written as repr(float) (the shortest
round-trip form) or as the token NAN.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

RTOL = 1e-12            # closed forms evaluated by other code paths
DEN_GUARD = 1e-12       # the README's pole rule: |den| <= 1e-12 * scale
W_BAND, CS2_DUST_MAX = 0.05, 0.01

EOS_HEADER = ("X,F,F_X,w_exact,cs2_exact,w_perturbed_eq14,"
              "cs2_perturbed_eq11,regime,note")
REGIMES_HEADER = ("b,L,X_estimate,eps0,F2,w_exact,w_paper,cs2_exact,"
                  "cs2_paper,regime_label")
PROFILE_HEADER = "x,phi,dphi_dx,X_mag"
SHARPNESS_HEADER = "b,L,peak_value,peak_position,half_width,integral"
TRAJECTORY_HEADER = "t,a,phi,phidot,X,w,cs2,Q"


class CheckError(Exception):
    """An output file is missing, malformed or wrong."""


@dataclass
class Result:
    """Verdict on one operation's output directory.

    problem: why the operation failed, or None.
    bound_miss: "kinetic_only" or "full" when a constant-V evolve missed
      the 100 * rel_tol bound against the first integral.
    honest: False when the program's summary claimed conservation: PASS
      for a trajectory that missed the bound.
    """

    problem: Optional[str] = None
    bound_miss: Optional[str] = None
    honest: bool = True
    error: Optional[float] = None


# ---------------------------------------------------------------------------
# file parsing
# ---------------------------------------------------------------------------

def read_lines(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if not text.endswith("\n") or "\r" in text:
        raise CheckError(f"{os.path.basename(path)}: bad line endings")
    return text[:-1].split("\n")


def read_table(path, header, ncols):
    """Header-checked rows of a CSV, as lists of ncols string cells."""
    lines = read_lines(path)
    if lines[0] != header:
        raise CheckError(f"{os.path.basename(path)}: header {lines[0]!r}")
    rows = [line.split(",", ncols - 1) for line in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise CheckError(f"{os.path.basename(path)}: row {i + 1} has "
                             f"{len(row)} cells")
    return rows


def numeric(rows, col, name="column"):
    """Column col as floats; rejects anything but repr(float) and NAN."""
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        tok = row[col]
        if tok == "NAN":
            out[i] = math.nan
            continue
        try:
            v = float(tok)
        except ValueError:
            raise CheckError(f"{name} row {i + 1}: {tok!r} is not a number") from None
        if not math.isfinite(v) or repr(v) != tok:
            raise CheckError(f"{name} row {i + 1}: {tok!r} is not repr(float)")
        out[i] = v
    return out


def expect_close(name, got, want, rtol=RTOL, atol=0.0):
    """Same NAN pattern and |got - want| <= rtol |want| + atol elsewhere."""
    got = np.asarray(got, dtype=float)
    want = np.broadcast_to(np.asarray(want, dtype=float), got.shape)
    nan_got, nan_want = np.isnan(got), np.isnan(want)
    if not np.array_equal(nan_got, nan_want):
        i = int(np.flatnonzero(nan_got != nan_want)[0])
        raise CheckError(f"{name}: NAN pattern differs at row {i + 1} "
                         f"(got {got[i]!r}, want {want[i]!r})")
    ok = nan_got | (np.abs(got - want) <= rtol * np.abs(want) + atol)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise CheckError(f"{name}: row {i + 1} is {got[i]!r}, want {want[i]!r}")


def file_digests(directory):
    """{file name: SHA-256 hex} for every file in directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def output_sizes(directory):
    """(CSV data rows, bytes, files, wall profile rows) in directory."""
    rows = nbytes = files = profile_rows = 0
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        files += 1
        nbytes += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                n = fh.read().count(b"\n") - 1
            rows += n
            if "_profile_" in name:
                profile_rows += n
    return rows, nbytes, files, profile_rows


def _summary(path, first_line):
    lines = read_lines(path)
    if lines[0] != first_line:
        raise CheckError(f"{os.path.basename(path)}: starts {lines[0]!r}")
    return lines


# ---------------------------------------------------------------------------
# independent closed forms
# ---------------------------------------------------------------------------

def _guarded(num, den, scale):
    """num / den, NAN where |den| <= DEN_GUARD * scale (the pole rule)."""
    num, den, scale = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                            for v in (num, den, scale)))
    bad = np.abs(den) <= DEN_GUARD * scale
    return np.where(bad, np.nan, num / np.where(bad, 1.0, den))


def classify(w, cs2):
    """Regime label of a (w, cs2) pair by the README thresholds.

    NaN fails every comparison, so a NAN cs2 still allows the two bands
    that ignore cs2, and a NAN w is Unclassified.
    """
    cs2_ok = cs2 <= CS2_DUST_MAX
    if abs(w + 1.0) <= W_BAND and cs2_ok:
        return "CosmologicalConstant"
    if abs(w) <= W_BAND and cs2_ok:
        return "DarkMatterLike"
    if abs(w - 1.0 / 3.0) <= W_BAND:
        return "RadiationLike"
    if -1.0 + W_BAND < w < -W_BAND:
        return "DarkEnergyMix"
    return "Unclassified"


def linspace(r):
    return np.linspace(r["min"], r["max"], r["count"])


def model_of(doc):
    m = doc["model"]
    return m["F2"], m["X0"], m.get("F0", -1.0)


def stem_of(doc):
    return doc.get("output", {}).get("stem", "run")


# ---------------------------------------------------------------------------
# eos-scan
# ---------------------------------------------------------------------------

def check_eos(doc, out_dir):
    F2, X0, F0 = model_of(doc)
    stem = stem_of(doc)
    rows = read_table(os.path.join(out_dir, f"{stem}_eos_scan.csv"),
                      EOS_HEADER, 9)
    want_X = linspace(doc["scan"]["X"])
    if len(rows) != want_X.size:
        raise CheckError(f"eos-scan: {len(rows)} rows, want {want_X.size}")
    X = numeric(rows, 0, "X")
    expect_close("X", X, want_X, atol=RTOL * np.max(np.abs(want_X)))

    d = X - X0
    F = F0 + F2 * d * d
    F_X = 2.0 * F2 * d
    t1 = 2.0 * X * F_X
    w = _guarded(F, t1 - F, np.maximum(np.abs(t1), np.abs(F)))
    t2 = 4.0 * F2 * X
    cs2 = _guarded(F_X, F_X + t2, np.maximum(np.abs(F_X), np.abs(t2)))
    pos = d > 0
    e = np.where(pos, d, 1.0)
    Fe = F0 + F2 * e * e
    te = 4.0 * (X0 + e) * F2 * e
    w_p = np.where(pos, _guarded(-Fe, Fe - te, np.maximum(np.abs(Fe), np.abs(te))),
                   np.where(d == 0, -1.0, np.nan))
    cs2_p = np.where(pos, 1.0 / (3.0 + 2.0 * X0 / e), np.nan)

    for col, name, want in ((1, "F", F), (2, "F_X", F_X), (3, "w_exact", w),
                            (4, "cs2_exact", cs2), (5, "w_perturbed_eq14", w_p),
                            (6, "cs2_perturbed_eq11", cs2_p)):
        expect_close(name, numeric(rows, col, name), want)

    got_w, got_cs2 = numeric(rows, 3), numeric(rows, 4)
    for i, row in enumerate(rows):
        notes = []
        if math.isnan(w[i]):
            notes.append("w_exact guard: 2*X*F_X - F ~ 0")
        if math.isnan(cs2[i]):
            notes.append("cs2_exact guard: pole at X = X0/3")
        if d[i] > 0 and math.isnan(w_p[i]):
            notes.append("w_perturbed_eq14 guard: denominator ~ 0")
        elif d[i] == 0:
            notes.append("X = X0: perturbed cs2 undefined at eps0 = 0")
        elif d[i] < 0:
            notes.append("X < X0: perturbed closed forms need X >= X0")
        if row[8] != "; ".join(notes):
            raise CheckError(f"eos-scan row {i + 1}: note {row[8]!r}")
        if row[7] != classify(got_w[i], got_cs2[i]):
            raise CheckError(f"eos-scan row {i + 1}: regime {row[7]!r}")
    _summary(os.path.join(out_dir, f"{stem}_eos_scan_summary.txt"),
             "eos-scan summary")


# ---------------------------------------------------------------------------
# regimes (b-indexed grid)
# ---------------------------------------------------------------------------

def check_regimes(doc, out_dir):
    _, _, F0 = model_of(doc)
    scan = doc["scan"]
    stem = stem_of(doc)
    rows = read_table(os.path.join(out_dir, f"{stem}_regimes.csv"),
                      REGIMES_HEADER, 10)
    # Row order follows the loop nesting b, L, eps0, F2 (F2 fastest).
    grids = np.meshgrid(*(linspace(scan[k]) for k in ("b", "L", "eps0", "F2")),
                        indexing="ij")
    b, L, e, F2 = (g.ravel() for g in grids)
    if len(rows) != b.size:
        raise CheckError(f"regimes: {len(rows)} rows, want {b.size}")
    for col, name, want in ((0, "b", b), (1, "L", L), (3, "eps0", e), (4, "F2", F2)):
        expect_close(name, numeric(rows, col, name), want)

    # Spike height of X_mag at x = L/2: (1/2)(pi b)^2 tanh(b L)^4.
    X_est = numeric(rows, 2, "X_estimate")
    expect_close("X_estimate", X_est, 0.5 * (math.pi * b) ** 2 * np.tanh(b * L) ** 4)
    # Downstream columns use the written X_estimate, so an ulp there does
    # not get amplified near a pole.
    X0 = X_est
    pos = e > 0
    ep = np.where(pos, e, 1.0)
    F = F0 + F2 * e * e
    t = 4.0 * (X0 + e) * F2 * e
    want = {
        "w_exact": _guarded(-F, F - t, np.maximum(np.abs(F), np.abs(t))),
        "cs2_exact": np.where(pos, 1.0 / (3.0 + 2.0 * X0 / ep), np.nan),
        "cs2_paper": np.where(pos, 1.0 / (1.0 + 4.0 * X0 * (1.0 + X0 / (2.0 * ep))),
                              np.nan),
    }
    tw = 4.0 * X0 * e / F2
    want["w_paper"] = _guarded(-1.0, 1.0 - tw, np.maximum(1.0, np.abs(tw)))
    for col, name in ((5, "w_exact"), (6, "w_paper"), (7, "cs2_exact"),
                      (8, "cs2_paper")):
        expect_close(name, numeric(rows, col, name), want[name])

    got_w, got_cs2 = numeric(rows, 6), numeric(rows, 8)
    for i, row in enumerate(rows):
        if row[9] != classify(got_w[i], got_cs2[i]):
            raise CheckError(f"regimes row {i + 1}: label {row[9]!r}")
    _summary(os.path.join(out_dir, f"{stem}_discrepancy.txt"),
             "regime discrepancy report")


# ---------------------------------------------------------------------------
# wall profiles and sharpness
# ---------------------------------------------------------------------------

def _sech2(z):
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(z) ** 2


def _crossing(x, y, i, level, step):
    while 0 < i < len(x) - 1 and y[i + step] >= level:
        i += step
    j = i + step
    if j < 0 or j >= len(x):
        return float(x[i])
    return float(x[i] + (y[i] - level) / (y[i] - y[j]) * (x[j] - x[i]))


def check_wall(doc, out_dir):
    scan = doc.get("scan", {})
    stem = stem_of(doc)
    bs = linspace(scan["b"]) if "b" in scan else [doc["wall"]["b"]]
    Ls = linspace(scan["L"]) if "L" in scan else [doc["wall"]["L"]]
    sharp = read_table(os.path.join(out_dir, f"{stem}_sharpness.csv"),
                       SHARPNESS_HEADER, 6)
    if len(sharp) != len(bs) * len(Ls):
        raise CheckError(f"sharpness: {len(sharp)} rows")
    k = 0
    for b in map(float, bs):
        for L in map(float, Ls):
            name = f"{stem}_profile_b{b:g}_L{L:g}.csv"
            rows = read_table(os.path.join(out_dir, name), PROFILE_HEADER, 4)
            spacing = min(1.0 / (10.0 * b), L / 200.0)
            n = int(math.ceil(4.0 * L / spacing)) + 1
            if len(rows) != n:
                raise CheckError(f"{name}: {len(rows)} rows, want {n}")
            x = numeric(rows, 0, "x")
            expect_close(f"{name} x", x, np.linspace(-2.0 * L, 2.0 * L, n),
                         atol=RTOL * L)
            zp, zm = b * (x + 0.5 * L), b * (x - 0.5 * L)
            tp, tm = np.tanh(zp), np.tanh(zm)
            expect_close(f"{name} phi", numeric(rows, 1), math.pi * (tp - tm),
                         rtol=0.0, atol=RTOL * math.pi * (np.abs(tp) + np.abs(tm)))
            sp, sm = _sech2(zp), _sech2(zm)
            dphi = numeric(rows, 2)
            expect_close(f"{name} dphi_dx", dphi, math.pi * b * (sp - sm),
                         rtol=0.0, atol=RTOL * math.pi * b * (sp + sm) + 1e-300)
            X_mag = numeric(rows, 3)
            expect_close(f"{name} X_mag", X_mag, 0.5 * dphi * dphi, rtol=1e-14)

            got = [float(numeric([sharp[k]], c, "sharpness")[0]) for c in range(6)]
            expect_close("sharpness b,L", got[:2], [b, L])
            pos = x > 0
            i_peak = int(np.flatnonzero(pos)[np.argmax(X_mag[pos])])
            peak = float(X_mag[i_peak])
            if peak > 0.5 * (math.pi * b) ** 2 * (1 + RTOL):
                raise CheckError(f"{name}: peak {peak} above (pi b)^2 / 2")
            half = _crossing(x, X_mag, i_peak, 0.5 * peak, 1) - _crossing(
                x, X_mag, i_peak, 0.5 * peak, -1)
            expect_close("sharpness peak", got[2:4], [peak, x[i_peak]])
            expect_close("sharpness half_width", got[4], half, rtol=1e-9)
            expect_close("sharpness integral", got[5],
                         np.trapezoid(X_mag, x), rtol=1e-9)
            k += 1
    _summary(os.path.join(out_dir, f"{stem}_wall_summary.txt"), "wall summary")


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def first_integral_u(X0, u0, log_a_ratio):
    """u > 0 with u^2 (X0 + u) = u0^2 (X0 + u0) (a0/a)^6, per row.

    Newton on v = ln u: h(v) = 2 v + ln(X0 + e^v) - ln C is increasing with
    slope in [2, 3], so a handful of steps converge from v = (ln C - ln X0)/2
    for any a, without forming a^6 (which overflows for long runs).
    """
    ln_C = 2.0 * math.log(u0) + math.log(X0 + u0) - 6.0 * np.asarray(log_a_ratio)
    v = 0.5 * (ln_C - math.log(X0))
    for _ in range(50):
        ev = np.exp(v)
        step = (2.0 * v + np.log(X0 + ev) - ln_C) / (2.0 + ev / (X0 + ev))
        v = v - step
        if np.all(np.abs(step) <= 1e-15 * np.maximum(1.0, np.abs(v))):
            break
    return np.exp(v)


def log_scale_ratio(background, t, t_start):
    """ln(a(t) / a(t_start)) for the configured background."""
    if background["kind"] == "desitter":
        return background["H"] * (t - t_start)
    return background["p"] * np.log(t / t_start)


def check_evolve(doc, constant_v, out_dir):
    """Raise CheckError on a broken file; return (mode, error, verdict)."""
    ev = doc["evolve"]
    stem = stem_of(doc)
    rows = read_table(os.path.join(out_dir, f"{stem}_trajectory.csv"),
                      TRAJECTORY_HEADER, 8)
    n = ev.get("n_output", 201)
    if len(rows) != n:
        raise CheckError(f"trajectory: {len(rows)} rows, want {n}")
    cols = {name: numeric(rows, i, name)
            for i, name in enumerate(TRAJECTORY_HEADER.split(","))}
    for name in ("t", "a", "phi", "phidot", "X", "Q"):
        if not np.all(np.isfinite(cols[name])):
            raise CheckError(f"trajectory: {name} is not finite")
    summary = _summary(os.path.join(out_dir, f"{stem}_evolve_summary.txt"),
                       "evolve summary")
    verdicts = [line for line in summary if line.startswith("conservation: ")]
    if len(verdicts) != 1:
        raise CheckError("evolve summary: no conservation verdict")
    mode = "kinetic_only" if ev.get("kinetic_only", True) else "full"
    if not constant_v:
        return mode, None, verdicts[0]

    t0, t_end = ev.get("t_start", 0.0), ev["t_end"]
    t = np.linspace(t0, t_end, n)
    expect_close("t", cols["t"], t, atol=RTOL * abs(t_end))
    log_ratio = log_scale_ratio(doc["background"], t, t0)
    expect_close("a", cols["a"], ev.get("a_start", 1.0) * np.exp(log_ratio))

    _, X0, _ = model_of(doc)
    X_init = ev["X"] if "X" in ev else 0.5 * ev["phidot"] ** 2
    u_ref = first_integral_u(X0, X_init - X0, log_ratio)
    error = float(np.max(np.abs((cols["X"] - X0) - u_ref) / u_ref))
    return mode, error, verdicts[0]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def check_golden(digests, out_dir):
    got = file_digests(out_dir)
    if set(got) != set(digests):
        raise CheckError(f"files {sorted(got)}, want {sorted(digests)}")
    for name, digest in digests.items():
        if got[name] != digest:
            raise CheckError(f"{name}: SHA-256 differs from the recorded digest")


def check_op(check, out_dir) -> Result:
    """Check one operation's output directory."""
    kind = check["kind"]
    try:
        if kind == "golden":
            check_golden(check["digests"], out_dir)
        elif kind == "eos":
            check_eos(check["doc"], out_dir)
        elif kind == "regimes":
            check_regimes(check["doc"], out_dir)
        elif kind == "wall":
            check_wall(check["doc"], out_dir)
        elif kind == "evolve":
            mode, error, verdict = check_evolve(check["doc"], check["constant_v"],
                                                out_dir)
            bound = 100.0 * check["doc"]["evolve"].get("rel_tol", 1e-8)
            if error is not None and not error <= bound:
                said_pass = verdict == "conservation: PASS"
                return Result(
                    problem=f"X off the first integral by {error:.3g} > {bound:.3g}",
                    bound_miss=mode, honest=not said_pass, error=error)
            return Result(error=error)
        else:
            raise ValueError(f"unknown check kind {kind!r}")
    except (CheckError, OSError) as exc:
        return Result(problem=f"{type(exc).__name__}: {exc}")
    return Result()
