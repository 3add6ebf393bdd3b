"""Command-line front end: eos-scan, wall, evolve, regimes.

Every command reads one RunConfig (from --config PATH or a named --preset),
writes CSV plus a plain-text summary into the output directory, and is
deterministic: the same config produces byte-identical files on any number of
CPUs, although with two or more one forked worker formats every other chunk of
a table.  Floats are printed with repr() (shortest round-trip form), NaN as
the token NAN, and no timestamps or absolute paths appear in any output file.

Each command yields its files as (name, lines, columns), after every
check and computation that can fail; `main` alone writes them, with
`_write_file`, so a failed run creates nothing.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import threading
from dataclasses import fields

import numpy as np

from .config import (
    MAX_ROWS,
    PRESET_NAMES,
    RunConfig,
    ScanRange,
    load_config,
    preset_config,
)
from .errors import ConfigError, FitDomain, KessenceError, _invalid
from .evolution import (
    evolve_full,
    evolve_kinetic_only,
    fit_scaling,
    scaling_slope,
)
from .model import (
    ConstantPotential,
    KineticModel,
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
from .walls import WallProfile, default_grid, sample, sample_sharpness

SLOPE_TARGET = -3.0
SLOPE_TOL = 0.01
# Chunks of CHUNK_ROWS rows bound a table's memory.  Given two usable CPUs, a
# forked worker formats every other one; the bytes do not depend on the count.
CHUNK_ROWS = 1024


def _fmt(value) -> str:
    """The CSV cell of one float: the same text as `_cells`."""
    value = float(value)
    return "NAN" if math.isnan(value) else repr(value)


def _cells(column) -> list:
    """CSV cells of a column slice: floats as their shortest round-trip
    decimal (repr), NaN as the NAN token; strings as they are.

    Each distinct float of the slice (one bit pattern, so -0.0 and 0.0
    differ, or any NaN) is formatted once, wherever it repeats."""
    column = np.asarray(column)
    if column.dtype.kind != "f":
        return column.tolist()
    # Every NaN takes the key -1, a NaN's bits, so no number shares it.
    nan = np.isnan(column)
    key = np.where(nan, -1, column.view(np.int64))
    order = np.argsort(key)
    new = np.concatenate(([True], key[order[1:]] != key[order[:-1]]))
    if not new.all():
        # The distinct values have no repeat, so they take the path below.
        group = np.empty_like(order)
        group[order] = np.cumsum(new) - 1
        return np.array(_cells(column[order[new]]),
                        dtype=object)[group].tolist()
    cells = list(map(repr, column.tolist()))
    for i in np.flatnonzero(nan).tolist():
        cells[i] = "NAN"
    return cells


def _write_lines(fh, lines) -> None:
    for line in lines:
        fh.write(line)
        fh.write("\n")


def _chunk(columns, lo) -> str:
    cells = [_cells(c[lo:lo + CHUNK_ROWS]) for c in columns]
    return "\n".join(map(",".join, zip(*cells)))


def _send_chunks(columns, starts, pipe, out) -> None:
    """A forked worker: send each chunk as its length and UTF-8 bytes."""
    try:
        pipe.close()    # so that the parent's close ends this worker on EPIPE
        for lo in starts:
            block = _chunk(columns, lo).encode("utf-8")
            out.write(len(block).to_bytes(8, "little") + block)
            out.flush()
        os._exit(0)    # flushes no buffer inherited from the parent
    except BrokenPipeError:
        pass           # the parent stopped reading, and reports why
    except Exception as exc:  # fd 2, not sys.stderr and its inherited buffer
        os.write(2, f"formatting worker: {exc!r}\n".encode("utf-8"))
    finally:
        os._exit(1)


def _receive_chunk(pipe) -> str:
    size = int.from_bytes(head := pipe.read(8), "little")
    block = pipe.read(size) if len(head) == 8 else b""
    if len(head) < 8 or len(block) < size:
        raise OSError("a formatting worker stopped before its last chunk")
    return block.decode("utf-8")


def _write_file(path: str, lines, columns) -> None:
    """Write `lines`, then one CSV row per index of the equal-length
    `columns`.  Given two chunks, two usable CPUs and no second Python thread
    (a fork would copy its locks), a forked worker formats the odd chunks;
    this process writes all in order, so no byte depends on the CPU count."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_lines(fh, lines)
        starts = range(0, len(columns[0]) if columns else 0, CHUNK_ROWS)
        if (len(starts) < 2 or not hasattr(os, "sched_getaffinity")
                or len(os.sched_getaffinity(0)) < 2
                or threading.active_count() > 1):
            for lo in starts:
                _write_lines(fh, [_chunk(columns, lo)])
            return
        r, w = os.pipe()
        with open(r, "rb") as pipe, open(w, "wb") as out:
            if (pid := os.fork()) == 0:
                _send_chunks(columns, starts[1::2], pipe, out)
            try:
                out.close()
                for i, lo in enumerate(starts):
                    _write_lines(fh, [_receive_chunk(pipe) if i % 2
                                      else _chunk(columns, lo)])
            finally:
                pipe.close()    # a worker still sending exits on EPIPE
                os.waitpid(pid, 0)


def _check_rows(table: str, rows: int) -> None:
    if rows > MAX_ROWS:
        raise ConfigError(
            f"{table} would have {rows} rows, over the row cap "
            f"MAX_ROWS={MAX_ROWS}")


def _model_line(m: KineticModel) -> str:
    return "model: " + " ".join(f"{f.name}={_fmt(getattr(m, f.name))}"
                                for f in fields(m))


def _notes(n_rows: int, rules) -> np.ndarray:
    """Per row, the texts of the (mask, text) rules that hold, joined by '; '."""
    notes = np.full(n_rows, "", dtype=object)
    sep = np.full(n_rows, "", dtype=object)
    for mask, text in rules:
        notes[mask] = notes[mask] + sep[mask] + text
        sep[mask] = "; "
    return notes


# ---------------------------------------------------------------------------
# eos-scan
# ---------------------------------------------------------------------------

def run_eos_scan(config: RunConfig):
    scan = config.scan or {}
    if "X" not in scan:
        raise ConfigError("eos-scan needs a scan.X range {min, max, count}")
    X = scan["X"].values()
    m = config.model

    w_e, w_pole = eos_w(m, X)
    cs2_e, cs2_pole = sound_speed(m, X)
    with np.errstate(all="ignore"):
        F, F_X = eval_F(m, X), eval_F_X(m, X)
        eps = X - m.X0
    # The perturbed closed forms describe the state X = X0 + eps0, so each
    # row reads its own eps0 = X - X0 (0 on rows below X0, whose perturbed
    # cells are NAN).
    above, below = eps > 0.0, ~(eps >= 0.0)
    pm = KineticModel(F2=m.F2, X0=m.X0, eps0=np.where(above, eps, 0.0),
                      F0=m.F0)
    w_p, w_p_pole = w_perturbed_exact(pm)
    cs2_p, _ = sound_speed_perturbed(pm)
    w_p[below] = np.nan
    # A NaN that is not a pole comes from a term that overflowed.
    notes = _notes(X.size, [
        (w_pole, "w_exact guard: 2*X*F_X - F ~ 0"),
        (np.isnan(w_e) & ~w_pole,
         "w_exact overflow: 2*X*F_X or F is not finite"),
        (cs2_pole & (F_X != 0.0), "cs2_exact guard: pole at X = X0/3"),
        (cs2_pole & (F_X == 0.0), "cs2_exact guard: F_X = 2*X*F_XX = 0 (0/0)"),
        (np.isnan(cs2_e) & ~cs2_pole,
         "cs2_exact overflow: F_X or 2*X*F_XX is not finite"),
        (w_p_pole & ~below, "w_perturbed_eq14 guard: denominator ~ 0"),
        (np.isnan(w_p) & ~w_p_pole & ~below,
         "w_perturbed_eq14 overflow: a denominator term is not finite"),
        (eps == 0.0, "X = X0: perturbed cs2 undefined at eps0 = 0"),
        (below, "X < X0: perturbed closed forms need X >= X0"),
    ])

    csv_name = f"{config.output.stem}_eos_scan.csv"
    yield (csv_name,
           ["X,F,F_X,w_exact,cs2_exact,w_perturbed_eq14,cs2_perturbed_eq11,"
            "regime,note"],
           [X, F, F_X, w_e, cs2_e, w_p, cs2_p, classify_regimes(w_e, cs2_e),
            notes])
    yield (f"{config.output.stem}_eos_scan_summary.txt", [
        "eos-scan summary",
        _model_line(m),
        f"points: {X.size}",
        f"X range: [{_fmt(X[0])}, {_fmt(X[-1])}]",
        f"rows with notes: {np.count_nonzero(notes != '')}",
        f"table: {csv_name}",
    ], ())


# ---------------------------------------------------------------------------
# wall
# ---------------------------------------------------------------------------

def run_wall(config: RunConfig):
    if config.wall is None:
        raise ConfigError("wall command needs a wall block {b, L}")
    scan = config.scan or {}
    b_vals = scan["b"].values().tolist() if "b" in scan else [config.wall.b]
    L_vals = scan["L"].values().tolist() if "L" in scan else [config.wall.L]
    stem = config.output.stem
    profiles, rows = {}, 0  # profile file name -> wall, b-major
    with _invalid("wall"):
        for b in b_vals:
            for L in L_vals:
                wall = WallProfile(b=b, L=L)
                rows += default_grid(wall)[2]
                _check_rows("the profile files together", rows)
                name = f"{stem}_profile_b{b:g}_L{L:g}.csv"
                if name in profiles:
                    raise ConfigError(
                        f"two walls of the scan would both write {name}: "
                        "profile file names hold b and L to 6 significant "
                        "digits")
                profiles[name] = wall

    sharp_rows = []
    for name, wall in profiles.items():
        s = sample(wall)
        yield name, ["x,phi,dphi_dx,X_mag"], [s.x, s.phi, s.dphi_dx, s.X_mag]
        sharp_rows.append((wall.b, wall.L, *sample_sharpness(s)))

    sharp_name = f"{stem}_sharpness.csv"
    yield (sharp_name, ["b,L,peak_value,peak_position,half_width,integral"],
           list(zip(*sharp_rows)))
    summary = ["wall summary", f"combinations: {len(profiles)}",
               "profile files:"]
    summary.extend(f"  {name}" for name in profiles)
    summary.append(f"sharpness table: {sharp_name}")
    yield f"{stem}_wall_summary.txt", summary, ()


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def run_evolve(config: RunConfig):
    ev = config.evolve
    if ev is None:
        raise ConfigError("evolve command needs an evolve block")
    if ev.kinetic_only:
        tr = evolve_kinetic_only(config.model, config.background, ev.init,
                                 ev.t_end, ev.control)
        mode = "kinetic_only"
    else:
        tr = evolve_full(config.model, config.potential, config.background,
                         ev.init, ev.t_end, ev.control)
        mode = "full"

    summary = [
        "evolve summary",
        _model_line(config.model),
        f"mode: {mode}",
        f"rows: {len(tr)}",
    ]
    try:
        law, residual = fit_scaling(tr)
        summary.append(f"fitted eps1 = {_fmt(law.eps1)}")
        summary.append(f"fitted a1 = {_fmt(law.a1)}")
        summary.append(f"fit max residual = {_fmt(residual)}")
    except FitDomain as exc:
        summary.append(f"scaling fit not available: {exc}")
    try:
        slope = scaling_slope(tr)
        verdict = "PASS" if abs(slope - SLOPE_TARGET) <= SLOPE_TOL else "FAIL"
        summary.append(f"slope of log|X - X0| vs log(a) = {_fmt(slope)}")
        summary.append(
            f"slope check: {verdict} "
            f"(expected {SLOPE_TARGET} +- {SLOPE_TOL})")
    except FitDomain as exc:
        summary.append(f"slope not available: {exc}")

    drift, relative = tr.q_drift()
    summary.append(f"max relative Q drift = {_fmt(drift)}" if relative else
                   f"max absolute Q drift = {_fmt(drift)} (Q(0) = 0)")
    bound = 100.0 * ev.control.rel_tol
    summary.append(f"drift bound (100 * rel_tol) = {_fmt(bound)}")
    if not isinstance(config.potential, ConstantPotential):
        summary.append(
            "note: Q is a first integral of the constant-V equation only; "
            "drift is expected with a varying potential" if mode == "full"
            else "note: kinetic_only integrates the constant-V equation; "
            "the configured potential was not used")
    summary.append("conservation: " + ("PASS" if drift <= bound else "FAILED"))

    stem = config.output.stem
    yield (f"{stem}_trajectory.csv", ["t,a,phi,phidot,X,w,cs2,Q"],
           [tr.t, tr.a, tr.phi, tr.phidot, tr.X, tr.w, tr.cs2, tr.Q])
    yield f"{stem}_evolve_summary.txt", summary, ()


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def run_regimes(config: RunConfig):
    scan = config.scan or {}
    for key in ("eps0", "F2"):
        if key not in scan:
            raise ConfigError(f"regimes needs a scan.{key} range")
    if "b" not in scan and "X0" not in scan:
        raise ConfigError("regimes needs scan.b or scan.X0")
    if "b" in scan and "L" not in scan:
        if config.wall is None:
            raise ConfigError("b-indexed regime scan needs scan.L or a wall block")
        scan = {**scan, "L": ScanRange(config.wall.L, config.wall.L, 1)}
    # Sized from the counts, before any grid array is allocated.
    n = {key: scan[key].count if key in scan else 0
         for key in ("b", "L", "X0", "eps0", "F2")}
    _check_rows("the regimes table",
                (n["b"] * n["L"] + n["X0"]) * n["eps0"] * n["F2"])
    b_vals, L_vals, X0_vals, eps_vals, F2_vals = (
        scan[key].values() if key in scan else np.empty(0) for key in n)

    # One (b, L, X0) block per wall, b-major, X0 its kinetic scale; then one
    # per direct X0 value, with b and L NAN.
    with _invalid("wall"):
        walls = WallProfile(b=b_vals[:, None], L=L_vals[None, :])
    nan = np.full(X0_vals.size, np.nan)
    blocks = [np.concatenate([g.ravel(), tail]) for g, tail in zip(
        np.broadcast_arrays(walls.b, walls.L, walls.kinetic_scale),
        (nan, nan, X0_vals))]

    # Rows run block -> eps0 -> F2, the order of nested loops over them.
    k, eps0, F2 = (g.ravel() for g in np.meshgrid(
        np.arange(blocks[0].size), eps_vals, F2_vals, indexing="ij"))
    b, L, X0 = (c[k] for c in blocks)
    m = KineticModel(F2=F2, X0=X0, eps0=eps0, F0=config.model.F0)
    w_e, _ = w_perturbed_exact(m)
    cs2_e, _ = sound_speed_perturbed(m)
    w_p, _ = w_thinwall_approx(m)
    cs2_p, _ = cs2_thinwall_approx(m)
    label = classify_regimes(w_p, cs2_p)

    report = ["regime discrepancy report", f"rows: {k.size}"]
    for quantity, exact, approx in (("w", w_e, w_p), ("cs2", cs2_e, cs2_p)):
        gap_name = f"|{quantity}_exact - {quantity}_paper|"
        rows = np.flatnonzero(~(np.isnan(exact) | np.isnan(approx)))
        if rows.size == 0:
            report.append(f"max {gap_name}: no comparable rows")
            continue
        # Neither column can hold an infinity, so the gaps are finite and
        # argmax picks the first of equal largest gaps.
        gaps = np.abs(exact[rows] - approx[rows])
        j = int(np.argmax(gaps))
        i = rows[j]
        report.append(f"max {gap_name} = {_fmt(gaps[j])}")
        report.append(
            f"  at b={_fmt(b[i])} L={_fmt(L[i])} X0={_fmt(X0[i])} "
            f"eps0={_fmt(eps0[i])} F2={_fmt(F2[i])}")
        exact_label = classify_regimes(w_e[i], cs2_e[i])
        report.append(
            f"  exact columns classify as {exact_label}; "
            f"approx columns as {label[i]}")
        if quantity == "w":
            flagged = "yes" if gaps[j] > 0.9 else "no"
            report.append(f"  w discrepancy exceeds 0.9: {flagged}")

    yield (f"{config.output.stem}_regimes.csv",
           ["b,L,X_estimate,eps0,F2,w_exact,w_paper,cs2_exact,cs2_paper,"
            "regime_label"],
           [b, L, X0, eps0, F2, w_e, w_p, cs2_e, cs2_p, label])
    yield f"{config.output.stem}_discrepancy.txt", report, ()


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "eos-scan": (run_eos_scan, "tabulate w and cs2 over an X range"),
    "wall": (run_wall, "sample tanh wall-pair profiles and sharpness metrics"),
    "evolve": (run_evolve, "integrate the homogeneous field equation"),
    "regimes": (run_regimes, "classify (w, cs2) over parameter sweeps"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kessence",
        usage="%(prog)s COMMAND (--config PATH | --preset NAME) [--out DIR] "
              "[--quiet]",
        description="pure-kinetic k-essence scans, wall profiles and evolutions",
        epilog="commands:\n" + "\n".join(
            f"  {name:10s}{help_text}"
            for name, (_, help_text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=_COMMANDS, metavar="COMMAND",
                    help="one of the commands below")
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH",
                       help="JSON run configuration")
    group.add_argument("--preset", choices=PRESET_NAMES, metavar="NAME",
                       help="built-in configuration: "
                            + ", ".join(PRESET_NAMES))
    ap.add_argument("--out", metavar="DIR",
                    help="output directory (overrides config)")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress progress output")
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.config is not None:
            config = load_config(args.config)
        else:
            config = preset_config(args.preset)
        out_dir = args.out if args.out is not None else config.output.directory
        run = _COMMANDS[args.command][0]
        for name, lines, columns in run(config):
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, name)
            _write_file(path, lines, columns)
            if not args.quiet:
                print(f"wrote {path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KessenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
