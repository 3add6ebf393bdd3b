"""Benchmark of the kessence command-line tool.

    python3 perfbench/run.py --workload {tables,profiles,sweep} --seed N
                             --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program is imported from
the checkout's src/.  One client in a closed loop: this process draws every
input from --seed, writes the config files and starts a fresh child
interpreter (child.py) that calls kessence.cli.main once per operation, one
at a time, pass after pass, for S seconds.  Afterwards every output file of
the first pass is checked (checks.py) and every later pass must repeat it
byte for byte.

--trace 0 prints the end-to-end metrics of an untraced child, plus set-up
time from several children that only import kessence.cli; times are at
nominal CPU speed (child.SpeedProbe).  --trace 1 alternates untraced and
traced passes (spans.py) in one child and prints the per-layer metrics.
Human-readable lines come first; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.
Scratch files go to .perfbench_out/ in the checkout and are removed.
Exit status 2 means the checkout has no kessence source to measure.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 6    # children that only import, for setup_s
MIN_PASSES = 4      # however short --seconds is; two traced with --trace 1
GRACE_S = 100       # a child still running this long after its seconds is killed

END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "rows/s", "op_ms.p50": "ms",
                    "op_ms.p95": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "config.parse_s": "s", "config.calls": "count",
    "model.eval_s": "s", "model.calls": "count", "model.guard_raises": "count",
    "walls.sample_s": "s", "walls.points_sampled": "count",
    "walls.points_written": "count", "walls.sample_reuse": "ratio",
    "evolution.solve_s": "s", "evolution.solves": "count",
    "evolution.rhs_calls": "count", "evolution.rhs_us_per_call": "us",
    "evolution.fit_s": "s", "evolution.fit_raises": "count",
    "evolution.bound_misses.kinetic_only": "count",
    "evolution.bound_misses.full": "count",
    "cli.format_s": "s", "cli.write_s": "s", "cli.rows": "count",
    "cli.bytes": "bytes", "cli.files": "count",
    "trace.overhead_s": "s", "trace.wall_s": "s",
}


class BenchError(Exception):
    """The benchmark could not measure (no source, child crashed, ...)."""


def spawn(args, log_path, limit_s):
    """Run child.py with args to a clean exit.

    Returns (setup_s, peak RSS in MB, what the child printed after
    ``ready``).  setup_s runs from just before the child starts to its
    ``ready`` line.  The child is waited for with os.wait4, which also
    gives its peak RSS.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, ROOT, *args],
                                stdout=subprocess.PIPE, stderr=log)
    deadline = start + limit_s
    setup = None
    try:
        if select.select([proc.stdout], [], [], limit_s)[0]:
            if proc.stdout.readline() == b"ready\n":
                setup = time.perf_counter() - start
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        rest = proc.stdout.read().decode()
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if setup is None or proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited with {proc.returncode}; "
                         f"see its log:\n{_tail(log_path)}")
    return setup, usage.ru_maxrss * 1024 / 1e6, rest


def _tail(path, lines=20):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def run_child(ops, argvs, work, name, seconds, trace):
    """One measured child: its passes, output verdicts and resource use."""
    out_root = os.path.join(work, name)
    plan_path = os.path.join(work, f"{name}.plan.json")
    result_path = os.path.join(work, f"{name}.result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": argvs, "seconds": seconds, "min_passes": MIN_PASSES,
                   "out_root": out_root}, fh)
    _, rss_mb, _ = spawn(["run", plan_path, result_path, str(int(trace))],
                         os.path.join(work, f"{name}.log"), seconds + GRACE_S)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if trace:
        result["spans"] = np.load(result_path + ".spans.npy")

    # Output check on pass 0; later passes must match it byte for byte.
    verdicts, sizes = [], []
    for i, op in enumerate(ops):
        out = os.path.join(out_root, "pass0", f"op{i:03d}")
        code = result["passes"][0]["codes"][i]
        if code != 0:
            verdicts.append(checks.Result(problem=f"exit code {code}"))
            sizes.append((0, 0, 0, 0))
            continue
        verdicts.append(checks.check_op(op["check"], out))
        sizes.append(checks.output_sizes(out))
    # Each distinct operation counts once, whatever number of passes fit
    # into the run, so attempted and failed depend on the seed alone.  An
    # operation fails if any pass of it failed.
    attempted = len(verdicts)
    failed = sum(bool(verdict.problem)
                 or any(p["codes"][i] != 0 or i in p["changed"]
                        for p in result["passes"])
                 for i, verdict in enumerate(verdicts))
    result.update(rss_mb=rss_mb, verdicts=verdicts,
                  attempted=attempted, failed=failed,
                  sizes=np.sum(sizes, axis=0).tolist())
    shutil.rmtree(out_root, ignore_errors=True)
    return result


def end_to_end(run, setups):
    """Times are at nominal CPU speed (child.SpeedProbe), medians over passes."""
    wall = statistics.median(p["wall_norm"] for p in run["passes"])
    n_ops = len(run["passes"][0]["op_norm_s"])
    # Each operation's latency is its median over the passes; the
    # percentiles are taken over the workload's distinct operations.
    per_op = [statistics.median(p["op_norm_s"][i] for p in run["passes"])
              for i in range(n_ops)]
    p50, p95 = np.percentile(per_op, [50, 95]) * 1e3
    return {"wall_s": wall, "rows_per_s": run["sizes"][0] / wall,
            "op_ms.p50": float(p50), "op_ms.p95": float(p95),
            "setup_s": statistics.median(setups), "peak_rss_mb": run["rss_mb"]}


def per_layer(run):
    """Layer metrics from the traced passes; overhead against the others.

    Pass 0 is left out of the overhead: it alone pays first-use costs.
    """
    traced = [p["wall"] for p in run["passes"] if p["traced"]]
    plain = [p["wall"] for p in run["passes"][2:] if not p["traced"]]
    out = spans.layer_metrics(run["spans"], run["names"], len(traced),
                              run["missing"])
    rows, nbytes, files, profile_rows = run["sizes"]
    out.update({"cli.rows": rows, "cli.bytes": nbytes, "cli.files": files,
                "walls.points_written": profile_rows})
    if "walls.points_sampled" in out:
        sampled = out["walls.points_sampled"]
        out["walls.sample_reuse"] = profile_rows / sampled if sampled else 0.0
    for mode in ("kinetic_only", "full"):
        out[f"evolution.bound_misses.{mode}"] = sum(
            v.bound_miss == mode for v in run["verdicts"])
    out["trace.wall_s"] = statistics.mean(traced)
    out["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(plain)
    return out


def measure(workload, seed, seconds, trace, work):
    ops = workloads.make_ops(workload, seed)
    argvs = workloads.write_inputs(ops, os.path.join(work, "inputs"), ROOT)
    if trace:
        run = run_child(ops, argvs, work, "traced", seconds, True)
        metrics, units = per_layer(run), PER_LAYER_UNITS
    else:
        log = os.path.join(work, "probe.log")
        setups = []
        for _ in range(SETUP_PROBES):
            setup, _, factor = spawn(["probe"], log, GRACE_S)
            setups.append(setup * float(factor))
        run = run_child(ops, argvs, work, "plain", seconds, False)
        metrics = end_to_end(run, setups)
        units = END_TO_END_UNITS
    report(workload, seed, ops, run, metrics, units)
    return {
        # correct is False when an output is wrong, or differs between
        # passes, without the program saying so; an evolve whose summary
        # admits conservation: FAILED still counts as a failed operation.
        "correct": all(v.problem is None or (v.bound_miss and v.honest)
                       for v in run["verdicts"])
                   and not any(p["changed"] for p in run["passes"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def report(workload, seed, ops, run, metrics, units):
    """Human-readable lines: metrics, error rate and what failed."""
    attempted, failed = run["attempted"], run["failed"]
    clock = statistics.median(p["wall"] for p in run["passes"])
    print(f"workload {workload}, seed {seed}: {len(ops)} operations per pass, "
          f"{len(run['passes'])} passes, median wall-clock pass time "
          f"{clock:.4g} s")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name} = {metrics[name]:.6g} {unit}")
        else:
            print(f"  {name}: missing (its wrap target no longer exists)")
    print(f"  error_rate = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    verdicts = run["verdicts"]
    for op, verdict in zip(ops, verdicts):
        if verdict.problem and not verdict.bound_miss:
            print(f"  FAILED {op['key']}: {verdict.problem}")
    misses = [v for v in verdicts if v.bound_miss]
    if misses:
        print(f"  {len(misses)} constant-V evolves missed 100 * rel_tol against "
              f"the first integral (worst {max(v.error for v in misses):.3g})")
    if "cli.format_s" in metrics:
        layers = sum(metrics.get(k, 0.0) for k in (
            "config.parse_s", "model.eval_s", "walls.sample_s",
            "evolution.solve_s", "evolution.fit_s", "cli.format_s", "cli.write_s"))
        print(f"  layer self times + cli.format_s = {layers:.6g} s per traced "
              f"pass; traced wall_s = {metrics['trace.wall_s']:.6g} s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn a termination request into SystemExit, so the running child is
    # killed and waited for and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "kessence", "cli.py")):
        print(f"no kessence source under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_out",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
