"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

* The output check rejects one flipped digit in a CSV, a missing file and
  a non-zero exit.
* The first-integral oracle agrees with a tight solve_ivp reference at
  t_end = 1.
* The same seed generates the same inputs twice.

Scratch files go to .perfbench_out/ in the checkout and are removed.
"""

import json
import math
import os
import shutil
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from kessence.cli import main as cli_main  # noqa: E402

MODEL = {"F2": 1000.0, "X0": 900.0, "eps0": 0.01, "F0": -1.0}


def _doc(**blocks):
    doc = {"model": dict(MODEL), "potential": {"kind": "constant", "V0": 1.0},
           "background": {"kind": "desitter", "H": 1.0}}
    doc.update(blocks)
    return doc


def _evolve(t_end):
    return {"t_end": t_end, "X": 945.0, "t_start": 0.0, "a_start": 1.0,
            "rel_tol": 1e-8, "abs_tol": 1e-10, "n_output": 201,
            "kinetic_only": True}


CASES = {
    # name: (command, doc, check kind, file to damage, row, column)
    "eos": ("eos-scan", _doc(scan={"X": {"min": 200.0, "max": 1200.0,
                                         "count": 161}}),
            "eos", "run_eos_scan.csv", 7, 3),
    "regimes": ("regimes", _doc(wall={"b": 1.0, "L": 1.0}, scan={
        "b": {"min": 0.5, "max": 8.0, "count": 3},
        "L": {"min": 1.0, "max": 4.0, "count": 2},
        "eps0": {"min": 0.0, "max": 0.2, "count": 4},
        "F2": {"min": 10.0, "max": 900.0, "count": 3}}),
        "regimes", "run_regimes.csv", 5, 6),
    "wall": ("wall", _doc(wall={"b": 4.0, "L": 2.0}, scan={
        "b": {"min": 4.0, "max": 6.0, "count": 2}}),
        "wall", "run_profile_b6_L2.csv", 400, 1),
    "evolve": ("evolve", _doc(evolve=_evolve(1.0)), "evolve",
               "run_trajectory.csv", 100, 4),
}


def flip_digit(path, row, col):
    """Change one digit of one CSV cell (a later digit of its mantissa)."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    cells = lines[row].split(",")
    cell = cells[col]
    digits = [i for i, ch in enumerate(cell) if ch.isdigit()]
    i = digits[min(3, len(digits) - 1)]
    cells[col] = cell[:i] + str((int(cell[i]) + 1) % 10) + cell[i + 1:]
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


class Scratch(unittest.TestCase):
    def setUp(self):
        self.work = os.path.join(ROOT, ".perfbench_out",
                                 f"selftest-{os.getpid()}-{self._testMethodName}")
        os.makedirs(self.work)
        self.addCleanup(shutil.rmtree, self.work, True)


class OutputCheckRejects(Scratch):
    def produce(self, name):
        command, doc, kind, _, _, _ = CASES[name]
        config = os.path.join(self.work, f"{name}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(self.work, name)
        self.assertEqual(cli_main([command, "--config", config, "--out", out,
                                   "--quiet"]), 0)
        check = {"kind": kind, "doc": doc, "constant_v": True}
        verdict = checks.check_op(check, out)
        self.assertIsNone(verdict.problem, verdict.problem)
        return check, out

    def test_flipped_digit(self):
        for name, (_, _, _, target, row, col) in CASES.items():
            with self.subTest(name):
                check, out = self.produce(name)
                flip_digit(os.path.join(out, target), row, col)
                self.assertIsNotNone(checks.check_op(check, out).problem)

    def test_flipped_digit_in_golden_output(self):
        entry = workloads.load_golden()["ops"]["preset:figure2:wall"]
        out = os.path.join(self.work, "figure2")
        self.assertEqual(cli_main(entry["argv"] + ["--out", out, "--quiet"]), 0)
        check = {"kind": "golden", "digests": entry["digests"]}
        self.assertIsNone(checks.check_op(check, out).problem)
        flip_digit(os.path.join(out, "figure2_sharpness.csv"), 1, 2)
        self.assertIn("SHA-256", checks.check_op(check, out).problem)

    def test_missing_file(self):
        for name, target in (("eos", "run_eos_scan_summary.txt"),
                             ("wall", "run_profile_b4_L2.csv"),
                             ("evolve", "run_trajectory.csv")):
            with self.subTest(name):
                check, out = self.produce(name)
                os.remove(os.path.join(out, target))
                self.assertIn("FileNotFoundError",
                              checks.check_op(check, out).problem)

    def test_nonzero_exit(self):
        good = workloads.make_ops("profiles", 0)[:1]
        good[0]["doc"]["scan"] = {"b": {"min": 20.0, "max": 20.0, "count": 1},
                                  "L": {"min": 1.0, "max": 1.0, "count": 1}}
        bad = {"key": "bad", "argv": ["eos-scan", "--config", "bad.json"],
               "check": {"kind": "eos", "doc": _doc()}, "doc": _doc()}
        ops = good + [bad]   # eos-scan without scan.X exits with 2
        argvs = workloads.write_inputs(ops, os.path.join(self.work, "in"), ROOT)
        result = run.run_child(ops, argvs, self.work, "plain", 0.0, False)
        self.assertEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], 1)
        self.assertIsNone(result["verdicts"][0].problem)
        self.assertEqual(result["verdicts"][1].problem, "exit code 2")


class FirstIntegralOracle(unittest.TestCase):
    def test_matches_tight_ode_solution(self):
        from scipy.integrate import solve_ivp
        X0, u0 = 1000.0, 50.0
        for background, hubble in (
                ({"kind": "desitter", "H": 1.3}, lambda t: 1.3),
                ({"kind": "powerlaw", "p": 0.6}, lambda t: 0.6 / t)):
            with self.subTest(background["kind"]):
                t0 = 0.5 if background["kind"] == "powerlaw" else 0.0
                t = np.linspace(t0, 1.0, 51)
                sol = solve_ivp(
                    lambda s, u: -6.0 * hubble(s) * u * (X0 + u) / (2 * X0 + 3 * u),
                    (t0, 1.0), [u0], method="DOP853", rtol=1e-13, atol=1e-300,
                    t_eval=t)
                u = checks.first_integral_u(
                    X0, u0, checks.log_scale_ratio(background, t, t0))
                np.testing.assert_allclose(u, sol.y[0], rtol=1e-9)

    def test_long_runs_do_not_overflow(self):
        u = checks.first_integral_u(1000.0, 50.0, np.array([0.0, 200.0]))
        self.assertAlmostEqual(u[0], 50.0, delta=50.0 * 1e-13)
        self.assertTrue(0.0 < u[1] < 1e-200 and math.isfinite(u[1]))


class MetricNames(unittest.TestCase):
    def test_run_reports_what_benchmark_json_declares(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        for key, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in declared[key]}, units)
        self.assertEqual([w["name"] for w in declared["workloads"]],
                         list(workloads.WORKLOADS))


class SeededInputs(Scratch):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload):
                first = workloads.make_ops(workload, 7)
                again = workloads.make_ops(workload, 7)
                other = workloads.make_ops(workload, 8)
                self.assertEqual(json.dumps(first), json.dumps(again))
                self.assertNotEqual(json.dumps(first), json.dumps(other))
                a = self.written(first, "a")
                self.assertEqual(a, self.written(again, "b"))

    def written(self, ops, name):
        directory = os.path.join(self.work, name)
        workloads.write_inputs(ops, directory, ROOT)
        return checks.file_digests(directory)


if __name__ == "__main__":
    unittest.main()
