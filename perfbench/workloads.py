"""Seeded inputs for the benchmark workloads.

Every input is drawn from one ``numpy.random.Generator`` seeded with the
benchmark's ``--seed``, so the same seed always yields the same operations.
Continuous parameters are drawn stratified (one value per equal-width
stratum, in random order): the inputs change with the seed while the amount
of work per pass stays nearly constant, which keeps run-to-run spread down.

An operation is one ``kessence.cli.main`` call.  Each is a dict with

* ``key``: a stable name for reports,
* ``argv``: the CLI arguments, without ``--out`` and ``--quiet``,
* ``check``: what the output check needs (see ``checks.py``),
* ``doc``: for generated configs, the JSON document to write.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("tables", "profiles", "sweep")

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

EOS_ROWS = 40001           # eos-scan rows per pass
EOS_STEP = 1.0 / 16.0      # dyadic X step, so X0/3 and X0 are exact grid points
REGIME_GRID = (20, 10, 20, 10)  # b x L x eps0 x F2 -> 40 000 regimes rows
WALL_ROWS = 144_000        # target profile rows of the wall family
WALL_B, WALL_L = 6, 4      # wall family size (b values x L values)
DENSE_ROWS = 100_000       # n_output of the dense evolve
SWEEP_PER_KIND = 50        # evolves per sweep category
SWEEP_KINDS = ("kinetic_desitter", "full_desitter", "kinetic_powerlaw",
               "full_quadratic")


def _strata(rng, n, lo, hi, log=False):
    """n values in [lo, hi], one per equal-width stratum, shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    if log:
        return [float(v) for v in lo * (hi / lo) ** u]
    return [float(v) for v in lo + (hi - lo) * u]


def _uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _range(lo, hi, count):
    return {"min": lo, "max": hi, "count": count}


def _model(rng):
    return {"F2": float(10 ** rng.uniform(2, 4)),
            "X0": float(10 ** rng.uniform(2.5, 3.5)),
            "eps0": _uniform(rng, 1e-3, 1e-1),
            "F0": _uniform(rng, -2.0, -0.5)}


def _doc(model, scan=None, wall=None, evolve=None, potential=None,
         background=None):
    doc = {"model": model,
           "potential": potential or {"kind": "constant", "V0": 1.0},
           "background": background or {"kind": "desitter", "H": 1.0}}
    if wall is not None:
        doc["wall"] = wall
    if scan is not None:
        doc["scan"] = scan
    if evolve is not None:
        doc["evolve"] = evolve
    doc["output"] = {"directory": "out", "stem": "run"}
    return doc


def _generated(key, command, doc, check):
    return {"key": key, "argv": [command, "--config", f"{key}.json"],
            "check": check, "doc": doc}


def _evolve_check(doc):
    # The kinetic-only integrator solves the constant-V equation whatever
    # potential the config names.
    constant_v = (doc["evolve"].get("kinetic_only", True)
                  or doc["potential"]["kind"] == "constant")
    return {"kind": "evolve", "doc": doc, "constant_v": constant_v}


def _evolve_op(key, doc):
    return _generated(key, "evolve", doc, _evolve_check(doc))


# ---------------------------------------------------------------------------
# tables: the per-row closed-form path of eos-scan and regimes
# ---------------------------------------------------------------------------

def _tables(rng):
    model = _model(rng)
    # X0 = 3 q makes X0/3 = q and X0 exact multiples of the dyadic step, so
    # the cs2 pole row, the X = X0 row, X < X0 rows and X > X0 rows appear.
    q = int(rng.integers(300, 501))
    model["X0"] = 3.0 * q
    x_min = q - int(rng.integers(100, 2001)) * EOS_STEP
    x_max = x_min + (EOS_ROWS - 1) * EOS_STEP
    eos = _doc(model, scan={"X": _range(x_min, x_max, EOS_ROWS)})

    nb, nL, ne, nF = REGIME_GRID
    regimes = _doc(dict(model), scan={
        "b": _range(_uniform(rng, 0.1, 0.5), _uniform(rng, 5.0, 20.0), nb),
        "L": _range(_uniform(rng, 0.5, 2.0), _uniform(rng, 5.0, 10.0), nL),
        # eps0 starts at 0, where both cs2 columns are NAN by definition.
        "eps0": _range(0.0, _uniform(rng, 0.05, 0.5), ne),
        "F2": _range(_uniform(rng, 5.0, 50.0), _uniform(rng, 500.0, 5000.0), nF),
    }, wall={"b": 1.0, "L": 1.0})
    return [_generated("eos", "eos-scan", eos, {"kind": "eos", "doc": eos}),
            _generated("regimes", "regimes", regimes,
                       {"kind": "regimes", "doc": regimes})]


# ---------------------------------------------------------------------------
# profiles: large vectorised outputs (steep wall family, dense evolve)
# ---------------------------------------------------------------------------

def _profiles(rng):
    b_lo = _uniform(rng, 20.0, 25.0)
    b_hi = b_lo + 10.0
    # A profile has about 40 b L + 1 rows; choose the L range so the family
    # writes close to WALL_ROWS rows whatever b range was drawn.
    mean_L = WALL_ROWS / (40.0 * WALL_B * 0.5 * (b_lo + b_hi) * WALL_L)
    L_lo = mean_L * _uniform(rng, 0.4, 0.8)
    L_hi = 2.0 * mean_L - L_lo
    wall = _doc(_model(rng), wall={"b": b_lo, "L": L_lo},
                scan={"b": _range(b_lo, b_hi, WALL_B),
                      "L": _range(L_lo, L_hi, WALL_L)})

    model = _model(rng)
    H = _uniform(rng, 0.5, 2.0)
    dense = _doc(model, background={"kind": "desitter", "H": H}, evolve={
        "t_end": _uniform(rng, 1.0, 3.0) / H,
        "X": (1.0 + float(10 ** rng.uniform(-2, np.log10(0.5)))) * model["X0"],
        "phi": 0.0, "t_start": 0.0, "a_start": 1.0,
        "rel_tol": 1e-8, "abs_tol": 1e-10,
        "n_output": DENSE_ROWS, "kinetic_only": True})
    return [_generated("wall", "wall", wall, {"kind": "wall", "doc": wall}),
            _evolve_op("evolve_dense", dense)]


# ---------------------------------------------------------------------------
# sweep: many short evolves plus every shipped config and preset
# ---------------------------------------------------------------------------

def _sweep_evolve(rng, kind, c, k):
    """One evolve of the given category.

    X(0) = (1 + c) X0 as in scripts/run_attractor_study.py; the run lasts
    k Hubble times measured at the start (k up to 10).
    """
    model = _model(rng)
    kinetic_only = kind.startswith("kinetic")
    potential = {"kind": "constant", "V0": _uniform(rng, 0.5, 2.0)}
    powerlaw = kind == "kinetic_powerlaw" or (
        kind == "full_quadratic" and rng.random() < 0.5)
    if kind == "full_quadratic":
        potential = {"kind": "quadratic", "m2": float(10 ** rng.uniform(-5, -2))}
    if powerlaw:
        p = _uniform(rng, 0.4, 0.8)
        t_start = _uniform(rng, 0.5, 2.0)
        background = {"kind": "powerlaw", "p": p, "t0": 1.0}
        t_end = t_start + k * t_start / p
    else:
        H = _uniform(rng, 0.5, 2.0)
        t_start = _uniform(rng, 0.0, 1.0)
        background = {"kind": "desitter", "H": H}
        t_end = t_start + k / H
    evolve = {"t_end": t_end, "X": (1.0 + c) * model["X0"],
              "phi": _uniform(rng, 1.0, 10.0), "t_start": t_start,
              "a_start": _uniform(rng, 0.5, 2.0), "rel_tol": 1e-8,
              "abs_tol": 1e-10, "n_output": 201, "kinetic_only": kinetic_only}
    return _doc(model, potential=potential, background=background,
                evolve=evolve)


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def shipped_ops(golden):
    """Operations on the shipped configs and presets recorded in golden.json.

    The list is fixed by what was recorded, so adding a config later does not
    change the work a pass does.  Evolve outputs carry no digest: constant-V
    evolves are checked against the first integral instead.
    """
    ops = []
    for key, entry in golden["ops"].items():
        argv = list(entry["argv"])
        if entry["evolve_doc"] is not None:
            check = _evolve_check(entry["evolve_doc"])
        else:
            check = {"kind": "golden", "digests": entry["digests"]}
        ops.append({"key": key, "argv": argv, "check": check, "doc": None})
    return ops


def _sweep(rng):
    ops = []
    for kind in SWEEP_KINDS:
        cs = _strata(rng, SWEEP_PER_KIND, 1e-3, 0.5, log=True)
        ks = _strata(rng, SWEEP_PER_KIND, 0.2, 10.0)
        for i, (c, k) in enumerate(zip(cs, ks)):
            ops.append(_evolve_op(f"{kind}_{i:02d}",
                                  _sweep_evolve(rng, kind, c, k)))
    return ops + shipped_ops(load_golden())


_BUILDERS = {"tables": _tables, "profiles": _profiles, "sweep": _sweep}


def make_ops(workload: str, seed: int):
    """The operations of one workload pass, drawn from ``seed``."""
    return _BUILDERS[workload](np.random.default_rng(seed))


def write_inputs(ops, input_dir: str, root: str):
    """Write generated configs to input_dir; return each op's full argv.

    Shipped configs are referenced in place (relative to the checkout root),
    generated ones by their path in input_dir.
    """
    os.makedirs(input_dir, exist_ok=True)
    argvs = []
    for op in ops:
        argv = list(op["argv"])
        if op["doc"] is not None:
            path = os.path.join(input_dir, argv[2])
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op["doc"], fh, indent=1)
            argv[2] = path
        elif "--config" in argv:
            i = argv.index("--config") + 1
            argv[i] = os.path.join(root, argv[i])
        argvs.append(argv)
    return argvs
