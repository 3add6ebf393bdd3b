"""Record golden.json: the shipped configs and presets the sweep runs.

    python3 perfbench/record_golden.py

Runs every configs/*.json with each command its blocks serve, and every
preset, through kessence.cli.main from this checkout's src/, and stores the
SHA-256 of every non-evolve output file.  Evolve operations store the
config document instead, for the first-integral check.  Re-record only on
purpose: the digests are what makes a changed output byte fail the sweep.
"""

import glob
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PRESETS = {"figure1": ["wall"], "figure2": ["wall"],
           "paper-point": ["eos-scan", "evolve", "regimes"]}
# The paper-point preset as a config document (see kessence.config).
PAPER_POINT_EVOLVE = {
    "model": {"F2": 1e3, "X0": 1e3, "eps0": 1e-2, "F0": -1.0},
    "potential": {"kind": "constant", "V0": 1.0},
    "background": {"kind": "desitter", "H": 1.0},
    "evolve": {"t_end": 3.0, "X": 1.05e3},
    "output": {"directory": "out", "stem": "paper_point"},
}


def commands_for(doc):
    """The CLI commands a config document has the blocks for."""
    scan = doc.get("scan", {})
    out = []
    if "X" in scan:
        out.append("eos-scan")
    if "evolve" in doc:
        out.append("evolve")
    if "eps0" in scan and "F2" in scan:
        out.append("regimes")
    elif "wall" in doc:
        out.append("wall")
    return out


def golden_ops():
    ops = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        rel = os.path.relpath(path, ROOT)
        for command in commands_for(doc):
            name = os.path.splitext(os.path.basename(path))[0]
            ops[f"config:{name}:{command}"] = {
                "argv": [command, "--config", rel],
                "evolve_doc": doc if command == "evolve" else None}
    for preset, commands in PRESETS.items():
        for command in commands:
            ops[f"preset:{preset}:{command}"] = {
                "argv": [command, "--preset", preset],
                "evolve_doc": PAPER_POINT_EVOLVE if command == "evolve" else None}
    return ops


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from checks import file_digests
    from kessence.cli import main as cli_main

    scratch = os.path.join(ROOT, ".perfbench_out", "golden")
    ops = golden_ops()
    try:
        for key, op in ops.items():
            out = os.path.join(scratch, key.replace(":", "_"))
            argv = list(op["argv"])
            if "--config" in argv:
                argv[2] = os.path.join(ROOT, argv[2])
            if cli_main(argv + ["--out", out, "--quiet"]) != 0:
                raise SystemExit(f"{key} failed")
            op["digests"] = ({} if op["evolve_doc"] is not None
                             else file_digests(out))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump({"ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(ops)} operations")


if __name__ == "__main__":
    main()
