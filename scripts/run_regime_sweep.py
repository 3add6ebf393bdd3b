#!/usr/bin/env python3
"""Regime sweep: classify (w, cs2) across wall steepness and model parameters.

Runs the regimes command on the shipped sweep configuration (or any
config passed with --config) and prints a count of rows per regime
label, which gives a quick phase-diagram overview.
"""

import argparse
import collections
import csv
import os
import sys

from kessence import cli
from kessence.config import load_config

DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..",
                              "configs", "regimes_sweep.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=DEFAULT_CONFIG)
    ap.add_argument("--out", default="out/regimes", help="output directory")
    args = ap.parse_args()

    status = cli.main(["regimes", "--config", args.config, "--out", args.out,
                       "--quiet"])
    if status:
        sys.exit(status)

    stem = load_config(args.config).output.stem
    table = os.path.join(args.out, f"{stem}_regimes.csv")
    with open(table, newline="") as fh:
        counts = collections.Counter(row["regime_label"]
                                     for row in csv.DictReader(fh))
    total = sum(counts.values())
    print(f"{total} rows in {table}")
    for label, n in counts.most_common():
        print(f"  {label:24s} {n:5d}  ({100.0 * n / total:.1f}%)")


if __name__ == "__main__":
    main()
