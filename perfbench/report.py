"""Run every workload once and print all its metrics, output check included.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

For each workload this prints run.py's lines: every metric by name with its
unit, the error rate (failed / attempted operations) and what failed,
followed by run.py's JSON line.
"""

import argparse
import os
import subprocess
import sys

from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, RUN, "--workload", workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
