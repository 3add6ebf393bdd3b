"""Benchmark child: a fresh interpreter that runs one workload's passes.

    child.py ROOT probe
    child.py ROOT run PLAN RESULT TRACE

Both forms import ``kessence.cli`` from ROOT/src and then print ``ready``;
the parent times interpreter start to that line as set-up.  ``probe`` then
prints the host's speed factor (SpeedProbe.factor) and stops.  ``run`` repeats the plan's operations (one ``kessence.cli.main``
call each) pass after pass for the plan's number of seconds, at least
``min_passes`` times.  Pass 0 is kept on disk for the parent's output
check; every later pass is compared with it by SHA-256 and deleted.  With
TRACE 1 untraced and traced passes alternate (the layer boundaries are
wrapped only for the traced ones, see spans.py) and the spans are saved
next to RESULT at the end; with TRACE 0 the host's CPU speed is sampled
during the passes (see SpeedProbe).
"""

import contextlib
import json
import os
import shutil
import signal
import sys
import traceback
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PROBE_EVERY_S = 0.02
# Duration of speed_reference() that defines nominal speed: about its time
# on an uncontended core of the 2-vCPU cloud VM the bounds were set on
# (Python 3.11, numpy 2.4).
NOMINAL_REFERENCE_S = 2.2e-4


def speed_reference():
    """A fixed mix of interpreted float formatting and small numpy calls."""
    text = ",".join([repr(k * 1.0000001 + 0.1) for k in range(300)])
    a = np.array([1.0, 2.0])
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5
    return len(text) + float(a[0])


class SpeedProbe:
    """Samples the host's CPU speed while the passes run.

    Shared hosts change a core's speed by up to 2x within seconds, which no
    number of passes averages away.  Every PROBE_EVERY_S of wall time a
    SIGALRM handler times speed_reference() between two bytecodes of the
    program.  ``normalise`` removes the probe's own time from an interval
    and rescales the rest to nominal speed by the mean of
    NOMINAL_REFERENCE_S / sample over the samples in and next to it.
    """

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def _sample(self, signum, frame):
        start = perf_counter()
        speed_reference()
        self.at.append(start)
        self.took.append(perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @staticmethod
    def factor(samples=40):
        """Mean of NOMINAL_REFERENCE_S / duration over fresh samples."""
        total = 0.0
        for _ in range(samples):
            start = perf_counter()
            speed_reference()
            total += NOMINAL_REFERENCE_S / (perf_counter() - start)
        return total / samples

    def normalise(self, start, end):
        """(program time in [start, end], the same at nominal speed)."""
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        work = (end - start) - sum(self.took[lo:hi])
        near = self.took[max(lo - 1, 0):hi + 1]
        if not near:
            return work, work
        return work, work * sum(NOMINAL_REFERENCE_S / t for t in near) / len(near)


def run(cli, plan, result_path, trace):
    """Run the passes; with trace, every odd pass runs with spans attached."""
    from checks import file_digests

    recorder = None
    if trace:
        import kessence.errors
        import kessence.evolution
        import kessence.walls
        import spans
        recorder = spans.install(cli, kessence.walls, kessence.evolution,
                                 kessence.errors)

    ops = plan["ops"]
    passes, first_digests = [], None
    probe = SpeedProbe()
    deadline = perf_counter() + plan["seconds"]
    while len(passes) < plan["min_passes"] or perf_counter() < deadline:
        k = len(passes)
        traced = trace and k % 2 == 1
        pass_dir = os.path.join(plan["out_root"], f"pass{k}")
        dirs = [os.path.join(pass_dir, f"op{i:03d}") for i in range(len(ops))]
        codes, bounds = [], []
        if traced:
            recorder.attach()
        # The speed probe would run inside spans, so traced runs do without.
        with contextlib.nullcontext() if trace else probe:
            for i, (argv, out) in enumerate(zip(ops, dirs)):
                if traced:
                    recorder.op = k * len(ops) + i
                t0 = perf_counter()
                try:
                    code = cli.main(argv + ["--out", out, "--quiet"])
                except SystemExit as exc:     # argparse usage errors
                    code = exc.code
                except Exception:
                    traceback.print_exc()
                    code = -1
                bounds.append((t0, perf_counter()))
                codes.append(code)
        if traced:
            recorder.detach()
        op_s, op_norm_s = zip(*(probe.normalise(a, b) for a, b in bounds))

        digests = [file_digests(d) if os.path.isdir(d) else {} for d in dirs]
        if first_digests is None:
            first_digests, changed = digests, []
        else:
            changed = [i for i, (a, b) in enumerate(zip(first_digests, digests))
                       if a != b]
            shutil.rmtree(pass_dir)
        passes.append({"traced": traced,
                       "wall": probe.normalise(bounds[0][0], bounds[-1][1])[0],
                       "wall_norm": sum(op_norm_s), "op_s": op_s,
                       "op_norm_s": op_norm_s, "codes": codes,
                       "changed": changed})

    result = {"passes": passes}
    if recorder is not None:
        recorder.save(result_path + ".spans.npy")
        result["names"] = recorder.names
        result["missing"] = recorder.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    root, mode = argv[1], argv[2]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import kessence.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"kessence imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if mode == "probe":
        # Speed right after the imports, to put set-up at nominal speed.
        print(repr(SpeedProbe.factor()), flush=True)
        return 0
    with open(argv[3], encoding="utf-8") as fh:
        plan = json.load(fh)
    run(cli, plan, argv[4], argv[5] == "1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
