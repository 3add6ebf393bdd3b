"""Tracing for the per-layer run, done from outside the package.

``install`` wraps, in the child interpreter,

* every function that ``kessence.cli`` imported from ``config``, ``model``,
  ``walls`` or ``evolution`` (found by its defining module, so renamed or
  new functions are traced too), and the ``__init__`` of every such class,
* ``kessence.walls.sample`` as seen by ``walls.sharpness``, to count points,
* ``solve_ivp`` as seen by ``kessence.evolution``, to sum ``nfev``,
* the file writer ``kessence.cli._write_lines``,

and ``kessence.cli.main`` itself as the root span of each operation.
``Recorder.attach`` puts the traced forms in place and ``detach`` restores
the originals, so traced and untraced passes can alternate in one process.
Spans (id, name, start, end, parent, operation, value, flag) are kept in
memory as int64 columns and written once, at the end, with
``Recorder.save``.  ``layer_metrics`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("config", "model", "walls", "evolution")
COLUMNS = ("id", "name", "start", "end", "parent", "op", "value", "flag")
NO_FLAG, GUARD_RAISED, OTHER_RAISED = 0, 1, 2

# Metrics that need one particular wrap target; each is reported missing
# (left out) when its target no longer exists.
NEEDS = {
    "walls.points_sampled": ("walls.sample",),
    "walls.sample_reuse": ("walls.sample",),
    "evolution.rhs_calls": ("evolution.solve_ivp",),
    "evolution.rhs_us_per_call": ("evolution.solve_ivp",),
    "evolution.solves": ("evolution.evolve_kinetic_only", "evolution.evolve_full"),
    "evolution.fit_s": ("evolution.fit_scaling", "evolution.scaling_slope"),
    "evolution.fit_raises": ("evolution.fit_scaling", "evolution.scaling_slope"),
    "cli.write_s": ("cli.write",),
}
FIT_SPANS = ("evolution.fit_scaling", "evolution.scaling_slope")
SOLVE_SPANS = ("evolution.evolve_kinetic_only", "evolution.evolve_full")


class Recorder:
    """In-memory span store shared by all wrappers of one child process."""

    def __init__(self):
        self.cols = tuple(array("q") for _ in COLUMNS)
        self.names = []
        self.missing = []
        self.op = -1
        self.swaps = []   # (owner, attribute, original, traced form)
        self._stack = [-1]
        self._next = 0

    def wrap(self, fn, name, value=None, guard=()):
        """fn with a span named name around each call.

        value(result) gives the span's integer payload; guard is the
        exception type counted as a pole-guard raise.
        """
        name_id = len(self.names)
        self.names.append(name)
        ids, names, starts, ends, parents, ops, values, flags = self.cols
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next
            self._next = span + 1
            parent = stack[-1]
            stack.append(span)
            flag, payload = NO_FLAG, 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    payload = value(result)
                return result
            except BaseException as exc:
                flag = GUARD_RAISED if isinstance(exc, guard) else OTHER_RAISED
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                ids.append(span)
                names.append(name_id)
                starts.append(start)
                ends.append(end)
                parents.append(parent)
                ops.append(self.op)
                values.append(payload)
                flags.append(flag)

        return traced

    def attach(self):
        for owner, attr, _, traced in self.swaps:
            setattr(owner, attr, traced)

    def detach(self):
        for owner, attr, original, _ in self.swaps:
            setattr(owner, attr, original)

    def save(self, path):
        np.save(path, np.stack([np.frombuffer(c, dtype=np.int64)
                                for c in self.cols]))


def _layer(obj):
    module = getattr(obj, "__module__", "") or ""
    head, _, tail = module.rpartition(".")
    return tail if head == "kessence" and tail in LAYERS else None


def install(cli, walls, evolution, errors) -> Recorder:
    """Prepare traced forms of the layer boundaries (see module doc)."""
    rec = Recorder()
    guard = getattr(errors, "DegenerateDenominator", ())
    traced = {}   # original callable -> its one traced form

    def wrap(owner, attr, name, value=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            rec.missing.append(name)
            return
        if fn not in traced:
            traced[fn] = rec.wrap(fn, name, value, guard)
        rec.swaps.append((owner, attr, fn, traced[fn]))

    wrap(cli, "main", "cli.main")
    wrap(walls, "sample", "walls.sample", value=lambda s: len(s.x))
    wrap(evolution, "solve_ivp", "evolution.solve_ivp", value=lambda sol: sol.nfev)
    wrap(cli, "_write_lines", "cli.write")
    for attr, obj in list(vars(cli).items()):
        layer = _layer(obj)
        if layer is None:
            continue
        if inspect.isfunction(obj):
            wrap(cli, attr, f"{layer}.{attr}")
        elif inspect.isclass(obj) and "__init__" in vars(obj):
            # Wrapping the class itself would break isinstance checks.
            wrap(obj, "__init__", f"{layer}.{attr}")
    for targets in NEEDS.values():
        rec.missing.extend(n for n in targets
                           if n not in rec.names and n not in rec.missing)
    return rec


def layer_metrics(spans, names, n_passes, missing):
    """Per-pass layer metrics from saved span columns.

    A span's self time is its duration minus its children's durations, so
    the self times of all spans add up to the root (``cli.main``) spans.
    Times are means over the traced passes; counts are per pass.
    """
    cols = dict(zip(COLUMNS, spans[:, np.argsort(spans[0])]))
    dur = (cols["end"] - cols["start"]) * 1e-9
    has_parent = cols["parent"] >= 0
    self_s = dur - np.bincount(cols["parent"][has_parent],
                               weights=dur[has_parent], minlength=dur.size)

    def sel(*exact, prefix=None):
        """Mask of the spans whose name is in exact or starts with prefix."""
        hit = np.array([n in exact or bool(prefix and n.startswith(prefix))
                        for n in names])
        return hit[cols["name"]]

    def per_pass(x):
        return float(x) / n_passes

    out = {}
    for layer, time_name in (("config", "config.parse_s"), ("model", "model.eval_s")):
        m = sel(prefix=layer + ".")
        out[time_name] = per_pass(self_s[m].sum())
        out[f"{layer}.calls"] = per_pass(m.sum())
    out["model.guard_raises"] = per_pass(
        (sel(prefix="model.") & (cols["flag"] == GUARD_RAISED)).sum())

    out["walls.sample_s"] = per_pass(self_s[sel(prefix="walls.")].sum())
    out["walls.points_sampled"] = per_pass(cols["value"][sel("walls.sample")].sum())

    fits = sel(*FIT_SPANS)
    solve_ivp = sel("evolution.solve_ivp")
    out["evolution.solve_s"] = per_pass(self_s[sel(prefix="evolution.") & ~fits].sum())
    out["evolution.solves"] = per_pass(sel(*SOLVE_SPANS).sum())
    rhs_calls = cols["value"][solve_ivp].sum()
    out["evolution.rhs_calls"] = per_pass(rhs_calls)
    out["evolution.rhs_us_per_call"] = (
        float(dur[solve_ivp].sum() / rhs_calls * 1e6) if rhs_calls else 0.0)
    out["evolution.fit_s"] = per_pass(self_s[fits].sum())
    out["evolution.fit_raises"] = per_pass((fits & (cols["flag"] != NO_FLAG)).sum())

    out["cli.format_s"] = per_pass(self_s[sel("cli.main")].sum())
    out["cli.write_s"] = per_pass(self_s[sel("cli.write")].sum())

    gone = set(missing)
    return {k: v for k, v in out.items() if not gone & set(NEEDS.get(k, ()))}
