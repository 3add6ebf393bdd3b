"""The benchmark's traced run wraps names in the package by name.

`perfbench/spans.py` finds the functions it times (`cli.main`,
`cli._write_lines`, `walls.sample`, `evolution.solve_ivp` and every layer
function `cli` imports) with getattr; a renamed or removed one silently
drops its per-layer metric. This test fails instead.
"""

import importlib
import os

import kessence.cli
import kessence.errors
import kessence.evolution
import kessence.walls

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_every_wrap_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    main = kessence.cli.main
    recorder = spans.install(kessence.cli, kessence.walls, kessence.evolution,
                             kessence.errors)
    assert kessence.cli.main is main  # install prepares; attach swaps
    assert recorder.missing == []
    for name in ("cli.main", "cli.write", "walls.sample",
                 "evolution.solve_ivp"):
        assert name in recorder.names
