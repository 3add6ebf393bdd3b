"""Every public name the package promises resolves: the `__all__` lists of
`kessence.evolution` and `kessence.config`, the names `kessence/__init__.py`
imports, and every dotted `kessence.` reference in the README."""

import ast
import importlib
import os
import re

import pytest

import kessence

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _resolve(dotted):
    """The object a dotted path names: its longest importable module
    prefix, then attribute lookups (AttributeError if one is missing)."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


@pytest.mark.parametrize("module", ["kessence.evolution", "kessence.config"])
def test_all_lists_resolve(module):
    names = importlib.import_module(module).__all__
    assert names
    for name in names:
        _resolve(f"{module}.{name}")
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(names) <= set(namespace)


def test_package_imports_resolve():
    with open(kessence.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) > 40
    for name in names:
        _resolve(f"kessence.{name}")


def test_readme_references_resolve():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        refs = set(re.findall(r"\bkessence(?:\.\w+)+", fh.read()))
    assert "kessence.model.KineticModel" in refs
    for ref in sorted(refs):
        _resolve(ref)
