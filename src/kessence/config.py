"""Run configuration: strict JSON parsing, serialization, presets.

The file format is plain JSON whose schema is the domain classes: the
keys of a block are the fields of the class it builds (KineticModel,
WallProfile, ScanRange, OutputSpec, the potential or background class
its `kind` names, StepControl inside `evolve`), required when the field
has no default, each read as its field's type.  Parsing is strict: a
document that is not UTF-8 JSON raises ConfigError, as do unknown,
repeated or missing keys, values of the wrong type, non-finite numbers,
out-of-domain values (the classes' own ValueErrors) and an evolve window
whose a(t_end) is not a finite float; so a parsed RunConfig holds only
values that passed every domain check.  serialize_config() writes each
block's fields in field order, so parse(serialize(c)) == c and repeated
serializations are byte-identical.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from functools import cache
from typing import Optional, get_type_hints

import numpy as np

from .errors import MAX_ROWS, ConfigError, _invalid
from .evolution import (
    BackgroundSpec,
    DeSitter,
    FieldState,
    PowerLaw,
    StepControl,
    _check_window,
    initial_state,
)
from .model import ConstantPotential, KineticModel, PotentialSpec, QuadraticPotential
from .walls import WallProfile

__all__ = [
    "MAX_ROWS",
    "ScanRange",
    "EvolveSpec",
    "OutputSpec",
    "RunConfig",
    "parse_config",
    "load_config",
    "serialize_config",
    "preset_config",
    "PRESET_NAMES",
]


@dataclass(frozen=True)
class ScanRange:
    """Inclusive linear range with `count` points (count=1 pins `min`)."""

    min: float
    max: float
    count: int

    def __post_init__(self):
        if not 1 <= self.count <= MAX_ROWS:
            raise ValueError(f"count must be >= 1 and at most the row cap "
                             f"MAX_ROWS={MAX_ROWS}, got {self.count}")
        # np.linspace steps over max - min; past half the largest float a
        # step overflows
        if not 0.0 <= self.max - self.min <= sys.float_info.max / 2:
            raise ValueError(f"need min <= max and max - min at most half the "
                             f"largest float, got [{self.min}, {self.max}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)


# Scan names the commands read, with the domain of their values.  A range
# is finite with min <= max, so a range whose min is in the domain lies in
# it whole.
_POSITIVE = (lambda v: v > 0.0, "> 0")
_SCAN_DOMAINS = {
    "X": (lambda v: True, "finite"),
    "eps0": (lambda v: v >= 0.0, ">= 0"),
    "b": _POSITIVE,
    "L": _POSITIVE,
    "X0": _POSITIVE,
    "F2": _POSITIVE,
}


@dataclass(frozen=True)
class EvolveSpec:
    """What the evolve command integrates: from `init` to `t_end` under
    `control`, the kinetic-only (constant-V) or the full field equation."""

    t_end: float
    init: FieldState
    control: StepControl = StepControl()
    kinetic_only: bool = True


@dataclass(frozen=True)
class OutputSpec:
    """Where a run writes: files named <stem>_<suffix> inside `directory`."""

    directory: str = "out"
    stem: str = "run"

    def __post_init__(self):
        # A bare file name keeps every output file inside the directory.
        if (self.stem in ("", ".", "..") or os.sep in self.stem
                or (os.altsep and os.altsep in self.stem)):
            raise ValueError(f"stem must be a bare file name, got {self.stem!r}")


@dataclass(frozen=True)
class RunConfig:
    model: KineticModel
    potential: PotentialSpec
    background: BackgroundSpec
    output: OutputSpec
    wall: Optional[WallProfile] = None
    scan: Optional[dict] = None
    evolve: Optional[EvolveSpec] = None


def _require_keys(obj: dict, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")


# Per field type: the JSON values it accepts and the noun of its message.
_READ_AS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
            str: ((str,), "a string"), bool: ((bool,), "true/false")}


def _value(obj: dict, key: str, where: str, kind: type):
    """obj[key] as the value of a `kind` field; a float must be finite."""
    v = obj[key]
    accepts, noun = _READ_AS[kind]
    if not isinstance(v, accepts) or (isinstance(v, bool) and kind is not bool):
        raise ConfigError(f"{where}.{key} must be {noun}, got {v!r}")
    # NaN fails the comparison; an int too large for a float compares exactly.
    if kind is float and not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{where}.{key} must be finite, got {v!r}")
    return kind(v)


# The kind names of the potential and background blocks, with their classes.
_KINDS = {
    "potential": {"constant": ConstantPotential, "quadratic": QuadraticPotential},
    "background": {"desitter": DeSitter, "powerlaw": PowerLaw},
}
_KIND_OF = {cls: kind for kinds in _KINDS.values() for kind, cls in kinds.items()}


@cache
def _schema(cls) -> tuple:
    """The type of each key of a `cls` block, in field order, and the
    required keys: fields without a default."""
    types = get_type_hints(cls)
    return ({f.name: types[f.name] for f in fields(cls)},
            tuple(f.name for f in fields(cls) if f.default is MISSING))


def _block(obj, where: str, cls):
    """The `cls` that a block whose keys are the fields of `cls` describes."""
    types, required = _schema(cls)
    _require_keys(obj, where, required, types)
    with _invalid(where):
        return cls(**{key: _value(obj, key, where, types[key]) for key in obj})


def _kind_block(obj, where: str):
    """A potential or background block: `kind` picks its class from
    _KINDS, and its other keys are the fields of that class."""
    kinds = _KINDS[where]
    _require_keys(obj, where, ("kind",),
                  [key for cls in kinds.values() for key in _schema(cls)[0]])
    kind = _value(obj, "kind", where, str)
    if kind not in kinds:
        raise ConfigError(f"{where}.kind must be "
                          f"{' or '.join(map(repr, kinds))}, got {kind!r}")
    return _block({key: v for key, v in obj.items() if key != "kind"}, where,
                  kinds[kind])


def _parse_scan(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("scan must be an object of named ranges")
    out = {}
    for name, entry in obj.items():
        where = f"scan.{name}"
        if name not in _SCAN_DOMAINS:
            raise ConfigError(f"unknown scan name {name!r}; known names: "
                              f"{', '.join(_SCAN_DOMAINS)}")
        r = _block(entry, where, ScanRange)
        in_domain, rule = _SCAN_DOMAINS[name]
        if not in_domain(r.min):
            raise ConfigError(f"invalid {where}: values must be {rule}, "
                              f"got min={r.min}")
        out[name] = r
    return out


def _parse_evolve(obj, background: BackgroundSpec) -> EvolveSpec:
    # The state keys name initial_state's arguments, two renamed; the step
    # control keys are the fields of StepControl.
    state_args = {"phi": "phi", "X": "X", "phidot": "phidot", "t_start": "t",
                  "a_start": "a"}
    control_keys = _schema(StepControl)[0]
    _require_keys(obj, "evolve", ("t_end",),
                  (*state_args, "kinetic_only", *control_keys))
    t_end = _value(obj, "t_end", "evolve", float)
    state = {arg: _value(obj, key, "evolve", float)
             for key, arg in state_args.items() if key in obj}
    control = _block({key: obj[key] for key in control_keys if key in obj},
                     "evolve", StepControl)
    kinetic_only = (_value(obj, "kinetic_only", "evolve", bool)
                    if "kinetic_only" in obj else True)
    with _invalid("evolve"):
        init = initial_state(**state)
        _check_window(background, init, t_end, control.n_output)
        return EvolveSpec(t_end=t_end, init=init, control=control,
                          kinetic_only=kinetic_only)


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused if a key repeats (json.loads keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config document; unknown or repeated keys are errors."""
    try:
        root = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # bad JSON or an integer past Python's digit limit, or too deep nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _require_keys(root, "config", ("model", "potential", "background"),
                  ("wall", "scan", "evolve", "output"))
    background = _kind_block(root["background"], "background")
    return RunConfig(
        model=_block(root["model"], "model", KineticModel),
        potential=_kind_block(root["potential"], "potential"),
        background=background,
        wall=_block(root["wall"], "wall", WallProfile) if "wall" in root else None,
        scan=_parse_scan(root["scan"]) if "scan" in root else None,
        evolve=(_parse_evolve(root["evolve"], background)
                if "evolve" in root else None),
        output=(_block(root["output"], "output", OutputSpec)
                if "output" in root else OutputSpec()),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _fields(obj) -> dict:
    """The block of a domain object: `kind` first if its class has one,
    then its fields in order."""
    doc = {"kind": _KIND_OF[type(obj)]} if type(obj) in _KIND_OF else {}
    doc.update((key, getattr(obj, key)) for key in _schema(type(obj))[0])
    return doc


def serialize_config(config: RunConfig) -> str:
    doc = {"model": _fields(config.model),
           "potential": _fields(config.potential),
           "background": _fields(config.background)}
    if config.wall is not None:
        doc["wall"] = _fields(config.wall)
    if config.scan is not None:
        doc["scan"] = {name: _fields(r) for name, r in config.scan.items()}
    e = config.evolve
    if e is not None:
        # X where phidot = sqrt(2 X) to the bit (any X-given start), else phidot
        state = ({"X": e.init.X} if np.sqrt(2.0 * e.init.X).hex()
                 == float(e.init.phidot).hex() else {"phidot": e.init.phidot})
        doc["evolve"] = {"t_end": e.t_end, "phi": e.init.phi, **state,
                         "t_start": e.init.t, "a_start": e.init.a,
                         **_fields(e.control), "kinetic_only": e.kinetic_only}
    doc["output"] = _fields(config.output)
    return json.dumps(doc, indent=2) + "\n"


# Presets bundle the standard demonstration cases, one (name, output stem,
# scan, evolve) row each: the two profile steepnesses (figure1), the L-trio
# sharpness comparison (figure2), and the reference parameter point
# F2=1e3, eps0=1e-2, X0=1e3 with F0=-1 (paper-point).
_REFERENCE_MODEL = KineticModel(F2=1e3, X0=1e3, eps0=1e-2, F0=-1.0)
_PRESETS = {name: RunConfig(
    model=_REFERENCE_MODEL, potential=ConstantPotential(V0=1.0),
    background=DeSitter(H=1.0), wall=WallProfile(b=10.0, L=9.0), scan=scan,
    evolve=evolve, output=OutputSpec(directory="out", stem=stem))
    for name, stem, scan, evolve in (
        ("figure1", "figure1",
         {"b": ScanRange(3.0, 10.0, 2), "L": ScanRange(9.0, 9.0, 1)}, None),
        ("figure2", "figure2",
         {"b": ScanRange(10.0, 10.0, 1), "L": ScanRange(3.0, 9.0, 3)}, None),
        ("paper-point", "paper_point",
         {"X": ScanRange(1e3, 2e3, 101), "X0": ScanRange(1e3, 1e3, 1),
          "eps0": ScanRange(1e-2, 1e-2, 1), "F2": ScanRange(1e3, 1e3, 1)},
         EvolveSpec(t_end=3.0, init=initial_state(X=1.05e3))))}
PRESET_NAMES = tuple(_PRESETS)


def preset_config(name: str) -> RunConfig:
    """The named preset, with a scan dict of its own."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return replace(_PRESETS[name], scan=dict(_PRESETS[name].scan))
