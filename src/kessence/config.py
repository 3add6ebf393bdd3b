"""Run configuration: strict JSON parsing, serialization, presets.

The file format is plain JSON with a fixed schema.  Parsing is strict:
unknown keys raise ConfigError, as do missing required keys, values of
the wrong type, non-finite numbers and out-of-domain values.  Parsing
builds the domain objects the commands run (KineticModel, WallProfile,
FieldState, StepControl, ...), so every domain check happens here, once,
and a parsed RunConfig holds only values that passed it.
serialize() emits keys in a fixed order so that parse(serialize(c)) == c
and repeated serializations are byte-identical.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
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

# The most rows one output table may hold: ten times the largest benchmark
# table.  Scan counts and n_output are held to it here; the commands hold
# the sizes they derive from several ranges to it before computing them.
MAX_ROWS = 1_000_000


@dataclass(frozen=True)
class ScanRange:
    """Inclusive linear range with `count` points (count=1 pins `min`)."""

    min: float
    max: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.min > self.max:
            raise ValueError(f"min={self.min} exceeds max={self.max}")


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
    directory: str = "out"
    stem: str = "run"


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


@contextmanager
def _invalid(where: str):
    """Report a domain constructor's ValueError as ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from None


def _number(obj: dict, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
    # NaN fails the comparison; an int too large for a float compares exactly.
    if not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{where}.{key} must be finite, got {v!r}")
    return float(v)


def _row_count(obj: dict, key: str, where: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {v!r}")
    if v > MAX_ROWS:
        raise ConfigError(
            f"{where}.{key}={v} exceeds the row cap MAX_ROWS={MAX_ROWS}")
    return v


def _string(obj: dict, key: str, where: str) -> str:
    v = obj[key]
    if not isinstance(v, str):
        raise ConfigError(f"{where}.{key} must be a string, got {v!r}")
    return v


def _boolean(obj: dict, key: str, where: str) -> bool:
    v = obj[key]
    if not isinstance(v, bool):
        raise ConfigError(f"{where}.{key} must be true/false, got {v!r}")
    return v


def _parse_model(obj) -> KineticModel:
    _require_keys(obj, "model", ("F2", "X0"), ("eps0", "F0"))
    with _invalid("model"):
        return KineticModel(**{key: _number(obj, key, "model") for key in obj})


def _parse_potential(obj) -> PotentialSpec:
    _require_keys(obj, "potential", ("kind",),
                  ("V0", "m2"))
    kind = _string(obj, "kind", "potential")
    with _invalid("potential"):
        if kind == "constant":
            _require_keys(obj, "potential", ("kind", "V0"))
            return ConstantPotential(V0=_number(obj, "V0", "potential"))
        if kind == "quadratic":
            _require_keys(obj, "potential", ("kind", "m2"))
            return QuadraticPotential(m2=_number(obj, "m2", "potential"))
    raise ConfigError(f"potential.kind must be 'constant' or 'quadratic', got {kind!r}")


def _parse_background(obj) -> BackgroundSpec:
    _require_keys(obj, "background", ("kind",), ("H", "p", "t0"))
    kind = _string(obj, "kind", "background")
    with _invalid("background"):
        if kind == "desitter":
            _require_keys(obj, "background", ("kind", "H"))
            return DeSitter(H=_number(obj, "H", "background"))
        if kind == "powerlaw":
            _require_keys(obj, "background", ("kind", "p"), ("t0",))
            return PowerLaw(**{key: _number(obj, key, "background")
                               for key in ("p", "t0") if key in obj})
    raise ConfigError(f"background.kind must be 'desitter' or 'powerlaw', got {kind!r}")


def _parse_wall(obj) -> WallProfile:
    _require_keys(obj, "wall", ("b", "L"))
    with _invalid("wall"):
        return WallProfile(b=_number(obj, "b", "wall"), L=_number(obj, "L", "wall"))


def _parse_scan(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("scan must be an object of named ranges")
    out = {}
    for name, entry in obj.items():
        where = f"scan.{name}"
        if name not in _SCAN_DOMAINS:
            raise ConfigError(f"unknown scan name {name!r}; known names: "
                              f"{', '.join(_SCAN_DOMAINS)}")
        _require_keys(entry, where, ("min", "max", "count"))
        with _invalid(where):
            r = ScanRange(min=_number(entry, "min", where),
                          max=_number(entry, "max", where),
                          count=_row_count(entry, "count", where))
        in_domain, rule = _SCAN_DOMAINS[name]
        if not in_domain(r.min):
            raise ConfigError(f"invalid {where}: values must be {rule}, "
                              f"got min={r.min}")
        out[name] = r
    return out


def _parse_evolve(obj, background: BackgroundSpec) -> EvolveSpec:
    _require_keys(obj, "evolve", ("t_end",),
                  ("phi", "X", "phidot", "t_start", "a_start",
                   "rel_tol", "abs_tol", "n_output", "kinetic_only"))
    t_end = _number(obj, "t_end", "evolve")
    state = {arg: _number(obj, key, "evolve")
             for key, arg in (("phi", "phi"), ("X", "X"), ("phidot", "phidot"),
                              ("t_start", "t"), ("a_start", "a"))
             if key in obj}
    control = {key: _number(obj, key, "evolve")
               for key in ("rel_tol", "abs_tol") if key in obj}
    if "n_output" in obj:
        control["n_output"] = _row_count(obj, "n_output", "evolve")
    kinetic_only = (_boolean(obj, "kinetic_only", "evolve")
                    if "kinetic_only" in obj else True)
    with _invalid("evolve"):
        init = initial_state(**state)
        control = StepControl(**control)
        _check_window(background, init, t_end, control.n_output)
        return EvolveSpec(t_end=t_end, init=init, control=control,
                          kinetic_only=kinetic_only)


def _parse_output(obj) -> OutputSpec:
    _require_keys(obj, "output", (), ("directory", "stem"))
    kwargs = {}
    if "directory" in obj:
        kwargs["directory"] = _string(obj, "directory", "output")
    if "stem" in obj:
        stem = kwargs["stem"] = _string(obj, "stem", "output")
        # Output names are <stem>_<suffix> inside the output directory.
        if (stem in ("", ".", "..") or os.sep in stem
                or (os.altsep and os.altsep in stem)):
            raise ConfigError(
                f"output.stem must be a bare file name, got {stem!r}")
    return OutputSpec(**kwargs)


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config document.  Strict: unknown keys are errors."""
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _require_keys(root, "config", ("model", "potential", "background"),
                  ("wall", "scan", "evolve", "output"))
    background = _parse_background(root["background"])
    return RunConfig(
        model=_parse_model(root["model"]),
        potential=_parse_potential(root["potential"]),
        background=background,
        wall=_parse_wall(root["wall"]) if "wall" in root else None,
        scan=_parse_scan(root["scan"]) if "scan" in root else None,
        evolve=(_parse_evolve(root["evolve"], background)
                if "evolve" in root else None),
        output=_parse_output(root["output"]) if "output" in root else OutputSpec(),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _model_dict(m: KineticModel) -> dict:
    return {"F2": m.F2, "X0": m.X0, "eps0": m.eps0, "F0": m.F0}


def _potential_dict(p: PotentialSpec) -> dict:
    if isinstance(p, ConstantPotential):
        return {"kind": "constant", "V0": p.V0}
    return {"kind": "quadratic", "m2": p.m2}


def _background_dict(b: BackgroundSpec) -> dict:
    if isinstance(b, DeSitter):
        return {"kind": "desitter", "H": b.H}
    return {"kind": "powerlaw", "p": b.p, "t0": b.t0}


def _evolve_dict(e: EvolveSpec) -> dict:
    # The state is written as phidot, which an X-given config parsed to.
    return {"t_end": e.t_end, "phi": e.init.phi, "phidot": e.init.phidot,
            "t_start": e.init.t, "a_start": e.init.a,
            "rel_tol": e.control.rel_tol, "abs_tol": e.control.abs_tol,
            "n_output": e.control.n_output, "kinetic_only": e.kinetic_only}


def serialize_config(config: RunConfig) -> str:
    doc = {
        "model": _model_dict(config.model),
        "potential": _potential_dict(config.potential),
        "background": _background_dict(config.background),
    }
    if config.wall is not None:
        doc["wall"] = {"b": config.wall.b, "L": config.wall.L}
    if config.scan is not None:
        doc["scan"] = {name: {"min": r.min, "max": r.max, "count": r.count}
                       for name, r in config.scan.items()}
    if config.evolve is not None:
        doc["evolve"] = _evolve_dict(config.evolve)
    doc["output"] = {"directory": config.output.directory,
                     "stem": config.output.stem}
    return json.dumps(doc, indent=2) + "\n"


# Presets bundle the standard demonstration cases: the two profile
# steepnesses (figure1), the L-trio sharpness comparison (figure2), and
# the reference parameter point F2=1e3, eps0=1e-2, X0=1e3 with F0=-1
# (paper-point).
_REFERENCE_MODEL = KineticModel(F2=1e3, X0=1e3, eps0=1e-2, F0=-1.0)

PRESET_NAMES = ("figure1", "figure2", "paper-point")


def preset_config(name: str) -> RunConfig:
    common = dict(model=_REFERENCE_MODEL,
                  potential=ConstantPotential(V0=1.0),
                  background=DeSitter(H=1.0))
    if name == "figure1":
        return RunConfig(
            **common,
            wall=WallProfile(b=10.0, L=9.0),
            scan={"b": ScanRange(3.0, 10.0, 2), "L": ScanRange(9.0, 9.0, 1)},
            output=OutputSpec(directory="out", stem="figure1"),
        )
    if name == "figure2":
        return RunConfig(
            **common,
            wall=WallProfile(b=10.0, L=9.0),
            scan={"b": ScanRange(10.0, 10.0, 1), "L": ScanRange(3.0, 9.0, 3)},
            output=OutputSpec(directory="out", stem="figure2"),
        )
    if name == "paper-point":
        return RunConfig(
            **common,
            wall=WallProfile(b=10.0, L=9.0),
            scan={"X": ScanRange(1e3, 2e3, 101),
                  "X0": ScanRange(1e3, 1e3, 1),
                  "eps0": ScanRange(1e-2, 1e-2, 1),
                  "F2": ScanRange(1e3, 1e3, 1)},
            evolve=EvolveSpec(t_end=3.0, init=initial_state(X=1.05e3)),
            output=OutputSpec(directory="out", stem="paper_point"),
        )
    raise ConfigError(
        f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
