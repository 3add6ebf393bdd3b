"""Tests for config parsing, serialization round-trips, and presets."""

import glob
import json
import math
import os
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kessence.config import (
    MAX_ROWS,
    PRESET_NAMES,
    EvolveSpec,
    OutputSpec,
    RunConfig,
    ScanRange,
    load_config,
    parse_config,
    preset_config,
    serialize_config,
)
from kessence.errors import ConfigError
from kessence.evolution import DeSitter, PowerLaw, StepControl, initial_state
from kessence.model import ConstantPotential, KineticModel, QuadraticPotential
from kessence.walls import WallProfile

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

MINIMAL = """
{
  "model": {"F2": 1000.0, "X0": 1000.0},
  "potential": {"kind": "constant", "V0": 1.0},
  "background": {"kind": "desitter", "H": 1.0}
}
"""


def test_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.model == KineticModel(F2=1000.0, X0=1000.0)
    assert cfg.potential == ConstantPotential(V0=1.0)
    assert cfg.background == DeSitter(H=1.0)
    assert cfg.output == OutputSpec()
    assert cfg.wall is None and cfg.scan is None and cfg.evolve is None


def test_full_config_round_trip():
    cfg = RunConfig(
        model=KineticModel(F2=5.0, X0=2.0, eps0=0.25, F0=-1.0),
        potential=QuadraticPotential(m2=1e-4),
        background=PowerLaw(p=0.5, t0=2.0),
        wall=WallProfile(b=4.0, L=6.0),
        scan={"b": ScanRange(1.0, 8.0, 4), "eps0": ScanRange(0.1, 0.1, 1)},
        evolve=EvolveSpec(t_end=5.0, init=initial_state(phidot=-3.0, t=1.0),
                          control=StepControl(n_output=33),
                          kinetic_only=False),
        output=OutputSpec(directory="results", stem="case7"),
    )
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    # serialization is deterministic
    assert serialize_config(parse_config(text)) == text


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_round_trip(name):
    cfg = preset_config(name)
    assert parse_config(serialize_config(cfg)) == cfg


def test_preset_contents():
    fig2 = preset_config("figure2")
    assert fig2.scan["L"] == ScanRange(3.0, 9.0, 3)
    assert fig2.wall == WallProfile(b=10.0, L=9.0)
    pp = preset_config("paper-point")
    assert pp.evolve.t_end == 3.0
    assert pp.evolve.init == initial_state(X=1.05e3)
    assert pp.evolve.control == StepControl()
    assert pp.scan["X"].count == 101
    assert pp.output.stem == "paper_point"


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_config("figure3")


def test_shipped_configs_parse_and_round_trip():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
    assert len(paths) == 5
    for path in paths:
        cfg = load_config(path)
        with open(path, "r", encoding="utf-8") as fh:
            assert serialize_config(cfg) == fh.read()


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_invalid_json():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_non_object_root():
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


def _doc():
    return json.loads(MINIMAL)


def _expect_error(doc, match=None):
    with pytest.raises(ConfigError, match=match):
        parse_config(json.dumps(doc))


def test_unknown_keys_rejected_everywhere():
    doc = _doc()
    doc["extra"] = 1
    _expect_error(doc, "unknown key")
    doc = _doc()
    doc["model"]["gamma"] = 2.0
    _expect_error(doc, "unknown key")
    doc = _doc()
    doc["potential"]["m2"] = 1.0  # constant potential must not carry m2
    _expect_error(doc)
    doc = _doc()
    doc["background"]["p"] = 0.5  # desitter must not carry p
    _expect_error(doc)
    doc = _doc()
    doc["output"] = {"stem": "x", "folder": "y"}
    _expect_error(doc, "unknown key")
    doc = _doc()
    doc["evolve"] = {"t_end": 1.0, "X": 2.0, "weird": 0}
    _expect_error(doc, "unknown key")
    doc = _doc()
    doc["scan"] = {"b": {"min": 1.0, "max": 2.0, "count": 3, "step": 0.1}}
    _expect_error(doc, "unknown key")
    # one row per block class: the keys of a block are its class's fields
    for block, entry in (
            ("background", {"kind": "desitter", "H": 1.0, "t0": 1.0}),
            ("background", {"kind": "powerlaw", "p": 0.5, "H": 1.0}),
            ("potential", {"kind": "quadratic", "m2": 1.0, "V0": 1.0}),
            ("wall", {"b": 2.0, "L": 1.0, "gamma": 3.0})):
        _expect_error({**_doc(), block: entry},
                      rf"unknown key\(s\) \['{list(entry)[-1]}'\] in {block}")


def test_missing_keys_rejected():
    doc = _doc()
    del doc["background"]
    _expect_error(doc, "missing key")
    doc = _doc()
    del doc["model"]["X0"]
    _expect_error(doc, "missing key")
    doc = _doc()
    doc["wall"] = {"b": 2.0}
    _expect_error(doc, "missing key")
    doc = _doc()
    doc["scan"] = {"b": {"min": 1.0, "max": 2.0}}
    _expect_error(doc, "missing key")
    # one row per block class with a required field
    for block, entry, key in (
            ("background", {"kind": "desitter"}, "H"),
            ("background", {"kind": "powerlaw", "t0": 2.0}, "p"),
            ("potential", {"kind": "constant"}, "V0"),
            ("potential", {"kind": "quadratic"}, "m2"),
            ("model", {"F2": 1.0}, "X0"),
            ("wall", {"b": 2.0}, "L"),
            ("scan", {"b": {"min": 1.0, "max": 2.0}}, "count")):
        where = "scan.b" if block == "scan" else block
        _expect_error({**_doc(), block: entry},
                      rf"missing key\(s\) \['{key}'\] in {where}")


def test_type_errors_rejected():
    doc = _doc()
    doc["model"]["F2"] = "big"
    _expect_error(doc, "must be a number")
    doc = _doc()
    doc["model"]["F2"] = True  # bool is not an acceptable number
    _expect_error(doc, "must be a number")
    doc = _doc()
    doc["potential"]["kind"] = 7
    _expect_error(doc, "must be a string")
    doc = _doc()
    doc["scan"] = {"b": {"min": 1.0, "max": 2.0, "count": 2.5}}
    _expect_error(doc, "must be an integer")
    doc = _doc()
    doc["evolve"] = {"t_end": 1.0, "X": 2.0, "kinetic_only": "yes"}
    _expect_error(doc, "true/false")
    doc = _doc()
    doc["scan"] = [1, 2]
    _expect_error(doc)
    doc = _doc()
    doc["model"] = 3
    _expect_error(doc, "must be an object")


def test_domain_errors_become_config_errors():
    doc = _doc()
    doc["model"]["X0"] = -1.0
    _expect_error(doc, "invalid model")
    doc = _doc()
    doc["potential"] = {"kind": "linear", "V0": 1.0}
    _expect_error(doc, "kind")
    doc = _doc()
    doc["background"] = {"kind": "static"}
    _expect_error(doc, "kind")
    doc = _doc()
    doc["wall"] = {"b": -2.0, "L": 1.0}
    _expect_error(doc, "invalid wall")
    doc = _doc()
    doc["scan"] = {"b": {"min": 5.0, "max": 1.0, "count": 2}}
    _expect_error(doc, "invalid scan.b")
    doc = _doc()
    doc["evolve"] = {"t_end": 1.0}
    _expect_error(doc, "invalid evolve")
    doc = _doc()
    doc["evolve"] = {"t_end": 1.0, "X": 2.0, "phidot": 1.0}
    _expect_error(doc, "invalid evolve")
    for blocks, match in OUT_OF_DOMAIN:
        _expect_error({**_doc(), **blocks}, match)


_EVOLVE = {"t_end": 1.0, "X": 1050.0}
_REGIMES_SCAN = {"eps0": {"min": 0.01, "max": 0.01, "count": 1},
                 "F2": {"min": 10.0, "max": 10.0, "count": 1}}

# (blocks that replace those of the minimal config, expected message):
# the parse-level forms of test_cli.BAD_CONFIGS and their neighbours.
OUT_OF_DOMAIN = [
    ({"evolve": {**_EVOLVE, "rel_tol": 0.0}}, "invalid evolve: tolerances"),
    ({"evolve": {**_EVOLVE, "abs_tol": -1.0}}, "invalid evolve: tolerances"),
    ({"evolve": {**_EVOLVE, "n_output": 1}}, "invalid evolve: n_output"),
    ({"evolve": {**_EVOLVE, "t_start": 2.0}}, "invalid evolve: t_end"),
    ({"evolve": {**_EVOLVE, "t_start": 1.0, "t_end": 1.000000000000001}},
     "invalid evolve: the window"),
    ({"evolve": {**_EVOLVE, "n_output": 1_000_001}}, "row cap"),
    ({"scan": {"X": {"min": 1.0, "max": 2.0, "count": 1_000_001}}}, "row cap"),
    ({"evolve": {**_EVOLVE, "a_start": 0.0}}, "invalid evolve: scale factor"),
    ({"evolve": {**_EVOLVE, "X": -1.0}}, "invalid evolve: X must be"),
    ({"evolve": {**_EVOLVE, "X": 1e308}}, "invalid evolve: X = phidot"),
    ({"background": {"kind": "powerlaw", "p": 0.5},
      "evolve": {**_EVOLVE, "t_start": 0.0}}, "invalid evolve: PowerLaw"),
    # a(t_end) past the largest float: de Sitter H = 1 from a = 1 reaches it
    # after ln(max float) = 709.78 e-folds
    ({"evolve": {**_EVOLVE, "t_end": 709.79}}, "invalid evolve: a overflows"),
    ({"background": {"kind": "powerlaw", "p": 1e6},
      "evolve": {**_EVOLVE, "t_start": 1.0, "t_end": 3.0}},
     "invalid evolve: a overflows"),
    # a wall WallProfile rejects, read by no command of this config
    ({"wall": {"b": 1e308, "L": 9.0}}, "invalid wall: the wall .* has no usable"),
    ({"wall": {"b": 1e-300, "L": 1e5}}, "invalid wall: the wall .* has no usable"),
    ({"scan": {"b": {"min": -1.0, "max": 1.0, "count": 3}}},
     r"invalid scan\.b: values must be > 0"),
    ({"scan": {"L": {"min": 0.0, "max": 1.0, "count": 3}}},
     r"invalid scan\.L: values must be > 0"),
    ({"scan": {**_REGIMES_SCAN, "X0": {"min": 0.0, "max": 1.0, "count": 2}}},
     r"invalid scan\.X0"),
    ({"scan": {**_REGIMES_SCAN, "F2": {"min": 0.0, "max": 1.0, "count": 2}}},
     r"invalid scan\.F2"),
    ({"scan": {"eps0": {"min": -0.1, "max": 0.1, "count": 3}}},
     r"invalid scan\.eps0: values must be >= 0"),
    ({"scan": {"Xx": {"min": 1.0, "max": 2.0, "count": 2}}},
     "unknown scan name"),
    ({"scan": {"X": {"min": math.nan, "max": 1.0, "count": 2}}},
     "must be finite"),
    ({"scan": {"X": {"min": 1.0, "max": math.inf, "count": 2}}},
     "must be finite"),
    # np.linspace would overflow stepping over a wider range
    ({"scan": {"X": {"min": -1e308, "max": 1e308, "count": 3}}},
     r"invalid scan\.X: need min <= max and max - min at most half"),
    ({"evolve": {**_EVOLVE, "t_end": math.inf}}, "must be finite"),
    ({"model": {"F2": 1.0, "X0": 10 ** 400}}, "must be finite"),
    ({"output": {"stem": "../x"}}, "bare file name"),
    ({"output": {"stem": "a/b"}}, "bare file name"),
    ({"output": {"stem": ".."}}, "bare file name"),
    ({"output": {"stem": ""}}, "bare file name"),
    ({"output": {"stem": "a\u0000b"}}, "must not hold a NUL character"),
    ({"output": {"directory": "o\u0000ut"}}, "must not hold a NUL character"),
]


def test_every_documented_scan_name_parses():
    doc = _doc()
    doc["scan"] = {name: {"min": lo, "max": 2.0, "count": 2} for name, lo in
                   (("X", -1.0), ("eps0", 0.0), ("b", 0.5), ("L", 0.5),
                    ("X0", 0.5), ("F2", 0.5))}
    assert sorted(parse_config(json.dumps(doc)).scan) == sorted(doc["scan"])


def test_row_caps_are_the_classes_own():
    # a library caller gets the count caps without parsing a config
    with pytest.raises(ValueError, match=f"row cap MAX_ROWS={MAX_ROWS}"):
        ScanRange(1.0, 2.0, MAX_ROWS + 1)
    with pytest.raises(ValueError, match=f"row cap MAX_ROWS={MAX_ROWS}"):
        StepControl(n_output=MAX_ROWS + 1)
    assert ScanRange(1.0, 2.0, MAX_ROWS).count == MAX_ROWS
    assert StepControl(n_output=MAX_ROWS).n_output == MAX_ROWS


def test_scan_range_validation():
    with pytest.raises(ValueError):
        ScanRange(1.0, 2.0, 0)
    with pytest.raises(ValueError):
        ScanRange(3.0, 2.0, 2)
    half = sys.float_info.max / 2
    with pytest.raises(ValueError):
        ScanRange(-half, math.nextafter(half, math.inf), 2)
    assert ScanRange(-half / 2, half / 2, 7).max == half / 2
    r = ScanRange(2.0, 2.0, 1)
    assert (r.min, r.max, r.count) == (2.0, 2.0, 1)
    assert ScanRange(1.0, 2.0, 3).values().tolist() == [1.0, 1.5, 2.0]
    assert ScanRange(2.0, 5.0, 1).values().tolist() == [2.0]  # count=1 pins min


def test_output_spec_stem_rule():
    # the stem rule is OutputSpec's, so library callers get it too
    for stem in ("../x", "a/b", "..", ".", ""):
        with pytest.raises(ValueError, match="bare file name"):
            OutputSpec(stem=stem)
    assert OutputSpec(stem="case.7").stem == "case.7"


# Start values over the normal and subnormal range, both zeros and, for
# phidot, negative values; 2 X and phidot^2 stay finite.
_START_X = (st.floats(min_value=0.0, max_value=sys.float_info.max / 2)
            | st.just(-0.0))
_START_PHIDOT = st.floats(min_value=-1e154, max_value=1e154)


@given(X=_START_X, phidot=_START_PHIDOT)
@example(X=1000.0, phidot=-0.0)
@example(X=-0.0, phidot=3e-162)
@example(X=5e-324, phidot=-5e-324)
def test_start_state_keeps_its_value_through_the_config(X, phidot):
    # The state holds the X or phidot it was given, to the bit, and its
    # serialized config parses back to the same bits of both.
    def bits(init):
        return float(init.X).hex(), float(init.phidot).hex()

    by_X, by_phidot = initial_state(X=X), initial_state(phidot=phidot)
    assert bits(by_X)[0] == float(X).hex()
    assert bits(by_phidot)[1] == float(phidot).hex()
    for init in (by_X, by_phidot):
        cfg = replace(parse_config(MINIMAL),
                      evolve=EvolveSpec(t_end=1.0, init=init))
        back = parse_config(serialize_config(cfg)).evolve.init
        assert back == init and bits(back) == bits(init)


def test_evolve_spec_validation():
    # the X-or-phidot rule lives in initial_state, which parsing calls
    with pytest.raises(ValueError):
        initial_state()
    with pytest.raises(ValueError):
        initial_state(X=1.0, phidot=2.0)
    doc = _doc()
    doc["evolve"] = {"t_end": 1, "X": 2}
    e = parse_config(json.dumps(doc)).evolve
    assert e == EvolveSpec(t_end=1.0, init=initial_state(X=2.0))
    assert (e.init.t, e.init.a, e.init.phi, e.init.phidot) == (0.0, 1.0, 0.0, 2.0)
    assert e.control == StepControl(rel_tol=1e-8, abs_tol=1e-10, n_output=201)
    assert e.kinetic_only is True
    doc["evolve"] = {"t_end": 709.78, "X": 2}  # a(t_end) just below max float
    assert parse_config(json.dumps(doc)).evolve.t_end == 709.78
