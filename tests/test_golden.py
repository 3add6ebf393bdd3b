"""Byte identity of the CLI outputs of the shipped configs and presets.

GOLDEN maps one CLI call (command, source flag, config file or preset) to
the SHA-256 of every file it writes.  The digests were recorded from the
row-at-a-time eos-scan/regimes/wall code that the columnar commands
replaced, so any change to one output byte fails here.

Evolve outputs are left out: their numbers come from an adaptive ODE
solver, and the evolve tests check them against the physics instead.
The wall profiles use exp/tanh, whose last bit may differ between CPUs
(libm or SIMD paths); on such a host compare those files as parsed
floats to 1 ulp instead of by digest.
"""

import hashlib
import os

import pytest

from kessence.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

GOLDEN = {
    ("eos-scan", "--config", "eos_scan.json"): {
        "eos_eos_scan.csv":
            "7f3b732d54c8cf0e8744281678b1df7294f32c3995892656b2db7dcbdd6ba375",
        "eos_eos_scan_summary.txt":
            "ec6ad151203323baead571bd39a2bedb16307e8a4f1353249494d9df984dc13e",
    },
    ("regimes", "--config", "regimes_sweep.json"): {
        "sweep_discrepancy.txt":
            "3df62d1fec31afc460748c423715d906e4c3bf530454fd4c8cb88e30c24883e5",
        "sweep_regimes.csv":
            "47a21eb2badff35592ff6233ed5f59744a515097608677336c682dd13094c474",
    },
    ("wall", "--config", "wall_trio.json"): {
        "wall_trio_profile_b10_L3.csv":
            "0308ea803fea6e07acab92cad8bd94f6775b43137c1ecd8b2a1b7a72cddcde90",
        "wall_trio_profile_b10_L6.csv":
            "8eb8114b696c116525387bbe3463b026f15c96883999e1ddf007d94d2bd63448",
        "wall_trio_profile_b10_L9.csv":
            "f2e65d74478aa22cb88868e77cedb3ebb57005ea4cf24ae87d27da04b471ba77",
        "wall_trio_sharpness.csv":
            "3929b0179184550a7d74ba303345e60b64b303b3c5cb85202dab0e46030ae3ab",
        "wall_trio_wall_summary.txt":
            "7935e6d8dab1a2b3eeb8ebdb49ae85475f8a1e9a3a89dfa04ba228bb52d3ec6e",
    },
    ("wall", "--preset", "figure1"): {
        "figure1_profile_b10_L9.csv":
            "f2e65d74478aa22cb88868e77cedb3ebb57005ea4cf24ae87d27da04b471ba77",
        "figure1_profile_b3_L9.csv":
            "6cee2ab11c8b11ec10159ab21247426b9ecff3cf8e0b47d891fe2fc0c13dd0ba",
        "figure1_sharpness.csv":
            "9ed3d2bd15d30b5535abf82d5d98c8f62d96d2260752abdaef792c9c313c1d50",
        "figure1_wall_summary.txt":
            "a59a1880f421cf49f6dfef4b85094a62dd7b541ef4fbec7611dd7fdc780e98b5",
    },
    ("wall", "--preset", "figure2"): {
        "figure2_profile_b10_L3.csv":
            "0308ea803fea6e07acab92cad8bd94f6775b43137c1ecd8b2a1b7a72cddcde90",
        "figure2_profile_b10_L6.csv":
            "8eb8114b696c116525387bbe3463b026f15c96883999e1ddf007d94d2bd63448",
        "figure2_profile_b10_L9.csv":
            "f2e65d74478aa22cb88868e77cedb3ebb57005ea4cf24ae87d27da04b471ba77",
        "figure2_sharpness.csv":
            "3929b0179184550a7d74ba303345e60b64b303b3c5cb85202dab0e46030ae3ab",
        "figure2_wall_summary.txt":
            "6e18f0a8cef2014c9d511468c5b6eea971d0d2e3c961ac7d85aeb10f658b1a05",
    },
    ("eos-scan", "--preset", "paper-point"): {
        "paper_point_eos_scan.csv":
            "7f3b732d54c8cf0e8744281678b1df7294f32c3995892656b2db7dcbdd6ba375",
        "paper_point_eos_scan_summary.txt":
            "056bb2c82153dca668206c4d225d01e1ea07e5793bf9b2d1a42f2258b295dedb",
    },
    ("regimes", "--preset", "paper-point"): {
        "paper_point_discrepancy.txt":
            "6db01b8c1f558e25f72c1bc5fb4471abf87e9c4da71240681fccd25aa9708c19",
        "paper_point_regimes.csv":
            "22b20add34705b4690763b24ecdb0c86aa731a68f297cc3179436335b33cb963",
    },
}


def _digests(out_dir):
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("command,flag,source", sorted(GOLDEN))
def test_outputs_match_golden_digests(tmp_path, command, flag, source):
    path = os.path.join(CONFIGS, source) if flag == "--config" else source
    out = tmp_path / "o"
    assert main([command, flag, path, "--out", str(out), "--quiet"]) == 0
    assert _digests(out) == GOLDEN[command, flag, source]
