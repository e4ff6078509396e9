"""Pinned report bytes: a seed's CSV must not change without notice.

Each digest is the SHA-256 of the CSV that `clfgame <command> spec.json
--seed 1 --reps 1` writes with the default game and run, in the given
classification mode.  They pin the random stream and the arithmetic of a
whole experiment: a speed-up that moves a draw or a rounding changes one of
them.  Only the CSV is pinned, because the manifest records `output_dir`.

A change that alters the random stream or the reported values on purpose
updates these digests and says so, with the reason, in CHANGES.md.
"""

import hashlib
import json

import pytest

from clfgame.cli import main

CSV_SHA256 = {
    ("table", "stochastic"): "9beb883a79fff15bbc2538768324f111f10389e4f53d8bd8b0801c7d69b7fdaf",
    ("kl", "stochastic"): "fa6e56863f8b1c8e46f6a5cca179b37c005c0a654c58901d122724716a812dea",
    ("utility", "stochastic"): "9c1678a472d1d0659801b91efdd4c6531d46f9af7be745855c847c65753cdfc0",
    ("run", "stochastic"): "00da5c87c76e3a349459695968ce0ec6d23b02835578bb7516018de19933f844",
    ("table", "expectation"): "5ac70955d6acb98297d49a2a654b862421221a5d53e787ee36b6a48e47638d02",
    ("kl", "expectation"): "2b94acc810a0ab21a7737304c78ed01d9167bf04c662f76d3c66daee5ea44a95",
    ("utility", "expectation"): "235b891bea15b7dc0185687b0ce115236f966e833746d9bcf8eed111608527ff",
    ("run", "expectation"): "cdf28e6e9ad07710b3c90bed9d6dbe5012bf23ba05750223b0b0db0eb8b206f7",
}


@pytest.mark.parametrize("command, mode", sorted(CSV_SHA256))
def test_csv_bytes_are_pinned(tmp_path, command, mode):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"run": {"classification_mode": mode}}))
    out = tmp_path / "out"
    assert main([command, str(spec), "--seed", "1", "--reps", "1",
                 "--out", str(out)]) == 0
    (csv,) = out.glob("*.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == CSV_SHA256[command, mode]
