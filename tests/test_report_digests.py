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
    ("table", "stochastic"): "22da8c0c67e6ebca4e45017090c24c9476221618b5582dccfba7520a89d7b6f3",
    ("kl", "stochastic"): "2c0bf187177134b729152ce7e3592d40530cda32c9ef2bc7eb3cbe208ed367a6",
    ("utility", "stochastic"): "658707a245432b1058cd656807a6e095d1c6085d802ea7faf66e85381d4dfbd5",
    ("run", "stochastic"): "4bf8f3020580f95c67266a3243c1e4c4e3c22b6a3cf8efd66ae0a29d874b74bc",
    ("table", "expectation"): "f1d5907d63ec6d901ef60b98d8c10e157a7ac6f8a78e430ddfe11ce32d861e6e",
    ("kl", "expectation"): "d57f96b33d27a900a721971692ce49c3a8604094e201c665785bb5245e1ef4a4",
    ("utility", "expectation"): "2cd473f7fd7e2d5271d9a6c37f48057d453d81e22bedfd55812a8f283e45dc38",
    ("run", "expectation"): "608abf1de44a011209e3fc8e371cab08428f5ad4f30fd62306e17744bfa6146b",
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
