"""Pinned report bytes: a seed's CSV must not change without notice.

Each digest but `CSV_SHA256_SPECS`'s is the SHA-256 of the CSV that
`clfgame <command> spec.json --seed 1 --reps 1` writes with the default
game and run, in the given classification mode.  They pin the random
stream and the arithmetic of a whole experiment: a speed-up that moves a
draw or a rounding changes one of them.  The `--reps 3` digests also pin
the order in which a preset draws its per-run seeds across repetitions.
Only the CSV is pinned, because the manifest records `output_dir`.

A change that alters the random stream or the reported values on purpose
updates these digests and says so, with the reason, in CHANGES.md.

Two streams are pinned.  `CSV_SHA256_V2` and `CSV_SHA256_REPS3_V2` are the
reports of the current stream, in which a play draws only the doubles it
reads: its type's when the adversary is sampled, then in stochastic mode
one per query for its correctness.  `CSV_SHA256` and `CSV_SHA256_REPS3` are
the reports of the stream before that, in which every play was also handed
q classifier doubles after its type's and skipped them.  They are checked
under `old_stream`, which hands each trial's plays those extra columns and
drops them again, so the game logic and arithmetic of today's code must
give the old reports byte for byte: the stream change moved only which
i.i.d. uniform doubles a play reads.

`CSV_SHA256_SPECS` pins the reports, at `--seed 1 --reps 2` and for all five
commands, of two specs off the defaults (`SPECS`): a 2x2 game with flat
costs whose second type never plays, which covers `run`'s skipped
per-type accuracy row, `utility`'s cost flag and two-type `kl`, `table` and
`acc-check` reports; and the bundled game under BNE against a
best-responding adversary in expectation mode.
"""

import hashlib
import json

import numpy as np
import pytest

from clfgame import SelfPlayConfig
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

CSV_SHA256_REPS3 = {
    "table": "d205c836737d38dc0f31bde6306b896337dd3bfec9a3d04c01a23c6184dee50b",
    "kl": "8b605e1925c2b47228e78deb6e30f03aacbfc4c236b0034d49e237b0db030265",
    "utility": "50d8e5b39b42497af36adab19e2f6b73ae0909eda0113060ce0796494435607c",
    "run": "52ce36f3a9ae15faf057026c789b2a8de206a7c16c7661f6f7269e917eddbb89",
}

CSV_SHA256_V2 = {
    ("table", "stochastic"): "0d0f06c361c1e24b439f79989cc2ce981a563647033180dadb0128ff4e2f9298",
    ("kl", "stochastic"): "1f53c154a2ec60b5256d080a9fc3847430616a45f1f7a024d8bffd2d1c711554",
    ("utility", "stochastic"): "60aa7380f4702d5788bb1fff28218ddee162aff0e528944bdcbc624849073b4b",
    ("run", "stochastic"): "e1e1ebedc35f92b25dc799f906984337f1467d3404fe17c55c1b45cffa3c8d3b",
    ("table", "expectation"): "5cb7f3fb2ae46fde320de870a6f52920aac06d04be80afef68d822adfb36069f",
    ("kl", "expectation"): "8e3e4583b52711c61a161e7a59456fcdef80b28e0ed36dee272462b71c1b214d",
    ("utility", "expectation"): "57e6c6fb02968371beb5103512df33fe71ed655e926007c26308b5dd9fe4025b",
    ("run", "expectation"): "2658a11d3622a3ec6aeaadaf5c7057a6f0843ac855123d7b682d84ab569c9799",
}

CSV_SHA256_REPS3_V2 = {
    "table": "6e7ff4904f222872fa8ca0e2e1a29874042e723a807583d7497f836dc03367a2",
    "kl": "5460db92bd4ab55fad8b57a4978d63d0b5fb162805fcd3f94d72dfe1afdf434a",
    "utility": "72acb85de474a9b04e7054e27e366ab26b899664219484c046c9f60aad3d3995",
    "run": "3ccbc371ac7395402918441224e11bee444e75a264af6d6026bfd4c7be422bb4",
}

SPECS = {
    "two_types": {
        "game": {"accuracy": [[0.9, 0.6], [0.92, 0.7]], "c_classifier": [0, 0]},
        "run": {"h": 5, "n_trials": 4, "q": 3, "true_p": [1.0, 0.0]},
    },
    "bne_best_response": {
        "run": {"selection": "bne", "adversary_mode": "best_response",
                "classification_mode": "expectation", "h": 5, "n_trials": 4, "q": 3},
    },
}

CSV_SHA256_SPECS = {
    ("two_types", "acc-check"): "7593b68023ea6af9699173f2084182e7eeb995868623a79db58657681e444c72",
    ("two_types", "kl"): "258f7681256e7415b2bb394c3c1a1a018ceca013faafdc3d41ba9c9a7fde1f91",
    ("two_types", "table"): "4364918680d8177d07bcccf5b8fb9e6f57c93a8a139a42f258e096dd5934ca88",
    ("two_types", "utility"): "86683606375e0b31d4fbae4a2d2266dfd74332b5fda67fe6dc6342bf4b4440d6",
    ("two_types", "run"): "b7aae69032e4e78e5f343fe96ce78c40a59017bdd84cf6e554f30d0bbfe4c6fc",
    ("bne_best_response", "acc-check"): "14cbab6d48eccdffb2bfedb77de698e158c49b0899725e388c3a3782f254911c",
    ("bne_best_response", "kl"): "e31ec90c05fc60f480059645e91ab9be8bebb97a96d301dfb7c0cca4876505a6",
    ("bne_best_response", "table"): "6d44bd9e3583880b874e2eec525322582718ad213fd4ab5f9096b1c3d33e009c",
    ("bne_best_response", "utility"): "c73e50433a823c793b605dfc778feb8f2e79cf00031ad3725f0d379ad20e07e1",
    ("bne_best_response", "run"): "5a105b9d13d9063f71c0882b7e04a1b59baa5ed14811fb9aa94861f85f46f711",
}

#: Queries per play of the default run, which every `old_stream` digest's spec keeps.
Q = SelfPlayConfig().q


class OldStreamGenerator:
    """A `numpy.random.Generator` that answers each 2-d `random((h, k))`
    call, a trial's rows of play doubles, with the rows the stream drew
    before plays stopped drawing q skipped classifier doubles: it draws
    `(h, k + q)` doubles and deletes the q columns after the type double:
    from column 1 with a sampled adversary, from column 0 with a
    best-responding one.  That column is the width of the row less its
    correctness doubles, q in stochastic mode and none in expectation
    mode.  Every other call goes to the wrapped generator."""

    def __init__(self, rng, q, stochastic):
        self._rng, self._q, self._stochastic = rng, q, stochastic

    def random(self, size=None):
        if not (isinstance(size, tuple) and len(size) == 2):
            return self._rng.random(size)
        h, k = size
        first = k - self._q if self._stochastic else k
        assert first in (0, 1), size
        rows = self._rng.random((h, k + self._q))
        return np.delete(rows, np.s_[first:first + self._q], axis=1)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture
def old_stream(monkeypatch):
    """Install `OldStreamGenerator` for runs of q queries per play in the
    given mode, behind every `np.random.default_rng` call."""
    def install(mode):
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *args: OldStreamGenerator(
            default_rng(*args), Q, mode == "stochastic"))
    return install


def csv_digest(tmp_path, command, mode, reps):
    return spec_digest(tmp_path, command, {"run": {"classification_mode": mode}}, reps)


def spec_digest(tmp_path, command, data, reps):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main([command, str(spec), "--seed", "1", "--reps", str(reps),
                 "--out", str(out)]) == 0
    (csv,) = out.glob("*.csv")
    return hashlib.sha256(csv.read_bytes()).hexdigest()


@pytest.mark.parametrize("command, mode", sorted(CSV_SHA256))
def test_csv_bytes_are_pinned(tmp_path, old_stream, command, mode):
    old_stream(mode)
    assert csv_digest(tmp_path, command, mode, 1) == CSV_SHA256[command, mode]


@pytest.mark.parametrize("command", sorted(CSV_SHA256_REPS3))
def test_seed_order_across_repetitions_is_pinned(tmp_path, old_stream, command):
    old_stream("stochastic")
    assert csv_digest(tmp_path, command, "stochastic", 3) == CSV_SHA256_REPS3[command]


@pytest.mark.parametrize("command, mode", sorted(CSV_SHA256_V2))
def test_csv_bytes_of_the_current_stream_are_pinned(tmp_path, command, mode):
    assert csv_digest(tmp_path, command, mode, 1) == CSV_SHA256_V2[command, mode]


@pytest.mark.parametrize("command", sorted(CSV_SHA256_REPS3_V2))
def test_seed_order_of_the_current_stream_is_pinned(tmp_path, command):
    assert csv_digest(tmp_path, command, "stochastic", 3) == CSV_SHA256_REPS3_V2[command]


@pytest.mark.parametrize("spec, command", sorted(CSV_SHA256_SPECS))
def test_csv_bytes_off_the_defaults_are_pinned(tmp_path, spec, command):
    assert spec_digest(tmp_path, command, SPECS[spec], 2) == CSV_SHA256_SPECS[spec, command]
