"""Golden digests of CLI output.

Each case runs one command in a scratch directory with relative file names
and pins the exit code plus the SHA-256 of its CSV, of its manifest without
``wall_clock_s`` and ``environment``, and of its SVG when it draws one. A
refactor that keeps these digests keeps the bytes users see. Every case is
also replayed through ``reproduce from-manifest``, which must reproduce the
CSV byte for byte.

``hsic`` and ``fit`` are left out: their BLAS and least-squares output is
not promised to be bit-identical across machines.

To re-pin after a deliberate output change, run this file as a script from
the repository root (``PYTHONPATH=src python tests/test_golden.py``) and
paste the printed table over ``GOLDEN``.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from slowthink.cli import dispatch

CONFIG = {
    "decay": {"kind": "exponential", "lambda_tau": 1.0},
    "selector": {"kind": "constant", "epsilon": 0.9},
    "L": 2,
    "strategy": {"kind": "beam", "k": 3, "b": 2},
    "trials": 1500,
    "seed": 3,
}

TRACES = [
    {"question_id": "q1", "events": [[0, 3], [1, 3], [2, 2]], "ideal_path_length": 3},
    {"question_id": "q2", "events": [[0, 4], [1, 1]], "ideal_path_length": 2},
]

SIM = ["simulate", "--trials", "1000"]

# name -> argv (without --out); file names are relative to the run directory
CASES = {
    "bounds-single": ["bounds", "--lambda", "1", "--L", "2", "--strategy", "single"],
    "bounds-all": ["bounds", "--lambda", "1", "--L", "3", "--k", "4", "--b", "2",
                   "--N", "8", "--strategy", "all"],
    "bounds-table-constant": ["bounds", "--table", "0.9,0.8,0.7", "--L", "3", "--k", "2",
                              "--b", "2", "--selector", "constant:0.9",
                              "--strategy", "beam-exact"],
    "bounds-noisy-worst": ["bounds", "--lambda", "2", "--L", "3", "--b", "2",
                           "--selector", "noisy:1,0.5", "--strategy", "mcts-worst"],
    "bounds-lookahead": ["bounds", "--lambda", "1", "--L", "2", "--lambda-delta", "10",
                         "--depth", "3", "--strategy", "lookahead"],
    "sim-single": SIM + ["--strategy", "single_path", "--lambda", "1", "--L", "2",
                         "--seed", "42"],
    "sim-single-table": SIM + ["--strategy", "single_path", "--table", "0.9,0.8",
                               "--L", "2", "--seed", "4"],
    "sim-bon-max-sweep": SIM + ["--strategy", "bon", "--rule", "orm_max", "--lambda", "1",
                                "--L", "2", "--seed", "1", "--sweep", "N=1,2,4",
                                "--plot", "bon.svg"],
    "sim-bon-vote": SIM + ["--strategy", "bon", "--rule", "orm_vote", "--N", "5",
                           "--answer-space", "10", "--score-noise", "0.5",
                           "--lambda", "2.5", "--L", "3", "--seed", "2"],
    "sim-bon-sc-sweep": SIM + ["--strategy", "bon", "--rule", "self_consistency",
                               "--answer-space", "10", "--lambda", "2.5", "--L", "3",
                               "--seed", "3", "--sweep", "N=1:7:3"],
    "sim-beam-constant": SIM + ["--strategy", "beam", "--k", "4", "--b", "2",
                                "--lambda", "1", "--L", "3", "--seed", "5",
                                "--selector", "constant:0.9"],
    "sim-beam-noisy": SIM + ["--strategy", "beam", "--k", "4", "--b", "2",
                             "--lambda", "2.5", "--L", "3", "--seed", "6",
                             "--selector", "noisy:1,0.25"],
    "sim-beam-table-sweep": SIM + ["--strategy", "beam", "--b", "1", "--table",
                                   "0.9,0.8", "--L", "2", "--seed", "1",
                                   "--sweep", "k=1:5:2", "--plot", "beam.svg"],
    "sim-mcts-best": SIM + ["--strategy", "mcts_best", "--b", "2", "--lambda", "1",
                            "--L", "3", "--seed", "7", "--selector", "ideal"],
    "sim-mcts-worst-noisy": SIM + ["--strategy", "mcts_worst", "--b", "2", "--lambda", "2",
                                   "--L", "3", "--seed", "8", "--selector", "noisy:1,0.25"],
    "sim-mcts-best-constant": SIM + ["--strategy", "mcts_best", "--b", "3", "--lambda", "2",
                                     "--L", "3", "--seed", "12", "--selector", "constant:0.8"],
    "sim-mcts-best-noisy": SIM + ["--strategy", "mcts_best", "--b", "3", "--lambda", "2",
                                  "--L", "3", "--seed", "13", "--selector", "noisy:1,0.25"],
    "sim-mcts-worst-constant": SIM + ["--strategy", "mcts_worst", "--b", "2", "--lambda", "2",
                                      "--L", "3", "--seed", "14", "--selector", "constant:0.8"],
    "sim-lookahead-noisy": SIM + ["--strategy", "lookahead", "--b", "3", "--gamma", "2",
                                  "--lambda", "2.5", "--L", "3", "--seed", "9",
                                  "--selector", "noisy:1,0.25"],
    "sim-lookahead-sweep": SIM + ["--strategy", "lookahead", "--b", "2", "--gamma", "1",
                                  "--score-noise", "0.3", "--lambda", "1", "--L", "2",
                                  "--seed", "10", "--sweep", "gamma=0:2"],
    # a sweep plot with no bound series: lookahead has no success bound
    "sim-lookahead-sweep-plot": SIM + ["--strategy", "lookahead", "--b", "2", "--gamma", "1",
                                       "--lambda", "1", "--L", "2", "--seed", "10",
                                       "--sweep", "gamma=0:2", "--plot", "la.svg"],
    # strategy tables whose verdict fails and exits 1
    "sim-bon-max-sweep-fail": ["simulate", "--strategy", "bon", "--rule", "orm_max",
                               "--lambda", "1", "--trials", "10", "--seed", "0",
                               "--sweep", "N=1,2"],
    "sim-config": ["simulate", "--config", "cfg.json"],
    "sim-config-override": ["simulate", "--config", "cfg.json", "--trials", "700",
                            "--L", "3", "--selector", "ideal", "--lambda", "0.5"],
    "sim-config-strategy-flag": ["simulate", "--config", "cfg.json", "--strategy",
                                 "mcts_best", "--b", "3"],
    "fano-suite": ["fano-suite", "--instances", "20", "--seed", "11"],
    "fano-suite-mi-only": ["fano-suite", "--instances", "30", "--seed", "11",
                           "--assumption", "mi-only", "--support-min", "2",
                           "--support-max", "4", "--max-L", "5"],
    # prefixes longer than 8 layers, where numpy's mean sums pairwise
    "fano-suite-long": ["fano-suite", "--instances", "200", "--seed", "4", "--max-L", "12",
                        "--support-min", "2", "--support-max", "5"],
    "fano-suite-long-mi-only": ["fano-suite", "--instances", "200", "--seed", "4",
                                "--max-L", "12", "--support-min", "2",
                                "--support-max", "5", "--assumption", "mi-only"],
    "calibrate-stats": ["calibrate", "--stats", "1.67,9.45,4.00"],
    "calibrate-traces": ["calibrate", "--traces", "traces.jsonl"],
    "reproduce-table1": ["reproduce", "table1", "--b", "4", "--L", "2"],
    "reproduce-calibration": ["reproduce", "calibration"],
    "reproduce-nmin": ["reproduce", "nmin"],
    "reproduce-gamma-sweep": ["reproduce", "gamma-sweep", "--trials", "2000", "--seed", "3",
                              "--lambda", "1.5", "--lambda-delta", "12", "--layer", "2"],
    "reproduce-dominance": ["reproduce", "dominance", "--trials", "200", "--seed", "5"],
    "reproduce-dominance-fail": ["reproduce", "dominance", "--trials", "200", "--seed", "2"],
    "reproduce-bon-vs-mcts-fail": ["reproduce", "bon-vs-mcts", "--trials", "100",
                                   "--lambda", "3"],
    "reproduce-bon-vs-mcts": ["reproduce", "bon-vs-mcts", "--trials", "1000", "--seed", "4",
                              "--b", "2", "--L", "2", "--plot", "cmp.svg"],
    "reproduce-fano": ["reproduce", "fano", "--instances", "10", "--seed", "2"],
    "reproduce-config": ["reproduce", "table1", "--config", "cfg.json", "--b", "3"],
}

# name -> (exit code, csv sha256, manifest sha256 without wall_clock_s and
# environment, svg sha256)
GOLDEN = {
    "bounds-all": (
        0,
        "7ebe74ef150c3b2c15e3d675cb5ba882bf3fea3239d6a984be2e133bf80f0a44",
        "89f865fff52613ee8de0f7fab47838ef069f0dbe50c0482d5939305411a5d561",
        None,
    ),
    "bounds-lookahead": (
        0,
        "e2ea9883cf4f08875deb14a07aa9fd59c8e63122a6f9b7bda4c5664962b87670",
        "b4e06f2c7e44082752ac0399621940d46393ce67e7865f70ad141af089943a47",
        None,
    ),
    "bounds-noisy-worst": (
        0,
        "d6ab33dc177fd1f75e3810b290d53fe7a80bdd3535b98932380294f4426d0d96",
        "d38b8725a8c5bffed216c5d8510ed6ee955ce679e17f56d53263faea74c2d69b",
        None,
    ),
    "bounds-single": (
        0,
        "554719dbbf03a5a63532a7eccb391ca08e590f29d6157a0860fa038b476c23fa",
        "4b3a26995750317bce46e7e2f2dc612b86a87894bae14f57f78527703d1d9631",
        None,
    ),
    "bounds-table-constant": (
        0,
        "d17e5671d7880fd4bf938dd0161c92be79299d8c14a6ef19a37bfed3fa1d50c5",
        "930bf0dd7b41aac8f7f82fb8c770730a956885b51e03d98f47f9ed22f7ac89a9",
        None,
    ),
    "calibrate-stats": (
        0,
        "924f32a02a5a9875245bee1cb91ddcebf1ebf9227b24bdcd153ca60724009586",
        "75d0b2f19d49a90f65f7ad6fd08bb92469c5a52a1afabcdf96d44e2841221a06",
        None,
    ),
    "calibrate-traces": (
        0,
        "064511cf8e49e678da73dc2a1f4c34e6686a1991300fa1870b3d43ee3e8ebccf",
        "cfc4a8e4d011dfd7ca7938c0cac4eb952f280c1a28027245d766a14608a91b19",
        None,
    ),
    "fano-suite": (
        0,
        "1a88b56ffa576d1215724ec10a72350b2e65b13738906355218a7709527fc3bd",
        "04eca3fc89da97aca2efce839e360bd4d4da3e01ece4df91c9f3dbee2cb54ba3",
        None,
    ),
    "fano-suite-long": (
        0,
        "a8f38aa442f009f088b1bcce88a7515d5486e3f7925f2c5424ef6b9583ba2cb1",
        "eef3946169453b45476ba1e533285c359b5fff7d0228f465f7b5fe46be2b6391",
        None,
    ),
    "fano-suite-long-mi-only": (
        1,
        "4427d6c0c2cb57ca6debd0b475d4ecb0a3b901b06e655b812bebd946a940edd7",
        "ea1459ed531a01e6d093201d53b0b644b1b701d483004c58d508071c94a7d24c",
        None,
    ),
    "fano-suite-mi-only": (
        1,
        "422815ddd3ab32d794dea335024c261b6c27f93d7878aaf5010fa23f985fd4b0",
        "92b50f2777c22c6b3daa75e7fb93c824eccc4be4d19d9abd7bc8865cfccaa2b1",
        None,
    ),
    "reproduce-bon-vs-mcts": (
        1,
        "e7754284ace08d54ecbe03d5698d3f867263f25f05c461f3ab9cb6a218e100ae",
        "dc3d5f54cde806864a221b3acd62d479c5994971f7421fdab02625a247cbeb2e",
        "e1cbd21c8a8b80915048889566db7f221382f4a769f3d4722caae16121624b53",
    ),
    "reproduce-bon-vs-mcts-fail": (
        1,
        "8d4d56843b617972cdfec8950b05852edf21dfd9b1336a8733ae1adae28b471e",
        "7bb0109b24d3e6439bdb56240fe18f8eccf4cbf129f21f1249431c7687c3d0c3",
        None,
    ),
    "reproduce-calibration": (
        0,
        "d4c7e539d779152b49b13e6c02cba494213782bc80cf093540513a1747df85d3",
        "49a06381f6e2383285c60a347f3ca993984043b43f43e8154140979ce5ddce77",
        None,
    ),
    "reproduce-config": (
        0,
        "3e16f7aad4878261a8ce90e78e9818b18cf3f5f9f89aef98514e379f0f321418",
        "ef3b13d13afcf8da1b1f312e6fe3308b4657291892fee7bba5ea81c22030b156",
        None,
    ),
    "reproduce-dominance": (
        0,
        "5b344998ba07380009705914ab6c82c83966cb59b81b55611ac4bdbdd2648fb0",
        "015981bfde611962816885c74f533bdb9eba2455c24f981f9c01db234b43645e",
        None,
    ),
    "reproduce-dominance-fail": (
        1,
        "0ad07ad616e7ec56b3dab63e739ca680bbce94505b371c2b81a430a008958977",
        "63ee55dfdd49869a9a97f5f489ea727b30478d07242f80d59bfa62636e462a0b",
        None,
    ),
    "reproduce-fano": (
        0,
        "8551efffe435a0197bbe7c5cfa19d7c32bff69e21073bf2d48b997b24057160c",
        "9c66e125fd3f636042414646aea2a422f315021cbc3bd262b1c057975eeee670",
        None,
    ),
    "reproduce-gamma-sweep": (
        0,
        "917aa55711422c24b8bf46956d962b6c92e47c4c18db940b620d47da0d5a578b",
        "4e84c4255aafb4d2c61287ff0e741e9a78bd565e671c5b6ab983fccdf8cdd5a9",
        None,
    ),
    "reproduce-nmin": (
        0,
        "1a86bb5981c5314536aac5103077398aff1d025d5f437977f3a81b0cf492e9a0",
        "d21e34175629797891707ab58e4fed42ceb561f34a024db311d90f934b1d3fd2",
        None,
    ),
    "reproduce-table1": (
        0,
        "a402bf8fb13c88a86ff5ea10b7568df33174703c888519d1065a70a735e494a0",
        "a5d0e27a5bdf768140fd5375e5ebe722a79515afdfab3a713c0416dc86a2668a",
        None,
    ),
    "sim-beam-constant": (
        0,
        "d52b1d9c11e8899411df8ab6f404cf6864eb0bfd1be7abad561ea5f0873b5f2e",
        "d001a7abb3faddb3fa982a77fa74068778bd2bfa58a36b3a61438126050d67d9",
        None,
    ),
    "sim-beam-noisy": (
        0,
        "b206bb8e91d7bd4ec06e5c219acd8d0d6e73c59ca30ab9cd9a89633addc9509e",
        "51b466904ec66b5296fdbc689e0af4087747555718eb0a786a71d44126f64b06",
        None,
    ),
    "sim-beam-table-sweep": (
        0,
        "5354b7d204043c670d75272e0908f1095397d41b26d40945e61cc43ac8d7be0a",
        "02aa204aa1b5e4fc652cadac4953f86c10c932138b88daac587f2ce1d6cad075",
        "9285099c268c3d4c5f0369ecad120fe2f799e00d669c4b7f0ac456a324cb2b74",
    ),
    "sim-bon-max-sweep": (
        1,
        "29216ff9780b64bdbfc19d1fe1348331919c3cb22597fadc8f39c1e9616a3792",
        "d772ce380dfbb8bb03ef6241b0ce3b119567dc1abc4d6b9ff8231a4c396dfab0",
        "a49662c0ebbbe008b592c84e4a834a89d80a773686403a73b62f5e89020bfab8",
    ),
    "sim-bon-max-sweep-fail": (
        1,
        "52d31f8d7a74f4e991c1c7ec8cac2f13d488b426bc5dd03df58000fae8f2cb19",
        "2fb18d13b246a4cfac48734b4e7adbe3669e815a6415bd0748b061b25de46b5f",
        None,
    ),
    "sim-bon-sc-sweep": (
        0,
        "ab019b036919f5ceb373877258931cc36994f8bc5e6f91e0f0b9e12e8675a516",
        "7b2120fce75d48586a1dbe69fe2fe1d0456d8f9e767b1707a673a159eddfc18a",
        None,
    ),
    "sim-bon-vote": (
        0,
        "96d4772832d48619fc8b53918b159f386399e95a172273da58f174b3dc7bbe9e",
        "287e0e6564495314f61f72e006875798b44745c7d07c268b55c20ff478e507aa",
        None,
    ),
    "sim-config": (
        0,
        "5ac5406548f8573ac0957d5e8a5c599c019159eddd020e2441efd8c7bad3d570",
        "a22ddb388f6404850642babde3280a5ca2bf090ad11c5797c4acf77757a76e6d",
        None,
    ),
    "sim-config-override": (
        0,
        "5cf5c2143b260f6691b5bbc1ea96fc008b50df8f8c856047a21c0308d0ddfd33",
        "3ca0cddea6f1548ab4b3bc1a187d9208027b80fc9345c33e903fe52db0e0c88d",
        None,
    ),
    "sim-config-strategy-flag": (
        0,
        "dbbaf5b4a380dd53c65b750130007ddb1647408a281b64e02d07b5406901617a",
        "e49964429e455cd1f9bba5e7ee7bb98e7a86b76c39f0ea441a11f15705abb995",
        None,
    ),
    "sim-lookahead-noisy": (
        0,
        "d21b1cfe5b0cb4c2d5c981a35534351fd806a3c56ceee650b505bd95879aa9ee",
        "a62a23b6570a9983ca8c95412336a3c054e799a766dd23d8e3b96ef7bec6a97c",
        None,
    ),
    "sim-lookahead-sweep": (
        0,
        "29da5b2728bc6092287f5f6b1db3f610f2a6ad4dddd31e57b306ac1371611eb9",
        "dff60dd517001b0facac806b745e81ae949cef3dcfc8c0d1a58f55141411c297",
        None,
    ),
    "sim-lookahead-sweep-plot": (
        0,
        "77b899cc0ae77c4f31ea9ab086d1a08793c303251f1bbdd10be4beb50d22f23f",
        "effeca2af13fd90e2090b7d0ff12515c26e8a4af0c4c1fab254f64e0cf63260f",
        "fdb26d69193af2d6f7046be3a360079be7ee8b911c61fa3d492b9432820c9b3a",
    ),
    "sim-mcts-best": (
        0,
        "5be13523fb629fc2fb4175cec3e5cbe575972564cce41ed0fe96ee64c40c10da",
        "aa4bd221e332f9c9d3ba1ce1553e930997efff151783fa520c5ddb6913750095",
        None,
    ),
    "sim-mcts-best-constant": (
        0,
        "7589841b9b8cee9077d2f613a5bdcc661ad14a55281fc4139471b3e2c9388a6b",
        "70737f90b758b2ef5acaddc569fb87bb4f1663a1c13f8d84d4113d7109ccbd61",
        None,
    ),
    "sim-mcts-best-noisy": (
        0,
        "a4c8cf3bdbbc4dbf524eb7d84f1013998e5a082b4e92b328db8c21299a6af487",
        "3075de7f01b97384c7a6429b0bf908523f56c8ec926a0894ca97164cf52274df",
        None,
    ),
    "sim-mcts-worst-constant": (
        0,
        "921a82567de74be3b780f5d77a9ea9f0dc78aa302ffb4b4db2b54210ee8bef48",
        "084e78185121a0763e6a151debcaff7e58c9c32b27afbc238d0b7ab023139c6e",
        None,
    ),
    "sim-mcts-worst-noisy": (
        0,
        "550f9751465f9ec4e97c1b592ba452f6988ec992d32eb06a288bed35bc8b25d0",
        "582bf3dc21109b74698f31af422c160c54e8c47e9caba3c575ace793427f0bf7",
        None,
    ),
    "sim-single": (
        0,
        "f70e9bec899f548cc5df712e2a7c6a1de396cc2c1ef8ecbe8ddc8d7d76ffc7aa",
        "5d9f0965ee03c291e245e0491f880e3474a821a3d8fb391d14fa396cad76b59a",
        None,
    ),
    "sim-single-table": (
        0,
        "514672f2fb05b19f4818d5be29fab17f6e0faa1aec3e17aa27032e3e88fc9e68",
        "623dbd6467c2e1bb036e5fe54ba344f9d223031000eeccd3fbd14d094e071899",
        None,
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, workdir: Path) -> tuple:
    """Run one case inside ``workdir`` and return its digest tuple plus the
    CSV bytes of a from-manifest replay."""
    (workdir / "cfg.json").write_text(json.dumps(CONFIG))
    (workdir / "traces.jsonl").write_text("".join(json.dumps(r) + "\n" for r in TRACES))
    old = os.getcwd()
    os.chdir(workdir)
    try:
        rc = dispatch(CASES[name] + ["--out", "out.csv"])
        manifest = json.loads(Path("out.csv.manifest.json").read_text())
        manifest.pop("wall_clock_s")
        manifest.pop("environment")
        svgs = sorted(Path(".").glob("*.svg"))
        svg = _sha(svgs[0].read_bytes()) if svgs else None
        digests = (
            rc,
            _sha(Path("out.csv").read_bytes()),
            _sha(json.dumps(manifest, sort_keys=True).encode()),
            svg,
        )
        replay_rc = dispatch(
            ["reproduce", "from-manifest", "--path", "out.csv.manifest.json",
             "--out", "replay.csv"]
        )
        return digests, replay_rc, Path("replay.csv").read_bytes()
    finally:
        os.chdir(old)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    digests, replay_rc, replay = run_case(name, tmp_path)
    assert digests == GOLDEN[name]
    assert replay_rc == digests[0]
    assert _sha(replay) == digests[1]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {run_case(case, Path(tmp))[0]!r},")
    print("}")
