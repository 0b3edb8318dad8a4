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
        "3463fad731370665105b4acee7767bb9ebeeb1bd718b6d783eaba839403de775",
        None,
    ),
    "bounds-lookahead": (
        0,
        "e2ea9883cf4f08875deb14a07aa9fd59c8e63122a6f9b7bda4c5664962b87670",
        "322fb0391c77d118d0c968b98cc2dd664f886caf35c0a04a52741e2e626288b3",
        None,
    ),
    "bounds-noisy-worst": (
        0,
        "d6ab33dc177fd1f75e3810b290d53fe7a80bdd3535b98932380294f4426d0d96",
        "93c5b42cbb895a110aa42c47deb119e22713bfde80082d582bf86dc93858aace",
        None,
    ),
    "bounds-single": (
        0,
        "554719dbbf03a5a63532a7eccb391ca08e590f29d6157a0860fa038b476c23fa",
        "8bbd6bcfad1d2462736cf920f1cd789b5c6dce2581857f085ba8757a1f6e4001",
        None,
    ),
    "bounds-table-constant": (
        0,
        "d17e5671d7880fd4bf938dd0161c92be79299d8c14a6ef19a37bfed3fa1d50c5",
        "694e4621f12476910d247ace50b76f775abbe85ba7d747fadad5d9f29851cfa7",
        None,
    ),
    "calibrate-stats": (
        0,
        "924f32a02a5a9875245bee1cb91ddcebf1ebf9227b24bdcd153ca60724009586",
        "bff4c7bf519b4022389541c5928fa1efc864ee9dd550c41e39f1a5d06f9bcedc",
        None,
    ),
    "calibrate-traces": (
        0,
        "064511cf8e49e678da73dc2a1f4c34e6686a1991300fa1870b3d43ee3e8ebccf",
        "dd4f3ed6745da357443588e616448cb503a0f276d1e48612048b17fa0fda3a3c",
        None,
    ),
    "fano-suite": (
        0,
        "1a88b56ffa576d1215724ec10a72350b2e65b13738906355218a7709527fc3bd",
        "1d343db34f9efa0a3626de5f637fa91d1d8b1e344e4f2d95366afc97c990428e",
        None,
    ),
    "fano-suite-long": (
        0,
        "a8f38aa442f009f088b1bcce88a7515d5486e3f7925f2c5424ef6b9583ba2cb1",
        "13c51017c7235e0bcaa551f53ff598ab09f4ee6dd8d85a9e598c20a91ab6f308",
        None,
    ),
    "fano-suite-long-mi-only": (
        1,
        "4427d6c0c2cb57ca6debd0b475d4ecb0a3b901b06e655b812bebd946a940edd7",
        "84dc1422b372aabd74282b2290e7f9a4cc925bceaa523109a30e31286caba2a5",
        None,
    ),
    "fano-suite-mi-only": (
        1,
        "422815ddd3ab32d794dea335024c261b6c27f93d7878aaf5010fa23f985fd4b0",
        "f9419054e2cfaaf5ff4a96a802bd49cffa5e026130c71eac1ffa00c403436727",
        None,
    ),
    "reproduce-bon-vs-mcts": (
        1,
        "e7754284ace08d54ecbe03d5698d3f867263f25f05c461f3ab9cb6a218e100ae",
        "46266c09e2961f6a19d38bfb8ddd46c119cb727592172be50b0b73b66b6ea41c",
        "e1cbd21c8a8b80915048889566db7f221382f4a769f3d4722caae16121624b53",
    ),
    "reproduce-bon-vs-mcts-fail": (
        1,
        "8d4d56843b617972cdfec8950b05852edf21dfd9b1336a8733ae1adae28b471e",
        "c94829a93bc34a174fd9cab141b355bfa17faca34c257bc47f488f570c6ea7d5",
        None,
    ),
    "reproduce-calibration": (
        0,
        "d4c7e539d779152b49b13e6c02cba494213782bc80cf093540513a1747df85d3",
        "44a210c8b8033b42e45b1a680be63ffbc4c8492dcf5f969e883fe29b6d55c7ad",
        None,
    ),
    "reproduce-config": (
        0,
        "3e16f7aad4878261a8ce90e78e9818b18cf3f5f9f89aef98514e379f0f321418",
        "2eaa5fdb18a5e452c7a499a3bf9d06c85850d6596e8e96bb4ab8d5cc84f38bfc",
        None,
    ),
    "reproduce-dominance": (
        0,
        "5b344998ba07380009705914ab6c82c83966cb59b81b55611ac4bdbdd2648fb0",
        "f03cd4caf981dcc1d7fb2ec76fe64b7cd27e8a929f0f2f27583b47a0bc03dee9",
        None,
    ),
    "reproduce-dominance-fail": (
        1,
        "0ad07ad616e7ec56b3dab63e739ca680bbce94505b371c2b81a430a008958977",
        "58894089fa4032de8daaa4bc6ae5e84f5f624578acf7ccad0aadb8d2862efd9c",
        None,
    ),
    "reproduce-fano": (
        0,
        "8551efffe435a0197bbe7c5cfa19d7c32bff69e21073bf2d48b997b24057160c",
        "b9994b47cb3b996f2424d00a135ea54c9378fba9882081269f5cd81b664549f2",
        None,
    ),
    "reproduce-gamma-sweep": (
        0,
        "917aa55711422c24b8bf46956d962b6c92e47c4c18db940b620d47da0d5a578b",
        "263b4741ffa6db585b27df2a79f8621328b12dd565cf9203302c72f49bb6dd27",
        None,
    ),
    "reproduce-nmin": (
        0,
        "1a86bb5981c5314536aac5103077398aff1d025d5f437977f3a81b0cf492e9a0",
        "ca82c2299ec01b621ffbd17a9cb8f50ce2846852f8b915bbbf8518c2beda5111",
        None,
    ),
    "reproduce-table1": (
        0,
        "a402bf8fb13c88a86ff5ea10b7568df33174703c888519d1065a70a735e494a0",
        "c2a6042ff8bdb4d6ca5d9fb4ff924b30486428ddd3fce514aa334a3b9216725b",
        None,
    ),
    "sim-beam-constant": (
        0,
        "d52b1d9c11e8899411df8ab6f404cf6864eb0bfd1be7abad561ea5f0873b5f2e",
        "90c3ed925fef90e7b17fcaae3d736b30f3835d1d8c0e3afc31d578f550be7944",
        None,
    ),
    "sim-beam-noisy": (
        0,
        "b206bb8e91d7bd4ec06e5c219acd8d0d6e73c59ca30ab9cd9a89633addc9509e",
        "33bb0fb562e71f715a06724b123ae341f5e7cec8a600b88b26f70774b6e1ed0d",
        None,
    ),
    "sim-beam-table-sweep": (
        0,
        "5354b7d204043c670d75272e0908f1095397d41b26d40945e61cc43ac8d7be0a",
        "c70e30fe0bd24519c599e2d9d868d7b76f2a845b386cdb04ac8581ffbfdff6c1",
        "9285099c268c3d4c5f0369ecad120fe2f799e00d669c4b7f0ac456a324cb2b74",
    ),
    "sim-bon-max-sweep": (
        1,
        "29216ff9780b64bdbfc19d1fe1348331919c3cb22597fadc8f39c1e9616a3792",
        "402609ed07db12ffc908557699a13733955f1beaa032ed1f83fc27034dd55d97",
        "a49662c0ebbbe008b592c84e4a834a89d80a773686403a73b62f5e89020bfab8",
    ),
    "sim-bon-max-sweep-fail": (
        1,
        "52d31f8d7a74f4e991c1c7ec8cac2f13d488b426bc5dd03df58000fae8f2cb19",
        "9422e7c2b0c8dfe43f2bae93669c6d4ae63c72154c8e2d16b587a1a019e1a7e6",
        None,
    ),
    "sim-bon-sc-sweep": (
        0,
        "ab019b036919f5ceb373877258931cc36994f8bc5e6f91e0f0b9e12e8675a516",
        "0f22757f09c233083232aae5970de629021a5a1c9d10533a40d790085afe46ea",
        None,
    ),
    "sim-bon-vote": (
        0,
        "96d4772832d48619fc8b53918b159f386399e95a172273da58f174b3dc7bbe9e",
        "d47bdc4f0176f7082b699218fcbdb6e2182e2b7cf7479f13c16c80e67db10d49",
        None,
    ),
    "sim-config": (
        0,
        "5ac5406548f8573ac0957d5e8a5c599c019159eddd020e2441efd8c7bad3d570",
        "b3773618befd977cab14447c1d27628821743a6861ee2f1af73a2b4e8d91e037",
        None,
    ),
    "sim-config-override": (
        0,
        "5cf5c2143b260f6691b5bbc1ea96fc008b50df8f8c856047a21c0308d0ddfd33",
        "5ca066359775d93e6932671cd55c30e89ae69dfb8ec14f1e9be18f18d2df4b93",
        None,
    ),
    "sim-config-strategy-flag": (
        0,
        "dbbaf5b4a380dd53c65b750130007ddb1647408a281b64e02d07b5406901617a",
        "e305005d8f4fbbd3244940001a790de01fb6ef35edd902525d773a40e6c1ec31",
        None,
    ),
    "sim-lookahead-noisy": (
        0,
        "d21b1cfe5b0cb4c2d5c981a35534351fd806a3c56ceee650b505bd95879aa9ee",
        "1a9ba1c778815bfe62fbcb2aafe8021dad8115e6f0f818998e21ee6b0104fa46",
        None,
    ),
    "sim-lookahead-sweep": (
        0,
        "29da5b2728bc6092287f5f6b1db3f610f2a6ad4dddd31e57b306ac1371611eb9",
        "503f4d6eb4efea1e791bdaa9072737a59ec3c9573afc0d4ecad1ca0713775554",
        None,
    ),
    "sim-lookahead-sweep-plot": (
        0,
        "77b899cc0ae77c4f31ea9ab086d1a08793c303251f1bbdd10be4beb50d22f23f",
        "19937f0e95bdd96d51ae6601d77113031e5d9a8c2e247e04f6f7588f63e56e27",
        "fdb26d69193af2d6f7046be3a360079be7ee8b911c61fa3d492b9432820c9b3a",
    ),
    "sim-mcts-best": (
        0,
        "5be13523fb629fc2fb4175cec3e5cbe575972564cce41ed0fe96ee64c40c10da",
        "9b7bf74e029c0fac67f3fa5b853f85395f875901c3a6fb272e74c507a717e298",
        None,
    ),
    "sim-mcts-best-constant": (
        0,
        "7589841b9b8cee9077d2f613a5bdcc661ad14a55281fc4139471b3e2c9388a6b",
        "46115f5f492a588d3fdfd42f5f8e6d9f3b7412d041516561902d482f1967b33f",
        None,
    ),
    "sim-mcts-best-noisy": (
        0,
        "a4c8cf3bdbbc4dbf524eb7d84f1013998e5a082b4e92b328db8c21299a6af487",
        "d809173a71f635a13773f41994df8fe26f46b345052b39310c69ad1732805bfc",
        None,
    ),
    "sim-mcts-worst-constant": (
        0,
        "921a82567de74be3b780f5d77a9ea9f0dc78aa302ffb4b4db2b54210ee8bef48",
        "1e9674b26670fe795c19fa5c2c98de6925cda88809f7f7551e0080c1b8355f1a",
        None,
    ),
    "sim-mcts-worst-noisy": (
        0,
        "550f9751465f9ec4e97c1b592ba452f6988ec992d32eb06a288bed35bc8b25d0",
        "405d725f59424d3e81dec94536c21e231aed747855f45a7bf99b5b3060208e75",
        None,
    ),
    "sim-single": (
        0,
        "f70e9bec899f548cc5df712e2a7c6a1de396cc2c1ef8ecbe8ddc8d7d76ffc7aa",
        "5b965fbd3f8a8ac21f0ebfd4ae10b5a9196c59c229c02ea9d81bcf077a539115",
        None,
    ),
    "sim-single-table": (
        0,
        "514672f2fb05b19f4818d5be29fab17f6e0faa1aec3e17aa27032e3e88fc9e68",
        "201633adf99827799e0e1331fa2adcf0ba9f39112559216371e96a7fb935e8eb",
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
