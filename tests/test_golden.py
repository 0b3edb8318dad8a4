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
                               "--lambda", "1", "--trials", "10", "--seed", "37",
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
    "reproduce-dominance": ["reproduce", "dominance", "--trials", "200", "--seed", "1"],
    "reproduce-dominance-fail": ["reproduce", "dominance", "--trials", "200", "--seed", "0"],
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
        "149a644287867bcda1b92bef9557dd3c42c68c1e11e66a850216385e0c9bdf83",
        None,
    ),
    "bounds-lookahead": (
        0,
        "e2ea9883cf4f08875deb14a07aa9fd59c8e63122a6f9b7bda4c5664962b87670",
        "a708959bf7ff36fe0f5b018cff34e594416f4a0b286debe7a589da1b0b1d55a4",
        None,
    ),
    "bounds-noisy-worst": (
        0,
        "d6ab33dc177fd1f75e3810b290d53fe7a80bdd3535b98932380294f4426d0d96",
        "1eed212ed5add64fa5895340bc2a2862ab121611b1de352abe903a845f9a9b82",
        None,
    ),
    "bounds-single": (
        0,
        "554719dbbf03a5a63532a7eccb391ca08e590f29d6157a0860fa038b476c23fa",
        "c60be051e93b59b5f5ac2bf71dd36d1dc0e4e51eac2e32d8fdee2abb5bc29be1",
        None,
    ),
    "bounds-table-constant": (
        0,
        "d17e5671d7880fd4bf938dd0161c92be79299d8c14a6ef19a37bfed3fa1d50c5",
        "f29065bf31997edb2c79e5bcad8c70d01e133c8a603e6d611c2e04002bdc594e",
        None,
    ),
    "calibrate-stats": (
        0,
        "924f32a02a5a9875245bee1cb91ddcebf1ebf9227b24bdcd153ca60724009586",
        "9ee7da259ae6d3a8430197cea0c8c186a169b312aa67839c5937fc6f83c84ab5",
        None,
    ),
    "calibrate-traces": (
        0,
        "064511cf8e49e678da73dc2a1f4c34e6686a1991300fa1870b3d43ee3e8ebccf",
        "7d84941326094a92db02a3b07987e8bf34dbce8514efa7e4fffb462b5ed86ad6",
        None,
    ),
    "fano-suite": (
        0,
        "1a88b56ffa576d1215724ec10a72350b2e65b13738906355218a7709527fc3bd",
        "1dd1a9f1010525634debd2e5af9aa5eef1ec740b3a1ebf3eea62bc5d95496401",
        None,
    ),
    "fano-suite-long": (
        0,
        "a8f38aa442f009f088b1bcce88a7515d5486e3f7925f2c5424ef6b9583ba2cb1",
        "8d9e73aa2128d5c923a094900080c18a7297c8c67ac98f54bc60b73aab91788c",
        None,
    ),
    "fano-suite-long-mi-only": (
        1,
        "4427d6c0c2cb57ca6debd0b475d4ecb0a3b901b06e655b812bebd946a940edd7",
        "d4f6063d9006687a24b9e4bbfc9b77439f80210f31dd37d527385870d0ee8ead",
        None,
    ),
    "fano-suite-mi-only": (
        1,
        "422815ddd3ab32d794dea335024c261b6c27f93d7878aaf5010fa23f985fd4b0",
        "70a4fb635d53dbfc761c02dec4969829fe3a8f4c9c667f7d530922b7d35ae7b6",
        None,
    ),
    "reproduce-bon-vs-mcts": (
        0,
        "8dc4b37db0054bcd0d059586fc2e937fe6863343dd67d1b60c19bf407889485f",
        "51e19a51cce2ac8ee841e3eb16935bc1a48916fec1d1f52974f5da7524ff58e9",
        "926a043fee264025b6b71a278eff70e2b1dffa318572e8ee5a9b0b3aac798bd3",
    ),
    "reproduce-bon-vs-mcts-fail": (
        1,
        "1dd218949991be5b8d8c7779aedfaab6d629e960e66b2c73642a463bb4b5f234",
        "0eb2c7dafe5a013d64f7585bf311b28f3ff9c4c54d09d42a58ff982e00cc8320",
        None,
    ),
    "reproduce-calibration": (
        0,
        "d4c7e539d779152b49b13e6c02cba494213782bc80cf093540513a1747df85d3",
        "a08a7732b080917c4ec4d29c059f90c1f7962c0860c4ee3044462e8d2f944699",
        None,
    ),
    "reproduce-config": (
        0,
        "3e16f7aad4878261a8ce90e78e9818b18cf3f5f9f89aef98514e379f0f321418",
        "60886f8a16211260cf93d72e4236456c8ec6a0a7d6f2ddd5de24825ec098c118",
        None,
    ),
    "reproduce-dominance": (
        0,
        "8aa51702d3a7eb09008ad4758226d28c11038e952a3237b33d98b0152ec3a34a",
        "9ffd2f8b712e063c61d6cfd873c6b513e794836e41fc39b5a0501f3f6303a0a0",
        None,
    ),
    "reproduce-dominance-fail": (
        1,
        "6acf8febff1bd8fe368d49404084cd0f00bd091edc10ca513ecd7390017f307d",
        "7bbdac185af30449fda99b74374f7e48bf3e390bb6c1bffc6be78487b910d28d",
        None,
    ),
    "reproduce-fano": (
        0,
        "8551efffe435a0197bbe7c5cfa19d7c32bff69e21073bf2d48b997b24057160c",
        "b345824bf5a88a3b8a08f6b8bd346c51216f447d063c646c5985575c033cf141",
        None,
    ),
    "reproduce-gamma-sweep": (
        0,
        "20dcaddb3a011b02dc20610c1503facdc68fe02aef0e1aea751838e8053fa0f4",
        "c678ff2e35e32d5e0fbea3b60dbb959eb16059a5fe3cef795d28d615e48473db",
        None,
    ),
    "reproduce-nmin": (
        0,
        "1a86bb5981c5314536aac5103077398aff1d025d5f437977f3a81b0cf492e9a0",
        "a520894aba5da0bf616fd943be0d57428848a49048dadf403b5aed01cb3cb2a7",
        None,
    ),
    "reproduce-table1": (
        0,
        "a402bf8fb13c88a86ff5ea10b7568df33174703c888519d1065a70a735e494a0",
        "99fa2b93dfbcb0d5bee96ad29c041e18f3530ca11c5868bf01ca5dac3103538a",
        None,
    ),
    "sim-beam-constant": (
        0,
        "0fd32331ed4d9d3f57302055bba89e18c02fd820426959ae400ed26654761d3d",
        "9fc4bb4348f08db7ebd324ef02b5581905664ebbf84ba72f8d210942d480a079",
        None,
    ),
    "sim-beam-noisy": (
        0,
        "784b7465014b6b579134b5eb206b24fa489fe58874760218f301c51a6039f349",
        "70997c1d3bd2ccaa137eca792a6f3205151381a7cb83ef2dd592c5e299201bbe",
        None,
    ),
    "sim-beam-table-sweep": (
        0,
        "0b029b2e960953dd04c1f7bbf5fcece0c456075abc973b3eb1f87dd16c2f06c4",
        "5ef67d90f89a7b8c7598501e63db60dccfff8289b02e74496f86a6d6dd3d8df3",
        "bb1d4a2079fa69fd4e809d86811f41707debb50797694dd3ffeeeffb7f36523a",
    ),
    "sim-bon-max-sweep": (
        0,
        "86d73ae8f37febd848e16a4348474fd1806141d199f502c39c80b904a7b75084",
        "86db3f30e3b2ad53fa9018308c423f64fabec000362d3390f1eca7aa88f4c862",
        "130c5968cb5002af514496acfead5f90d819acfa38e401ef30fe95f5e2586bd2",
    ),
    "sim-bon-max-sweep-fail": (
        1,
        "5a8d1ac2932558e4a09739d9fe664ee9815cb1defde4f3d52a9eecdd2d25867c",
        "62ec0e739ca91077796ded79cbebe6269ef7aa57801b193bbb22f508742162fd",
        None,
    ),
    "sim-bon-sc-sweep": (
        0,
        "7fe6c11a415c7975eee7e337f243ad472e2fa1d54541f7726f6ec9ba2cc71644",
        "6e83425880d2504c50fbf3ad3790137207adc1e05959a9edc5a1979a8732f00f",
        None,
    ),
    "sim-bon-vote": (
        0,
        "563c13d9d49967ad9003ce73bc64f77302b73c577424d1abd0d1cc7f96c53764",
        "f47d8db6021c1e4f192491d0dc70829027877880f990914df15327562e986363",
        None,
    ),
    "sim-config": (
        0,
        "6a299657894cdeb69d9f0e274978d8243b8c6a8aa7f3655da4345d7273781ae9",
        "9878e1601ee3a3944674a270d4ffbfaf388e2cbdadcb0512288690b9e10f2c7e",
        None,
    ),
    "sim-config-override": (
        0,
        "836249c156594c7d939ebd3961dbd8ccfeb59d714d5848a305a230971f0d8877",
        "55c15d225e31d56cc35438a5ebbeee6b189bc89c62aa18e93c0b141032aeefbf",
        None,
    ),
    "sim-config-strategy-flag": (
        0,
        "c493eb7ce8255a0a11483715524bac20cc2b5392b3018908d9e3af2af97a14db",
        "5c16c09bf2d4a86f7ceaf608a326526c60eda6fa70f41ebfd2f40a74b9d329e4",
        None,
    ),
    "sim-lookahead-noisy": (
        0,
        "d21b1cfe5b0cb4c2d5c981a35534351fd806a3c56ceee650b505bd95879aa9ee",
        "462bd1c8d9f22bbed94aed8ff50efac613cb6462975636cd781c52ff0ffd6fc3",
        None,
    ),
    "sim-lookahead-sweep": (
        0,
        "de869be76596ffa62b91898b8dd815aa1f5154ab2b14550e64f70773ac40c094",
        "b3fc534c3cdebfa6ee1a3ace1242f0e9e4b0b87e0641e24ea44e278de1189e89",
        None,
    ),
    "sim-lookahead-sweep-plot": (
        0,
        "d4f30d397c6adde9746a54e546469a845f6c6c30113da885ca21cce042a0a289",
        "4aca92555fa109b1076604d28899c66e160f06120a664749c76dc69ca5371bed",
        "cb3d56e61f216816283dbc68353ee7f225a553d85015e8900da471ecc812f235",
    ),
    "sim-mcts-best": (
        0,
        "5be13523fb629fc2fb4175cec3e5cbe575972564cce41ed0fe96ee64c40c10da",
        "a207400c953196c2017d6972a042c77b84b5555e0a1933ae0c8d33df22b80b6e",
        None,
    ),
    "sim-mcts-best-constant": (
        0,
        "173c42ad24f38931aa6ab9fb1064e342a6754cc2e84b6ee3cafe0415c80b4fe9",
        "86f0dc07540f03de2ba9586102dc8cea7357811ad1fddec4713c5d774f9f06af",
        None,
    ),
    "sim-mcts-best-noisy": (
        0,
        "abfc7a21fdd91a118ee77e33d9b711ea3cd46dc3c59a1007b5447154cda162f7",
        "18fe387fdb9cd455e568c576735441c5abddbea6019a84b74d15f3a45284d7e7",
        None,
    ),
    "sim-mcts-worst-constant": (
        0,
        "016cc9c64921f9d1755abb1b6e16349fb8d825c6692e7d839b13b6d21010150d",
        "5c288a4d42ed51ee908b6a512986a46c6b434eafe66b168809a543fcf69c0ca7",
        None,
    ),
    "sim-mcts-worst-noisy": (
        0,
        "b996b89b69686d5d102acc9c996f7d978e1c82dcb1f02f82da9717d029db6897",
        "767829c334985a73f3b5fb573a68a0682c2a477e2c43dfb16605eddb4f1d2a4b",
        None,
    ),
    "sim-single": (
        0,
        "3d8005e947151be74496c5e7b94b0da13bdee621decacf824c9f10f2a6acf711",
        "ae5a96e21a5401f5b45c38a1909eb1f3eb28fd06d7b19c48f25a64ebdd98ca02",
        None,
    ),
    "sim-single-table": (
        0,
        "3b6ea89101c6b3d844db7e1cf1841e34e74351dee6f52e1dd610ef1e20a33005",
        "9650d50308dd3eb68513edb183809ec8d44fa4994ce15e0bb8bee6334bb4db46",
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
