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
                               "--lambda", "1", "--trials", "10", "--seed", "11",
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
        "2cef37c93a6a61b44db677d49e8ba32cd61be1161b817390d0ec55c58db770a2",
        None,
    ),
    "bounds-lookahead": (
        0,
        "e2ea9883cf4f08875deb14a07aa9fd59c8e63122a6f9b7bda4c5664962b87670",
        "90f37d1f4863a2ccc83cda66c0447cdb0ce1c743f89d9842e8b041291a3f286f",
        None,
    ),
    "bounds-noisy-worst": (
        0,
        "d6ab33dc177fd1f75e3810b290d53fe7a80bdd3535b98932380294f4426d0d96",
        "da4a905b0175112eee8b07597f2fae9bcff28d7e5019d15d818907bb4f30c3cb",
        None,
    ),
    "bounds-single": (
        0,
        "554719dbbf03a5a63532a7eccb391ca08e590f29d6157a0860fa038b476c23fa",
        "e3f4d52c43df1f3ca8d2907d6c1c9441c1b0fc031e77bd50b480b49f600c671c",
        None,
    ),
    "bounds-table-constant": (
        0,
        "d17e5671d7880fd4bf938dd0161c92be79299d8c14a6ef19a37bfed3fa1d50c5",
        "abc690b9df29adec730a82eccb19ffa03de9bbc875f190408d6e257597a50896",
        None,
    ),
    "calibrate-stats": (
        0,
        "924f32a02a5a9875245bee1cb91ddcebf1ebf9227b24bdcd153ca60724009586",
        "5032a34927209b9e14ea514e534207b8547525cda8647fd1b9e51bac9c2030e4",
        None,
    ),
    "calibrate-traces": (
        0,
        "064511cf8e49e678da73dc2a1f4c34e6686a1991300fa1870b3d43ee3e8ebccf",
        "1ac84978138e3739f2b8eb92001ee84571bf88d23ab4e360e5b0ed88227ad8d4",
        None,
    ),
    "fano-suite": (
        0,
        "1a88b56ffa576d1215724ec10a72350b2e65b13738906355218a7709527fc3bd",
        "9d9d354aff1af36b332f50aa0462b96557e0d1f8c6684915c8baec151d59aa0d",
        None,
    ),
    "fano-suite-long": (
        0,
        "a8f38aa442f009f088b1bcce88a7515d5486e3f7925f2c5424ef6b9583ba2cb1",
        "732f4ef5fdf691c49d44237fd3b0c42b345406083fbc68eb44d80e0eeedb44e6",
        None,
    ),
    "fano-suite-long-mi-only": (
        1,
        "4427d6c0c2cb57ca6debd0b475d4ecb0a3b901b06e655b812bebd946a940edd7",
        "e1ac4f96debf43aa0c70542b97b64abfb6b142678949ec91727e565f0cf72ed7",
        None,
    ),
    "fano-suite-mi-only": (
        1,
        "422815ddd3ab32d794dea335024c261b6c27f93d7878aaf5010fa23f985fd4b0",
        "f2dbc4becd2c7905b73b994fb6df9a2fe1887192262de25a6906ca8056781b26",
        None,
    ),
    "reproduce-bon-vs-mcts": (
        1,
        "4f8454e68fe3834ab3a17b68280cc8fffdb8ff835e46806cdf2e45513f77a23e",
        "d42eca15753d90ad8fc5c482d52fa26d35aec408d0da06d9c6465bbd6b8ce0fc",
        "3154a4cee94af00290699d7e5beb597cdd5bea202b8e2d893588153063b41942",
    ),
    "reproduce-bon-vs-mcts-fail": (
        1,
        "a71d634b586a4a5250cc2dbe7a9ffea5ab8c10aa82273cdfb612203448eebf64",
        "9699e6e2271898b41410e966f9134487dce5ef2d9c6dcf89ee572966151dd4c3",
        None,
    ),
    "reproduce-calibration": (
        0,
        "d4c7e539d779152b49b13e6c02cba494213782bc80cf093540513a1747df85d3",
        "8e520cd7fbd0a216f7d41a3205754efb0d3e29309f718827d32d5883604c0b3a",
        None,
    ),
    "reproduce-config": (
        0,
        "3e16f7aad4878261a8ce90e78e9818b18cf3f5f9f89aef98514e379f0f321418",
        "d5fec6a0ed544ab570a05a355a5d8f2b68c2a8861046915e50b39f3cb07aabd7",
        None,
    ),
    "reproduce-dominance": (
        0,
        "d8104c66493b6c9e08d229f7544da8cf1eb35a27d42b520c632599183aac1e85",
        "886b57d175cbe709799375cf5d79bb5eefb825ce116f0f3e93613c5f86b1ac64",
        None,
    ),
    "reproduce-dominance-fail": (
        1,
        "2fb6852f6e84c2a8e2a588642481bbb315ab970f3838337c309cdd0cd78679de",
        "c19fddebc5aff83c20282feaa9e319c11fd88e5c5d1ea95f3c5bf8df2b9bec9d",
        None,
    ),
    "reproduce-fano": (
        0,
        "8551efffe435a0197bbe7c5cfa19d7c32bff69e21073bf2d48b997b24057160c",
        "72a94cf492a35a97564e407aec0b7a5c6b7724741fa6c82c780cf26eb4d8690a",
        None,
    ),
    "reproduce-gamma-sweep": (
        0,
        "917aa55711422c24b8bf46956d962b6c92e47c4c18db940b620d47da0d5a578b",
        "857ecc0b959c778c9323c695c7b4c3c970154a718331ca8aad783bc1ec5ce27f",
        None,
    ),
    "reproduce-nmin": (
        0,
        "1a86bb5981c5314536aac5103077398aff1d025d5f437977f3a81b0cf492e9a0",
        "e5e3be9f3edcd4c4c2c9d93df4efd96424b83a0685a96535e2befc3d82fbc45c",
        None,
    ),
    "reproduce-table1": (
        0,
        "a402bf8fb13c88a86ff5ea10b7568df33174703c888519d1065a70a735e494a0",
        "71f0f53c6f784a1679a77a5c1545ea73cdc994593ebeb0ae1221a3e94c03fc59",
        None,
    ),
    "sim-beam-constant": (
        0,
        "ae6a1a682336494ade00dc82e8eec2a4774909dffaf5d779d74e33a7c684e550",
        "e67be7dcef0b9faba805883fb32126b54074cf1a14f80cdc26c474bc3f2fe3b9",
        None,
    ),
    "sim-beam-noisy": (
        0,
        "7e25bd1dee021ba7f87761c8e7bf46b882ee872aa8d24c770081ea31e89c5471",
        "a0635179ca241b458b37e53924e20a5c575ab24723027ed910c7c8a99fff480e",
        None,
    ),
    "sim-beam-table-sweep": (
        0,
        "5354b7d204043c670d75272e0908f1095397d41b26d40945e61cc43ac8d7be0a",
        "579e2acf1a49b70892f837be41daaa072f4362df8dd18053cd91f6ae8eae4d4f",
        "9285099c268c3d4c5f0369ecad120fe2f799e00d669c4b7f0ac456a324cb2b74",
    ),
    "sim-bon-max-sweep": (
        0,
        "6dc3be0ca432e72958bde56c5691505d7d3f863c4ccb4d1f90ebbc3441ab7bd9",
        "39e87a232ca4ed2a1c8505411004cb86a9d3973cd57c9e18623d700d89440ff3",
        "dd698133650c6f5e996e228cc35240606a3241715c6def6029ac980993599833",
    ),
    "sim-bon-max-sweep-fail": (
        1,
        "2ebe892f4a122da0978d653fa4424bb6dc1caa345ec78b432e82a77349c2f432",
        "ccc8b20a08cae6dcb1117cfe4404180696e98df5b1955f90d2da85fd91c94429",
        None,
    ),
    "sim-bon-sc-sweep": (
        0,
        "e7e18214140a939dbab1addaf2a480dfead1f431626b56a6018a0dddc541304d",
        "2bdc02b7f107c937de61c7ec7741c4f3aaad0c450fa5ef118b628c6f7ea2a76b",
        None,
    ),
    "sim-bon-vote": (
        0,
        "bd9f7f6a5fe1e91bc6fe75bd132d0ff3abfc7b2ff311aa47125ee480711a769a",
        "14d9edaccd27753c1b6e66fc0aab280b5c4cbc84aa722191280df3a119c9a9e3",
        None,
    ),
    "sim-config": (
        0,
        "639920043cc32b460f3f54cc83352726ffe463cb935bc8ecc27bc99eb83c1920",
        "c80a2db5738a623fe1685bee75dc69e926ee5fe68f3fcf83a66aa41223d6ecbc",
        None,
    ),
    "sim-config-override": (
        0,
        "5cf5c2143b260f6691b5bbc1ea96fc008b50df8f8c856047a21c0308d0ddfd33",
        "4dc75691ae891b8fb0e3c54049108ce3f1c1928621467d1ceec4a734839d0aff",
        None,
    ),
    "sim-config-strategy-flag": (
        0,
        "c440cfe242d55c47e9c73b2cd0849bb988a002708c5bf3e4bb7dc644b84500dd",
        "ab04f761a3ad14f3a1d16c0b61e316b85f1c12de2732ed783ac09c4bb336841b",
        None,
    ),
    "sim-lookahead-noisy": (
        0,
        "6ce51393aebef3787957bb16bcf6576f0285c9d91e1fe1f79f5d6c444d0388b1",
        "2ad8e4457a6c0802e6f28662f634f8379f1d5403ce8315b1fbb6d520cbede33c",
        None,
    ),
    "sim-lookahead-sweep": (
        0,
        "bd1bd762bd3eb189ba9163481975860de397a90a2dc64e2d8ff5f961ad351c2f",
        "776bccf0d570c4d574633834152a17afc84f4cd88d7ec47a5bfde77d431d7e47",
        None,
    ),
    "sim-lookahead-sweep-plot": (
        0,
        "9ddbce4be20b80e3b6874bcb4a5686e9c3e93e09ecae3607f39fa4641c976ec1",
        "d39f1f55fb00391bbdfa908a8335a3d59daafb9a04d430c8a8d0960072e2df83",
        "79a2ba29e0d8c1d109a1653dd9bf03ad687222ef2a12b27a3dd7dace912bf4c2",
    ),
    "sim-mcts-best": (
        0,
        "5be13523fb629fc2fb4175cec3e5cbe575972564cce41ed0fe96ee64c40c10da",
        "18d7743a7bf389f7d64ccbcfa8c7032986fef0e67ec2da667d9fce70b12faf28",
        None,
    ),
    "sim-mcts-best-constant": (
        0,
        "a4987de9007fabe1c2aa96e8a223d651bd143393cc30b15c23a68e9301d909b4",
        "9f13fb5bb8bab541e17e44fa33ae2eff120cbe1b3fb21897a4b349f5496ed60f",
        None,
    ),
    "sim-mcts-best-noisy": (
        0,
        "a4c8cf3bdbbc4dbf524eb7d84f1013998e5a082b4e92b328db8c21299a6af487",
        "8e62cf4b96fa8fcf0c8886b1518ebdf753bbbf687797096a5b34cb212763a0a0",
        None,
    ),
    "sim-mcts-worst-constant": (
        0,
        "cd61b7ed744645b06135b8454120790eb51696f40f1c5a3af2cb3822b7df044e",
        "3edf3fe157134030b45dd2945a2226efd13bce1987b2513a5b4fabb246aad70e",
        None,
    ),
    "sim-mcts-worst-noisy": (
        0,
        "25c5e5a4d6fe8374dec99c165955911de650f99423733142716d76babb514cfb",
        "62992ccd37fabed9147a851a989e8504770b69e4aa942b4d396335b44ac4acd2",
        None,
    ),
    "sim-single": (
        0,
        "f70e9bec899f548cc5df712e2a7c6a1de396cc2c1ef8ecbe8ddc8d7d76ffc7aa",
        "308276a48e8b790eae5937749824b75725ee2088a22654f3c8d66b21bf94855a",
        None,
    ),
    "sim-single-table": (
        0,
        "514672f2fb05b19f4818d5be29fab17f6e0faa1aec3e17aa27032e3e88fc9e68",
        "c9cc109928ec69c7ddb9ba36dc81fd76da88fe0925694c9908ece9bf5bfe2a78",
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
