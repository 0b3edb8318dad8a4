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
    "reproduce-dominance-fail": ["reproduce", "dominance", "--trials", "200", "--seed", "4"],
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
        0,
        "7b3219983950aab0a3a517ff39983136e5cfb22fbf9906b4db50ecdbeb3438ea",
        "dc3d5f54cde806864a221b3acd62d479c5994971f7421fdab02625a247cbeb2e",
        "f630838745f6ef6d0685d75c4dd8c923818560f1d79f3a6b419bdd7078691f6f",
    ),
    "reproduce-bon-vs-mcts-fail": (
        1,
        "3e174aea6c9480b7139da085ec29837297a9cf4da872ce813a4547522430ce35",
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
        "90707a07975b7d7aa853a7986f1c15a0cb25de26ffb50a1ac11ff84e4b512b7c",
        "015981bfde611962816885c74f533bdb9eba2455c24f981f9c01db234b43645e",
        None,
    ),
    "reproduce-dominance-fail": (
        1,
        "e6be961cb2a6cafc17d8bf948bfe08df146bd1183068093946ea12a4eaf12adc",
        "903310997e4979856efee9ea8cd2186c7ef9e11edfb95ffa4fd90eb799ab211d",
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
        "ca3004635e62034f4ff3e39693d32b4dcdf5ffe9cb290ad85a1269e2940160e1",
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
        "754c96016be8944b7c3db624cb0a544236316b369049f658549e297bff722dc0",
        "d001a7abb3faddb3fa982a77fa74068778bd2bfa58a36b3a61438126050d67d9",
        None,
    ),
    "sim-beam-noisy": (
        0,
        "025f4d2c11bd8b0ace84d600ae6750e0f8b117eb572fd751f75c9613aca52b6d",
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
        0,
        "fd9f6dc9e8aae715b9154d115dd1fde070cdfffb202e4a5fd5cee9fa6c13a971",
        "d772ce380dfbb8bb03ef6241b0ce3b119567dc1abc4d6b9ff8231a4c396dfab0",
        "d5d49884a4d4a434c67197bb7bc49f91a82b5872b56f321b746c059123d510c3",
    ),
    "sim-bon-max-sweep-fail": (
        1,
        "52d31f8d7a74f4e991c1c7ec8cac2f13d488b426bc5dd03df58000fae8f2cb19",
        "2fb18d13b246a4cfac48734b4e7adbe3669e815a6415bd0748b061b25de46b5f",
        None,
    ),
    "sim-bon-sc-sweep": (
        0,
        "0e963cc5ad5bfda3147dadaf0b846c578ab41d5b57aeb9cf2954f001a411d822",
        "7b2120fce75d48586a1dbe69fe2fe1d0456d8f9e767b1707a673a159eddfc18a",
        None,
    ),
    "sim-bon-vote": (
        0,
        "563c13d9d49967ad9003ce73bc64f77302b73c577424d1abd0d1cc7f96c53764",
        "287e0e6564495314f61f72e006875798b44745c7d07c268b55c20ff478e507aa",
        None,
    ),
    "sim-config": (
        0,
        "f85807bb09cae03839be425a8895547e231219cafdffc98e493fae97aacb8632",
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
        "f2f97c37c997094703180f66639221234287015f83263a06557527eb71970ec3",
        "e49964429e455cd1f9bba5e7ee7bb98e7a86b76c39f0ea441a11f15705abb995",
        None,
    ),
    "sim-lookahead-noisy": (
        0,
        "d9b02bf5acfdaeb1b4b0a54d98a758368393fc07c0de6319f786e1814b08b03b",
        "a62a23b6570a9983ca8c95412336a3c054e799a766dd23d8e3b96ef7bec6a97c",
        None,
    ),
    "sim-lookahead-sweep": (
        0,
        "b98f689f30f876e5b94fa78d9ec77f74be9d95f75350b0457d7792b74b01247d",
        "dff60dd517001b0facac806b745e81ae949cef3dcfc8c0d1a58f55141411c297",
        None,
    ),
    "sim-lookahead-sweep-plot": (
        0,
        "69cdbfe123506d4235cb040bc3404d4dbd33b9153f1b79f5e22b148a3cb6e316",
        "effeca2af13fd90e2090b7d0ff12515c26e8a4af0c4c1fab254f64e0cf63260f",
        "2fc3671ec072291a48181d8af53e983bd1e92b301ca5cab645167894fded4dbd",
    ),
    "sim-mcts-best": (
        0,
        "5be13523fb629fc2fb4175cec3e5cbe575972564cce41ed0fe96ee64c40c10da",
        "aa4bd221e332f9c9d3ba1ce1553e930997efff151783fa520c5ddb6913750095",
        None,
    ),
    "sim-mcts-best-constant": (
        0,
        "7eba37333c7c70fca41da0bfaa0e5db26f874da19072771cc7c7444069e22908",
        "70737f90b758b2ef5acaddc569fb87bb4f1663a1c13f8d84d4113d7109ccbd61",
        None,
    ),
    "sim-mcts-best-noisy": (
        0,
        "9e2b4297beb3a1adc24fcc418bec41e77c2e442a369c93024f2582893061d7ec",
        "3075de7f01b97384c7a6429b0bf908523f56c8ec926a0894ca97164cf52274df",
        None,
    ),
    "sim-mcts-worst-constant": (
        0,
        "53e92cfaaa9bd9c50dda232f5c61093793c9c5d90a88bb6460b0515d74af91ec",
        "084e78185121a0763e6a151debcaff7e58c9c32b27afbc238d0b7ab023139c6e",
        None,
    ),
    "sim-mcts-worst-noisy": (
        0,
        "62ff4fe191674c0ceae991af7ff86691f18714b223d3aee0102900d0b1bbf758",
        "582bf3dc21109b74698f31af422c160c54e8c47e9caba3c575ace793427f0bf7",
        None,
    ),
    "sim-single": (
        0,
        "f9e46d6fb02b20ab191235aab30fb2d2f9e5b9897895605374e7a251edfff2eb",
        "5d9f0965ee03c291e245e0491f880e3474a821a3d8fb391d14fa396cad76b59a",
        None,
    ),
    "sim-single-table": (
        0,
        "89edad73812f47d191b2b73b58ad808d078385e5aa7e74850dfd81fe57f16def",
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
