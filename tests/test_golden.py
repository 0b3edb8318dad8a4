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
        "1dfdfff9979242ab95e8f41ec6aacdb27812e2964db599acced7d41a32994e6e",
        None,
    ),
    "bounds-lookahead": (
        0,
        "e2ea9883cf4f08875deb14a07aa9fd59c8e63122a6f9b7bda4c5664962b87670",
        "5dce37c1ab76fc6c12a7ff5fc21f2ae7622af118c88493046378dea1164a9ab6",
        None,
    ),
    "bounds-noisy-worst": (
        0,
        "d6ab33dc177fd1f75e3810b290d53fe7a80bdd3535b98932380294f4426d0d96",
        "3b9ea93234c3a78b1760e64c72e8199001de19885f3830630b306cf43781467e",
        None,
    ),
    "bounds-single": (
        0,
        "554719dbbf03a5a63532a7eccb391ca08e590f29d6157a0860fa038b476c23fa",
        "006e63bbf22600486350d83f7869c758c67add4dfd47f2087793f91943be35b1",
        None,
    ),
    "bounds-table-constant": (
        0,
        "d17e5671d7880fd4bf938dd0161c92be79299d8c14a6ef19a37bfed3fa1d50c5",
        "abe67573741ce81abf06b3212639b8f9e84589cd8d15fc533d81c0994670e2f5",
        None,
    ),
    "calibrate-stats": (
        0,
        "924f32a02a5a9875245bee1cb91ddcebf1ebf9227b24bdcd153ca60724009586",
        "e598b53853c6607cc70ef269178149604e1c7f73733737ec87222940c55be305",
        None,
    ),
    "calibrate-traces": (
        0,
        "064511cf8e49e678da73dc2a1f4c34e6686a1991300fa1870b3d43ee3e8ebccf",
        "01024034ffb946d1d9534ef3cb257fe27f9adaa0b28251a93361c8696e4b4206",
        None,
    ),
    "fano-suite": (
        0,
        "1a88b56ffa576d1215724ec10a72350b2e65b13738906355218a7709527fc3bd",
        "f7979bc549a84e239acf831213c879f4a52650fc78154d538069523b29030b8d",
        None,
    ),
    "fano-suite-long": (
        0,
        "a8f38aa442f009f088b1bcce88a7515d5486e3f7925f2c5424ef6b9583ba2cb1",
        "6babfac4953942890ba7b518f204238af629ec7f29288ff0b850c46010120f0d",
        None,
    ),
    "fano-suite-long-mi-only": (
        1,
        "4427d6c0c2cb57ca6debd0b475d4ecb0a3b901b06e655b812bebd946a940edd7",
        "4a263e624c64195d6cc9c726dc9b937fe20ac857c498a173fd93909963e9429f",
        None,
    ),
    "fano-suite-mi-only": (
        1,
        "422815ddd3ab32d794dea335024c261b6c27f93d7878aaf5010fa23f985fd4b0",
        "dd0b5326835c4ae3670ad333a4e95fb5be21d7b7854f42ded5a03091c3384e4c",
        None,
    ),
    "reproduce-bon-vs-mcts": (
        1,
        "4f8454e68fe3834ab3a17b68280cc8fffdb8ff835e46806cdf2e45513f77a23e",
        "fe2fd213856f4c898da1ada7d3cf66da6ce1c9314e6dc8e8340bccbf04a45a75",
        "3154a4cee94af00290699d7e5beb597cdd5bea202b8e2d893588153063b41942",
    ),
    "reproduce-bon-vs-mcts-fail": (
        1,
        "a71d634b586a4a5250cc2dbe7a9ffea5ab8c10aa82273cdfb612203448eebf64",
        "bb04e34c684f0910a88473adaf97a8594dc3fa56e717a0145bcefef8c12c5004",
        None,
    ),
    "reproduce-calibration": (
        0,
        "d4c7e539d779152b49b13e6c02cba494213782bc80cf093540513a1747df85d3",
        "3e70612dcec3ef0e55a2252d09df15c17e92c851daf261e7b88db05de21469a3",
        None,
    ),
    "reproduce-config": (
        0,
        "3e16f7aad4878261a8ce90e78e9818b18cf3f5f9f89aef98514e379f0f321418",
        "ba86ac966368ce59f962909e2f07d57307662b3d8f2a38ba7fe680b5cfe4553e",
        None,
    ),
    "reproduce-dominance": (
        0,
        "3a3ed56b269373b14f11eaa1bbef73f08cb8edd971ec109f46c9cd5f85cacf39",
        "efbd7fc98fa681778cb67641f3783de30423048ce85d972640e424fe70419892",
        None,
    ),
    "reproduce-dominance-fail": (
        1,
        "7fe0aaf4344bf377a3694b4b4a1f55e350266ab2b9b701207bea5f12f29d8432",
        "d0f8f8acdbd9ccb7a8a3af6a8b265f60d81840e58e57297b554f9ea139692958",
        None,
    ),
    "reproduce-fano": (
        0,
        "8551efffe435a0197bbe7c5cfa19d7c32bff69e21073bf2d48b997b24057160c",
        "a1cbb4634c3ff0fb350ed6f87fea3323de8199c156c5de0e810c9d115cbda1f0",
        None,
    ),
    "reproduce-gamma-sweep": (
        0,
        "0a1b245307faa5a03ef5154b350269c8f478252c00de092eddb35709dff53639",
        "a1397a5da0161294a7f17ef9dafdb0635098ce61378c36d9e1e4ffb7b5d71e04",
        None,
    ),
    "reproduce-nmin": (
        0,
        "1a86bb5981c5314536aac5103077398aff1d025d5f437977f3a81b0cf492e9a0",
        "3f13f73f32f10bd036b11ba21f11a737d5177bc1fa04aa26f6a33fc583ff5c6a",
        None,
    ),
    "reproduce-table1": (
        0,
        "a402bf8fb13c88a86ff5ea10b7568df33174703c888519d1065a70a735e494a0",
        "90099cb7950f4d7b6126090d60361575c57caa963241ed1ee70270aa772158f3",
        None,
    ),
    "sim-beam-constant": (
        0,
        "0fd32331ed4d9d3f57302055bba89e18c02fd820426959ae400ed26654761d3d",
        "9bae02055bda22e9d7f75a73cd0535091342156d1ac3dcab0825f441a5989f4c",
        None,
    ),
    "sim-beam-noisy": (
        0,
        "784b7465014b6b579134b5eb206b24fa489fe58874760218f301c51a6039f349",
        "ffb3d56293d55f21ee71b4ab7e2cb293c189d8c75c47ba752b2530362b46e954",
        None,
    ),
    "sim-beam-table-sweep": (
        0,
        "0b029b2e960953dd04c1f7bbf5fcece0c456075abc973b3eb1f87dd16c2f06c4",
        "7e727b9e742e5c8a161ba94e74753c90b0181999655d1bff570fd507819f352e",
        "bb1d4a2079fa69fd4e809d86811f41707debb50797694dd3ffeeeffb7f36523a",
    ),
    "sim-bon-max-sweep": (
        0,
        "6dc3be0ca432e72958bde56c5691505d7d3f863c4ccb4d1f90ebbc3441ab7bd9",
        "0deee411bd8e35c980853debf749445c6dc2664c5fd15dd8a320d31ddb73f68d",
        "dd698133650c6f5e996e228cc35240606a3241715c6def6029ac980993599833",
    ),
    "sim-bon-max-sweep-fail": (
        1,
        "2ebe892f4a122da0978d653fa4424bb6dc1caa345ec78b432e82a77349c2f432",
        "13d4c0ed9fa820dc8c2f83cb4e61a8a85fad58fdfcc3adce41dd12f678781b98",
        None,
    ),
    "sim-bon-sc-sweep": (
        0,
        "e7e18214140a939dbab1addaf2a480dfead1f431626b56a6018a0dddc541304d",
        "1b3e591d4425fab728e096b90b01559132ddd54e9fe5b46d4b1b305bc19e15dc",
        None,
    ),
    "sim-bon-vote": (
        0,
        "bd9f7f6a5fe1e91bc6fe75bd132d0ff3abfc7b2ff311aa47125ee480711a769a",
        "844cbfbb2754ec5cd6e0742b73153baf460ce5040121f19bde566ff26db88c49",
        None,
    ),
    "sim-config": (
        0,
        "6a299657894cdeb69d9f0e274978d8243b8c6a8aa7f3655da4345d7273781ae9",
        "21c66b7da94d1fcbe0f3dc7a2cba6be1136bcde0160a6e87e02fcb853eb6e718",
        None,
    ),
    "sim-config-override": (
        0,
        "836249c156594c7d939ebd3961dbd8ccfeb59d714d5848a305a230971f0d8877",
        "a039a65d1984a4e35f94ebcb9b21d08e838a63d57b40b9046bbf3a58b67282b1",
        None,
    ),
    "sim-config-strategy-flag": (
        0,
        "c493eb7ce8255a0a11483715524bac20cc2b5392b3018908d9e3af2af97a14db",
        "212aa43afa97f4c66e371a49479f2fd49fd7d597d5027066e11b75995614bbcc",
        None,
    ),
    "sim-lookahead-noisy": (
        0,
        "6ce51393aebef3787957bb16bcf6576f0285c9d91e1fe1f79f5d6c444d0388b1",
        "d084fa4b3d4570bb4a4cb8433e7306fde30e154a1bacfbf812f21e5308ae4306",
        None,
    ),
    "sim-lookahead-sweep": (
        0,
        "bd1bd762bd3eb189ba9163481975860de397a90a2dc64e2d8ff5f961ad351c2f",
        "135119c26eea5c9638d24a9d005653816e7e76f72543e7803414dada606d3877",
        None,
    ),
    "sim-lookahead-sweep-plot": (
        0,
        "9ddbce4be20b80e3b6874bcb4a5686e9c3e93e09ecae3607f39fa4641c976ec1",
        "3c90dafb4e0f395b5c05ecc250f7c0a1a20810825bf7a5999157bcf7bb5f6471",
        "79a2ba29e0d8c1d109a1653dd9bf03ad687222ef2a12b27a3dd7dace912bf4c2",
    ),
    "sim-mcts-best": (
        0,
        "5be13523fb629fc2fb4175cec3e5cbe575972564cce41ed0fe96ee64c40c10da",
        "9f764256c110e8844788fcfe3fab9e11ab88b64ef5a6f8b5b3a0509d1145bced",
        None,
    ),
    "sim-mcts-best-constant": (
        0,
        "173c42ad24f38931aa6ab9fb1064e342a6754cc2e84b6ee3cafe0415c80b4fe9",
        "eba96601f7295350d7d66e5bceecd3eec40549cbbf4cd5e4d39dfb9a776c1ea4",
        None,
    ),
    "sim-mcts-best-noisy": (
        0,
        "abfc7a21fdd91a118ee77e33d9b711ea3cd46dc3c59a1007b5447154cda162f7",
        "0ac64ce447228abcba2187b845a3be8dff5769191f1bfc78526e0f7fc1f716d0",
        None,
    ),
    "sim-mcts-worst-constant": (
        0,
        "cd61b7ed744645b06135b8454120790eb51696f40f1c5a3af2cb3822b7df044e",
        "dd72dc8346ba1c1543e0afee24e34121673acb23c8da6fa17e7f8fcd9334284d",
        None,
    ),
    "sim-mcts-worst-noisy": (
        0,
        "25c5e5a4d6fe8374dec99c165955911de650f99423733142716d76babb514cfb",
        "69dba0aaa2f4ac4d6fcd8cfb3593477feb5fb8253370b0bf818212f675cfb752",
        None,
    ),
    "sim-single": (
        0,
        "f70e9bec899f548cc5df712e2a7c6a1de396cc2c1ef8ecbe8ddc8d7d76ffc7aa",
        "dc6df4f91b7e93d774cce1c8c610fc52605a631d5eff0cc9f84c486a08fdf1ed",
        None,
    ),
    "sim-single-table": (
        0,
        "514672f2fb05b19f4818d5be29fab17f6e0faa1aec3e17aa27032e3e88fc9e68",
        "c5347cfc89d45f2dc86788ed275a8aac4b05546b9052b53f2ee68f98c692d40e",
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
