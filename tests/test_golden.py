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
        "fd6f884e8b2da8ae7f63d0416b2f20ed72f6e5f742e87b0560a274da9205d248",
        None,
    ),
    "bounds-lookahead": (
        0,
        "e2ea9883cf4f08875deb14a07aa9fd59c8e63122a6f9b7bda4c5664962b87670",
        "9f171b13cd13e805f15eaf29331349418427d062525277cde15b15897489544c",
        None,
    ),
    "bounds-noisy-worst": (
        0,
        "d6ab33dc177fd1f75e3810b290d53fe7a80bdd3535b98932380294f4426d0d96",
        "0b8bd294c686bceb979194db28652ebbc951229b720bc110dffb38343c271f6e",
        None,
    ),
    "bounds-single": (
        0,
        "554719dbbf03a5a63532a7eccb391ca08e590f29d6157a0860fa038b476c23fa",
        "2b96e7e20f30477faf8cf63649e8586af572a9660569266630262229c5a73a1f",
        None,
    ),
    "bounds-table-constant": (
        0,
        "d17e5671d7880fd4bf938dd0161c92be79299d8c14a6ef19a37bfed3fa1d50c5",
        "b5d5795743002e71339f71904c280f6c96ecd42cf20e7fbcb6ce4819e5b38b70",
        None,
    ),
    "calibrate-stats": (
        0,
        "924f32a02a5a9875245bee1cb91ddcebf1ebf9227b24bdcd153ca60724009586",
        "b07b304d43d9cf3e2ef9ce6452f763c89ca60353f9312350d001c9ff363d7fe3",
        None,
    ),
    "calibrate-traces": (
        0,
        "064511cf8e49e678da73dc2a1f4c34e6686a1991300fa1870b3d43ee3e8ebccf",
        "52fce3099e6a4690438472bba9a0e888effc3fbe5130345ecbd9d2fba4c506f5",
        None,
    ),
    "fano-suite": (
        0,
        "1a88b56ffa576d1215724ec10a72350b2e65b13738906355218a7709527fc3bd",
        "760962c32a6bb60e0406b3a1ba9b1d5e97167da2075b284862e64caa81f2342b",
        None,
    ),
    "fano-suite-long": (
        0,
        "a8f38aa442f009f088b1bcce88a7515d5486e3f7925f2c5424ef6b9583ba2cb1",
        "1e39e7e815f020393efd266a11d1d3abf2f830ed5553f1150806ea506ccfc983",
        None,
    ),
    "fano-suite-long-mi-only": (
        1,
        "4427d6c0c2cb57ca6debd0b475d4ecb0a3b901b06e655b812bebd946a940edd7",
        "ce0aa651408eec25f51e3e9704df73871986ed357390deea07f4c14e8582bc7f",
        None,
    ),
    "fano-suite-mi-only": (
        1,
        "422815ddd3ab32d794dea335024c261b6c27f93d7878aaf5010fa23f985fd4b0",
        "7ac5c650717950f4b6697099614b535b3b46b886179b6cc7662ff935c999c128",
        None,
    ),
    "reproduce-bon-vs-mcts": (
        1,
        "4f8454e68fe3834ab3a17b68280cc8fffdb8ff835e46806cdf2e45513f77a23e",
        "8ef94e5e02bfd59efbf8eb1a94ae358edce104d2a9ef403020040748111aea95",
        "3154a4cee94af00290699d7e5beb597cdd5bea202b8e2d893588153063b41942",
    ),
    "reproduce-bon-vs-mcts-fail": (
        1,
        "a71d634b586a4a5250cc2dbe7a9ffea5ab8c10aa82273cdfb612203448eebf64",
        "17218e8ae814aa5a28d01d945863540e56ecebb11a729a9dd4bae832b0bdceef",
        None,
    ),
    "reproduce-calibration": (
        0,
        "d4c7e539d779152b49b13e6c02cba494213782bc80cf093540513a1747df85d3",
        "b53a9bce95d49c4b62aac9ec944afa4827067763c7329518d6c732fd034d5471",
        None,
    ),
    "reproduce-config": (
        0,
        "3e16f7aad4878261a8ce90e78e9818b18cf3f5f9f89aef98514e379f0f321418",
        "00a08c701aaefcde0b033a6ad35ba986e6ac066a5cb19e79bbc93c9a6dca95a4",
        None,
    ),
    "reproduce-dominance": (
        0,
        "3a3ed56b269373b14f11eaa1bbef73f08cb8edd971ec109f46c9cd5f85cacf39",
        "029c21c6ee1fc6c26d44dcbaad13ff4c3f7eb477a9a8717a65e10a33b9a672dc",
        None,
    ),
    "reproduce-dominance-fail": (
        1,
        "7fe0aaf4344bf377a3694b4b4a1f55e350266ab2b9b701207bea5f12f29d8432",
        "295c8d5885cffd3b568aa7f434afbe6a617c1c832834f91ff7676c92b179bbbd",
        None,
    ),
    "reproduce-fano": (
        0,
        "8551efffe435a0197bbe7c5cfa19d7c32bff69e21073bf2d48b997b24057160c",
        "821617ddf82016b47abf367b221c62642de410e05f1f75095993d589c1460524",
        None,
    ),
    "reproduce-gamma-sweep": (
        0,
        "0a1b245307faa5a03ef5154b350269c8f478252c00de092eddb35709dff53639",
        "91a15f9942387054fc91c99d482280781bb01273ddddacf9b563c84a22f391b7",
        None,
    ),
    "reproduce-nmin": (
        0,
        "1a86bb5981c5314536aac5103077398aff1d025d5f437977f3a81b0cf492e9a0",
        "cd369ae2f95bdc10d3e5042d062e49709bf8f54b181fa35f2d2a6b2029d45adb",
        None,
    ),
    "reproduce-table1": (
        0,
        "a402bf8fb13c88a86ff5ea10b7568df33174703c888519d1065a70a735e494a0",
        "819dcfe190c1487b00f8ca1870fa45b59abe0462662d64d0aa01f162bf15a44a",
        None,
    ),
    "sim-beam-constant": (
        0,
        "0fd32331ed4d9d3f57302055bba89e18c02fd820426959ae400ed26654761d3d",
        "e7e8985f01268170c7d607e2fb92280cfe1141bb41c911d0520c943a2a4c4781",
        None,
    ),
    "sim-beam-noisy": (
        0,
        "784b7465014b6b579134b5eb206b24fa489fe58874760218f301c51a6039f349",
        "a53c7bf8dbe7df205eb396bca5f44694d30d7d7eb0eb36f09d9950ceb4672232",
        None,
    ),
    "sim-beam-table-sweep": (
        0,
        "0b029b2e960953dd04c1f7bbf5fcece0c456075abc973b3eb1f87dd16c2f06c4",
        "5d0ac3496f2f2d3cf2438ce3d13e859a971fd5d89e0fc152f7774a9d82bfb2fd",
        "bb1d4a2079fa69fd4e809d86811f41707debb50797694dd3ffeeeffb7f36523a",
    ),
    "sim-bon-max-sweep": (
        0,
        "6dc3be0ca432e72958bde56c5691505d7d3f863c4ccb4d1f90ebbc3441ab7bd9",
        "f01ee48e839b3085ceb1f0e49f19d28b98071581c3b6e38292943c0e09c8a4e4",
        "dd698133650c6f5e996e228cc35240606a3241715c6def6029ac980993599833",
    ),
    "sim-bon-max-sweep-fail": (
        1,
        "2ebe892f4a122da0978d653fa4424bb6dc1caa345ec78b432e82a77349c2f432",
        "2338d2a1f6d69f7b845d2f74a716db1cc4ce8e54bcc1c2563c163dfbb580085b",
        None,
    ),
    "sim-bon-sc-sweep": (
        0,
        "e7e18214140a939dbab1addaf2a480dfead1f431626b56a6018a0dddc541304d",
        "43ba34a144bc5685bf8e4131b3b54a8df54dcfac905c555c42b5b26516ef5a01",
        None,
    ),
    "sim-bon-vote": (
        0,
        "be2d9618f50708208759bdab8de3ced5db828dca233ab28150ac04258c9670db",
        "bfd90cc3690886d7515f50c130bafd894e96611d22596209045b2c9f6b29ef7f",
        None,
    ),
    "sim-config": (
        0,
        "6a299657894cdeb69d9f0e274978d8243b8c6a8aa7f3655da4345d7273781ae9",
        "6e7b5bd939497ed14127fa15a7d1a77bc9f290c2213ac7dd1673745844557cc8",
        None,
    ),
    "sim-config-override": (
        0,
        "836249c156594c7d939ebd3961dbd8ccfeb59d714d5848a305a230971f0d8877",
        "4aa774f69f8639c5353b839a645a1bb479d62904e2429d3c8d0ddfa0622bbcaf",
        None,
    ),
    "sim-config-strategy-flag": (
        0,
        "c493eb7ce8255a0a11483715524bac20cc2b5392b3018908d9e3af2af97a14db",
        "1dc43f7dc6251f8506c3f4f6bc4557c9114bde3f33f5bdaf741cfce7d86b0ecd",
        None,
    ),
    "sim-lookahead-noisy": (
        0,
        "6ce51393aebef3787957bb16bcf6576f0285c9d91e1fe1f79f5d6c444d0388b1",
        "72e58cfbdb2a7cda5b90752d5333edefcbaf1b2d21507e3385bac6ca00d0d5a5",
        None,
    ),
    "sim-lookahead-sweep": (
        0,
        "bd1bd762bd3eb189ba9163481975860de397a90a2dc64e2d8ff5f961ad351c2f",
        "47d8f2b34f7a835328abceace89101859b550a2102bd5835b486ee9c2c1e7620",
        None,
    ),
    "sim-lookahead-sweep-plot": (
        0,
        "9ddbce4be20b80e3b6874bcb4a5686e9c3e93e09ecae3607f39fa4641c976ec1",
        "89bb0238307d0ffc1874a9caf2195c87e06aff2eb89a00483c2ec157d4406f4a",
        "79a2ba29e0d8c1d109a1653dd9bf03ad687222ef2a12b27a3dd7dace912bf4c2",
    ),
    "sim-mcts-best": (
        0,
        "5be13523fb629fc2fb4175cec3e5cbe575972564cce41ed0fe96ee64c40c10da",
        "a06e25f3dec957bc13e14548d3902d9202309e6e2a8b957d668d4b53adcc5823",
        None,
    ),
    "sim-mcts-best-constant": (
        0,
        "173c42ad24f38931aa6ab9fb1064e342a6754cc2e84b6ee3cafe0415c80b4fe9",
        "41169cd1d7d53cade99c3b18bad63ac0fdeb46e7f7bbe152d7c5c511915e9661",
        None,
    ),
    "sim-mcts-best-noisy": (
        0,
        "abfc7a21fdd91a118ee77e33d9b711ea3cd46dc3c59a1007b5447154cda162f7",
        "acd351a271d6b30c17e62d253551ab9656fad826e0bb8952ade46a003d4f89dd",
        None,
    ),
    "sim-mcts-worst-constant": (
        0,
        "cd61b7ed744645b06135b8454120790eb51696f40f1c5a3af2cb3822b7df044e",
        "ebebc74c6757de0b4a93f613c109162607626de06bcf919267e56c14611f7ad0",
        None,
    ),
    "sim-mcts-worst-noisy": (
        0,
        "25c5e5a4d6fe8374dec99c165955911de650f99423733142716d76babb514cfb",
        "35e614796b11c6cd1c5f9d69633860bfb2ca605bb0789c682e70cf00b86c85e9",
        None,
    ),
    "sim-single": (
        0,
        "f70e9bec899f548cc5df712e2a7c6a1de396cc2c1ef8ecbe8ddc8d7d76ffc7aa",
        "4562afd67a6ce05a891ce1c90c159d58d51617d715e90d998553d2aec7d06fc0",
        None,
    ),
    "sim-single-table": (
        0,
        "514672f2fb05b19f4818d5be29fab17f6e0faa1aec3e17aa27032e3e88fc9e68",
        "e6ae653930ad9a099a605102a26bcd668185768a3db048b11c014e0d11251761",
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
