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
        "2a59a399595a7d471b5ec5f9a08a90a1a633dc5e20f97fcd033881f45a967d6d",
        None,
    ),
    "bounds-lookahead": (
        0,
        "e2ea9883cf4f08875deb14a07aa9fd59c8e63122a6f9b7bda4c5664962b87670",
        "303861015129672388980f19478243096bff5426fcda1f7365a55b15dea3b169",
        None,
    ),
    "bounds-noisy-worst": (
        0,
        "d6ab33dc177fd1f75e3810b290d53fe7a80bdd3535b98932380294f4426d0d96",
        "ea3b444d5485c669e35114f1f1c7fa3a7af4744cc19bb0c8d1605bc6df3d9ca8",
        None,
    ),
    "bounds-single": (
        0,
        "554719dbbf03a5a63532a7eccb391ca08e590f29d6157a0860fa038b476c23fa",
        "53686be6466e076ae35067eb254a0cdb9d158f6d29ba20dc62ff6a41ddb78eba",
        None,
    ),
    "bounds-table-constant": (
        0,
        "d17e5671d7880fd4bf938dd0161c92be79299d8c14a6ef19a37bfed3fa1d50c5",
        "31fff20285446e110dfc56f53d82ef22c9914a49809112a047023e2c34e80e7b",
        None,
    ),
    "calibrate-stats": (
        0,
        "924f32a02a5a9875245bee1cb91ddcebf1ebf9227b24bdcd153ca60724009586",
        "21a365915e88a5b04e2a23bb388c5a29aa60faed94cdc7dee88c3d1928bc25d2",
        None,
    ),
    "calibrate-traces": (
        0,
        "064511cf8e49e678da73dc2a1f4c34e6686a1991300fa1870b3d43ee3e8ebccf",
        "d23bab85a320f083d8e90a9607a4af1c69fc034cf27387ed8fab571a44f008fc",
        None,
    ),
    "fano-suite": (
        0,
        "1a88b56ffa576d1215724ec10a72350b2e65b13738906355218a7709527fc3bd",
        "1be7dbd2359d9d6eee8b06b2ad325f4eb34ef926fbda0ed8b831d3459fab1d78",
        None,
    ),
    "fano-suite-long": (
        0,
        "a8f38aa442f009f088b1bcce88a7515d5486e3f7925f2c5424ef6b9583ba2cb1",
        "04eebcaa8424bb25255c03ae2d75b363df95dd350ff7935b383d21cc3614f163",
        None,
    ),
    "fano-suite-long-mi-only": (
        1,
        "4427d6c0c2cb57ca6debd0b475d4ecb0a3b901b06e655b812bebd946a940edd7",
        "6c0ec6836d27d92f678a5fb818c82c7b39e368be1b949659ff8c1f4bee8716d2",
        None,
    ),
    "fano-suite-mi-only": (
        1,
        "422815ddd3ab32d794dea335024c261b6c27f93d7878aaf5010fa23f985fd4b0",
        "06fdf0e2b2ab41d3cb412a7d53a7471d9def0c69d313bdc566ba1a7eb206c469",
        None,
    ),
    "reproduce-bon-vs-mcts": (
        1,
        "4f8454e68fe3834ab3a17b68280cc8fffdb8ff835e46806cdf2e45513f77a23e",
        "219ba79debc749aae258c220f4da39425d65a75e557edb96a3d5accb351c4fab",
        "3154a4cee94af00290699d7e5beb597cdd5bea202b8e2d893588153063b41942",
    ),
    "reproduce-bon-vs-mcts-fail": (
        1,
        "a71d634b586a4a5250cc2dbe7a9ffea5ab8c10aa82273cdfb612203448eebf64",
        "3f9a814c51fb4562e634937a29b8ce98add675342a51d504e1bc85d55a8da2d6",
        None,
    ),
    "reproduce-calibration": (
        0,
        "d4c7e539d779152b49b13e6c02cba494213782bc80cf093540513a1747df85d3",
        "aaf17337b77377e5a643f040ca21e1ff21d501e89f090b9a14447bc923a99c1b",
        None,
    ),
    "reproduce-config": (
        0,
        "3e16f7aad4878261a8ce90e78e9818b18cf3f5f9f89aef98514e379f0f321418",
        "59159a18e49e856e074b0a137519f5ffeac53d2fb59e02a9b7a0f15c12ce3470",
        None,
    ),
    "reproduce-dominance": (
        0,
        "0cd3acbca3200b520fad987012f595911e4b58ceddc7a0028044e251138927df",
        "c87608f7f67e113af114659fb298e80784b450bbe9f2c000f2b8fd13b1e89fdf",
        None,
    ),
    "reproduce-dominance-fail": (
        1,
        "8b9582ad4a39c3fbe16abb9db62f977eea6e7cc73f6d5de888e264ead53d8d48",
        "29321cb98df60ab2e53b4a01d036be97da92e202da142bacdd943728af3e3340",
        None,
    ),
    "reproduce-fano": (
        0,
        "8551efffe435a0197bbe7c5cfa19d7c32bff69e21073bf2d48b997b24057160c",
        "5a35fa845301fac2f177a6db698c5f5ef1646c773e18e264932d71cf93f9d22a",
        None,
    ),
    "reproduce-gamma-sweep": (
        0,
        "917aa55711422c24b8bf46956d962b6c92e47c4c18db940b620d47da0d5a578b",
        "679d34a77f7b8e7e03aa1713ccec3eea59618571fb19d11f2734cf09327216a7",
        None,
    ),
    "reproduce-nmin": (
        0,
        "1a86bb5981c5314536aac5103077398aff1d025d5f437977f3a81b0cf492e9a0",
        "859c19b7e9ce1b1acad242ad07ff8937c543ed3b9ade784572ce615f6cc49e89",
        None,
    ),
    "reproduce-table1": (
        0,
        "a402bf8fb13c88a86ff5ea10b7568df33174703c888519d1065a70a735e494a0",
        "61aa705f7c91b400f93672fb33b5fe5142072a57b174bfe728b1e73851517312",
        None,
    ),
    "sim-beam-constant": (
        0,
        "d52b1d9c11e8899411df8ab6f404cf6864eb0bfd1be7abad561ea5f0873b5f2e",
        "e805b85c492449df63887f883c6b3c8312d0292150452a6df93f40cab9226418",
        None,
    ),
    "sim-beam-noisy": (
        0,
        "d7fcea8c0046a6833875a6ff1b202d0f932b243b637e9e8db5369002b2d998f6",
        "fae0f8b92ff399ac93558625cb719b1f4fe8c8daa9226f3770f7b4df84da8900",
        None,
    ),
    "sim-beam-table-sweep": (
        0,
        "5354b7d204043c670d75272e0908f1095397d41b26d40945e61cc43ac8d7be0a",
        "246981db6d429fecb5f22aa17e69182a9a5fb90663c4afb36b88ce6c6034ec0d",
        "9285099c268c3d4c5f0369ecad120fe2f799e00d669c4b7f0ac456a324cb2b74",
    ),
    "sim-bon-max-sweep": (
        0,
        "6dc3be0ca432e72958bde56c5691505d7d3f863c4ccb4d1f90ebbc3441ab7bd9",
        "cca41df66ec2902788331f82c8e6a5a5de6d15312d5965f3ae3997031e6cf0d3",
        "dd698133650c6f5e996e228cc35240606a3241715c6def6029ac980993599833",
    ),
    "sim-bon-max-sweep-fail": (
        1,
        "2ebe892f4a122da0978d653fa4424bb6dc1caa345ec78b432e82a77349c2f432",
        "f4a8fe0b0c6c52d2a5bee7709c88402d16fe6e5a9dda36c6fde91ced82b7aace",
        None,
    ),
    "sim-bon-sc-sweep": (
        0,
        "e7e18214140a939dbab1addaf2a480dfead1f431626b56a6018a0dddc541304d",
        "9ae8f06e1eabf0b8f3b4eb097edcbeb632528772e1d1145872897f72ccf45e8e",
        None,
    ),
    "sim-bon-vote": (
        0,
        "bd9f7f6a5fe1e91bc6fe75bd132d0ff3abfc7b2ff311aa47125ee480711a769a",
        "4c3ef0bda4d84505babb8d12c0425c290769218ffe581aa76aa0243556b43f26",
        None,
    ),
    "sim-config": (
        0,
        "5ac5406548f8573ac0957d5e8a5c599c019159eddd020e2441efd8c7bad3d570",
        "afd6a4d59c3f7ebceaf07093e885093f2989bad6697eeae4dd124c17edb6db76",
        None,
    ),
    "sim-config-override": (
        0,
        "5cf5c2143b260f6691b5bbc1ea96fc008b50df8f8c856047a21c0308d0ddfd33",
        "ed32a47c5b6028809aa35f774f00904b271c6073da6ce9a645d0dd298ba551c8",
        None,
    ),
    "sim-config-strategy-flag": (
        0,
        "dbbaf5b4a380dd53c65b750130007ddb1647408a281b64e02d07b5406901617a",
        "70de329c20337c93cc3c2b00d2a501c78c9479da66221f5ba79578ab5b5cd5f0",
        None,
    ),
    "sim-lookahead-noisy": (
        0,
        "d21b1cfe5b0cb4c2d5c981a35534351fd806a3c56ceee650b505bd95879aa9ee",
        "57df940fe6e47cbff742d472f9390e9869ae5ecfeada4ccf3b450ffedbb79699",
        None,
    ),
    "sim-lookahead-sweep": (
        0,
        "29da5b2728bc6092287f5f6b1db3f610f2a6ad4dddd31e57b306ac1371611eb9",
        "e1301c26ad78323c521e39c205c91ad19cdb3603e9f02b061ddb37a9980322e7",
        None,
    ),
    "sim-lookahead-sweep-plot": (
        0,
        "77b899cc0ae77c4f31ea9ab086d1a08793c303251f1bbdd10be4beb50d22f23f",
        "688d608add6547312e303d89c741b8b30ce7acf5f3f4e78a1c2b8fbe7f759f1e",
        "fdb26d69193af2d6f7046be3a360079be7ee8b911c61fa3d492b9432820c9b3a",
    ),
    "sim-mcts-best": (
        0,
        "5be13523fb629fc2fb4175cec3e5cbe575972564cce41ed0fe96ee64c40c10da",
        "ed8b090bf6692a8936ebf499a8d72be801794bdb3104d411fcb2fd9f3c053d05",
        None,
    ),
    "sim-mcts-best-constant": (
        0,
        "7589841b9b8cee9077d2f613a5bdcc661ad14a55281fc4139471b3e2c9388a6b",
        "7ac75f7f909a1f4a32da5f38e1e9dd04800c2b5ed4b2fc61e04e96a3b8a7f3d3",
        None,
    ),
    "sim-mcts-best-noisy": (
        0,
        "341c1a91a3e52be6fb9514f6dca891288e99a1830e1fa8bf9e254279e76a4879",
        "b8e09b3c84ee7a84ca3926cb0740bb1b68708ae0d6bf9165c7511bde8eeb1af1",
        None,
    ),
    "sim-mcts-worst-constant": (
        0,
        "cd61b7ed744645b06135b8454120790eb51696f40f1c5a3af2cb3822b7df044e",
        "0dc7a71a0dc880fce8e980751e103f55cd8db096be863192ea7f65d052c47491",
        None,
    ),
    "sim-mcts-worst-noisy": (
        0,
        "25c5e5a4d6fe8374dec99c165955911de650f99423733142716d76babb514cfb",
        "fb38a4f373aae8cf9440162bbbf379364b018e99d3069d51ffa2056f4618382b",
        None,
    ),
    "sim-single": (
        0,
        "f70e9bec899f548cc5df712e2a7c6a1de396cc2c1ef8ecbe8ddc8d7d76ffc7aa",
        "d78a4379ed930997903658b7748f081eb9ad4319e5fc2978380127de80cb55f1",
        None,
    ),
    "sim-single-table": (
        0,
        "514672f2fb05b19f4818d5be29fab17f6e0faa1aec3e17aa27032e3e88fc9e68",
        "8b1adba147cc6bd955e05a73bfb4044d8212642aaad5e8b78247b558573958be",
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
