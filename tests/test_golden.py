"""Golden digests of CLI output.

Each case runs one command in a scratch directory with relative file names
and pins the exit code plus the SHA-256 of its CSV, of its manifest without
``version``, ``wall_clock_s`` and ``environment``, and of its SVG when it
draws one. The manifest's ``version`` must equal ``slowthink.__version__``
instead, so a version bump alone moves no digest. A refactor that keeps these
digests keeps the bytes users see. Every case is also replayed through
``reproduce from-manifest``, which must reproduce the CSV byte for byte.

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

import slowthink
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
    "bounds-all-constant": ["bounds", "--lambda", "1", "--L", "3", "--k", "4", "--b", "2",
                            "--N", "8", "--strategy", "all", "--selector", "constant:0.9"],
    "bounds-all-noisy": ["bounds", "--lambda", "1", "--L", "3", "--k", "4", "--b", "2",
                         "--N", "8", "--strategy", "all", "--selector", "noisy:1,0.5"],
    "bounds-table-constant": ["bounds", "--table", "0.9,0.8,0.7", "--L", "3", "--k", "2",
                              "--b", "2", "--selector", "constant:0.9",
                              "--strategy", "beam-exact"],
    "bounds-noisy-worst": ["bounds", "--lambda", "2", "--L", "3", "--b", "2",
                           "--selector", "noisy:1,0.5", "--strategy", "mcts-worst"],
    "bounds-constant-worst": ["bounds", "--lambda", "2", "--L", "3", "--b", "2",
                              "--selector", "constant:0.9", "--strategy", "mcts-worst"],
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
    # a constant selector leaves lookahead's pick to the process score noise
    "sim-lookahead-constant": SIM + ["--strategy", "lookahead", "--b", "3", "--gamma", "2",
                                     "--lambda", "2.5", "--L", "3", "--seed", "15",
                                     "--selector", "constant:0.8"],
    "sim-lookahead-constant-noise": SIM + ["--strategy", "lookahead", "--b", "3", "--gamma",
                                           "2", "--lambda", "2.5", "--L", "3", "--seed", "16",
                                           "--selector", "constant:0.8", "--score-noise",
                                           "0.3"],
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

# name -> (exit code, csv sha256, manifest sha256 without version, wall_clock_s
# and environment, svg sha256)
GOLDEN = {
    "bounds-all": (
        0,
        "7ebe74ef150c3b2c15e3d675cb5ba882bf3fea3239d6a984be2e133bf80f0a44",
        "db7095992adbe68a7c1bc693d105267357fd95f07c6d998541eba7e753c7030b",
        None,
    ),
    "bounds-all-constant": (
        0,
        "242b0f4e83748fe635d339f65d1dff16a52586a741af5d0db6e76c8418492355",
        "94c56df014ae56062120a8ebf5b8a006efb88d306d9fd53cd62618576c461551",
        None,
    ),
    "bounds-all-noisy": (
        0,
        "4eabe2078409df7c2953336341ca46d5e57449df3edced5913f6e054907501ea",
        "d0d83aabc9a8b13e543f67059781a009342feb292a8d03b77f63b29ea218d44b",
        None,
    ),
    "bounds-constant-worst": (
        0,
        "c2a9433c6211b20198d04baf280f7d6fc2900397b99639ffb6fb0d51a88acd3c",
        "22c08ff7e9355913bdce4a7f94f0deb8ec9e896d6ea7387ac5b20ccf08ccd234",
        None,
    ),
    "bounds-lookahead": (
        0,
        "e2ea9883cf4f08875deb14a07aa9fd59c8e63122a6f9b7bda4c5664962b87670",
        "4d1c38cae04b7e459ff1bfe0dc1ecd605d896aaac0ac2b1403fa50d41fdf67c0",
        None,
    ),
    "bounds-noisy-worst": (
        0,
        "d6ab33dc177fd1f75e3810b290d53fe7a80bdd3535b98932380294f4426d0d96",
        "bc79483585d00ce0800cd030c5feeef66f0491a596d37591cc6a09c9a26a3814",
        None,
    ),
    "bounds-single": (
        0,
        "554719dbbf03a5a63532a7eccb391ca08e590f29d6157a0860fa038b476c23fa",
        "e2a6cf6a61db088c6fdcd4f479722c28df836d51b89966d356e679d751a337d4",
        None,
    ),
    "bounds-table-constant": (
        0,
        "d17e5671d7880fd4bf938dd0161c92be79299d8c14a6ef19a37bfed3fa1d50c5",
        "e60dbb3484e4efa8d91649e58b5ad20ceba02b833842cfa9740d7004546021a4",
        None,
    ),
    "calibrate-stats": (
        0,
        "924f32a02a5a9875245bee1cb91ddcebf1ebf9227b24bdcd153ca60724009586",
        "2ce6db7244a54cddb44dcc48a1dd0fe063d23b2cc362b4fea3e33e961fae77b2",
        None,
    ),
    "calibrate-traces": (
        0,
        "064511cf8e49e678da73dc2a1f4c34e6686a1991300fa1870b3d43ee3e8ebccf",
        "cefc5f90632f286dbe46b642af99621d919ca2fcfb7ea1d935db460d6131cd94",
        None,
    ),
    "fano-suite": (
        0,
        "1a88b56ffa576d1215724ec10a72350b2e65b13738906355218a7709527fc3bd",
        "428c1a449e1b1b633a0f30ab371cc7c267a96c235168935451923852e4083303",
        None,
    ),
    "fano-suite-long": (
        0,
        "a8f38aa442f009f088b1bcce88a7515d5486e3f7925f2c5424ef6b9583ba2cb1",
        "53874fd9f459f2e68caab39c63ec84edf7315c7259b51caed551dee9f528b236",
        None,
    ),
    "fano-suite-long-mi-only": (
        1,
        "4427d6c0c2cb57ca6debd0b475d4ecb0a3b901b06e655b812bebd946a940edd7",
        "cfa965a4aa062ee5efe19b8e911273c3a3200388bb3e2f8728f812d4d05020a5",
        None,
    ),
    "fano-suite-mi-only": (
        1,
        "422815ddd3ab32d794dea335024c261b6c27f93d7878aaf5010fa23f985fd4b0",
        "1f6ee20e70160565a0df6910a28a4efcdefc3da4b43293ccf46520f87f939b65",
        None,
    ),
    "reproduce-bon-vs-mcts": (
        0,
        "8dc4b37db0054bcd0d059586fc2e937fe6863343dd67d1b60c19bf407889485f",
        "0c8aed342fd6ba00a85e724598ac44e4ce2f7232d1adb4463acd009c120a1c59",
        "926a043fee264025b6b71a278eff70e2b1dffa318572e8ee5a9b0b3aac798bd3",
    ),
    "reproduce-bon-vs-mcts-fail": (
        1,
        "1dd218949991be5b8d8c7779aedfaab6d629e960e66b2c73642a463bb4b5f234",
        "e1bf52e94be26d3435c72153603957da76070c0b24a9001d494c1deb2739cf1d",
        None,
    ),
    "reproduce-calibration": (
        0,
        "d4c7e539d779152b49b13e6c02cba494213782bc80cf093540513a1747df85d3",
        "b981bb6b56e2dc6f27160cf9e573ba4faea7b53021251d450c47da065abb6807",
        None,
    ),
    "reproduce-config": (
        0,
        "3e16f7aad4878261a8ce90e78e9818b18cf3f5f9f89aef98514e379f0f321418",
        "5785eff19984d0278af426e702b69c5236e0fd774e9b2ee6eec4ceef66d382f6",
        None,
    ),
    "reproduce-dominance": (
        0,
        "8aa51702d3a7eb09008ad4758226d28c11038e952a3237b33d98b0152ec3a34a",
        "fea5e55eee5778366379093121c1d73f537a34ad7d6eb086d4f7c6344cf52e75",
        None,
    ),
    "reproduce-dominance-fail": (
        1,
        "6acf8febff1bd8fe368d49404084cd0f00bd091edc10ca513ecd7390017f307d",
        "b709ba4b9354ecf6f71f041159d5851bdbced90bc6387b9fbc52d0a6b3e7c0ba",
        None,
    ),
    "reproduce-fano": (
        0,
        "8551efffe435a0197bbe7c5cfa19d7c32bff69e21073bf2d48b997b24057160c",
        "533236f31ed3778780dd4c7ed880853dc05469f215e66b3b89523fa4384cf25b",
        None,
    ),
    "reproduce-gamma-sweep": (
        0,
        "20dcaddb3a011b02dc20610c1503facdc68fe02aef0e1aea751838e8053fa0f4",
        "8b5de37affde836fca4b79632ce7bd5d5e97fe9eccf05fe46e822a664414bc9a",
        None,
    ),
    "reproduce-nmin": (
        0,
        "1a86bb5981c5314536aac5103077398aff1d025d5f437977f3a81b0cf492e9a0",
        "1b053354bdd1ff43982ecd8cbd3eaf04858997e41acd4c13f6d66c04dbaa464a",
        None,
    ),
    "reproduce-table1": (
        0,
        "a402bf8fb13c88a86ff5ea10b7568df33174703c888519d1065a70a735e494a0",
        "ec1731a23e111e879b6148571730ccaa1fb16790e497620c9de3f3ee0af45465",
        None,
    ),
    "sim-beam-constant": (
        0,
        "0fd32331ed4d9d3f57302055bba89e18c02fd820426959ae400ed26654761d3d",
        "d00337aac2f0f502f286876d9db215e0d0df916680900a5bfe1a62b832c0b945",
        None,
    ),
    "sim-beam-noisy": (
        0,
        "784b7465014b6b579134b5eb206b24fa489fe58874760218f301c51a6039f349",
        "c5101b9e5a625cef6447982f60517dd443d75277cc13d1502b96b6baf1aea94f",
        None,
    ),
    "sim-beam-table-sweep": (
        0,
        "0b029b2e960953dd04c1f7bbf5fcece0c456075abc973b3eb1f87dd16c2f06c4",
        "5195e6c40ab17d71f6b546d05ad1101ac0daa53b33b10a79468ce3ad5fda0317",
        "bb1d4a2079fa69fd4e809d86811f41707debb50797694dd3ffeeeffb7f36523a",
    ),
    "sim-bon-max-sweep": (
        0,
        "86d73ae8f37febd848e16a4348474fd1806141d199f502c39c80b904a7b75084",
        "f181f4795f331b5bbf1018d1b1ab6c4cb82698cf238f940cb54cae380c916980",
        "130c5968cb5002af514496acfead5f90d819acfa38e401ef30fe95f5e2586bd2",
    ),
    "sim-bon-max-sweep-fail": (
        1,
        "5a8d1ac2932558e4a09739d9fe664ee9815cb1defde4f3d52a9eecdd2d25867c",
        "c2fed7e562e8675ba92d4da748278a41bc1d7b268d8260992b4eef79ecd2dea6",
        None,
    ),
    "sim-bon-sc-sweep": (
        0,
        "7fe6c11a415c7975eee7e337f243ad472e2fa1d54541f7726f6ec9ba2cc71644",
        "c2a7faf5f65491473ee295bf4caec6a42ac0e3968ce03ce473e655fa7da1bee9",
        None,
    ),
    "sim-bon-vote": (
        0,
        "563c13d9d49967ad9003ce73bc64f77302b73c577424d1abd0d1cc7f96c53764",
        "853a90eab14bf6efef6e004d3adfa3862d313827ced7ecf01223d2d4df836d18",
        None,
    ),
    "sim-config": (
        0,
        "6a299657894cdeb69d9f0e274978d8243b8c6a8aa7f3655da4345d7273781ae9",
        "fa301ce36c51e7446e201c496241db2722e434b060dbc07bf4a282cb280dd163",
        None,
    ),
    "sim-config-override": (
        0,
        "836249c156594c7d939ebd3961dbd8ccfeb59d714d5848a305a230971f0d8877",
        "48e843a6faef0925018e6327de7182fe66c1a19a3400cde2ff021b70f7a749c9",
        None,
    ),
    "sim-config-strategy-flag": (
        0,
        "c493eb7ce8255a0a11483715524bac20cc2b5392b3018908d9e3af2af97a14db",
        "2f06488646fa6865962e3d0c4147eaab3287886444a12ad7c403b4c551c36b93",
        None,
    ),
    "sim-lookahead-constant": (
        0,
        "f1b5802e329d045a60144d37e1734cf3adce7ff1397d9805f3f3b0a04a3c8519",
        "2cd3e1380363623f69f058335116b2ad73aa6579fdbf20304b72ce3f5bbef2da",
        None,
    ),
    "sim-lookahead-constant-noise": (
        0,
        "61b1f349d0c413285c10f47ac6d070234698eb6a825279742df4ac84cde2f750",
        "3b5a555d8a0c03c5deb708189e20050c18f3805369394ec96625be33025c4c33",
        None,
    ),
    "sim-lookahead-noisy": (
        0,
        "d21b1cfe5b0cb4c2d5c981a35534351fd806a3c56ceee650b505bd95879aa9ee",
        "bc53c5c41939b4bbb8ab7eedf3bd2173c17950ca54f99c81ab8994e0813dbd5a",
        None,
    ),
    "sim-lookahead-sweep": (
        0,
        "de869be76596ffa62b91898b8dd815aa1f5154ab2b14550e64f70773ac40c094",
        "0b021f3ffd6b148a127658a327f26c1e93bbb22fb1f1d31347ac459203c58d77",
        None,
    ),
    "sim-lookahead-sweep-plot": (
        0,
        "d4f30d397c6adde9746a54e546469a845f6c6c30113da885ca21cce042a0a289",
        "f56952b86cfa32d2b9ff2ac3f2fa6b941034437f39d2f6a5190159de6824e40a",
        "cb3d56e61f216816283dbc68353ee7f225a553d85015e8900da471ecc812f235",
    ),
    "sim-mcts-best": (
        0,
        "5be13523fb629fc2fb4175cec3e5cbe575972564cce41ed0fe96ee64c40c10da",
        "9024bfae94309cd419035236d333688e98edec945efb76fffdd9b4efda92f4a5",
        None,
    ),
    "sim-mcts-best-constant": (
        0,
        "173c42ad24f38931aa6ab9fb1064e342a6754cc2e84b6ee3cafe0415c80b4fe9",
        "5a150dc484f65a1dba2bc628e920ea65239c4c02ea5e98f2713ab04eb5be8e62",
        None,
    ),
    "sim-mcts-best-noisy": (
        0,
        "abfc7a21fdd91a118ee77e33d9b711ea3cd46dc3c59a1007b5447154cda162f7",
        "ea16e17a9c5eca88b584c37ae845f4388250302ed50b38e0a423ae872ce4c398",
        None,
    ),
    "sim-mcts-worst-constant": (
        0,
        "016cc9c64921f9d1755abb1b6e16349fb8d825c6692e7d839b13b6d21010150d",
        "62d45019ceaa0e0c0b209c6e33d53ad129b503f383a510f07ea459fdfde68389",
        None,
    ),
    "sim-mcts-worst-noisy": (
        0,
        "b996b89b69686d5d102acc9c996f7d978e1c82dcb1f02f82da9717d029db6897",
        "4059c3abbaec46fd9cffd2c84edc382f1fb0d8170e8f2558e9b300796dec6c75",
        None,
    ),
    "sim-single": (
        0,
        "3d8005e947151be74496c5e7b94b0da13bdee621decacf824c9f10f2a6acf711",
        "ec4d6715d601063d30674f6a583be79a4158c020b8978ca63bb05c8232b24781",
        None,
    ),
    "sim-single-table": (
        0,
        "3b6ea89101c6b3d844db7e1cf1841e34e74351dee6f52e1dd610ef1e20a33005",
        "5ae86e6a6bde5d56d1d2d16060379bd1370a48f27a0f1c416dd1193ef97ce204",
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
        assert manifest.pop("version") == slowthink.__version__
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
