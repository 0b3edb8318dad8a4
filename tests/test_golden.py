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
        "83a00868534c3ab06765d038bfe03b563d3a2f6728b3bac76012de0c53581918",
        None,
    ),
    "bounds-lookahead": (
        0,
        "e2ea9883cf4f08875deb14a07aa9fd59c8e63122a6f9b7bda4c5664962b87670",
        "a42d685be56db610551c4d943c6b99b01939f65d78e1e01b511f89a0eff708a6",
        None,
    ),
    "bounds-noisy-worst": (
        0,
        "d6ab33dc177fd1f75e3810b290d53fe7a80bdd3535b98932380294f4426d0d96",
        "46b175d70060a01555ab33dade031634a5d4b66aa490e489668f7f0561f9d33d",
        None,
    ),
    "bounds-single": (
        0,
        "554719dbbf03a5a63532a7eccb391ca08e590f29d6157a0860fa038b476c23fa",
        "d18b810b1a408963518a3d38a3a2803081824eb249daf7a1a21d6da42c3d05eb",
        None,
    ),
    "bounds-table-constant": (
        0,
        "d17e5671d7880fd4bf938dd0161c92be79299d8c14a6ef19a37bfed3fa1d50c5",
        "5a5a0b0272ae805e803e4d5455a02188f97dea348ffcf06f192f1bad30b5f945",
        None,
    ),
    "calibrate-stats": (
        0,
        "924f32a02a5a9875245bee1cb91ddcebf1ebf9227b24bdcd153ca60724009586",
        "395c3b29bb25098bf6a4a339511f0e1838f03b3ee362280f4d9de726609dec6d",
        None,
    ),
    "calibrate-traces": (
        0,
        "064511cf8e49e678da73dc2a1f4c34e6686a1991300fa1870b3d43ee3e8ebccf",
        "afa11026a696a4dcba89ab0c45d4549139a6c552831f3fecc6ce9b1487033538",
        None,
    ),
    "fano-suite": (
        0,
        "1a88b56ffa576d1215724ec10a72350b2e65b13738906355218a7709527fc3bd",
        "68633946e2b9910ba14a0f73bbc68a6d39bbe9791a746e48bcaf98d8feedcaed",
        None,
    ),
    "fano-suite-long": (
        0,
        "a8f38aa442f009f088b1bcce88a7515d5486e3f7925f2c5424ef6b9583ba2cb1",
        "e673bb7cf64a2ee972ca5971d514be71b84ce8b3ff60ad41687b9bd3a797f098",
        None,
    ),
    "fano-suite-long-mi-only": (
        1,
        "4427d6c0c2cb57ca6debd0b475d4ecb0a3b901b06e655b812bebd946a940edd7",
        "55f42b6685fca69bdc4fa73072fddc6551ec94ac6a19bc7be48f60ac3e906cba",
        None,
    ),
    "fano-suite-mi-only": (
        1,
        "422815ddd3ab32d794dea335024c261b6c27f93d7878aaf5010fa23f985fd4b0",
        "4a4474e4c2ef6b995cac0beda091ec7037b3cb4f90e09bd85bd419b45f62a326",
        None,
    ),
    "reproduce-bon-vs-mcts": (
        1,
        "4f8454e68fe3834ab3a17b68280cc8fffdb8ff835e46806cdf2e45513f77a23e",
        "59db715e6cf13837b41bcbea5213d78df2b6cd93c29a2aed7eafe37d9f42dea4",
        "3154a4cee94af00290699d7e5beb597cdd5bea202b8e2d893588153063b41942",
    ),
    "reproduce-bon-vs-mcts-fail": (
        1,
        "a71d634b586a4a5250cc2dbe7a9ffea5ab8c10aa82273cdfb612203448eebf64",
        "28cd5c04f366be97c265874917a4a60c90294f28bfe84e0339663894c922a70a",
        None,
    ),
    "reproduce-calibration": (
        0,
        "d4c7e539d779152b49b13e6c02cba494213782bc80cf093540513a1747df85d3",
        "ca7a4e7d74bd1d96a4c9cd08f7041502d63ed2beebaa4de54142e88fb7e80f6e",
        None,
    ),
    "reproduce-config": (
        0,
        "3e16f7aad4878261a8ce90e78e9818b18cf3f5f9f89aef98514e379f0f321418",
        "d73eb3b2b24ed2823fc09f80582386203a8451552b997b80b871fff49f91e25e",
        None,
    ),
    "reproduce-dominance": (
        0,
        "d8104c66493b6c9e08d229f7544da8cf1eb35a27d42b520c632599183aac1e85",
        "4e169e02534dfc7e915d6f20d296b8b0863a6b641012e84829fd7d989bf5437e",
        None,
    ),
    "reproduce-dominance-fail": (
        1,
        "2fb6852f6e84c2a8e2a588642481bbb315ab970f3838337c309cdd0cd78679de",
        "a414cbc0914d3d865e043a5ec269a36b4a8dbfa1baf3d6d79948a8b40606ed9c",
        None,
    ),
    "reproduce-fano": (
        0,
        "8551efffe435a0197bbe7c5cfa19d7c32bff69e21073bf2d48b997b24057160c",
        "68e19f8cc7314ed47fd008b388378dad696c08e9bb5bdedd8a3ccc942c2a658c",
        None,
    ),
    "reproduce-gamma-sweep": (
        0,
        "0a1b245307faa5a03ef5154b350269c8f478252c00de092eddb35709dff53639",
        "276f6db40a6dd5bb8376f2c6d48fc49167d1c7ed65fe4b26523f538778254e51",
        None,
    ),
    "reproduce-nmin": (
        0,
        "1a86bb5981c5314536aac5103077398aff1d025d5f437977f3a81b0cf492e9a0",
        "685d9cabafff4b60369aad8dc268204c94410e4ef5eaf9e89f750b2d79095927",
        None,
    ),
    "reproduce-table1": (
        0,
        "a402bf8fb13c88a86ff5ea10b7568df33174703c888519d1065a70a735e494a0",
        "243f51488d8cf9b8fafff1c474b3b88b7307737f4d71d14d6fbc667665b2b3a8",
        None,
    ),
    "sim-beam-constant": (
        0,
        "ae6a1a682336494ade00dc82e8eec2a4774909dffaf5d779d74e33a7c684e550",
        "d3bc0b6034b1638a9062559dc712b59ff9aac94d52ad1f8297717bf55aefe32d",
        None,
    ),
    "sim-beam-noisy": (
        0,
        "7e25bd1dee021ba7f87761c8e7bf46b882ee872aa8d24c770081ea31e89c5471",
        "c623a27e3a2934d8d1a639bd73f3577d938cc525b86d27b613caf5bab2b4afa7",
        None,
    ),
    "sim-beam-table-sweep": (
        0,
        "5354b7d204043c670d75272e0908f1095397d41b26d40945e61cc43ac8d7be0a",
        "f654237a698bab58eff3ff0ab9d2dca99b7830ae010777d95ce3fbb10009e263",
        "9285099c268c3d4c5f0369ecad120fe2f799e00d669c4b7f0ac456a324cb2b74",
    ),
    "sim-bon-max-sweep": (
        0,
        "6dc3be0ca432e72958bde56c5691505d7d3f863c4ccb4d1f90ebbc3441ab7bd9",
        "77385de1961df32d12ed9271ccfb349b1d3a463002116db4a2c874052fc1873e",
        "dd698133650c6f5e996e228cc35240606a3241715c6def6029ac980993599833",
    ),
    "sim-bon-max-sweep-fail": (
        1,
        "2ebe892f4a122da0978d653fa4424bb6dc1caa345ec78b432e82a77349c2f432",
        "28c0c727d361a69b879f1654cfa406f9900f31581ff4a4c4c82819262ad2f24a",
        None,
    ),
    "sim-bon-sc-sweep": (
        0,
        "e7e18214140a939dbab1addaf2a480dfead1f431626b56a6018a0dddc541304d",
        "49aa2ccb4518a519ec7938cf29cf5ca4bd750588c249f84309fcbca78ddfb22f",
        None,
    ),
    "sim-bon-vote": (
        0,
        "bd9f7f6a5fe1e91bc6fe75bd132d0ff3abfc7b2ff311aa47125ee480711a769a",
        "8db495857b136ad0fff636d78883722737970ec0c1646a56d302fe1620a5fceb",
        None,
    ),
    "sim-config": (
        0,
        "639920043cc32b460f3f54cc83352726ffe463cb935bc8ecc27bc99eb83c1920",
        "ee6c4eee039c0defafb1708bd7334c24a1e46163937abf9c75b123163237d17a",
        None,
    ),
    "sim-config-override": (
        0,
        "5cf5c2143b260f6691b5bbc1ea96fc008b50df8f8c856047a21c0308d0ddfd33",
        "93b4fa027f830e9e824429ac17e07748a98144784fd2d22216a50e66c1b47946",
        None,
    ),
    "sim-config-strategy-flag": (
        0,
        "c440cfe242d55c47e9c73b2cd0849bb988a002708c5bf3e4bb7dc644b84500dd",
        "fc5d02f78b051e503ed5eed5ec20b67c669937a6b0b974bcd97f1eb6c1ac9357",
        None,
    ),
    "sim-lookahead-noisy": (
        0,
        "6ce51393aebef3787957bb16bcf6576f0285c9d91e1fe1f79f5d6c444d0388b1",
        "778f2f4b0ab2d87df216ac312f7e2efac5417eb1e4f2dc9d3b7553fbc712001e",
        None,
    ),
    "sim-lookahead-sweep": (
        0,
        "bd1bd762bd3eb189ba9163481975860de397a90a2dc64e2d8ff5f961ad351c2f",
        "01485b39e78c868a8516bb4a7b2bca7c1b7de6d8cb22a0ce17b73dea0384198e",
        None,
    ),
    "sim-lookahead-sweep-plot": (
        0,
        "9ddbce4be20b80e3b6874bcb4a5686e9c3e93e09ecae3607f39fa4641c976ec1",
        "bcf660df93d6b48c1a27f364664c11d2804a5f7a9502f9d0b62ba24006e2cbc5",
        "79a2ba29e0d8c1d109a1653dd9bf03ad687222ef2a12b27a3dd7dace912bf4c2",
    ),
    "sim-mcts-best": (
        0,
        "5be13523fb629fc2fb4175cec3e5cbe575972564cce41ed0fe96ee64c40c10da",
        "6355d8755e2798b9d5640793f9787c31d171ac21578a22b2b9e8adc0ca53de4c",
        None,
    ),
    "sim-mcts-best-constant": (
        0,
        "a4987de9007fabe1c2aa96e8a223d651bd143393cc30b15c23a68e9301d909b4",
        "6f555f56f3e21bac71fcc8ec6959446975fe199d98db01ddb4ebc1ec9479446e",
        None,
    ),
    "sim-mcts-best-noisy": (
        0,
        "a4c8cf3bdbbc4dbf524eb7d84f1013998e5a082b4e92b328db8c21299a6af487",
        "5b83f74b2584ee91f5cf84fd20a90d1e1d5655d397329a81d40b9abb575264df",
        None,
    ),
    "sim-mcts-worst-constant": (
        0,
        "cd61b7ed744645b06135b8454120790eb51696f40f1c5a3af2cb3822b7df044e",
        "d02560bfbad02467abd3da0996ce8a7641e8654e904d053b7ee7e3d74f874551",
        None,
    ),
    "sim-mcts-worst-noisy": (
        0,
        "25c5e5a4d6fe8374dec99c165955911de650f99423733142716d76babb514cfb",
        "5a38bb5a8dd4e9937bfe93e8af53278a76f57032046853fb6cddb98aed94dc30",
        None,
    ),
    "sim-single": (
        0,
        "f70e9bec899f548cc5df712e2a7c6a1de396cc2c1ef8ecbe8ddc8d7d76ffc7aa",
        "39cf3b463a890cfaa713dcd09c3f5fbc7313e4ffbf643db63fe244610edf6830",
        None,
    ),
    "sim-single-table": (
        0,
        "514672f2fb05b19f4818d5be29fab17f6e0faa1aec3e17aa27032e3e88fc9e68",
        "5680525c60f464205a022dd819218b9bfbb873af720751328e926c92c02426f4",
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
