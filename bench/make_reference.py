"""Regenerate ``reference.json``, the Monte Carlo workloads' reference output.

Usage (from the repository root): python bench/make_reference.py

Runs every command of mc-ideal and mc-noisy once with 50x the trials of a
measured run and a seed no measured run uses, and stores each CSV with the
success count behind every estimate. Deterministic cells (bounds, budgets,
labels) are taken from it verbatim; the estimates become the references the
checker tests measured estimates against. Rerun only when the program's
intended output changes, and say so where the change is recorded.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = 50
SEED = 999_999

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    from slowthink.cli import dispatch

    workdir = ROOT / ".bench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name in ("mc-ideal", "mc-noisy"):
            reference[name] = {}
            for cmd in workloads.WORKLOADS[name](workdir, SEED, scale=SCALE):
                rc = dispatch(cmd.argv)
                if rc != 0:
                    raise SystemExit(f"{name}/{cmd.name} exited {rc}")
                with open(cmd.out, newline="", encoding="utf-8") as fh:
                    header, *rows = list(csv.reader(fh))
                trials = int(cmd.argv[cmd.argv.index("--trials") + 1])
                col = header.index("estimate")
                reference[name][cmd.name] = {
                    "header": header,
                    "rows": rows,
                    "trials": trials,
                    "successes": [round(float(r[col]) * trials) for r in rows],
                }
                print(f"{name}/{cmd.name}: {len(rows)} rows", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
