"""Output checker: decides whether one command of a pass succeeded.

A command passes only when
  * its CSV has the expected header and row count, and every ``verify`` cell
    reads what the estimate and the reference bound imply (``pass`` unless
    the estimate's Wilson lower limit lies above the bound),
  * its exit code and every summary verdict agree: exit 0 and PASS when all
    verify cells pass, exit 1 and FAIL otherwise; no stderr line is an error,
    and the commands that print a verdict printed one,
  * every cell matches the reference: integers and strings exactly; floats to
    1e-9 relative on top of the 9-significant-digit print rounding, except
    bound cells fed by a noisy-score selector's sampled reliability, which
    get ``NOISY_BOUND_RTOL``; Monte Carlo estimates must agree with a
    50x-larger reference run of the same configuration at the four-standard-
    error level, and confidence limits and gaps must follow from the
    estimates,
  * its manifest and any SVG it was asked for exist and are well formed.

References for the Monte Carlo workloads are ``reference.json`` (written by
``make_reference.py``); the exact-analysis references are recomputed from
the generated inputs by ``oracles``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import oracles

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Selector reliability of noisy-score selectors is itself a 1e5-sample
# estimate inside the program, and a planned exact quadrature will move it.
NOISY_BOUND_RTOL = 1e-2

# Two-sided tail of four standard errors. It is split evenly (Bonferroni)
# over every Monte Carlo cell of a workload, so that a correct program fails
# a run at most this often however many cells and seeds are checked.
FOUR_SE_ALPHA = math.erfc(4.0 / math.sqrt(2.0))

Z95 = 1.959963984540054


def wilson(successes: int, trials: int) -> tuple[float, float]:
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def printed_close(cell: str, ref: float, rtol: float, atol: float) -> bool:
    """True when a CSV cell printed with 9 significant digits agrees with
    ``ref`` to ``rtol`` relative (or ``atol`` absolute)."""
    try:
        value = float(cell)
    except ValueError:
        return False
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    rounding = 0.5 * 10 ** (math.floor(math.log10(abs(ref))) - 8) if ref else 0.0
    return abs(value - ref) <= rtol * abs(ref) + rounding + atol


def same_rate_pvalue(x: int, n: int, x_ref: int, n_ref: int) -> float:
    """Two-sided p-value of Fisher's exact test that x/n and x_ref/n_ref
    estimate the same probability; the exact form of a
    difference-over-standard-error test that stays valid at small counts."""
    from scipy.stats import hypergeom

    total = x + x_ref
    if total == 0:
        return 1.0
    dist = hypergeom(n + n_ref, total, n)
    return min(1.0, 2.0 * min(float(dist.cdf(x)), float(dist.sf(x - 1))))


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _golden_cells(golden: dict, argv: list[str]) -> list[list[tuple]]:
    """Expected cells of a Monte Carlo command from its reference run."""
    header, noisy = golden["header"], any("noisy" in a for a in argv)
    expected = []
    for i, row in enumerate(golden["rows"]):
        cells = []
        for col, value in zip(header, row):
            if col == "estimate":
                cells.append(("mc", golden["successes"][i], golden["trials"]))
            elif col in ("ci_low", "ci_high", "gap_vs_envelope"):
                cells.append((col,))
            elif col in ("seed", "trials"):
                cells.append(("str", _flag(argv, f"--{col}")))
            elif col == "bound" and value:
                rtol = NOISY_BOUND_RTOL if noisy else oracles.RTOL
                cells.append(oracles.num(float(value), rtol))
            elif col == "verify" and value:
                cells.append(("verify",))
            else:
                cells.append(_literal(value))
        expected.append(cells)
    return expected


def _literal(value: str) -> tuple:
    try:
        int(value)
        return ("str", value)
    except ValueError:
        pass
    try:
        return oracles.num(float(value))
    except ValueError:
        return ("str", value)


class Checker:
    """Holds the expected output of every command of one workload run."""

    def __init__(self, workload: str, commands):
        self.expected = {}
        if workload == "exact-analysis":
            for cmd in commands:
                self.expected[cmd.name] = self._oracle(cmd)
        else:
            golden = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[workload]
            for cmd in commands:
                ref = golden[cmd.name]
                self.expected[cmd.name] = (ref["header"], _golden_cells(ref, cmd.argv))
        mc_cells = sum(
            cell[0] == "mc" for _, rows in self.expected.values() for row in rows for cell in row
        )
        self.alpha = FOUR_SE_ALPHA / max(mc_cells, 1)

    @staticmethod
    def _oracle(cmd):
        e = cmd.extra
        if cmd.name == "fano-suite":
            return oracles.fano_rows(e["instances"], e["seed"])
        if cmd.name.startswith("hsic"):
            return oracles.hsic_rows(e["x"], e["y"], e["lengths"], e["perms"], e["seed"])
        if cmd.name == "calibrate":
            return oracles.calibrate_rows(e["traces"])
        if cmd.name == "fit":
            return oracles.fit_rows(e["points"])
        return oracles.nmin_rows()

    def check(self, cmd, rc: int, stderr: str) -> list[str]:
        """Every reason the command's run is wrong; empty when it passed."""
        errors, expect_fail = [], False
        if cmd.out.is_file():
            header, rows = _read_csv(cmd.out)
            found, expect_fail = self._compare(cmd, header, rows)
            errors += found + _check_manifest(cmd)
        else:
            errors.append(f"missing output {cmd.out.name}")
        if rc != int(expect_fail):
            errors.append(f"exit code {rc}, expected {int(expect_fail)}")
        verdict = "FAIL" if expect_fail else "PASS"
        lines = [ln.rstrip() for ln in stderr.splitlines() if ln.strip()]
        for ln in lines:
            if ln.startswith(("error:", "Traceback")):
                errors.append(f"stderr: {ln}")
            elif "->" in ln and not ln.endswith(verdict):
                errors.append(f"verdict: {ln}, expected {verdict}")
        if cmd.verdict and not any(ln.endswith(f"-> {verdict}") for ln in lines):
            errors.append(f"no {verdict} verdict printed")
        if cmd.svg is not None:
            svg = cmd.svg.read_text(encoding="utf-8") if cmd.svg.is_file() else ""
            if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
                errors.append(f"missing or malformed {cmd.svg.name}")
        return errors

    def _compare(self, cmd, header, rows) -> tuple[list[str], bool]:
        """Cell-by-cell comparison; also whether some ``verify`` cell is
        expected to read ``fail``."""
        exp_header, exp_rows = self.expected[cmd.name]
        if header != exp_header:
            return [f"header {header} != {exp_header}"], False
        if len(rows) != len(exp_rows):
            return [f"{len(rows)} rows, expected {len(exp_rows)}"], False
        errors, expect_fail = [], False
        n = int(_flag(cmd.argv, "--trials") or 0)
        counts = []  # successes per row, for the derived columns
        for r, (row, exp) in enumerate(zip(rows, exp_rows)):
            if len(row) != len(exp):
                errors.append(f"row {r}: {len(row)} cells, expected {len(exp)}")
                counts.append(None)
                continue
            x = None
            if "estimate" in header:
                est = float(row[header.index("estimate")])
                x = round(est * n)
                if abs(x / n - est) > 1e-8 * est + 1e-15:
                    errors.append(f"row {r}: estimate {est} is not successes/{n}")
            counts.append(x)
            for col, cell, want in zip(header, row, exp):
                if want[0] == "verify":
                    want = self._verify(x, n, exp[header.index("bound")])
                    expect_fail |= "fail" in want[1:] and (want[0] == "str" or cell == "fail")
                problem = self._cell(want, cell, x, n, counts)
                if problem:
                    errors.append(f"row {r} {col}={cell}: {problem}")
        return errors, expect_fail

    @staticmethod
    def _verify(x, n, bound) -> tuple:
        """The program's verify cell is ``pass`` exactly when the Wilson lower
        limit of the estimate does not exceed the bound. Where an exact bound
        equals the true probability, that one-sided 95% test reads ``fail``
        for about 2.5% of seeds, so the expected cell follows from the
        estimate rather than always being ``pass``. Inside the bound's own
        tolerance either reading is accepted."""
        if x is None:
            return ("str", "pass")
        _, ref, rtol, atol = bound
        lo = wilson(x, n)[0]
        slack = rtol * abs(ref) + atol
        if lo <= ref - slack:
            return ("str", "pass")
        if lo > ref + slack:
            return ("str", "fail")
        return ("either", "pass", "fail")

    def _cell(self, want, cell, x, n, counts) -> str | None:
        kind = want[0]
        if kind in ("str", "either"):
            return None if cell in want[1:] else f"expected {' or '.join(want[1:])}"
        if kind == "num":
            _, ref, rtol, atol = want
            return None if printed_close(cell, ref, rtol, atol) else f"expected {ref!r}"
        if x is None:
            return "no estimate to check against"
        if kind == "mc":
            _, x_ref, n_ref = want
            p = same_rate_pvalue(x, n, x_ref, n_ref)
            if p < self.alpha:
                return f"{x}/{n} vs reference {x_ref}/{n_ref}: p={p:.3g} < {self.alpha:.3g}"
            return None
        if kind in ("ci_low", "ci_high"):
            ref = wilson(x, n)[kind == "ci_high"]
        else:  # gap_vs_envelope: distance to the first (envelope) row
            if counts[0] is None:
                return "no envelope estimate"
            ref = abs(x / n - counts[0] / n)
        return None if printed_close(cell, ref, oracles.RTOL, oracles.ATOL) else f"expected {ref!r}"


def _check_manifest(cmd) -> list[str]:
    path = Path(str(cmd.out) + ".manifest.json")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    command = cmd.argv[0] if cmd.argv[0] != "reproduce" else f"reproduce:{cmd.argv[1]}"
    if manifest.get("command") != command:
        return [f"manifest command {manifest.get('command')!r} != {command!r}"]
    return []
