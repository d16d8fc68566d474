"""The committed report baseline and the comparison the tests make against it.

The baseline is the ``.report`` files of ``tslattice all`` at the command
line's defaults, for every nonlinearity kind at lambda = 0.5 and lambda = 0,
in ``tests/baseline/<kind>-lambda-<lambda>/``. To regenerate it, from the
root of a checkout:

    PYTHONPATH=src python tests/report_baseline.py

``mismatches`` compares a fresh report with its baseline: lines outside the
metrics and details sections (experiment, version, config, thresholds,
verdict, foliation) must be equal; in those two sections every cell that
reads as a real must agree within ``ABS_TOL + REL_TOL * |baseline|`` and
every other cell must be equal.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "baseline"
KINDS = ("none", "local", "coefficient_nonlocal", "operator_nonlocal")
LAMBDAS = ("0.5", "0")
ABS_TOL = 1e-12
REL_TOL = 1e-9

# Sections whose cells hold computed reals.
_COMPUTED = ("metrics:", "details:")
_CELL_BREAK = re.compile(r"([ ,=])")


def baseline_dir(kind: str, lam: str) -> Path:
    return BASELINE / f"{kind}-lambda-{lam}"


def _real(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _cells_agree(expected: str, actual: str) -> bool:
    a, b = _real(expected), _real(actual)
    if a is None or b is None:
        return expected == actual
    if not (math.isfinite(a) and math.isfinite(b)):
        return expected == actual
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(a)


def mismatches(expected: str, actual: str) -> list[str]:
    """The lines of ``actual`` that do not match the baseline ``expected``."""
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return [f"{len(act_lines)} lines, baseline has {len(exp_lines)}"]
    out = []
    section = None
    for ln, (e, a) in enumerate(zip(exp_lines, act_lines), start=1):
        if not e.startswith("  "):
            section = e
        if section in _COMPUTED and e.startswith("  "):
            ce, ca = _CELL_BREAK.split(e), _CELL_BREAK.split(a)
            same = len(ce) == len(ca) and all(_cells_agree(x, y) for x, y in zip(ce, ca))
        else:
            same = e == a
        if not same:
            out.append(f"line {ln}: {a!r}, baseline {e!r}")
    return out


def main() -> int:
    from tslattice.cli import parse_config, run

    for kind in KINDS:
        for lam in LAMBDAS:
            out = baseline_dir(kind, lam)
            cfg = parse_config(None, {"kind": kind, "lambda": lam, "out": str(out), "format": "structured"})
            if run(cfg) != 0:
                print(f"error: {out.name}: a verdict failed", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
