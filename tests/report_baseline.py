"""The committed report baseline and the comparison the tests make against it.

The baseline is the ``.report`` files of ``tslattice all`` at the command
line's defaults, for every nonlinearity kind at lambda = 0.5 and lambda = 0,
in ``tests/baseline/<kind>-lambda-<lambda>/``; and the inputs and ``.report``
files of the benchmark's workloads at seeds 1 and 2, in
``tests/baseline/perfbench/<workload>-<seed>/``: one ``<experiment>.cfg``
per run, and ``foliation.txt`` where the workload replays a foliation. The
workloads are read from ``perfbench/workloads.py``, which this script does
not change. To regenerate it all, from the root of a checkout:

    PYTHONPATH=src python tests/report_baseline.py

With ``--check`` the same files are written into a temporary directory
instead, nothing under ``tests/`` changes, and each file that is not
byte-equal to its baseline is printed, followed by each cell that moved, as
file, key, baseline value -> new value; the exit status is 1 if any file
differs.

``mismatches`` compares a fresh report with its baseline: lines outside the
metrics and details sections (experiment, version, config, thresholds,
verdict, foliation) must be equal; in those two sections every cell that
reads as a real must agree within ``ABS_TOL + REL_TOL * |baseline|`` and
every other cell must be equal.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import re
import sys
import tempfile
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "baseline"
KINDS = ("local", "coefficient_nonlocal", "operator_nonlocal")
LAMBDAS = ("0.5", "0")
PERFBENCH = BASELINE.parents[1] / "perfbench"
PERFBENCH_SEEDS = (1, 2)
FOLIATION_FILE = "foliation.txt"
ABS_TOL = 1e-12
REL_TOL = 1e-9

# Sections whose cells hold computed reals.
_COMPUTED = ("metrics:", "details:")
_CELL_BREAK = re.compile(r"([ ,=])")


def baseline_dir(kind: str, lam: str, root: Path = BASELINE) -> Path:
    return root / f"{kind}-lambda-{lam}"


def perfbench_dirs() -> list[Path]:
    return sorted(p for p in (BASELINE / "perfbench").iterdir() if p.is_dir())


def perfbench_config(cfg_path: Path, out: Path):
    """The run of one committed workload input, writing ``.report`` files to ``out``."""
    from tslattice.cli import parse_config

    overrides = {"out": str(out), "format": "structured"}
    foliation = cfg_path.parent / FOLIATION_FILE
    if foliation.exists():
        overrides["foliation_file"] = str(foliation)
    return parse_config(str(cfg_path), overrides)


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


def _write_workload_inputs(root: Path) -> list[Path]:
    """Write every benchmark input under ``root``; returns the config files."""
    sys.path.insert(0, str(PERFBENCH))
    import oracle
    import workloads

    written = []
    for name in workloads.NAMES:
        for seed in PERFBENCH_SEEDS:
            w = workloads.make(name, seed)
            out = root / "perfbench" / f"{name}-{seed}"
            out.mkdir(parents=True, exist_ok=True)
            if w.foliation is not None:
                (out / FOLIATION_FILE).write_text(oracle.foliation_text(w.foliation))
            for flat in w.configs:
                cfg_path = out / f"{flat['experiment']}.cfg"
                cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in flat.items()))
                written.append(cfg_path)
    return written


def write_baseline(root: Path) -> int:
    """Write every baseline input and report under ``root``; 1 if a verdict failed."""
    from tslattice.cli import parse_config, run

    runs = [
        parse_config(
            None, {"kind": kind, "lambda": lam, "out": str(baseline_dir(kind, lam, root)), "format": "structured"}
        )
        for kind in KINDS
        for lam in LAMBDAS
    ]
    runs += [perfbench_config(path, path.parent) for path in _write_workload_inputs(root)]
    for cfg in runs:
        if run(cfg) != 0:
            print(f"error: {cfg.out}: a verdict failed", file=sys.stderr)
            return 1
    return 0


def _contents(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def differing_files(fresh: Path, baseline: Path = BASELINE) -> list[str]:
    """Paths, relative to both roots, of the files on one side only or not byte-equal."""
    a, b = _contents(fresh), _contents(baseline)
    return sorted(rel for rel in a.keys() | b.keys() if a.get(rel) != b.get(rel))


def _cells(section: str | None, header: list[str] | None, line: str, ln: int) -> list[tuple[str, str]]:
    """``(key, value)`` for each cell of one report line: a metric, a details field, or else the whole line."""
    if section == "metrics:" and " = " in line:
        name, value = line.strip().split(" = ", 1)
        return [(f"metrics.{name}", value)]
    fields = line.strip().split(",")
    if section == "details:" and header is not None and len(fields) == len(header):
        return [(f"details[{fields[0]}].{column}", value) for column, value in zip(header, fields)]
    return [(f"line {ln}", line)]


def moved_cells(expected: str, actual: str) -> list[str]:
    """``key: baseline -> new`` for each cell of ``actual`` that is not byte-equal to the baseline ``expected``.

    A metric is keyed by its name, a details field by its row's first field
    and its column's header, and any other line, whole, by its number.
    """
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return [f"lines: {len(exp_lines)} -> {len(act_lines)}"]
    out, section, header = [], None, None
    for ln, (e, a) in enumerate(zip(exp_lines, act_lines), start=1):
        if not e.startswith("  "):
            section, header = e, None
        old, new = _cells(section, header, e, ln), _cells(section, header, a, ln)
        if [key for key, _ in old] != [key for key, _ in new]:
            old, new = [(f"line {ln}", e)], [(f"line {ln}", a)]
        out += [f"{key}: {x} -> {y}" for (key, x), (_, y) in zip(old, new) if x != y]
        if section == "details:" and header is None and e.startswith("  "):
            header = e.strip().split(",")
    return out


def difference_lines(fresh: Path, baseline: Path = BASELINE) -> list[str]:
    """For each file that differs, ``differs: <file>`` and then each moved cell as ``<file>: <key>: <old> -> <new>``."""
    lines = []
    for rel in differing_files(fresh, baseline):
        old, new = baseline / rel, fresh / rel
        lines.append(f"differs: {rel}")
        if not old.exists() or not new.exists():
            lines.append(f"  {rel}: only in the {'new run' if new.exists() else 'baseline'}")
        else:
            lines += [f"  {rel}: {cell}" for cell in moved_cells(old.read_text(), new.read_text())]
    return lines


def check() -> int:
    """Regenerate the baseline into a temporary directory; print each file that differs, and its moved cells."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            status = write_baseline(Path(tmp))
        if status != 0:
            return status
        differing = differing_files(Path(tmp))
        for line in difference_lines(Path(tmp)):
            print(line)
    print(f"{len(differing)} file(s) differ from {BASELINE}")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the committed report baseline.")
    parser.add_argument(
        "--check", action="store_true", help="write into a temporary directory instead and list the differing files"
    )
    args = parser.parse_args(argv)
    return check() if args.check else write_baseline(BASELINE)


if __name__ == "__main__":
    sys.exit(main())
