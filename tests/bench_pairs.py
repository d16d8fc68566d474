"""Alternating benchmark pairs of a parent and a change revision, written as one BENCH file.

    python tests/bench_pairs.py --parent HEAD~1 --seeds 401 402 403 --out BENCH.json

Each revision (``--change`` is ``HEAD`` unless given) is exported with
``git archive`` into a temporary directory of its own, so both sides run
their committed files from a fresh directory. For each workload and seed,
``perfbench/run.py`` runs once in each, with the same seed and
``--seconds``. The side that runs first alternates from pair to pair, and
no two runs overlap: each run writes its checkout's fixed
``.perfbench_out/<workload>/``.

The JSON file holds, per workload and side, each pair's run (its seed,
``correct``, ``attempted``, ``failed`` and end-to-end metrics) and, for
every end-to-end metric of ``BENCHMARK.json``, the median and quartiles of
its runs; per workload, the pairs in which the change read lower on each
metric; and each side's distinct run.py machine lines. It is rewritten
after every pair. A run that exits non-zero (a round shorter than the
first 50 ms reference slice dies with ``StatisticsError``) is kept with its
exit status and the tail of its standard error, counted in its side's
``exited_nonzero``, and left out of the figures. ``run.py`` exits 0 even
when its own check fails, so each side also counts its runs that report
``correct: false`` (``incorrect``) and writes its ``failed_share``, the sum
of ``failed`` over the sum of ``attempted``. The script exits 1 if any run
exited non-zero or is incorrect, or if the change's failed share on a
workload is above the parent's.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]


def export(rev: str, into: Path) -> str:
    """Write the files of ``rev`` into ``into``; returns its commit hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)
    return commit


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` process in ``checkout``: its result line, or its exit status and error."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return {"seed": seed, "returncode": done.returncode, "stderr": done.stderr[-2000:]}
    result = json.loads(lines[-1])
    machine = next((line[len("machine: "):] for line in lines if line.startswith("machine: ")), None)
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name]["value"] for name in METRICS if name in result["metrics"]},
        "machine": json.loads(machine) if machine else None,
    }


def summary(runs: list) -> dict:
    """Median and quartiles of each end-to-end metric over the runs that reported it."""
    figures = {}
    for name in METRICS:
        values = [r["metrics"][name] for r in runs if name in r.get("metrics", {})]
        if not values:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        figures[name] = {"median": median, "q1": q1, "q3": q3, "runs": len(values)}
    return figures


def record(pairs: list) -> dict:
    """The figures of one workload's pairs, each a ``(first side, parent run, change run)``."""
    entry = {"pairs": len(pairs), "first": [first for first, _, _ in pairs], "change_lower": {}}
    for k, side in ((1, "parent"), (2, "change")):
        runs = [pair[k] for pair in pairs]
        machines = []
        for r in runs:
            if r.get("machine") not in machines and r.get("machine") is not None:
                machines.append(r["machine"])
        attempted = sum(r.get("attempted", 0) for r in runs)
        entry[side] = {
            "runs": [{key: value for key, value in r.items() if key != "machine"} for r in runs],
            "exited_nonzero": sum("returncode" in r for r in runs),
            "incorrect": sum("correct" in r and not r["correct"] for r in runs),
            "failed_share": sum(r.get("failed", 0) for r in runs) / attempted if attempted else None,
        }
        entry[side].update(summary(runs), machine=machines)
    for name in METRICS:
        both = [
            (p["metrics"][name], c["metrics"][name])
            for _, p, c in pairs
            if name in p.get("metrics", {}) and name in c.get("metrics", {})
        ]
        entry["change_lower"][name] = f"{sum(c < p for p, c in both)} of {len(both)}"
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", default="HEAD", help="git revision of the change side")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed and workload")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        bench = {
            "parent": export(args.parent, checkouts["parent"]),
            "change": export(args.change, checkouts["change"]),
            "seconds": args.seconds,
            "seeds": args.seeds,
            "workloads": {},
        }
        for workload in args.workloads:
            pairs = []
            for k, seed in enumerate(args.seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                sides = {side: run(checkouts[side], workload, seed, args.seconds) for side in order}
                pairs.append((order[0], sides["parent"], sides["change"]))
                bench["workloads"][workload] = record(pairs)
                args.out.write_text(json.dumps(bench, indent=1) + "\n")
                print(f"{workload} seed {seed}: " + json.dumps({s: r.get("metrics") for s, r in sides.items()}))
    problems = rejections(bench["workloads"])
    if problems:
        print(f"rejected: {json.dumps(problems)}", file=sys.stderr)
        return 1
    return 0


def rejections(workloads: dict) -> dict:
    """Per workload and side, the runs that exited non-zero or are incorrect, and a change's higher failed share."""
    problems = {}
    for workload, entry in workloads.items():
        for side in ("parent", "change"):
            for count in ("exited_nonzero", "incorrect"):
                if entry[side][count]:
                    problems[f"{workload} {side} {count}"] = entry[side][count]
        parent, change = entry["parent"]["failed_share"], entry["change"]["failed_share"]
        if parent is not None and change is not None and change > parent:
            problems[f"{workload} change failed_share"] = f"{change} > parent {parent}"
    return problems


if __name__ == "__main__":
    sys.exit(main())
