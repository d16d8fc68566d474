#!/usr/bin/env python3
"""End-to-end benchmark of tslattice, one workload per process.

    python3 perfbench/run.py --workload swap_scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. The benchmark makes its inputs from ``--seed``, writes them as flat
config files (plus a foliation file where a workload replays one), and calls
``tslattice.cli.run`` on them in repeated rounds for ``--seconds`` seconds.
It checks every report against computations made apart from the program
(``oracle.py``) and requires repeated runs of one config to write
byte-identical reports.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates a
plain and a traced repetition and prints the per-layer metrics plus the
tracing overhead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Reports,
inputs and spans go to ``.perfbench_out/<workload>/`` in the checkout.
"""

import os

# One BLAS thread: OpenBLAS's thread pool widened the spread of dense_maps
# (2.55-3.25 s against 2.95-3.19 s with one thread). Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from reference import ReferenceSlices  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUPS = 25  # set-ups per run; setup_s is their median
MIN_PLAIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1


def _purge_program():
    for name in [m for m in sys.modules if m == "tslattice" or m.startswith("tslattice.")]:
        del sys.modules[name]


def set_up(w: workloads.Workload, out: Path):
    """Import tslattice, write the generated inputs, parse the configs.

    Returns (seconds taken, the ``tslattice.cli`` module, parsed configs).
    """
    t0 = perf_counter()
    _purge_program()
    cli = importlib.import_module("tslattice.cli")
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    extra = {"out": str(out / "reports"), "format": "both"}
    if w.foliation is not None:
        fol_path = inputs / "foliation.txt"
        fol_path.write_text(oracle.foliation_text(w.foliation))
        extra["foliation_file"] = str(fol_path)
    configs = []
    for flat in w.configs:
        path = inputs / f"{flat['experiment']}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in {**flat, **extra}.items()))
        configs.append(cli.parse_config(str(path)))
    return perf_counter() - t0, cli, configs


def run_once(cli, configs, slices: ReferenceSlices):
    """One repetition: ``cli.run`` on every config, with reference slices running.

    Returns (seconds less the slices' time, that time in mean slice times,
    failed runs).
    """
    failed = 0
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), slices:
        t0 = perf_counter()
        for cfg in configs:
            try:
                rc = cli.run(cfg)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                print(f"error: cli.run raised {exc!r}", file=sys.stderr)
                rc = -1
            failed += rc != 0
        wall = perf_counter() - t0
    net = wall - slices.total()
    return net, net / slices.mean(), failed


def read_reports(w: workloads.Workload, out: Path) -> dict[str, bytes]:
    files = {}
    for flat in w.configs:
        for suffix in (".report", ".rows"):
            path = out / "reports" / f"{flat['experiment']}{suffix}"
            if path.exists():
                files[path.name] = path.read_bytes()
    return files


class Outcome:
    """Counts, report contents and problems collected over a run."""

    def __init__(self, w: workloads.Workload, out: Path):
        self.w, self.out = w, out
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, bytes] | None = None
        self.problems: list[str] = []

    def record(self, n_configs: int, failed: int):
        self.attempted += n_configs
        self.failed += failed
        files = read_reports(self.w, self.out)
        if self.first is None:
            self.first = files
        elif files != self.first:
            self.problems.append("repetitions of one config wrote different report files")

    def check(self):
        if self.first is None:
            self.problems.append("no repetition ran")
            return
        texts = {
            name[: -len(".report")]: data.decode()
            for name, data in self.first.items()
            if name.endswith(".report")
        }
        self.problems += workloads.check(self.w, texts)

    def pairs_checked(self) -> int:
        """Order-swap pairs checked per repetition, over the control and main scans."""
        text = (self.first or {}).get("integrability.report")
        if text is None:
            return 0
        return 2 * int(workloads.parse_report(text.decode()).metrics["pairs_checked"])


def machine() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "kernel_backend": sys.modules["tslattice"].KERNEL_BACKEND,
    }


def measure_plain(cli, configs, outcome: Outcome, seconds: float) -> dict:
    slices = ReferenceSlices()
    ratios = []
    start = perf_counter()
    last = 0.0
    while len(ratios) < MIN_PLAIN_ROUNDS or perf_counter() - start + last <= seconds:
        t_round = perf_counter()
        _, ratio, failed = run_once(cli, configs, slices)
        ratios.append(ratio)
        outcome.record(len(configs), failed)
        last = perf_counter() - t_round
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_ref": (statistics.median(ratios), "ref"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "bytes_moved": "B"}


def measure_traced(cli, configs, outcome: Outcome, seconds: float, spans_path: Path) -> dict:
    tracer = Tracer()
    slices = ReferenceSlices(on_slice=tracer.exclude)
    plain_s, plain, traced, layers = [], [], [], []
    start = perf_counter()
    last = 0.0
    while len(traced) < MIN_TRACED_ROUNDS or perf_counter() - start + last <= seconds:
        t_round = perf_counter()
        wall, ratio, failed = run_once(cli, configs, slices)
        plain_s.append(wall)
        plain.append(ratio)
        outcome.record(len(configs), failed)
        tracer.reset()
        tracer.install()
        try:
            _, ratio, failed = run_once(cli, configs, slices)
        finally:
            tracer.uninstall()
        traced.append(ratio)
        outcome.record(len(configs), failed)
        layers.append(tracer.layer_metrics(outcome.pairs_checked()))
        last = perf_counter() - t_round
    tracer.write_spans(spans_path)
    metrics = {}
    for name in layers[0]:
        unit = PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ratio")
        metrics[name] = (statistics.median(m[name] for m in layers), unit)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead"] = (100.0 * overhead, "%")
    metrics["round.wall_s"] = (statistics.median(plain_s), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tslattice" / "__init__.py").is_file():
        print(f"error: no tslattice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = workloads.make(args.workload, args.seed)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    setups = []
    for _ in range(SETUPS if not args.trace else 1):
        took, cli, configs = set_up(w, out)
        setups.append(took)

    outcome = Outcome(w, out)
    if args.trace:
        metrics = measure_traced(cli, configs, outcome, args.seconds, out / "spans.npz")
    else:
        metrics = measure_plain(cli, configs, outcome, args.seconds)
        metrics["setup_s"] = (statistics.median(setups), "s")
    outcome.check()
    for problem in outcome.problems:
        print(f"check failed: {args.workload}: {problem}", file=sys.stderr)

    info = machine()
    (out / "machine.json").write_text(json.dumps(info, indent=1) + "\n")
    print("machine: " + json.dumps(info))
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
