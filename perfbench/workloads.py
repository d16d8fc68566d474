"""The benchmark's workloads: inputs made from the seed, and the checks on reports.

Each workload is a list of flat ``key = value`` configs, one ``tslattice``
experiment each, run through ``tslattice.cli.run`` as a user's config file
would be. The seed draws the couplings (and, where a workload has them, the
random foliations), so every seed gives different inputs and outputs but the
same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle

# The lambda = 0 controls and their bounds, as the model's experiments
# declare them.
CONTROL_BOUNDS = {
    "control_max_swap_residue": 1e-13,
    "control_max_pairwise_distance": 1e-11,
    "control_coevolved_drift": 1e-13,
    "control_interaction_picture_variation": 1e-13,
    "control_superposition_defect": 1e-12,
}
COVARIANT_SWAP_BOUND = 1e-12
UNITARITY_BOUND = 1e-10
DRIFT_BOUND = 1e-10
# Reports print reals at 15 significant digits, and the reference evolution
# takes its exponentials by Pade approximation rather than eigh.
AGREEMENT_ATOL = 1e-9


@dataclass
class Workload:
    name: str
    configs: list[dict[str, str]]
    model: oracle.Model
    foliation: list | None = None  # written to a file and replayed, when set


def _couplings(seed: int) -> dict[str, str]:
    r = random.Random(seed)
    return {
        "omega": f"{r.uniform(0.9, 1.1):.4f}",
        "mu": f"{r.uniform(0.6, 0.8):.4f}",
        "link_coupling": f"{r.uniform(0.3, 0.5):.4f}",
        "lambda": f"{r.uniform(0.4, 0.6):.4f}",
        "dt": f"{r.uniform(0.12, 0.18):.4f}",
    }


def _model(flat: dict[str, str], kind: str) -> oracle.Model:
    return oracle.Model(
        n=int(flat["n_sites"]),
        horizon=int(flat["horizon"]),
        omega=float(flat["omega"]),
        mu=float(flat["mu"]),
        coupling=float(flat["link_coupling"]),
        lam=float(flat["lambda"]),
        dt=float(flat["dt"]),
        kind=kind,
    )


def make(name: str, seed: int) -> Workload:
    """Inputs of workload ``name`` for ``seed``."""
    flat = _couplings(seed)
    if name == "swap_scan":
        flat.update(n_sites="5", horizon="4", kind="local", exploration_budget="1000")
        return Workload(name, [dict(flat, experiment="integrability")], _model(flat, "local"))
    if name == "sweep_wide":
        flat.update(
            n_sites="14", horizon="4", kind="operator_nonlocal", n_foliations="2", seed=str(seed)
        )
        return Workload(name, [dict(flat, experiment="sweep")], _model(flat, "operator_nonlocal"))
    if name == "dense_maps":
        flat.update(n_sites="10", horizon="4", kind="local")
        fol = oracle.random_foliation(10, 4, seed)
        return Workload(
            name,
            [dict(flat, experiment="degeneracy"), dict(flat, experiment="nonlinearity")],
            _model(flat, "local"),
            foliation=fol,
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("swap_scan", "sweep_wide", "dense_maps")


# -- report parsing ---------------------------------------------------------------


@dataclass
class Report:
    metrics: dict[str, float]
    verdict: str
    foliation: str | None
    header: list[str]
    rows: list[list[str]]


def parse_report(text: str) -> Report:
    """Read the nested ``.report`` format back into its parts."""
    metrics: dict[str, float] = {}
    verdict = ""
    foliation: list[str] | None = None
    details: list[str] = []
    section = None
    for line in text.splitlines():
        if not line.startswith("  "):
            key, _, value = line.partition(":")
            section = key
            if key == "verdict":
                verdict = value.strip()
            elif key == "foliation":
                foliation = []
            continue
        body = line[2:]
        if section == "metrics":
            k, _, v = body.partition(" = ")
            metrics[k] = float(v)
        elif section == "foliation":
            foliation.append(body)
        elif section == "details":
            details.append(body)
    fol_text = None if foliation is None else "".join(f"{ln}\n" for ln in foliation)
    header = details[0].split(",") if details else []
    return Report(metrics, verdict, fol_text, header, [d.split(",") for d in details[1:]])


# -- checks -----------------------------------------------------------------------


def check(w: Workload, reports: dict[str, str]) -> list[str]:
    """Problems found in one repetition's ``.report`` texts, keyed by experiment."""
    problems: list[str] = []
    parsed = {}
    for cfg in w.configs:
        exp = cfg["experiment"]
        if exp not in reports:
            problems.append(f"{exp}: no report written")
            continue
        rep = parse_report(reports[exp])
        parsed[exp] = rep
        if rep.verdict != "pass":
            problems.append(f"{exp}: verdict {rep.verdict!r}")
        for metric, bound in CONTROL_BOUNDS.items():
            if metric in rep.metrics and not rep.metrics[metric] <= bound:
                problems.append(f"{exp}: {metric} = {rep.metrics[metric]:g} above {bound:g}")
        if w.foliation is not None and rep.foliation != oracle.foliation_text(w.foliation):
            problems.append(f"{exp}: report's foliation is not the replayed one")
    if problems:
        return problems
    if w.name == "swap_scan":
        problems += _check_swap_scan(w, parsed["integrability"])
    elif w.name == "sweep_wide":
        problems += _check_sweep(w, parsed["sweep"])
    else:
        problems += _check_dense(w, parsed["degeneracy"], parsed["nonlinearity"])
    return problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= AGREEMENT_ATOL


def _check_swap_scan(w: Workload, rep: Report) -> list[str]:
    m = rep.metrics
    surfaces, pairs = oracle.reachable_census(w.model.n, w.model.horizon)
    problems = []
    if m["surfaces_visited"] != surfaces:
        problems.append(f"surfaces_visited {m['surfaces_visited']:g}, enumeration gives {surfaces}")
    if m["pairs_checked"] != pairs:
        problems.append(f"pairs_checked {m['pairs_checked']:g}, enumeration gives {pairs}")
    if m["exhaustive"] != 1.0:
        problems.append("scan was not exhaustive")
    if not m["max_swap_residue"] <= COVARIANT_SWAP_BOUND:
        problems.append(f"max_swap_residue {m['max_swap_residue']:g} breaks covariance")
    return problems


def _check_sweep(w: Workload, rep: Report) -> list[str]:
    model = w.model
    n, t = model.n, model.horizon
    seed = int(w.configs[0]["seed"])
    foliations = [
        ("canonical-synchronous", oracle.synchronous_foliation(n, t)),
        ("canonical-staircase", oracle.staircase_foliation(n, t)),
    ] + [(f"random-{k}", oracle.random_foliation(n, t, seed + k)) for k in range(2)]
    labels = [row[0] for row in rep.rows]
    if labels != [label for label, _ in foliations]:
        return [f"sweep rows are {labels}"]
    finals = [oracle.evolve(model, steps)[0] for _, steps in foliations]
    col = {name: k for k, name in enumerate(rep.header)}
    problems = []
    for row, final in zip(rep.rows, finals):
        expected = oracle.final_expectations(model, final)
        got = [float(row[col[f"final_expectation_site_{i}"]]) for i in range(n)]
        bad = [i for i in range(n) if not _close(got[i], expected[i])]
        if bad:
            problems.append(f"{row[0]}: final expectations differ at sites {bad}")
        dist = oracle.phase_distance(final, finals[0])
        if not _close(float(row[col["distance_to_reference"]]), dist):
            problems.append(f"{row[0]}: distance_to_reference differs from {dist:.15g}")
    widest = max(
        oracle.phase_distance(a, b) for i, a in enumerate(finals) for b in finals[i + 1 :]
    )
    if not _close(rep.metrics["max_pairwise_distance"], widest):
        problems.append(f"max_pairwise_distance differs from {widest:.15g}")
    return problems


def _check_dense(w: Workload, degeneracy: Report, nonlinearity: Report) -> list[str]:
    model = w.model
    probe = model.n // 2
    _, trail = oracle.evolve(model, w.foliation, probe=probe)
    col = {name: k for k, name in enumerate(degeneracy.header)}
    rows = degeneracy.rows
    problems = []
    if len(rows) != len(w.foliation) + 1:
        return [f"degeneracy has {len(rows)} rows for {len(w.foliation)} steps"]
    # |+>^n is an eigenstate of X with eigenvalue 1, so the co-evolved
    # expectation <+|X|+> must stay at 1.
    coevolved = [float(r[col["coevolved_expectation"]]) for r in rows]
    if max(abs(c - 1.0) for c in coevolved) > DRIFT_BOUND:
        problems.append("co-evolved expectation leaves <+|X|+> = 1")
    surface = [float(r[col["surface_expectation"]]) for r in rows[1:]]
    bad = [k + 1 for k in range(len(trail)) if not _close(surface[k], trail[k])]
    if bad:
        problems.append(f"surface expectations differ from the reference at steps {bad[:5]}")
    m = nonlinearity.metrics
    for metric in ("unitarity_defect", "compose_consistency"):
        if not m[metric] <= UNITARITY_BOUND:
            problems.append(f"{metric} = {m[metric]:g} above {UNITARITY_BOUND:g}")
    return problems
