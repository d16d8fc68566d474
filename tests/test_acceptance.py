"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Regression numbers were produced by the exact-ensemble / exhaustive
oracle runs at the stated configurations and are pinned at 1e-6 relative.
"""

import itertools
import time

import numpy as np
import pytest
from reference import apply_gate, deformation_sites, random_state

from tslattice.cli import parse_config, run
from tslattice.dynamics import ModelConfig, NonlinearitySpec
from tslattice.experiments import (
    degeneracy_experiment,
    entanglement_monitor,
    foliation_sweep,
    integrability_check,
    map_nonlinearity_check,
    signaling_experiment,
)
from tslattice.quantum_core import entanglement_entropy, plus_state
from tslattice.spacetime import (
    canonical_foliation,
    count_foliations,
    enabled_deformations,
    surface_levels,
)

# pinned by the first oracle runs (N=6, T=4 defaults unless stated)
PINNED_SWEEP_COEFF = 0.386968217912009
PINNED_SWEEP_OPERATOR = 0.727216815293658
PINNED_SIGNAL = 0.0391453419445479
PINNED_IPV = 1.44541562442769
PINNED_SUPERPOSITION = 0.0885069561144978
PINNED_ENTANGLEMENT = 0.221900200619037
PIN_RTOL = 1e-6


def default_config(kind="local", lam=0.5, n_sites=6, horizon=4, **kw):
    extra = {}
    if kind == "coefficient_nonlocal":
        extra["source_site"] = kw.pop("source_site", 0)
    if kind == "operator_nonlocal":
        extra["partner_site"] = kw.pop("partner_site", n_sites - 1)
    return ModelConfig(
        n_sites=n_sites,
        horizon=horizon,
        nonlinearity=NonlinearitySpec(kind=kind, lam=lam, **extra),
        **kw,
    )


def report_line(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {label}  {detail}".rstrip())
    assert ok, f"criterion {number} failed: {label} {detail}"


def test_criterion_1_local_nonlinearity_is_covariant():
    t0 = time.time()
    r = foliation_sweep(default_config("local"), n_foliations=50, seed=42)
    elapsed = time.time() - t0
    d = r.metric("max_pairwise_distance")
    report_line(
        1,
        "covariance of local nonlinearity (52 foliations, N=6, T=4)",
        d <= 1e-10 and elapsed < 10.0,
        f"max_pairwise_distance={d:.3e} runtime={elapsed:.2f}s",
    )


def test_criterion_2_exhaustive_order_swap_exactness():
    r = integrability_check(default_config("local", n_sites=4, horizon=3), exploration_budget=10**6)
    res = r.metric("max_swap_residue")
    report_line(
        2,
        "discrete integrability exactness (exhaustive, N=4, T=3, local)",
        r.metric("exhaustive") == 1.0 and res <= 1e-12,
        f"max_swap_residue={res:.3e} surfaces={int(r.metric('surfaces_visited'))}",
    )


def test_criterion_3_nonlocal_breakage_witnesses():
    r1 = foliation_sweep(default_config("coefficient_nonlocal"), n_foliations=50, seed=42)
    r2 = foliation_sweep(default_config("operator_nonlocal"), n_foliations=50, seed=42)
    d1 = r1.metric("max_pairwise_distance")
    d2 = r2.metric("max_pairwise_distance")
    ok = (
        d1 >= 1e-3
        and d2 >= 1e-3
        and d1 == pytest.approx(PINNED_SWEEP_COEFF, rel=PIN_RTOL)
        and d2 == pytest.approx(PINNED_SWEEP_OPERATOR, rel=PIN_RTOL)
    )
    report_line(
        3,
        "nonlocal nonlinearity breaks foliation independence",
        ok,
        f"coefficient={d1:.6f} operator={d2:.6f}",
    )


def test_criterion_4_gisin_signaling_with_controls():
    r = signaling_experiment(default_config("local"))
    signal = r.metric("signal")
    c0 = r.metric("control_lambda0_signal")
    cp = r.metric("control_product_signal")
    ok = (
        c0 <= 1e-12
        and cp <= 1e-12
        and signal > 10 * 1e-12
        and signal == pytest.approx(PINNED_SIGNAL, rel=PIN_RTOL)
    )
    report_line(
        4,
        "entanglement + local nonlinearity + collapse signals",
        ok,
        f"signal={signal:.6f} lambda0={c0:.1e} product={cp:.1e}",
    )


def test_criterion_5_degenerate_coevolved_expectation():
    r = degeneracy_experiment(default_config("local"))
    drift = r.metric("coevolved_drift")
    ipv = r.metric("interaction_picture_variation")
    ok = drift <= 1e-10 and ipv >= 0.05 and ipv == pytest.approx(PINNED_IPV, rel=PIN_RTOL)
    report_line(
        5,
        "co-evolved expectation frozen while physical one moves",
        ok,
        f"coevolved_drift={drift:.3e} variation={ipv:.4f}",
    )


def test_criterion_6_composed_map_structure():
    r = map_nonlinearity_check(default_config("local"))
    r0 = map_nonlinearity_check(default_config("local", lam=0.0))
    u = r.metric("unitarity_defect")
    s = r.metric("superposition_defect")
    s0 = r0.metric("superposition_defect")
    ok = (
        u <= 1e-10
        and s >= 1e-3
        and s == pytest.approx(PINNED_SUPERPOSITION, rel=PIN_RTOL)
        and s0 <= 1e-12
    )
    report_line(
        6,
        "composed map unitary, state map nonlinear",
        ok,
        f"unitarity_defect={u:.3e} superposition_defect={s:.6f} linear_control={s0:.1e}",
    )


def test_criterion_7_entanglement_bookkeeping():
    cfg = default_config("local")
    r = entanglement_monitor(cfg)
    locals_ok = all(
        r.metric(f"max_entropy_{kind}") <= 1e-12
        for kind in ("none", "local", "coefficient_nonlocal")
    )
    # per-step monitoring covers singleton and prefix cuts; pure singleton
    # marginals certify a full product state, and the final states are also
    # checked against every bipartition explicitly here
    from dataclasses import replace

    from tslattice.dynamics import evolve

    every_cut_ok = True
    fol = canonical_foliation(cfg.n_sites, cfg.horizon, "synchronous")
    for kind in ("none", "local", "coefficient_nonlocal"):
        nl = NonlinearitySpec(
            kind=kind,
            lam=0.5,
            source_site=0 if kind == "coefficient_nonlocal" else None,
        )
        c = replace(cfg, link_coupling=0.0, nonlinearity=nl)
        final, _ = evolve(plus_state(cfg.n_sites), fol, c)
        for size in range(1, cfg.n_sites):
            for cut in itertools.combinations(range(cfg.n_sites), size):
                if entanglement_entropy(final, cut) > 1e-12:
                    every_cut_ok = False
    nonlocal_entropy = r.metric("max_entropy_operator_nonlocal")
    ok = (
        locals_ok
        and every_cut_ok
        and nonlocal_entropy >= 0.01
        and nonlocal_entropy == pytest.approx(PINNED_ENTANGLEMENT, rel=PIN_RTOL)
    )
    report_line(
        7,
        "local kinds generate no entanglement, operator-nonlocal does",
        ok,
        f"operator_nonlocal_entropy={nonlocal_entropy:.4f}",
    )


def test_criterion_8_infrastructure_invariants(tmp_path):
    # norm drift over 1e4 random unitary steps
    rng = np.random.default_rng(2024)
    psi = random_state(6, rng)
    worst_drift = 0.0
    for k in range(10**4):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r_ = np.linalg.qr(m)
        u1 = q * (np.diag(r_) / np.abs(np.diag(r_)))
        if k % 4 == 3:
            m4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q4, r4 = np.linalg.qr(m4)
            u4 = q4 * (np.diag(r4) / np.abs(np.diag(r4)))
            a, b = rng.choice(6, size=2, replace=False)
            psi = apply_gate(psi, u4, (int(a), int(b)))
        else:
            psi = apply_gate(psi, u1, (int(rng.integers(6)),))
        worst_drift = max(worst_drift, abs(float(np.linalg.norm(psi.amplitudes)) - 1.0))
    norm_ok = worst_drift <= 1e-12

    # disjoint-support lemma, exhaustively for n*T <= 10
    disjoint_ok = True
    for n in range(1, 11):
        for t in range(1, 11):
            if n * t > 10:
                continue
            for surfaces, _ in surface_levels(n, t):
                for s in surfaces:
                    for d1, d2 in itertools.combinations(enabled_deformations(s), 2):
                        if set(deformation_sites(d1)) & set(deformation_sites(d2)):
                            disjoint_ok = False

    counts_ok = count_foliations(2, 1) == 2 and all(
        count_foliations(1, t) == 1 for t in (1, 4, 9)
    )

    # byte-identical reports for repeated seeded runs
    cfgfile = tmp_path / "acc.cfg"
    cfgfile.write_text("experiment = sweep\nn_sites = 4\nhorizon = 3\nn_foliations = 10\nseed = 42\n")
    blobs = []
    for sub in ("one", "two"):
        cfg = parse_config(str(cfgfile), {"out": str(tmp_path / sub)})
        assert run(cfg) == 0
        blobs.append(
            (tmp_path / sub / "sweep.report").read_bytes()
            + (tmp_path / sub / "sweep.rows").read_bytes()
        )
    bytes_ok = blobs[0] == blobs[1]

    report_line(
        8,
        "infrastructure invariants (norm drift, disjointness, counts, reproducibility)",
        norm_ok and disjoint_ok and counts_ok and bytes_ok,
        f"norm_drift={worst_drift:.2e} disjoint={disjoint_ok} counts={counts_ok} bytes={bytes_ok}",
    )
