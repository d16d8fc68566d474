"""Experiment-level behavior: verdicts, controls, determinism, consistency."""

import ast
import importlib
import itertools
import math
import sys
import tracemalloc
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from reference import random_state, random_unitary

from tslattice import dynamics, experiments, quantum_core
from tslattice.dynamics import (
    BASE_OPERATORS,
    NONLINEARITY_KINDS,
    REMOTE_SITE_FIELDS,
    ModelConfig,
    NonlinearitySpec,
    TrajectoryRecord,
    compose_map,
    evolve,
    linear_config,
    ts_step,
)
from tslattice.experiments import (
    BREAKAGE_FLOOR,
    COVARIANT_SWAP_BOUND,
    COVARIANT_SWEEP_BOUND,
    LINEAR_SWEEP_BOUND,
    SUPERPOSITION_FLOOR,
    SUPERPOSITION_LINEAR_BOUND,
    ExperimentReport,
    _fmt_deformation,
    _swap_scans,
    check_sweep_foliations,
    default_initial_state,
    degeneracy_experiment,
    entanglement_monitor,
    foliation_sweep,
    integrability_check,
    map_nonlinearity_check,
    signaling_experiment,
    verdict_from,
)
from tslattice.quantum_core import SiteOperator, StateVector, expectation, plus_state, state_distance, zero_state
from tslattice.spacetime import (
    LinkApply,
    SiteAdvance,
    canonical_foliation,
    enabled_deformations,
    initial_surface,
    random_foliation,
    surface_levels,
)

# The linear model (every kind at lambda = 0) and each kind at lambda = 0.5.
MODELS = [("local", 0.0), ("local", 0.5), ("coefficient_nonlocal", 0.5), ("operator_nonlocal", 0.5)]
MODEL_IDS = ["linear", "local", "coefficient_nonlocal", "operator_nonlocal"]


def cfg_with(kind="local", lam=0.5, n_sites=4, horizon=3, **kw):
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


def dense_coevolved_expectations(cfg, foliation, probe):
    """<phi|O|phi> with phi = compose_map(record[:k])^dag psi_k as a dense matrix."""
    psi = default_initial_state(cfg)
    surface = initial_surface(cfg.n_sites, cfg.horizon)
    probe_op = SiteOperator(BASE_OPERATORS[cfg.base_operator], probe)
    steps = []
    want = []
    for d in foliation.steps:
        psi, surface, entry = ts_step(psi, surface, d, cfg)
        steps.append(entry)
        u = compose_map(TrajectoryRecord(tuple(steps), cfg.n_sites))
        want.append(expectation(StateVector(u.conj().T @ psi.amplitudes, cfg.n_sites), probe_op))
    return np.array(want)


class TestVerdictLogic:
    def test_pure_function_of_metrics(self):
        metrics = (("a", 0.5), ("b", 2.0))
        assert verdict_from(metrics, (("a", "<=", 1.0), ("b", ">=", 1.0))) == "pass"
        assert verdict_from(metrics, (("a", "<=", 0.1),)) == "fail"
        assert verdict_from(metrics, (("b", ">=", 3.0),)) == "fail"

    def test_non_finite_metric_fails(self):
        assert verdict_from((("a", float("nan")),), (("a", "<=", 1.0),)) == "fail"


class TestIntegrabilityCheck:
    def test_local_kind_exact(self):
        r = integrability_check(cfg_with("local"), exploration_budget=10000)
        assert r.verdict == "pass"
        assert r.metric("max_swap_residue") <= 1e-12
        assert r.metric("exhaustive") == 1.0

    def test_linear_model_exact(self):
        r = integrability_check(cfg_with("local", lam=0.0), exploration_budget=10000)
        assert r.metric("max_swap_residue") <= 1e-13

    def test_coefficient_nonlocal_violates(self):
        r = integrability_check(cfg_with("coefficient_nonlocal"), exploration_budget=10000)
        assert r.verdict == "pass"  # verdict expects breakage for nonlocal kinds
        assert r.metric("max_swap_residue") >= 1e-3

    def test_budget_limits_exploration(self):
        r = integrability_check(cfg_with("local"), exploration_budget=5)
        assert r.metric("surfaces_visited") <= 5
        assert r.metric("exhaustive") == 0.0

    @pytest.mark.parametrize("budget", [0, -5])
    def test_rejects_budget_below_one(self, budget):
        with pytest.raises(ValueError, match=rf"^exploration_budget must be >= 1, got {budget}$"):
            integrability_check(cfg_with("local"), exploration_budget=budget)

    def test_witness_row_present(self):
        r = integrability_check(cfg_with("coefficient_nonlocal"), exploration_budget=10000)
        assert len(r.details) == 1
        assert r.details[0][3] == r.metric("max_swap_residue")


def reference_swap_scan(config, budget):
    """Order-swap BFS that takes all four steps of every pair afresh with ts_step.

    Returns the scan's five results and, as a sixth, every pair's row
    (surface heights, first, second, residue) in scan order.
    """
    surface = initial_surface(config.n_sites, config.horizon)
    seen = {surface}
    queue = deque([(surface, default_initial_state(config))])
    max_residue, witness, visited, pairs = 0.0, ("", "", "", 0.0), 0, 0
    rows = []
    while queue and visited < budget:
        s, psi = queue.popleft()
        visited += 1
        enabled = enabled_deformations(s)
        for d1, d2 in itertools.combinations(enabled, 2):
            psi_a, s_a, _ = ts_step(psi, s, d1, config)
            psi_ab, s_ab, _ = ts_step(psi_a, s_a, d2, config)
            psi_b, s_b, _ = ts_step(psi, s, d2, config)
            psi_ba, s_ba, _ = ts_step(psi_b, s_b, d1, config)
            assert s_ab == s_ba
            r = state_distance(psi_ab, psi_ba)
            pairs += 1
            row = (" ".join(map(str, s.heights)), _fmt_deformation(d1), _fmt_deformation(d2), r)
            rows.append(row)
            if r > max_residue:
                max_residue = r
                witness = row
        for d in enabled:
            nxt_state, nxt_surface, _ = ts_step(psi, s, d, config)
            if nxt_surface not in seen:
                seen.add(nxt_surface)
                queue.append((nxt_surface, nxt_state))
    return max_residue, witness, visited, pairs, not queue, rows


def per_config(scans):
    """Each config's (residue, witness, visited, pairs, exhausted) from one ``_swap_scans`` result."""
    results, *shared = scans
    return [(residue, witness, *shared) for residue, witness in results]


def swap_scan(config, budget):
    return per_config(_swap_scans((config,), budget))[0]


def assert_scan_matches_reference(got, want):
    """Counts exactly; residues within 1e-14; the witness wherever it has no rival within 1e-14."""
    residue, witness, visited, pairs, exhausted = got
    want_residue, want_witness, want_visited, want_pairs, want_exhausted, rows = want
    assert (visited, pairs, exhausted) == (want_visited, want_pairs, want_exhausted)
    assert residue == pytest.approx(want_residue, rel=0, abs=1e-14)
    assert witness[3] == residue
    rivals = [row[:3] for row in rows if row[3] >= want_residue - 1e-14]
    if want_residue <= 1e-14:
        rivals.append(("", "", ""))  # the empty witness: no pair above 0
    assert witness[:3] in rivals
    if len(rivals) == 1:
        assert witness[:3] == want_witness[:3]


def count_calls(monkeypatch, calls, module, name):
    """Patch ``module.name`` to add one to ``calls[name]`` on each call."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestSwapScanSharedLegs:
    @pytest.mark.parametrize("kind, lam", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("n_sites,horizon", [(2, 3), (3, 2), (4, 3)])
    @pytest.mark.parametrize("budget", [7, 10000])
    def test_matches_four_step_reference(self, kind, lam, n_sites, horizon, budget):
        cfg = cfg_with(kind, lam=lam, n_sites=n_sites, horizon=horizon)
        got = swap_scan(cfg, budget)
        assert_scan_matches_reference(got, reference_swap_scan(cfg, budget))
        assert got[4] == (budget == 10000)

    @pytest.mark.parametrize("kind, lam", MODELS, ids=MODEL_IDS)
    def test_every_budget_matches_reference(self, kind, lam):
        # 26 surfaces in 9 levels of widths 1, 2, 3, 4, 4, 4, 4, 3, 1, so most
        # budgets cut a level part-way.
        cfg = cfg_with(kind, lam=lam, n_sites=3, horizon=2)
        total = sum(len(surfaces) for surfaces, _ in surface_levels(3, 2))
        assert total == 26
        for budget in range(1, total + 2):
            got = swap_scan(cfg, budget)
            assert_scan_matches_reference(got, reference_swap_scan(cfg, budget))
            assert got[2] == min(budget, total)
            assert got[4] == (budget >= total)

    @pytest.mark.parametrize("budget", [5, 10000])
    def test_one_walk_serves_each_config_as_its_own_scan(self, budget):
        cfgs = [cfg_with(kind, lam=lam, n_sites=4, horizon=3) for kind, lam in MODELS]
        assert per_config(_swap_scans(cfgs, budget)) == [swap_scan(cfg, budget) for cfg in cfgs]

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    @pytest.mark.parametrize("budget", [100, 10000])
    def test_control_beside_its_config_scans_as_each_alone(self, kind, budget):
        # 100 cuts the level of surfaces 85-115 part-way; 10000 is exhaustive.
        cfg = cfg_with(kind, n_sites=5, horizon=4)
        pair = (linear_config(cfg), cfg)
        assert per_config(_swap_scans(pair, budget)) == [swap_scan(c, budget) for c in pair]

    @pytest.mark.parametrize("kind, shared", [("local", True), ("coefficient_nonlocal", False)])
    def test_leg_sets_are_grouped_once_per_group_key(self, monkeypatch, kind, shared):
        # The linear model and local group alike, so one grouping serves both
        # scans; coefficient_nonlocal's reading sites key on the source's height.
        calls = {"_row_groups": 0, "ts_step_batch": 0}
        count_calls(monkeypatch, calls, experiments, "_row_groups")
        count_calls(monkeypatch, calls, dynamics, "_row_groups")
        count_calls(monkeypatch, calls, experiments, "ts_step_batch")
        integrability_check(cfg_with(kind, n_sites=5, horizon=4), exploration_budget=1000)
        assert calls["ts_step_batch"] > 0
        assert calls["_row_groups"] * (2 if shared else 1) == calls["ts_step_batch"]

    @pytest.mark.parametrize("block", [1, 64, 1 << 10])
    def test_chunked_levels_match_whole_levels(self, monkeypatch, block):
        # At block 1 every chunk is one surface; larger blocks cut levels elsewhere.
        cfg = cfg_with("coefficient_nonlocal", n_sites=4, horizon=3)
        monkeypatch.setattr(experiments, "_SWAP_BLOCK", block)
        assert_scan_matches_reference(swap_scan(cfg, 10000), reference_swap_scan(cfg, 10000))

    @pytest.mark.parametrize("control", [False, True], ids=["alone", "beside_control"])
    def test_peak_memory_is_chunked_at_eight_sites(self, control):
        # The widest of the 24 levels at n = 8, horizon 2 holds 624 surfaces
        # and 15,236 first and second legs of 256 amplitudes: 60 MiB as one
        # stack. Chunks of 2^18 amplitudes keep every stack at 4 MiB, and
        # the scan holds two levels of the surface graph at a time. Beside
        # the lambda = 0 control, as in integrability_check, a chunk's stacks
        # are held for one config at a time.
        cfg = cfg_with("local", n_sites=8, horizon=2)
        configs = (linear_config(cfg), cfg) if control else (cfg,)
        widths = [len(surfaces) for surfaces, _ in surface_levels(8, 2)]
        widest = widths.index(max(widths))
        budget = sum(widths[: widest + 1])
        assert (max(widths), budget) == (624, 3209)
        tracemalloc.start()
        try:
            _, visited, _, _ = _swap_scans(configs, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert visited == budget
        assert peak < 32 << 20


class TestFoliationSweep:
    def test_local_kind_covariant(self):
        r = foliation_sweep(cfg_with("local"), n_foliations=10, seed=7)
        assert r.verdict == "pass"
        assert r.metric("max_pairwise_distance") <= 1e-10
        assert r.metric("control_max_pairwise_distance") <= 1e-11

    def test_nonlocal_kinds_diverge(self):
        for kind in ("coefficient_nonlocal", "operator_nonlocal"):
            r = foliation_sweep(cfg_with(kind), n_foliations=10, seed=7)
            assert r.verdict == "pass"
            assert r.metric("max_pairwise_distance") >= 1e-3

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 6),
        horizon=st.integers(1, 4),
        base=st.sampled_from(["x", "y"]),
        lam=st.just(0.0) | st.floats(-2, 2),
        mu=st.floats(-2, 2),
        link_coupling=st.floats(-2, 2),
        omega=st.floats(0, 3),
        dt=st.floats(0.01, 0.5),
        seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=2, unique=True),
    )
    def test_two_random_foliations_reach_one_state(
        self, n, horizon, base, lam, mu, link_coupling, omega, dt, seeds
    ):
        cfg = ModelConfig(
            n_sites=n, horizon=horizon, omega=omega, mu=mu, link_coupling=link_coupling, dt=dt,
            base_operator=base, nonlinearity=NonlinearitySpec(kind="local", lam=lam),
        )
        psi0 = default_initial_state(cfg)
        for config, bound in ((cfg, COVARIANT_SWEEP_BOUND), (linear_config(cfg), LINEAR_SWEEP_BOUND)):
            a, b = (evolve(psi0, random_foliation(n, horizon, seed), config)[0] for seed in seeds)
            assert state_distance(a, b) <= bound

    def test_detail_rows_cover_all_foliations(self):
        r = foliation_sweep(cfg_with("local"), n_foliations=5, seed=1)
        assert len(r.details) == 7  # 2 canonical + 5 random
        labels = [row[0] for row in r.details]
        assert labels[0] == "canonical-synchronous"
        assert labels[1] == "canonical-staircase"
        # Random foliation k is drawn with seed + k; the canonical ones have none.
        assert [row[1] for row in r.details] == ["", "", "1", "2", "3", "4", "5"]

    @pytest.mark.parametrize("kind", ["coefficient_nonlocal", "operator_nonlocal"])
    def test_canonical_foliations_alone_are_rejected_where_breakage_is_expected(self, kind):
        # Both canonical foliations are time-ordered: they reach one state.
        with pytest.raises(ValueError, match="n_foliations = 0 needs a replayed foliation"):
            check_sweep_foliations(cfg_with(kind), 0, None)
        with pytest.raises(ValueError, match="n_foliations = 0 needs a replayed foliation"):
            foliation_sweep(cfg_with(kind), n_foliations=0)

    @pytest.mark.parametrize(
        "kind, lam", [("local", 0.0), ("local", 0.5), ("coefficient_nonlocal", 0.0), ("operator_nonlocal", 0.0)]
    )
    def test_canonical_foliations_alone_suffice_where_covariance_is_expected(self, kind, lam):
        r = foliation_sweep(cfg_with(kind, lam=lam), n_foliations=0)
        assert r.metric("n_foliations_total") == 2.0
        assert r.verdict == "pass"

    @pytest.mark.parametrize("kind", ["coefficient_nonlocal", "operator_nonlocal"])
    def test_a_replayed_foliation_stands_in_for_the_random_ones(self, kind):
        r = foliation_sweep(cfg_with(kind), n_foliations=0, extra_foliation=random_foliation(4, 3, 4))
        assert [row[0] for row in r.details][2:] == ["replayed"]
        assert r.verdict == "pass"

    def test_consistency_with_swap_residue(self):
        # Path independence follows from pairwise swaps: the sweep divergence
        # is bounded by foliation length times the worst swap residue.
        cfg = cfg_with("local")
        sweep = foliation_sweep(cfg, n_foliations=10, seed=3)
        swaps = integrability_check(cfg, exploration_budget=10000)
        from tslattice.spacetime import foliation_length

        length = foliation_length(cfg.n_sites, cfg.horizon)
        bound = length * swaps.metric("max_swap_residue") + 1e-10
        assert sweep.metric("max_pairwise_distance") <= bound


class TestSignalingExperiment:
    def test_nonlinear_signal_with_controls(self):
        cfg = cfg_with("local", n_sites=5, horizon=3)
        r = signaling_experiment(cfg)
        assert r.verdict == "pass"
        assert r.metric("signal") > 10 * 1e-12
        assert r.metric("control_lambda0_signal") <= 1e-12
        assert r.metric("control_product_signal") <= 1e-12

    def test_zero_coupling_no_signal(self):
        cfg = cfg_with("local", lam=0.0, n_sites=5, horizon=3)
        r = signaling_experiment(cfg)
        assert r.metric("signal") <= 1e-12
        assert r.verdict == "pass"

    def test_branch_probabilities_sum_to_one(self):
        r = signaling_experiment(cfg_with("local", n_sites=5, horizon=3))
        probs = {}
        for row in r.details:
            setting = row[0][0]
            probs[setting] = probs.get(setting, 0.0) + row[1]
        for total in probs.values():
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("setting", ["Z", "X"])
    def test_branches_are_the_sign_projections_of_the_pauli(self, setting):
        # (I - P) / 2 first, then (I + P) / 2; each collapsed state is an
        # eigenvector of P at Alice's site with its outcome's sign.
        field = SiteOperator(BASE_OPERATORS[setting.lower()], 1)
        psi = random_state(3, np.random.default_rng(5))
        branches = experiments._measurement_branches(psi, 1, setting)
        assert [label for label, _, _ in branches] == [setting + "-", setting + "+"]
        assert sum(p for _, p, _ in branches) == pytest.approx(1.0, rel=0, abs=1e-14)
        for (_, p, branch), sign in zip(branches, (-1.0, 1.0)):
            assert expectation(branch, field) == pytest.approx(sign, rel=0, abs=1e-14)
            assert p == pytest.approx((1 + sign * expectation(psi, field)) / 2, rel=0, abs=1e-14)
        # On P's +1 eigenstate, (I - P) / 2 leaves zeros: one branch.
        eigenstate = {"Z": zero_state, "X": plus_state}[setting](3)
        assert [label for label, _, _ in experiments._measurement_branches(eigenstate, 1, setting)] == [setting + "+"]

    def test_rejects_coincident_sites(self):
        with pytest.raises(ValueError, match="distinct"):
            signaling_experiment(cfg_with("local"), alice_site=1, bob_site=1)

    @pytest.mark.parametrize("n_sites, horizon", [(6, 5), (6, 6), (7, 6), (8, 7)])
    def test_rejects_bob_inside_light_cone(self, n_sites, horizon):
        # alice = 0, bob = n - 1 within the horizon: the lambda = 0 control
        # would read an ordinary causal signal (9.05e-3 at n = 6, T = 5).
        with pytest.raises(ValueError, match=r"\|alice_site - bob_site\| > horizon"):
            signaling_experiment(cfg_with("local", n_sites=n_sites, horizon=horizon))

    def test_rejects_explicit_sites_inside_light_cone(self):
        with pytest.raises(ValueError, match="horizon"):
            signaling_experiment(cfg_with("local", n_sites=8, horizon=3), alice_site=5, bob_site=2)

    def test_just_outside_light_cone_passes(self):
        r = signaling_experiment(cfg_with("local", n_sites=8, horizon=6))
        assert r.verdict == "pass"
        assert r.metric("control_lambda0_signal") <= 1e-12

    def test_embeds_foliation_serialization(self):
        r = signaling_experiment(cfg_with("local", n_sites=5, horizon=3))
        assert r.foliation_text is not None
        assert r.foliation_text.startswith(("A ", "G "))


class TestDegeneracyExperiment:
    def test_coevolved_expectation_frozen(self):
        r = degeneracy_experiment(cfg_with("local"))
        assert r.verdict == "pass"
        assert r.metric("coevolved_drift") <= 1e-10
        assert r.metric("interaction_picture_variation") >= 0.05

    def test_zero_coupling_control(self):
        r = degeneracy_experiment(cfg_with("local"))
        assert r.metric("control_coevolved_drift") <= 1e-13
        assert r.metric("control_interaction_picture_variation") <= 1e-13

    def test_rejects_oversized_lattice(self):
        cfg = ModelConfig(n_sites=11, horizon=1)
        with pytest.raises(ValueError, match="<= 10"):
            degeneracy_experiment(cfg)

    @pytest.mark.parametrize(
        "base, omega, reason", [("z", 1.0, "base_operator z"), ("z", 0.0, "base_operator z"), ("x", 0.0, "omega = 0")]
    )
    def test_rejects_a_blind_probe(self, base, omega, reason):
        cfg = cfg_with("local", base_operator=base, omega=omega)
        with pytest.raises(ValueError, match=f"^{reason} makes the probe field commute with every generator"):
            degeneracy_experiment(cfg)

    def test_detail_rows_track_every_step(self):
        cfg = cfg_with("local", n_sites=3, horizon=2)
        r = degeneracy_experiment(cfg)
        from tslattice.spacetime import foliation_length

        assert len(r.details) == foliation_length(3, 2) + 1

    @pytest.mark.parametrize("n_sites", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind, lam", MODELS, ids=MODEL_IDS)
    def test_coevolved_rows_match_dense_composed_map(self, kind, lam, n_sites):
        horizon = 3
        cfg = cfg_with(kind, lam=lam, n_sites=n_sites, horizon=horizon)
        probe = n_sites // 2
        foliations = [
            canonical_foliation(n_sites, horizon, "synchronous"),
            canonical_foliation(n_sites, horizon, "staircase"),
            random_foliation(n_sites, horizon, 5),
            random_foliation(n_sites, horizon, 6),
        ]
        for fol in foliations:
            r = degeneracy_experiment(cfg, foliation=fol)
            want = dense_coevolved_expectations(cfg, fol, probe)
            assert np.max(np.abs([row[3] for row in r.details[1:]] - want)) <= 1e-12

    @pytest.mark.parametrize("batch", [1, 2, 3, 5])
    def test_batched_walk_matches_dense_composed_map(self, batch, monkeypatch):
        # Batches of 3 and 5 steps pad the block to 4 and 8 columns; with 21
        # steps, batches of 2 and 5 leave a one-step last batch.
        cfg = cfg_with("local", n_sites=5, horizon=3)
        fol = random_foliation(5, 3, 7)
        assert len(fol.steps) == 21
        monkeypatch.setattr(experiments, "_COEVOLVE_BLOCK", batch << 5)
        r = degeneracy_experiment(cfg, foliation=fol)
        want = dense_coevolved_expectations(cfg, fol, 2)
        assert np.max(np.abs([row[3] for row in r.details[1:]] - want)) <= 1e-12

    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 8])
    def test_coevolved_walk_matches_one_vector_at_a_time(self, batch):
        # Random gates and states, so every row has its own expectation and a
        # misordered or misrouted column shows. Each batch walks its own
        # gates, then the fused blocks of the batches before it, whose
        # gates include adjacent pairs and pairs further apart than a window.
        n, n_gates = 6, 20
        rng = np.random.default_rng(batch)
        pairs = [(0, 1), (5, 0), (2, 3), (1, 5), (4, 3), (0, 4)]
        adjoints = []
        for j in range(n_gates):
            sites = (j % n,) if j % 3 == 0 else pairs[j % len(pairs)]
            adjoints.append((random_unitary(1 << len(sites), rng), sites))
        states = [rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n) for _ in range(n_gates)]
        base = BASE_OPERATORS["x"]
        got, fused = [], []
        for lo in range(0, n_gates, batch):
            hi = min(lo + batch, n_gates)
            got += experiments._coevolved_expectations(states[lo:hi], adjoints[lo:hi], fused, base, 1, n)
            fused = dynamics._blocks(reversed(adjoints[lo:hi]), dynamics._WINDOW) + fused
        registers = {sites for _, sites in fused}
        assert any(len(sites) > 1 and sites[-1] - sites[0] >= dynamics._WINDOW for sites in registers)
        assert any(len(sites) > 1 and sites[-1] - sites[0] < dynamics._WINDOW for sites in registers)
        want = []
        for k, psi in enumerate(states):
            for u_dag, sites in reversed(adjoints[: k + 1]):
                psi = dynamics.apply_gate(psi, u_dag, sites, n)
            want.append(np.vdot(psi, dynamics.apply_gate(psi, base, (1,), n)).real)
        assert len(set(np.round(want, 6))) == n_gates
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12

    @pytest.mark.parametrize("n_sites, horizon, seed, calls", [(10, 4, 21, 141), (6, 64, None, 636)])
    def test_walk_kernel_calls_are_pinned(self, monkeypatch, n_sites, horizon, seed, calls):
        # One kernel call per gate of the open batch, per fused block of the
        # batches before it, and one expectation per batch. A walk over every
        # earlier gate made 290 calls on the seed 21 record (N = 10, T = 4),
        # and 1829 on the 544 synchronous steps at N = 6, T = 64.
        cfg = cfg_with("local", n_sites=n_sites, horizon=horizon)
        if seed is None:
            fol = canonical_foliation(n_sites, horizon, "synchronous")
        else:
            fol = random_foliation(n_sites, horizon, seed)
        made = []
        kernel = experiments.apply_gate
        monkeypatch.setattr(experiments, "apply_gate", lambda *args: made.append(1) or kernel(*args))
        experiments._degeneracy_metrics(cfg, fol, n_sites // 2)
        assert len(made) == calls

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("local", {"link_coupling": 0.0}),
            ("coefficient_nonlocal", {"mu": 0.0, "source_site": 1}),
            ("operator_nonlocal", {"mu": 0.0, "partner_site": 1}),
        ],
        ids=["local-J0", "coefficient_nonlocal-mu0", "operator_nonlocal-mu0"],
    )
    def test_zero_angle_steps_match_dense_composed_map(self, kind, extra):
        # J = 0 makes every link gate the identity; mu = 0 makes the remote
        # site's own (linear) advance the identity, between steps that are not.
        cfg = cfg_with(kind, n_sites=5, horizon=3, **extra)
        fol = random_foliation(5, 3, 8)
        _, record = evolve(default_initial_state(cfg), fol, cfg)
        identities = [step.unitary is dynamics._identity(len(step.unitary)) for step in record.steps]
        assert any(identities) and not all(identities)
        r = degeneracy_experiment(cfg, foliation=fol)
        want = dense_coevolved_expectations(cfg, fol, 2)
        assert np.max(np.abs([row[3] for row in r.details[1:]] - want)) <= 1e-12

    def test_all_zero_control_walks_no_gate(self, monkeypatch):
        # The control's every step is a zero-angle rotation: no step, block
        # or walk applies one, and each batch takes only its expectation.
        cfg = cfg_with("local", n_sites=10, horizon=4)
        frozen = replace(cfg, omega=0.0, mu=0.0, link_coupling=0.0, nonlinearity=replace(cfg.nonlinearity, lam=0.0))
        fol = random_foliation(10, 4, 21)
        base = BASE_OPERATORS[cfg.base_operator]
        walked, stepped = [], []
        walk, step = experiments.apply_gate, dynamics.apply_gate
        monkeypatch.setattr(experiments, "apply_gate", lambda amps, u, *rest: walked.append(u) or walk(amps, u, *rest))
        monkeypatch.setattr(dynamics, "apply_gate", lambda *args: stepped.append(1) or step(*args))
        drift, variation, rows = experiments._degeneracy_metrics(frozen, fol, 5)
        assert stepped == []
        assert len(walked) == -(-len(fol.steps) // 8) and all(u is base for u in walked)
        assert len(rows) == len(fol.steps) + 1
        assert drift <= 1e-15 and variation == 0.0

    def test_peak_memory_has_no_dense_map(self):
        # A 2^10 x 2^10 complex map is 16 MiB; the walk over the recorded
        # gates holds a batch of eight 2^10-amplitude vectors (128 KiB).
        cfg = cfg_with("local", n_sites=10, horizon=2)
        degeneracy_experiment(cfg)  # warm caches outside the traced region
        tracemalloc.start()
        try:
            degeneracy_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMapNonlinearityCheck:
    def test_unitary_map_nonlinear_state(self):
        r = map_nonlinearity_check(cfg_with("local"))
        assert r.verdict == "pass"
        assert r.metric("unitarity_defect") <= 1e-10
        assert r.metric("superposition_defect") >= 1e-3
        assert r.metric("compose_consistency") <= 1e-10
        assert r.metric("control_superposition_defect") <= 1e-12

    def test_zero_coupling_is_linear(self):
        r = map_nonlinearity_check(cfg_with("local", lam=0.0))
        assert r.verdict == "pass"
        assert r.metric("superposition_defect") <= 1e-12

    @pytest.mark.parametrize("kind, lam", MODELS, ids=MODEL_IDS)
    def test_superposition_bound_follows_whether_the_kind_reads_the_state(self, kind, lam):
        # The linear model and operator_nonlocal step by fixed gates, so their
        # state map is linear; the other two read the state and are not.
        r = map_nonlinearity_check(cfg_with(kind, lam=lam))
        reads = lam != 0.0 and kind in ("local", "coefficient_nonlocal")
        want = (">=", 1e-3) if reads else ("<=", 1e-12)
        assert ("superposition_defect", *want) in r.thresholds
        assert r.verdict == "pass"

    @pytest.mark.parametrize("base", ["x", "y"])
    @pytest.mark.parametrize("n_sites, source", [(n, j) for n in (4, 5, 6) for j in range(n)])
    def test_superposition_breaks_from_every_source_site(self, n_sites, source, base):
        # The probes differ at the source, the site every other step reads;
        # differing at site 0 alone, they would look alike to a read of a far
        # site until the light cone of site 0 reaches it.
        cfg = cfg_with(
            "coefficient_nonlocal", n_sites=n_sites, horizon=4, source_site=source, base_operator=base
        )
        r = map_nonlinearity_check(cfg)
        assert r.metric("superposition_defect") >= SUPERPOSITION_FLOOR
        assert r.verdict == "pass"
        if (n_sites, source, base) == (6, 5, "x"):
            # The command line's defaults with source_site = 5; with the
            # probes differing at site 0 the defect was 7.1e-16.
            assert r.metric("superposition_defect") == pytest.approx(0.3176, abs=1e-4)


class TestUnitarityDefect:
    """The row-blocked max|u^dag u - I| against the whole dense expression."""

    @staticmethod
    def dense(u):
        return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("block", [1, 3, 16, 128])
    def test_matches_dense_expression(self, monkeypatch, n, block):
        monkeypatch.setattr(dynamics, "_DEFECT_BLOCK", block)
        rng = np.random.default_rng(700 + n)
        u = random_unitary(2**n, rng)
        # Each entry of u^dag u near 1 carries rounding of order 1e-16.
        for m in (u, u + 1e-6 * rng.standard_normal(u.shape)):
            for workers in (1, 2):
                monkeypatch.setattr(dynamics, "_workers", lambda w=workers: w)
                assert dynamics._unitarity_defect(m) == pytest.approx(self.dense(m), rel=0, abs=1e-15)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("entry", [(3, 3), (200, 7)])
    def test_nan_entry_is_nan(self, monkeypatch, entry, workers):
        # max(0.0, nan) is 0.0, so a running max() over the blocks would let
        # a NaN map pass unitarity_defect <= 1e-10.
        monkeypatch.setattr(dynamics, "_workers", lambda: workers)
        u = np.eye(256, dtype=complex)
        u[entry] = np.nan
        defect = dynamics._unitarity_defect(u)
        assert math.isnan(defect)
        metrics = (("unitarity_defect", defect),)
        assert verdict_from(metrics, (("unitarity_defect", "<=", 1e-10),)) == "fail"

    @pytest.mark.parametrize("n", [9, 10])
    def test_same_for_every_worker_count(self, monkeypatch, n):
        rng = np.random.default_rng(720 + n)
        u = random_unitary(1 << n, rng) + 1e-9 * rng.standard_normal((1 << n, 1 << n))
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(dynamics, "_workers", lambda w=workers: w)
            got.append(dynamics._unitarity_defect(u))
        assert got[0] > 1e-9
        assert got == [got[0]] * 3

    @staticmethod
    def block_edges(dim):
        """The corners of every row block's strip of the upper triangle, (0, dim - 1) among them.

        Rows a..b-1 form columns a..dim-1: the first and last row, each from
        its diagonal entry and at the last column.
        """
        edges = set()
        for a in range(0, dim, dynamics._DEFECT_BLOCK):
            b = min(a + dynamics._DEFECT_BLOCK, dim)
            edges.update({(a, a), (a, dim - 1), (b - 1, b - 1), (b - 1, dim - 1)})
        return sorted(edges)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 10])
    def test_every_block_edge_is_formed(self, monkeypatch, n, workers):
        # One planted defect at a time: 1e-9 off the diagonal of the
        # identity (u^dag u then differs from I by 1e-9 at that entry and its
        # mirror), or a last diagonal entry of sqrt(1 + 1e-9). A block left
        # out, or one cut short of a row or a column, misses it and reads 0.
        # The maps are real: which entries the blocks form does not depend on
        # the dtype, and a real product takes a quarter of the time.
        monkeypatch.setattr(dynamics, "_workers", lambda: workers)
        dim = 1 << n
        u = np.eye(dim)
        edges = self.block_edges(dim)
        assert (0, dim - 1) in edges and (dim - 1, dim - 1) in edges
        for row, col in edges:
            planted = np.sqrt(1 + 1e-9) if row == col else 1e-9
            u[row, col] = planted
            assert dynamics._unitarity_defect(u) == pytest.approx(1e-9, rel=1e-6)
            u[row, col] = float(row == col)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_at_ten_sites(self, monkeypatch, workers):
        # The dense expression holds four 16 MiB arrays at once at n = 10; a
        # block of 64 rows holds a 1 MiB product and a 1 MiB column copy, on
        # each worker, and drops them before the next block (2.0 MiB traced
        # with one worker, 3.9 MiB with two; 2.9 and 5.6 MiB while the last
        # block's product was kept until the next one was formed).
        monkeypatch.setattr(dynamics, "_workers", lambda: workers)
        u = random_unitary(1 << 10, np.random.default_rng(710))
        want = self.dense(u)
        tracemalloc.start()
        try:
            got = dynamics._unitarity_defect(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(want, rel=0, abs=1e-15)
        assert peak < workers * (9 << 18)  # 2.25 MiB a worker


class TestEntanglementMonitor:
    def test_local_kinds_generate_nothing(self):
        r = entanglement_monitor(cfg_with("local", n_sites=4, horizon=3))
        assert r.verdict == "pass"
        for kind in ("none", "local", "coefficient_nonlocal"):
            assert r.metric(f"max_entropy_{kind}") <= 1e-12

    def test_operator_nonlocal_entangles_across_cut(self):
        r = entanglement_monitor(cfg_with("local", n_sites=4, horizon=3))
        assert r.metric("max_entropy_operator_nonlocal") >= 0.01


class TestReportDeterminism:
    @pytest.mark.parametrize(
        "runner",
        [
            lambda c: integrability_check(c, exploration_budget=200),
            lambda c: foliation_sweep(c, n_foliations=5, seed=11),
            lambda c: signaling_experiment(c),
            lambda c: degeneracy_experiment(c),
            lambda c: map_nonlinearity_check(c),
            lambda c: entanglement_monitor(c),
        ],
        ids=["integrability", "sweep", "signal", "degeneracy", "nonlinearity", "entanglement"],
    )
    def test_identical_reports_for_identical_config(self, runner):
        cfg = cfg_with("local", n_sites=4, horizon=2)
        a, b = runner(cfg), runner(cfg)
        assert a == b

    def test_reports_are_well_formed(self):
        r = foliation_sweep(cfg_with("local"), n_foliations=3, seed=0)
        assert isinstance(r, ExperimentReport)
        assert all(np.isfinite(v) for _, v in r.metrics)
        assert r.verdict in ("pass", "fail")
        assert all(len(row) == len(r.detail_header) for row in r.details)


# Each config's nonlinearity acts nowhere beyond its own site: local with no
# active site, coefficient_nonlocal active only at its source, and
# operator_nonlocal active only at its partner.
MASKED = {
    "local-nowhere": NonlinearitySpec(kind="local", lam=0.5, active_sites=frozenset()),
    "coefficient_nonlocal-at-source": NonlinearitySpec(
        kind="coefficient_nonlocal", lam=0.5, source_site=1, active_sites=frozenset({1})
    ),
    "operator_nonlocal-at-partner": NonlinearitySpec(
        kind="operator_nonlocal", lam=0.5, partner_site=3, active_sites=frozenset({3})
    ),
}


class TestVerdictDirection:
    """Each verdict's direction follows the run's step plans, not the kind's name."""

    @pytest.mark.parametrize("nl", MASKED.values(), ids=MASKED.keys())
    def test_masked_configs_are_covariant_and_linear(self, nl):
        cfg = ModelConfig(n_sites=4, horizon=3, nonlinearity=nl)
        reports = (
            (map_nonlinearity_check(cfg), "superposition_defect"),
            (integrability_check(cfg), "max_swap_residue"),
            (foliation_sweep(cfg, n_foliations=5, seed=3), "max_pairwise_distance"),
        )
        for r, metric in reports:
            assert r.verdict == "pass", r.name
            assert [op for name, op, _ in r.thresholds if name == metric] == ["<="]

    def test_entanglement_at_lambda_zero_expects_none(self):
        r = entanglement_monitor(cfg_with("local", lam=0.0))
        assert r.verdict == "pass"
        assert all(op == "<=" for _, op, _ in r.thresholds)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 4),
        horizon=st.integers(1, 3),
        kind=st.sampled_from(NONLINEARITY_KINDS),
        lam=st.just(0.0) | st.floats(-2, 2),
        dt=st.floats(0.01, 0.5),
        data=st.data(),
    )
    def test_covariant_and_linear_wherever_the_plans_say(self, n, horizon, kind, lam, dt, data):
        # The covariant half of the rule. Its breakage half is left out: at
        # small lambda * dt, breakage falls below BREAKAGE_FLOOR.
        remote = data.draw(st.integers(0, n - 1), label="remote")
        active = data.draw(st.none() | st.frozensets(st.integers(0, n - 1)), label="active_sites")
        nl = NonlinearitySpec(
            kind=kind, lam=lam, source_site=remote, partner_site=remote, active_sites=active
        )
        cfg = ModelConfig(n_sites=n, horizon=horizon, dt=dt, nonlinearity=nl)
        if not experiments._expects_breakage(cfg):
            swaps = integrability_check(cfg, exploration_budget=10**6)
            assert swaps.metric("exhaustive") == 1.0
            assert swaps.metric("max_swap_residue") <= COVARIANT_SWAP_BOUND
            assert swaps.verdict == "pass"
            sweep = foliation_sweep(cfg, n_foliations=3, seed=data.draw(st.integers(0, 2**16)))
            assert sweep.metric("max_pairwise_distance") <= COVARIANT_SWEEP_BOUND
            assert sweep.verdict == "pass"
        if not experiments._reads_state(cfg):
            r = map_nonlinearity_check(cfg)
            assert r.metric("superposition_defect") <= SUPERPOSITION_LINEAR_BOUND
            assert r.verdict == "pass"

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 4),
        horizon=st.integers(2, 3),
        kind=st.sampled_from(sorted(REMOTE_SITE_FIELDS)),
        lam=st.floats(-2, 2),
        dt=st.floats(0.01, 0.5),
        base=st.sampled_from(["x", "y"]),
        data=st.data(),
    )
    def test_broken_wherever_the_plans_reach_out(self, n, horizon, kind, lam, dt, base, data):
        # The breakage half of the rule, where the coupling per step is not
        # small (ROADMAP item 2) and the fields are not diagonal. sweep is
        # left out: a few random foliations can all reach one final state.
        assume(abs(lam) * dt >= 0.01)
        remote = data.draw(st.integers(0, n - 1), label="remote")
        active = data.draw(st.none() | st.frozensets(st.integers(0, n - 1)), label="active_sites")
        nl = NonlinearitySpec(
            kind=kind, lam=lam, source_site=remote, partner_site=remote, active_sites=active
        )
        cfg = ModelConfig(n_sites=n, horizon=horizon, dt=dt, base_operator=base, nonlinearity=nl)
        assume(experiments._expects_breakage(cfg))
        swaps = integrability_check(cfg, exploration_budget=10**6)
        assert swaps.metric("exhaustive") == 1.0
        assert swaps.metric("max_swap_residue") >= BREAKAGE_FLOOR
        assert swaps.verdict == "pass"


class TestLambdaZeroRunsTheLinearStep:
    """At lambda = 0 every site advance takes ``_step_plan``'s linear plan."""

    @pytest.mark.parametrize("kind", ["local", "coefficient_nonlocal"])
    def test_state_reading_kinds_read_no_state(self, monkeypatch, kind):
        # ts_step reads a coefficient by _real_expectation, and each
        # ts_step_batch call by one _real_expectations over its reading rows.
        calls = {"_real_expectation": 0, "_real_expectations": 0, "ts_step_batch": 0}
        count_calls(monkeypatch, calls, dynamics, "_real_expectation")
        count_calls(monkeypatch, calls, dynamics, "_real_expectations")
        count_calls(monkeypatch, calls, experiments, "ts_step_batch")
        for lam in (0.5, 0.0):
            calls.update(dict.fromkeys(calls, 0))
            cfg = cfg_with(kind, lam=lam)
            evolve(default_initial_state(cfg), random_foliation(4, 3, 7), cfg)
            integrability_check(cfg, exploration_budget=50)
            reads = calls["_real_expectation"], calls["_real_expectations"]
            assert calls["ts_step_batch"] > 0
            if lam == 0.0:
                assert reads == (0, 0)
            else:
                assert min(reads) > 0, reads

    def test_operator_nonlocal_steps_one_site(self):
        for lam, width in ((0.5, 2), (0.0, 1)):
            cfg = cfg_with("operator_nonlocal", lam=lam)
            _, record = evolve(default_initial_state(cfg), random_foliation(4, 3, 7), cfg)
            advances = [step for step in record.steps if isinstance(step.deformation, SiteAdvance)]
            # The partner's own advances are one-site at every lambda.
            assert max(len(step.sites) for step in advances) == width

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_control_scan_groups_linear_rows_by_their_own_site(self, monkeypatch, kind):
        # A linear row's gate does not depend on the remote site's height, so
        # the nonlocal kinds' control scan takes the gates of kind local
        # (remote site 4). Only one-site calls count; link gates share the kernel.
        calls = 0
        real = dynamics.apply_gate

        def counted(amps, u, sites, n):
            nonlocal calls
            calls += len(sites) == 1
            return real(amps, u, sites, n)

        # Every module that binds the kernel, so the expectations count too.
        for module in (dynamics, quantum_core):
            monkeypatch.setattr(module, "apply_gate", counted)
        remote = {"source_site": 4} if kind == "coefficient_nonlocal" else {}
        _swap_scans([linear_config(cfg_with(kind, n_sites=5, horizon=4, **remote))], 1000)
        assert calls == 580


def test_fmt_deformation_keeps_its_own_package_classes(monkeypatch):
    # A second copy of the package in sys.modules (tslattice purged and
    # imported again) must not change the class this module's copy tests for.
    for name in [m for m in sys.modules if m == "tslattice" or m.startswith("tslattice.")]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("tslattice.experiments")
    assert sys.modules["tslattice.spacetime"].SiteAdvance is not SiteAdvance
    assert _fmt_deformation(SiteAdvance(2)) == "A2"
    assert _fmt_deformation(LinkApply((0, 1), 3)) == "G0@3"


def test_experiments_reach_gates_and_workers_only_through_dynamics():
    # The experiments call dynamics' gate and map helpers, never the kernels
    # or the worker pool below them.
    tree = ast.parse(Path(experiments.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert "dynamics" in imported and "apply_gate" in imported
    assert not imported & {"_kernels", "tslattice._kernels", "_in_workers"}
    assert not hasattr(experiments, "_DEFECT_BLOCK")
