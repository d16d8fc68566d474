"""Experiment-level behavior: verdicts, controls, determinism, consistency."""

import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tslattice import _kernels, experiments
from tslattice.dynamics import (
    BASE_OPERATORS,
    ModelConfig,
    NonlinearitySpec,
    TrajectoryRecord,
    compose_map,
    evolve,
    linear_config,
    ts_step,
)
from tslattice.experiments import (
    COVARIANT_SWEEP_BOUND,
    LINEAR_SWEEP_BOUND,
    ExperimentReport,
    _fmt_deformation,
    _swap_scans,
    default_initial_state,
    degeneracy_experiment,
    entanglement_monitor,
    foliation_sweep,
    integrability_check,
    map_nonlinearity_check,
    signaling_experiment,
    verdict_from,
)
from tslattice.quantum_core import SiteOperator, StateVector, expectation, state_distance
from tslattice.spacetime import (
    canonical_foliation,
    enabled_deformations,
    initial_surface,
    random_foliation,
    surface_levels,
)

KINDS = ["none", "local", "coefficient_nonlocal", "operator_nonlocal"]


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
        u = compose_map(TrajectoryRecord(tuple(steps), cfg.n_sites), cfg)
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

    def test_linear_kind_exact(self):
        r = integrability_check(cfg_with("none", lam=0.0), exploration_budget=10000)
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


def swap_scan(config, budget):
    return _swap_scans((config,), budget)[0]


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


class TestSwapScanSharedLegs:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_sites,horizon", [(2, 3), (3, 2), (4, 3)])
    @pytest.mark.parametrize("budget", [7, 10000])
    def test_matches_four_step_reference(self, kind, n_sites, horizon, budget):
        cfg = cfg_with(kind, n_sites=n_sites, horizon=horizon)
        got = swap_scan(cfg, budget)
        assert_scan_matches_reference(got, reference_swap_scan(cfg, budget))
        assert got[4] == (budget == 10000)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_budget_matches_reference(self, kind):
        # 26 surfaces in 9 levels of widths 1, 2, 3, 4, 4, 4, 4, 3, 1, so most
        # budgets cut a level part-way.
        cfg = cfg_with(kind, n_sites=3, horizon=2)
        total = sum(len(surfaces) for surfaces, _ in surface_levels(3, 2))
        assert total == 26
        for budget in range(1, total + 2):
            got = swap_scan(cfg, budget)
            assert_scan_matches_reference(got, reference_swap_scan(cfg, budget))
            assert got[2] == min(budget, total)
            assert got[4] == (budget >= total)

    @pytest.mark.parametrize("budget", [5, 10000])
    def test_one_walk_serves_each_config_as_its_own_scan(self, budget):
        cfgs = [cfg_with(kind, n_sites=4, horizon=3) for kind in KINDS]
        assert _swap_scans(cfgs, budget) == [swap_scan(cfg, budget) for cfg in cfgs]

    @pytest.mark.parametrize("block", [1, 64, 1 << 10])
    def test_chunked_levels_match_whole_levels(self, monkeypatch, block):
        # At block 1 every chunk is one surface; larger blocks cut levels elsewhere.
        cfg = cfg_with("coefficient_nonlocal", n_sites=4, horizon=3)
        monkeypatch.setattr(experiments, "_SWAP_BLOCK", block)
        assert_scan_matches_reference(swap_scan(cfg, 10000), reference_swap_scan(cfg, 10000))

    def test_peak_memory_is_chunked_at_eight_sites(self):
        # The widest of the 24 levels at n = 8, horizon 2 holds 624 surfaces
        # and 15,236 first and second legs of 256 amplitudes: 60 MiB as one
        # stack. Chunks of 2^18 amplitudes keep every stack at 4 MiB, and
        # the scan holds two levels of the surface graph at a time.
        cfg = cfg_with("local", n_sites=8, horizon=2)
        widths = [len(surfaces) for surfaces, _ in surface_levels(8, 2)]
        widest = widths.index(max(widths))
        budget = sum(widths[: widest + 1])
        assert (max(widths), budget) == (624, 3209)
        tracemalloc.start()
        try:
            (_, _, visited, _, _), = _swap_scans((cfg,), budget)
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
        kind=st.sampled_from(["none", "local"]),
        base=st.sampled_from(["x", "y"]),
        lam=st.floats(-2, 2),
        mu=st.floats(-2, 2),
        link_coupling=st.floats(-2, 2),
        omega=st.floats(0, 3),
        dt=st.floats(0.01, 0.5),
        seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=2, unique=True),
    )
    def test_two_random_foliations_reach_one_state(
        self, n, horizon, kind, base, lam, mu, link_coupling, omega, dt, seeds
    ):
        cfg = ModelConfig(
            n_sites=n, horizon=horizon, omega=omega, mu=mu, link_coupling=link_coupling, dt=dt,
            base_operator=base, nonlinearity=NonlinearitySpec(kind=kind, lam=lam),
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

    def test_detail_rows_track_every_step(self):
        cfg = cfg_with("local", n_sites=3, horizon=2)
        r = degeneracy_experiment(cfg)
        from tslattice.spacetime import foliation_length

        assert len(r.details) == foliation_length(3, 2) + 1

    @pytest.mark.parametrize("n_sites", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["none", "local", "coefficient_nonlocal", "operator_nonlocal"])
    def test_coevolved_rows_match_dense_composed_map(self, kind, n_sites):
        horizon = 3
        cfg = cfg_with(kind, n_sites=n_sites, horizon=horizon)
        probe = n_sites // 2
        foliations = [
            canonical_foliation(n_sites, horizon, "synchronous"),
            canonical_foliation(n_sites, horizon, "staircase"),
            random_foliation(n_sites, horizon, 5),
            random_foliation(n_sites, horizon, 6),
        ]
        for fol in foliations:
            r = degeneracy_experiment(cfg, probe_site=probe, foliation=fol)
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
        r = degeneracy_experiment(cfg, probe_site=2, foliation=fol)
        want = dense_coevolved_expectations(cfg, fol, 2)
        assert np.max(np.abs([row[3] for row in r.details[1:]] - want)) <= 1e-12

    @pytest.mark.parametrize("n_pending", [1, 2, 3, 5, 8])
    def test_coevolved_walk_matches_one_vector_at_a_time(self, n_pending):
        # Random gates and states, so every row has its own expectation and a
        # misordered or misrouted column shows.
        n, n_gates = 4, 9
        rng = np.random.default_rng(n_pending)
        adjoints = []
        for j in range(n_gates):
            d = 2 if j % 3 else 4
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            sites = (j % n,) if d == 2 else tuple(int(s) for s in rng.choice(n, 2, replace=False))
            adjoints.append((q, sites))
        pending = [rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n) for _ in range(n_pending)]
        base = BASE_OPERATORS["x"]
        got = experiments._coevolved_expectations(pending, adjoints, base, 1, n)
        want = []
        for k, psi in enumerate(pending, start=n_gates - n_pending):
            for u_dag, sites in reversed(adjoints[: k + 1]):
                if len(sites) == 1:
                    psi = _kernels.apply_1q(psi, u_dag, sites[0], n)
                else:
                    psi = _kernels.apply_2q(psi, u_dag, sites[0], sites[1], n)
            want.append(_kernels.expect_1q(psi, base, 1, n).real)
        assert len(set(np.round(want, 6))) == n_pending
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12

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

    @pytest.mark.parametrize("kind", KINDS)
    def test_superposition_bound_follows_whether_the_kind_reads_the_state(self, kind):
        # none and operator_nonlocal step by fixed gates, so their state map
        # is linear at any lambda; the other two read the state and are not.
        r = map_nonlinearity_check(cfg_with(kind))
        reads = kind in ("local", "coefficient_nonlocal")
        want = (">=", 1e-3) if reads else ("<=", 1e-12)
        assert ("superposition_defect", *want) in r.thresholds
        assert r.verdict == "pass"


def random_unitary(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


class TestUnitarityDefect:
    """The row-blocked max|u^dag u - I| against the whole dense expression."""

    @staticmethod
    def dense(u):
        return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("block", [1, 3, 16, 128])
    def test_matches_dense_expression(self, monkeypatch, n, block):
        monkeypatch.setattr(experiments, "_DEFECT_BLOCK", block)
        rng = np.random.default_rng(700 + n)
        u = random_unitary(2**n, rng)
        # Each entry of u^dag u near 1 carries rounding of order 1e-16.
        for m in (u, u + 1e-6 * rng.standard_normal(u.shape)):
            assert experiments._unitarity_defect(m) == pytest.approx(self.dense(m), rel=0, abs=1e-15)

    def test_peak_memory_at_ten_sites(self):
        # The dense expression holds four 16 MiB arrays at once at n = 10; a
        # block of 128 rows holds a 2 MiB product and a 2 MiB column copy.
        u = random_unitary(1 << 10, np.random.default_rng(710))
        want = self.dense(u)
        tracemalloc.start()
        try:
            got = experiments._unitarity_defect(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(want, rel=0, abs=1e-15)
        assert peak < 8 << 20


class TestEntanglementMonitor:
    def test_local_kinds_generate_nothing(self):
        r = entanglement_monitor(cfg_with("local", n_sites=4, horizon=3))
        assert r.verdict == "pass"
        for kind in ("none", "local", "coefficient_nonlocal"):
            assert r.metric(f"max_entropy_{kind}") <= 1e-12

    def test_operator_nonlocal_entangles_across_cut(self):
        r = entanglement_monitor(cfg_with("local", n_sites=4, horizon=3))
        assert r.metric("max_entropy_operator_nonlocal") >= 0.01

    def test_rejects_degenerate_cut(self):
        with pytest.raises(ValueError, match="proper subset"):
            entanglement_monitor(cfg_with("local"), cut=frozenset(range(4)))


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
