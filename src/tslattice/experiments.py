"""Machine-checkable experiments probing covariance, signaling, and map structure.

Every experiment returns an ExperimentReport carrying the resolved
configuration, named scalar metrics, the thresholds used for the verdict, and
per-sample detail rows. Each one embeds its lambda = 0 control; the verdict
is a pure function of metrics and thresholds, computed by the report type
itself. Reports are deterministic for a fixed configuration and seed, at
any BLAS thread count: every sum that reaches a state or a report is
``_row_products``, which does not go through BLAS (see the README).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    BASE_OPERATORS,
    ModelConfig,
    NonlinearitySpec,
    _WINDOW,
    _blocks,
    _group_key,
    _identity,
    _nonlinear_plans,
    _row_groups,
    _trajectory,
    _unitarity_defect,
    apply_gate,
    check_dense_sites,
    compose_map,
    evolve,
    free_field,
    linear_config,
    ts_step_batch,
)
from .quantum_core import (
    IDENTITY_2,
    DensityMatrix,
    StateVector,
    _real_expectation,
    _row_products,
    _state_distances,
    basis_state,
    bell_pair_state,
    entanglement_entropy,
    plus_state,
    reduced_density,
    state_distance,
    trace_distance,
    zero_state,
)
from .spacetime import (
    Foliation,
    SiteAdvance,
    canonical_foliation,
    foliation_to_text,
    random_foliation,
    surface_levels,
)

# Verdict bounds shared with the acceptance suite. The direction follows the
# run's ``_nonlinear_plans``: a step reaching beyond its own site must break
# covariance, a step reading the state must break superposition, a two-site
# step must entangle; with no such step, each effect stays within its bound.
COVARIANT_SWAP_BOUND = 1e-12
LINEAR_SWAP_BOUND = 1e-13
COVARIANT_SWEEP_BOUND = 1e-10
LINEAR_SWEEP_BOUND = 1e-11
BREAKAGE_FLOOR = 1e-3
SIGNAL_CONTROL_BOUND = 1e-12
SIGNAL_FLOOR = 10.0 * SIGNAL_CONTROL_BOUND
DRIFT_BOUND = 1e-10
ZERO_COUPLING_BOUND = 1e-13
IPV_FLOOR = 0.05
UNITARITY_BOUND = 1e-10
SUPERPOSITION_LINEAR_BOUND = 1e-12
SUPERPOSITION_FLOOR = 1e-3
ENTROPY_LOCAL_BOUND = 1e-12
ENTROPY_NONLOCAL_FLOOR = 0.01


@dataclass(frozen=True)
class ExperimentReport:
    """Config echo, metrics, thresholds, detail rows, and the verdict they give."""

    name: str
    config: tuple[tuple[str, str], ...]
    metrics: tuple[tuple[str, float], ...]
    thresholds: tuple[tuple[str, str, float], ...]
    detail_header: tuple[str, ...]
    details: tuple[tuple, ...]
    foliation_text: str | None = None

    def metric(self, name: str) -> float:
        for key, value in self.metrics:
            if key == name:
                return value
        raise KeyError(f"report has no metric {name!r}")

    @property
    def verdict(self) -> str:
        return verdict_from(self.metrics, self.thresholds)


def verdict_from(metrics, thresholds) -> str:
    """pass/fail purely from the metric values and declared thresholds."""
    values = dict(metrics)
    for name, op, bound in thresholds:
        v = values[name]
        if not math.isfinite(v):
            return "fail"
        if op == "<=" and not v <= bound:
            return "fail"
        if op == ">=" and not v >= bound:
            return "fail"
    return "pass"


def config_echo(config: ModelConfig, **extras) -> tuple[tuple[str, str], ...]:
    nl = config.nonlinearity
    items = [
        ("n_sites", str(config.n_sites)),
        ("horizon", str(config.horizon)),
        ("omega", f"{config.omega:.15g}"),
        ("mu", f"{config.mu:.15g}"),
        ("link_coupling", f"{config.link_coupling:.15g}"),
        ("dt", f"{config.dt:.15g}"),
        ("base_operator", config.base_operator),
        ("kind", nl.kind),
        ("lambda", f"{nl.lam:.15g}"),
        ("source_site", "" if nl.source_site is None else str(nl.source_site)),
        ("partner_site", "" if nl.partner_site is None else str(nl.partner_site)),
        (
            "active_sites",
            "" if nl.active_sites is None else ",".join(map(str, sorted(nl.active_sites))),
        ),
    ]
    items.extend((k, str(v)) for k, v in extras.items())
    return tuple(items)


def default_initial_state(config: ModelConfig) -> StateVector:
    """|+>^n: a product state with a nontrivial transverse expectation."""
    return plus_state(config.n_sites)


def _expects_breakage(config: ModelConfig) -> bool:
    """Covariance must break where some nonlinear step reads another site or spans two."""
    return any(len(sites) == 2 or read.site != site for site, sites, read in _nonlinear_plans(config))


def _reads_state(config: ModelConfig) -> bool:
    """The state map is nonlinear where some step's coefficient reads the state."""
    return any(read is not None for _, _, read in _nonlinear_plans(config))


def _directed(metric: str, expected: bool, floor: float, bound: float):
    """``metric >= floor`` where the effect is expected, else ``metric <= bound``."""
    return (metric, ">=", floor) if expected else (metric, "<=", bound)


def _fmt_deformation(d) -> str:
    if type(d) is SiteAdvance:
        return f"A{d.site}"
    return f"G{d.link[0]}@{d.time}"


# -- order-swap exactness -------------------------------------------------------


# Amplitudes in one chunk's legs: a surface with m enabled deformations has
# m first and m(m - 1) second legs. 2^18 (4 MiB) holds a whole level up to
# n = 6; at n = 8, horizon 2, the widest level's 15,236 legs of 256
# amplitudes would be 60 MiB. A chunk's stacks are held for one config at a
# time.
_SWAP_BLOCK = 1 << 18


def _swap_chunks(successors, take: int, n: int):
    """Runs ``(lo, hi)`` of at least one of a level's first ``take`` surfaces, within ``_SWAP_BLOCK``."""
    limit = max(1, _SWAP_BLOCK >> n)
    lo = rows = 0
    for p in range(take):
        m = len(successors[p])
        if rows and rows + m * m > limit:
            yield lo, p
            lo, rows = p, 0
        rows += m * m
    yield lo, take


def _swap_level(configs, states, level, after, take: int, expand: bool):
    """Order-swap the pairs on the first ``take`` surfaces of ``level`` for each config; ``states[k]`` are config k's.

    Each chunk is planned once for every config: its first legs, the legs
    that discover the next level's surfaces, and its pair legs, with the
    diamond property asserted once per pair. It forms each leg set's groups
    once per ``_group_key`` (``_row_groups``), and ``ts_step_batch`` steps
    them for each config in turn, so one config's stacks are held at a time.

    Returns (pairs checked, [(the states of ``after``, the next level, if
    ``expand``, else None; the level's witness row, or None if no residue
    is above 0) per config]).
    """
    n = configs[0].n_sites
    keys = [_group_key(config) for config in configs]
    surfaces, successors = level
    next_surfaces, next_successors = after or ((), ())
    next_states = [np.empty((len(next_surfaces), 1 << n), dtype=complex) if expand else None for _ in configs]
    # Successors are numbered in discovery order: a leg discovers its
    # surface when its index is above every earlier leg's.
    discovered = -1
    pairs = 0
    witnesses = [None] * len(configs)
    for lo, hi in _swap_chunks(successors, take, n):
        sources, legs, steps, found, targets = [], [], [], [], []
        for p in range(lo, hi):
            for d, q in successors[p].items():
                if q > discovered:
                    found.append(len(legs))
                    targets.append(q)
                    discovered = q
                sources.append(p)
                legs.append(surfaces[p])
                steps.append(d)
        if not legs:
            continue
        opened, pair_sources, pair_legs, pair_steps = [], [], [], []
        row = 0  # surface p's first leg in the first-leg stack
        for p in range(lo, hi):
            s, out = surfaces[p], tuple(successors[p].items())
            for (e1, (d1, a)), (e2, (d2, b)) in itertools.combinations(enumerate(out), 2):
                s_ab = next_successors[a].get(d2)
                if s_ab is None or s_ab != next_successors[b].get(d1):
                    raise AssertionError(
                        f"diamond property violated at {s.heights} for {d1}, {d2}"
                    )
                opened.append((s, d1, d2))
                pair_sources += (row + e1, row + e2)
                pair_legs += (next_surfaces[a], next_surfaces[b])
                pair_steps += (d2, d1)
            row += len(out)
        pairs += len(opened)
        first_groups, pair_groups = {}, {}
        for k, (config, key) in enumerate(zip(configs, keys)):
            if key not in first_groups:
                first_groups[key] = _row_groups(legs, steps, config)
            first = ts_step_batch(states[k], sources, first_groups[key], config)
            if expand:
                next_states[k][targets] = first[found]
            if not opened:
                continue
            if key not in pair_groups:
                pair_groups[key] = _row_groups(pair_legs, pair_steps, config)
            second = ts_step_batch(first, pair_sources, pair_groups[key], config)
            del first
            residues = _state_distances(second[0::2], second[1::2])
            del second
            w = int(np.argmax(residues))
            if residues[w] > (0.0 if witnesses[k] is None else witnesses[k][3]):
                s, d1, d2 = opened[w]
                witnesses[k] = (
                    " ".join(map(str, s.heights)),
                    _fmt_deformation(d1),
                    _fmt_deformation(d2),
                    float(residues[w]),
                )
    return pairs, list(zip(next_states, witnesses))


def _swap_scans(configs, budget: int):
    """Order-swap scans of configs of one lattice over one walk of its surface levels.

    Each level goes through ``_swap_level``, which forms each leg set's
    groups once per ``_group_key`` and has ``ts_step_batch`` step them.
    Returns ([(max residue, witness row) per config], and the walk's
    surfaces visited, pairs checked and exhausted flag once for all).
    """
    results = [(0.0, ("", "", "", 0.0)) for _ in configs]
    states = [default_initial_state(config).amplitudes[None, :] for config in configs]
    levels = surface_levels(configs[0].n_sites, configs[0].horizon)
    level = next(levels)
    visited = pairs = 0
    while True:
        after = next(levels, None)
        take = min(len(level[0]), budget - visited)
        visited += take
        expand = visited < budget and after is not None
        level_pairs, scanned = _swap_level(configs, states, level, after, take, expand)
        pairs += level_pairs
        states = [next_states for next_states, _ in scanned]
        for k, (_, witness) in enumerate(scanned):
            if witness is not None and witness[3] > results[k][0]:
                results[k] = witness[3], witness
        if not expand:
            break
        level = after
    exhausted = after is None and take == len(level[0])
    return results, visited, pairs, exhausted


def integrability_check(config: ModelConfig, exploration_budget: int = 2000) -> ExperimentReport:
    """Order-swap residues of simultaneously enabled deformation pairs.

    The second leg of each ordering recomputes its coefficient after
    the first leg, so a nonzero residue is a genuine integrability defect and
    not a bookkeeping artifact.

    The scan covers the first ``exploration_budget`` reachable surfaces in
    breadth-first order; a surface carries the state reached along the edge
    that discovered it. ``surface_levels`` builds the surface graph once,
    one level (step count) at a time, so two levels are held at a time. A
    level is cut into chunks of whole surfaces whose legs hold at most
    ``_SWAP_BLOCK`` amplitudes. Each chunk is planned once for both the
    lambda = 0 control and the main scan (``_swap_level``), which then
    step through it in turn. A chunk's first legs, one per enabled
    deformation, are one ``ts_step_batch`` call; each opens every pair it
    belongs to, and the edge that discovered a surface gives the next level
    its state. The chunk's second legs are one more call. The scan groups
    each leg set's rows by generator (``_row_groups``), and each group is
    one kernel call; the rows whose coefficient reads the state share one
    coefficient pass. Each call, and the verdict rules, read the config's
    plans from one memoized ``_nonlinear_plans`` entry. The witness is the
    first strict maximum in surface order, then ``itertools.combinations``
    order.

    Checks: ``apply_deformation`` (so ``is_enabled``) makes every edge of
    the graph; the diamond property (both orders enabled and reaching one
    surface) is asserted for every pair; ``ts_step_batch`` runs each check
    of ``ts_step`` (Hermiticity at cache fill, expectation imaginary part,
    unitarity and norm per row).
    """
    if exploration_budget < 1:
        raise ValueError(f"exploration_budget must be >= 1, got {exploration_budget}")
    ((control, _), (residue, witness)), visited, pairs, exhausted = _swap_scans(
        (linear_config(config), config), exploration_budget
    )
    metrics = (
        ("max_swap_residue", residue),
        ("control_max_swap_residue", control),
        ("surfaces_visited", float(visited)),
        ("pairs_checked", float(pairs)),
        ("exhaustive", 1.0 if exhausted else 0.0),
    )
    thresholds = (
        _directed("max_swap_residue", _expects_breakage(config), BREAKAGE_FLOOR, COVARIANT_SWAP_BOUND),
        ("control_max_swap_residue", "<=", LINEAR_SWAP_BOUND),
    )
    return ExperimentReport(
        name="integrability",
        config=config_echo(config, exploration_budget=exploration_budget),
        metrics=metrics,
        thresholds=thresholds,
        detail_header=("surface_heights", "first", "second", "residue"),
        details=(witness,),
    )


# -- foliation sweep ------------------------------------------------------------


def _max_pairwise(finals) -> float:
    worst = 0.0
    for a, b in itertools.combinations(finals, 2):
        worst = max(worst, state_distance(a, b))
    return worst


def check_sweep_foliations(config: ModelConfig, n_foliations: int, extra_foliation: Foliation | None) -> None:
    """Reject a sweep of the two canonical foliations alone, both time-ordered, where the plans expect breakage."""
    if n_foliations == 0 and extra_foliation is None and _expects_breakage(config):
        raise ValueError(
            f"kind {config.nonlinearity.kind} expects broken covariance, which the two time-ordered "
            "canonical foliations cannot show: n_foliations = 0 needs a replayed foliation"
        )


def foliation_sweep(
    config: ModelConfig,
    n_foliations: int = 50,
    seed: int = 42,
    extra_foliation: Foliation | None = None,
) -> ExperimentReport:
    """Evolve one initial state along many foliations and compare the endpoints."""
    check_sweep_foliations(config, n_foliations, extra_foliation)
    n, t = config.n_sites, config.horizon
    foliations: list[tuple[str, str, Foliation]] = [
        ("canonical-synchronous", "", canonical_foliation(n, t, "synchronous")),
        ("canonical-staircase", "", canonical_foliation(n, t, "staircase")),
    ]
    foliations.extend(
        (f"random-{k}", str(seed + k), random_foliation(n, t, seed + k)) for k in range(n_foliations)
    )
    if extra_foliation is not None:
        foliations.append(("replayed", "", extra_foliation))
    psi0 = default_initial_state(config)
    control_finals, finals = (
        [evolve(psi0, fol, cfg)[0] for _, _, fol in foliations] for cfg in (linear_config(config), config)
    )

    max_pair = _max_pairwise(finals)
    control_pair = _max_pairwise(control_finals)
    metrics = (
        ("max_pairwise_distance", max_pair),
        ("control_max_pairwise_distance", control_pair),
        ("n_foliations_total", float(len(foliations))),
    )
    thresholds = (
        _directed("max_pairwise_distance", _expects_breakage(config), BREAKAGE_FLOOR, COVARIANT_SWEEP_BOUND),
        ("control_max_pairwise_distance", "<=", LINEAR_SWEEP_BOUND),
    )

    reference = finals[0]
    rows = []
    for (label, fol_seed, _), final in zip(foliations, finals):
        exps = tuple(_real_expectation(final, free_field(i, t, config).matrix, i) for i in range(n))
        rows.append((label, fol_seed, state_distance(final, reference)) + exps)
    header = ("foliation", "seed", "distance_to_reference") + tuple(
        f"final_expectation_site_{i}" for i in range(n)
    )
    return ExperimentReport(
        name="sweep",
        config=config_echo(config, n_foliations=n_foliations, seed=seed),
        metrics=metrics,
        thresholds=thresholds,
        detail_header=header,
        details=tuple(rows),
    )


# -- measurement-driven signaling ------------------------------------------------


_SETTINGS = "ZX"


def _measurement_branches(state: StateVector, site: int, setting: str):
    """Exact Born-rule branching: [(outcome label, probability, collapsed state)], outcome - first.

    The projector on outcome ±1 of the Pauli P is (I ± P) / 2, exact in floating point.
    """
    op = BASE_OPERATORS[setting.lower()]
    branches = []
    for sign in "-+":
        proj = 0.5 * (IDENTITY_2 - op if sign == "-" else IDENTITY_2 + op)
        amps = apply_gate(state.amplitudes, proj, (site,), state.n_sites)
        p = float(_row_products(amps, amps).real)
        if p < 1e-15:
            continue
        branches.append((setting + sign, p, StateVector(amps / math.sqrt(p), state.n_sites)))
    return branches


def _bob_ensemble(
    initial: StateVector,
    config: ModelConfig,
    foliation: Foliation,
    alice_site: int,
    bob_site: int,
    setting: str,
):
    """Collapse Alice, evolve every branch, average Bob's reduced state."""
    rho = np.zeros((2, 2), dtype=complex)
    rows = []
    for label, p, branch in _measurement_branches(initial, alice_site, setting):
        final, _ = evolve(branch, foliation, config)
        r = reduced_density(final, bob_site)
        rho += p * r.matrix
        rows.append((label, p, r))
    return DensityMatrix(rho), rows


def check_signal_sites(n_sites: int, horizon: int, alice_site: int, bob_site: int) -> None:
    """Reject a signal pair that is not two distinct sites outside each other's light cone."""
    if alice_site == bob_site:
        raise ValueError("alice and bob must be distinct sites")
    for s in (alice_site, bob_site):
        if not 0 <= s < n_sites:
            raise ValueError(f"site {s} out of range for {n_sites} sites")
    if abs(alice_site - bob_site) <= horizon:
        raise ValueError(
            f"signal needs |alice_site - bob_site| > horizon (each outside the "
            f"other's light cone), got |{alice_site} - {bob_site}| <= {horizon}"
        )


def signaling_experiment(
    config: ModelConfig,
    alice_site: int = 0,
    bob_site: int | None = None,
    foliation: Foliation | None = None,
) -> ExperimentReport:
    """Remote measurement-choice detectability under Bob-local nonlinearity.

    Starts from a Bell pair on (alice, bob) with |0> elsewhere, branches
    Alice's measurement exactly (both outcomes, Born weights), evolves every
    branch, and compares Bob's ensemble-averaged reduced states between her
    settings Z and X. Alice and bob must sit outside each other's horizon-T
    light cones, so the lambda = 0 control isolates the collapse mechanism
    from ordinary causal influence; a pair inside the cone is rejected as a
    usage error, since its control would read an ordinary causal signal.
    """
    n, t = config.n_sites, config.horizon
    if bob_site is None:
        bob_site = n - 1
    check_signal_sites(n, t, alice_site, bob_site)
    if foliation is None:
        foliation = canonical_foliation(n, t, "synchronous")
    bob_local = replace(
        config,
        nonlinearity=NonlinearitySpec(
            kind="local", lam=config.nonlinearity.lam, active_sites=frozenset({bob_site})
        ),
    )

    def signal_for(cfg: ModelConfig, initial: StateVector):
        rhos = []
        all_rows = []
        for setting in _SETTINGS:
            rho, rows = _bob_ensemble(initial, cfg, foliation, alice_site, bob_site, setting)
            rhos.append(rho)
            all_rows.extend(rows)
        return trace_distance(rhos[0], rhos[1]), all_rows

    bell = bell_pair_state(n, alice_site, bob_site)
    signal, rows = signal_for(bob_local, bell)
    control_linear, _ = signal_for(linear_config(bob_local), bell)
    control_product, _ = signal_for(bob_local, zero_state(n))

    metrics = (
        ("signal", signal),
        ("control_lambda0_signal", control_linear),
        ("control_product_signal", control_product),
    )
    thresholds = (
        _directed("signal", _reads_state(bob_local), SIGNAL_FLOOR, SIGNAL_CONTROL_BOUND),
        ("control_lambda0_signal", "<=", SIGNAL_CONTROL_BOUND),
        ("control_product_signal", "<=", SIGNAL_CONTROL_BOUND),
    )
    details = tuple(
        (
            label,
            p,
            float(rho.matrix[0, 0].real),
            float(rho.matrix[1, 1].real),
            float(rho.matrix[0, 1].real),
            float(rho.matrix[0, 1].imag),
        )
        for label, p, rho in rows
    )
    return ExperimentReport(
        name="signal",
        config=config_echo(
            config, alice_site=alice_site, bob_site=bob_site, settings=_SETTINGS
        ),
        metrics=metrics,
        thresholds=thresholds,
        detail_header=("branch", "probability", "bob_rho00", "bob_rho11", "bob_rho01_re", "bob_rho01_im"),
        details=details,
        foliation_text=foliation_to_text(foliation),
    )


# -- co-evolved degeneracy --------------------------------------------------------


# Probe vectors co-evolved together fill at most this many amplitudes
# (2^13 complex = 128 KiB), so a batch holds max(1, 2^13 / 2^n) steps.
# Per experiment (local, one BLAS thread; the all-zero control applies no
# gate), 2^13 / 2^14 / 2^15 took 13 / 16 / 16 ms at n = 10, T = 4; 23 / 24
# / 29 ms at n = 8, T = 16; 52 / 62 / 75 ms at n = 6, T = 64. Only long
# runs at n = 10 gain from wider batches (970 / 650 / 513 ms at T = 64),
# and 2^14 lifts the walk's peak at n = 10 above 1 MiB.
_COEVOLVE_BLOCK = 1 << 13


def _coevolved_expectations(pending, adjoints, fused, base, probe_site, n):
    """<U_k^dag psi_k| O |U_k^dag psi_k> for the steps k of one batch.

    ``adjoints`` are the batch's (u^dag, sites) in application order, and
    ``fused`` the ``_blocks`` of the earlier batches' adjoints, newest first.
    psi_k joins its own column when the walk reaches u_k^dag, so each column
    gets u_k^dag, ..., down to the batch's first gate, then every fused block.
    The columns, padded to 2^m, are the trailing qubits of one 2^(n+m)
    vector, which the kernels pass over as spectators. A zero-angle step's
    u^dag is the shared ``_identity``, never applied here or fused.
    """
    m = (len(pending) - 1).bit_length()
    cols = np.zeros((1 << n, 1 << m), dtype=complex)
    for j in range(len(pending) - 1, -1, -1):
        cols[:, j] = pending[j]
        u_dag, sites = adjoints[j]
        if u_dag is not _identity(len(u_dag)):
            cols = apply_gate(cols, u_dag, sites, n + m)
    for u, sites in fused:
        cols = apply_gate(cols, u, sites, n + m)
    o_cols = apply_gate(cols, base, (probe_site,), n + m)
    values = _row_products(cols.T, o_cols.T).real
    return [float(v) for v in values[: len(pending)]]


def _degeneracy_metrics(config: ModelConfig, foliation: Foliation, probe_site: int):
    n = config.n_sites
    psi0 = default_initial_state(config)
    base = BASE_OPERATORS[config.base_operator]
    e0 = _real_expectation(psi0, base, probe_site)
    batch = max(1, _COEVOLVE_BLOCK >> n)
    adjoints = []  # (u^dag, sites) of the steps in the open batch, in application order
    pending = []  # psi_k of those steps
    fused = []  # the blocks of every closed batch's adjoints, in walk order
    coevolved = []
    physical = []
    for k, (psi, surface, entry) in enumerate(_trajectory(psi0, foliation, config), start=1):
        u = entry.unitary  # the shared identity is its own adjoint
        adjoints.append((u if u is _identity(len(u)) else np.ascontiguousarray(u.conj().T), entry.sites))
        pending.append(psi.amplitudes)
        if len(pending) == batch or k == len(foliation.steps):
            coevolved += _coevolved_expectations(pending, adjoints, fused, base, probe_site, n)
            if k < len(foliation.steps):
                fused = _blocks(reversed(adjoints), _WINDOW) + fused
            adjoints, pending = [], []
        tau = surface.heights[probe_site]
        e_ip = _real_expectation(psi, free_field(probe_site, tau, config).matrix, probe_site)
        physical.append((entry.deformation, tau, e_ip))
    rows = [(0, "-", 0, e0, e0)]
    rows += [
        (k, _fmt_deformation(d), tau, e_co, e_ip)
        for k, (e_co, (d, tau, e_ip)) in enumerate(zip(coevolved, physical), start=1)
    ]
    drift = max((abs(e_co - e0) for e_co in coevolved), default=0.0)
    variation = max((abs(e_ip - e0) for _, _, e_ip in physical), default=0.0)
    return drift, variation, rows


def check_degeneracy_probe(config: ModelConfig) -> None:
    """Reject a lattice too large for the experiment, or a probe field that commutes with every generator.

    Base z is diagonal, and omega = 0 the same field, at every height.
    """
    check_dense_sites("degeneracy experiment", config.n_sites)
    blind = "base_operator z" if config.base_operator == "z" else "omega = 0" if config.omega == 0.0 else ""
    if blind:
        raise ValueError(
            f"{blind} makes the probe field commute with every generator, "
            f"so interaction_picture_variation cannot reach its floor {IPV_FLOOR:g}"
        )


def degeneracy_experiment(config: ModelConfig, foliation: Foliation | None = None) -> ExperimentReport:
    """Constancy of the co-evolved expectation versus the physical one.

    Co-evolving the probe field at site N // 2 with the composed state map
    freezes its expectation at the initial value, while the
    interaction-picture expectation at the probe site genuinely moves.

    The composed map is never built densely: at step k the adjoint
    U_k^dag = u_1^dag ... u_k^dag of the recorded per-step unitaries is
    applied to psi_k. In batches of max(1, 2^13 / 2^n) steps, the probe
    vectors walk their own batch's gates one at a time (u_k^dag first),
    then the fused blocks of every earlier batch; no zero-angle gate is
    applied, so the all-zero control walks none. Against a dense map updated
    one gate per step, the walk took 0.06-0.77x the time at n = 8 and 10
    (horizons 4-256 and 16-64) and 0.54-0.69x at n = 7 up to horizon 64,
    but 1.05-1.18x at n = 4 from horizon 64 and at n = 6 at horizon 256.
    Like the dense-map experiments, it is limited to n_sites <=
    MAX_DENSE_SITES (10).
    """
    n, t = config.n_sites, config.horizon
    check_degeneracy_probe(config)
    probe_site = n // 2
    if foliation is None:
        foliation = canonical_foliation(n, t, "synchronous")

    frozen = replace(
        config,
        omega=0.0,
        mu=0.0,
        link_coupling=0.0,
        nonlinearity=replace(config.nonlinearity, lam=0.0),
    )
    control_drift, control_variation, _ = _degeneracy_metrics(frozen, foliation, probe_site)
    drift, variation, rows = _degeneracy_metrics(config, foliation, probe_site)

    metrics = (
        ("coevolved_drift", drift),
        ("interaction_picture_variation", variation),
        ("control_coevolved_drift", control_drift),
        ("control_interaction_picture_variation", control_variation),
    )
    thresholds = (
        ("coevolved_drift", "<=", DRIFT_BOUND),
        ("interaction_picture_variation", ">=", IPV_FLOOR),
        ("control_coevolved_drift", "<=", ZERO_COUPLING_BOUND),
        ("control_interaction_picture_variation", "<=", ZERO_COUPLING_BOUND),
    )
    return ExperimentReport(
        name="degeneracy",
        config=config_echo(config, probe_site=probe_site),
        metrics=metrics,
        thresholds=thresholds,
        detail_header=("step", "deformation", "probe_height", "coevolved_expectation", "surface_expectation"),
        details=tuple(rows),
        foliation_text=foliation_to_text(foliation),
    )


# -- composed-map structure --------------------------------------------------------


def map_nonlinearity_check(
    config: ModelConfig, foliation: Foliation | None = None
) -> ExperimentReport:
    """Unitarity of the composed map versus nonlinearity of the state map."""
    n, t = config.n_sites, config.horizon
    check_dense_sites("composed-map check", n)
    if foliation is None:
        foliation = canonical_foliation(n, t, "synchronous")
    # The probes |0...0> and |1> at one site differ where the first step that
    # reads the state reads it (site 0 if none does), so that read sees their sum.
    site = next((read.site for _, _, read in _nonlinear_plans(config) if read is not None), 0)
    psi1 = zero_state(n)
    psi2 = basis_state(n, 1 << (n - 1 - site))
    sum_amps = (psi1.amplitudes + psi2.amplitudes) / math.sqrt(2.0)
    psi_sum = StateVector(sum_amps, n)

    def superposition_for(cfg: ModelConfig):
        """(final state of psi_sum, its record, distance to the normalized sum of the two finals)."""
        final_sum, record = evolve(psi_sum, foliation, cfg)
        final_1, _ = evolve(psi1, foliation, cfg)
        final_2, _ = evolve(psi2, foliation, cfg)
        lin_amps = final_1.amplitudes + final_2.amplitudes
        lin = StateVector(lin_amps / math.sqrt(_row_products(lin_amps, lin_amps).real), n)
        return final_sum, record, state_distance(final_sum, lin)

    final_sum, record, superposition_defect = superposition_for(config)
    u = compose_map(record)
    unitarity_defect = _unitarity_defect(u)
    mapped = u @ psi_sum.amplitudes
    mapped = mapped / math.sqrt(_row_products(mapped, mapped).real)
    compose_consistency = state_distance(StateVector(mapped, n), final_sum)
    _, _, control_defect = superposition_for(linear_config(config))

    metrics = (
        ("unitarity_defect", unitarity_defect),
        ("superposition_defect", superposition_defect),
        ("compose_consistency", compose_consistency),
        ("control_superposition_defect", control_defect),
    )
    thresholds = (
        ("unitarity_defect", "<=", UNITARITY_BOUND),
        _directed("superposition_defect", _reads_state(config), SUPERPOSITION_FLOOR, SUPERPOSITION_LINEAR_BOUND),
        ("compose_consistency", "<=", UNITARITY_BOUND),
        ("control_superposition_defect", "<=", SUPERPOSITION_LINEAR_BOUND),
    )
    return ExperimentReport(
        name="nonlinearity",
        config=config_echo(config),
        metrics=metrics,
        thresholds=thresholds,
        detail_header=("quantity", "value"),
        details=metrics,
        foliation_text=foliation_to_text(foliation),
    )


# -- entanglement bookkeeping -------------------------------------------------------


def _monitored_cuts(n: int, cut: tuple[int, ...]):
    cuts = [cut]
    for k in range(n - 1):
        cuts.append(tuple(range(k + 1)))
    for i in range(n):
        cuts.append((i,))
    return list(dict.fromkeys(cuts))  # dedupe, preserve order


def _max_entropy_over_run(config: ModelConfig, foliation: Foliation, cuts):
    worst = 0.0
    arg = (0, cuts[0])
    for k, (psi, _, _) in enumerate(_trajectory(default_initial_state(config), foliation, config), start=1):
        for c in cuts:
            s = entanglement_entropy(psi, c)
            if s > worst:
                worst = s
                arg = (k, c)
    return worst, arg


def entanglement_monitor(config: ModelConfig, foliation: Foliation | None = None) -> ExperimentReport:
    """Entropy growth from a product state, per nonlinearity kind, at J = 0.

    Each variant steps ``foliation``, the synchronous one if None. The cut is
    the first N // 2 sites. A variant with a nonlinear step
    spanning two sites (operator_nonlocal at lambda != 0, its partner across
    the cut) must entangle; the others, the linear model labelled ``none``
    among them, apply only single-site unitaries and must keep every cut at
    zero entropy.
    """
    n, t = config.n_sites, config.horizon
    cut = tuple(range(n // 2))
    cuts = _monitored_cuts(n, cut)
    if foliation is None:
        foliation = canonical_foliation(n, t, "synchronous")
    lam = config.nonlinearity.lam
    source = config.nonlinearity.source_site
    partner = config.nonlinearity.partner_site
    if source is None:
        source = n - 1
    if partner is None or partner in cut:
        partner = n - 1

    variants = {
        "none": NonlinearitySpec(),
        "local": NonlinearitySpec(kind="local", lam=lam),
        "coefficient_nonlocal": NonlinearitySpec(
            kind="coefficient_nonlocal", lam=lam, source_site=source
        ),
        "operator_nonlocal": NonlinearitySpec(
            kind="operator_nonlocal", lam=lam, partner_site=partner
        ),
    }
    metrics = []
    thresholds = []
    rows = []
    for kind, nl in variants.items():
        cfg = replace(config, link_coupling=0.0, nonlinearity=nl)
        worst, (step, argcut) = _max_entropy_over_run(cfg, foliation, cuts)
        metric = f"max_entropy_{kind}"
        metrics.append((metric, worst))
        entangles = any(len(sites) == 2 for _, sites, _ in _nonlinear_plans(cfg))
        thresholds.append(_directed(metric, entangles, ENTROPY_NONLOCAL_FLOOR, ENTROPY_LOCAL_BOUND))
        rows.append((kind, worst, step, " ".join(map(str, argcut))))
    return ExperimentReport(
        name="entanglement",
        config=config_echo(config, cut=",".join(map(str, cut))),
        metrics=tuple(metrics),
        thresholds=tuple(thresholds),
        detail_header=("kind", "max_entropy", "argmax_step", "argmax_cut"),
        details=tuple(rows),
        foliation_text=foliation_to_text(foliation),
    )
