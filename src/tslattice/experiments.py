"""Machine-checkable experiments probing covariance, signaling, and map structure.

Every experiment returns an ExperimentReport carrying the resolved
configuration, named scalar metrics, the thresholds used for the verdict, and
per-sample detail rows. Each one embeds its lambda = 0 control; the verdict
is a pure function of metrics and thresholds, computed by the report type
itself. Reports are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .dynamics import (
    BASE_OPERATORS,
    REMOTE_SITE_FIELDS,
    STATE_READING_KINDS,
    ModelConfig,
    NonlinearitySpec,
    _apply_gate,
    _trajectory,
    check_dense_sites,
    compose_map,
    evolve,
    free_field,
    linear_config,
    ts_step_batch,
)
from .quantum_core import (
    DensityMatrix,
    SiteOperator,
    StateVector,
    _state_distances,
    basis_state,
    bell_pair_state,
    entanglement_entropy,
    expectation,
    plus_state,
    reduced_density,
    state_distance,
    trace_distance,
    zero_state,
)
from .spacetime import (
    Foliation,
    canonical_foliation,
    foliation_to_text,
    random_foliation,
    surface_levels,
)

# Verdict bounds shared with the acceptance suite. The inequality direction
# depends on the nonlinearity kind: local kinds must stay covariant, nonlocal
# kinds must visibly break; kinds that read the state must break
# superposition, the others stay linear.
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
    """A nonlocal kind (one with a remote site) at lambda != 0 must break covariance."""
    return config.nonlinearity.kind in REMOTE_SITE_FIELDS and config.nonlinearity.lam != 0.0


def _fmt_deformation(d) -> str:
    from .spacetime import SiteAdvance

    if isinstance(d, SiteAdvance):
        return f"A{d.site}"
    return f"G{d.link[0]}@{d.time}"


# -- order-swap exactness -------------------------------------------------------


# Amplitudes in one chunk's legs: a surface with m enabled deformations has
# m first and m(m - 1) second legs. 2^18 (4 MiB) holds a whole level up to
# n = 6; at n = 8, horizon 2, the widest level's 15,236 legs of 256
# amplitudes would be 60 MiB.
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


def _swap_level(config: ModelConfig, states, level, after, take: int, expand: bool):
    """Order-swap the pairs on the first ``take`` surfaces of ``level``, whose states are ``states``.

    Returns (the states of ``after``, the next level, if ``expand``, else
    None; pairs checked; the level's witness row, or None if no residue is
    above 0).
    """
    n = config.n_sites
    surfaces, successors = level
    next_surfaces, next_successors = after or ((), ())
    next_states = np.empty((len(next_surfaces), 1 << n), dtype=complex) if expand else None
    # Successors are numbered in discovery order: a leg discovers its
    # surface when its index is above every earlier leg's.
    discovered = -1
    pairs = 0
    witness = None
    for lo, hi in _swap_chunks(successors, take, n):
        sources, legs, steps, targets = [], [], [], []
        for p in range(lo, hi):
            for d, q in successors[p].items():
                sources.append(p)
                legs.append(surfaces[p])
                steps.append(d)
                targets.append(q)
        if not legs:
            continue
        first = ts_step_batch(states, sources, legs, steps, config)
        if expand:
            for row, q in enumerate(targets):
                if q > discovered:
                    next_states[q] = first[row]
                    discovered = q
        opened, sources, legs, steps = [], [], [], []
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
                sources += (row + e1, row + e2)
                legs += (next_surfaces[a], next_surfaces[b])
                steps += (d2, d1)
            row += len(out)
        if not opened:
            continue
        second = ts_step_batch(first, sources, legs, steps, config)
        residues = _state_distances(second[0::2], second[1::2])
        pairs += len(opened)
        w = int(np.argmax(residues))
        if residues[w] > (0.0 if witness is None else witness[3]):
            s, d1, d2 = opened[w]
            witness = (
                " ".join(map(str, s.heights)),
                _fmt_deformation(d1),
                _fmt_deformation(d2),
                float(residues[w]),
            )
    return next_states, pairs, witness


def _swap_scans(configs, budget: int):
    """Order-swap scans of configs of one lattice over one walk of its surface levels.

    Returns (max residue, witness row, surfaces visited, pairs checked,
    exhausted flag) per config.
    """
    results = [[0.0, ("", "", "", 0.0), 0] for _ in configs]  # max residue, witness, pairs
    states = [default_initial_state(config).amplitudes[None, :] for config in configs]
    levels = surface_levels(configs[0].n_sites, configs[0].horizon)
    level = next(levels)
    visited = 0
    while True:
        after = next(levels, None)
        take = min(len(level[0]), budget - visited)
        visited += take
        expand = visited < budget and after is not None
        for k, config in enumerate(configs):
            states[k], pairs, witness = _swap_level(config, states[k], level, after, take, expand)
            results[k][2] += pairs
            if witness is not None and witness[3] > results[k][0]:
                results[k][:2] = witness[3], witness
        if not expand:
            break
        level = after
    exhausted = after is None and take == len(level[0])
    return [(residue, witness, visited, pairs, exhausted) for residue, witness, pairs in results]


def integrability_check(config: ModelConfig, exploration_budget: int = 2000) -> ExperimentReport:
    """Order-swap residues of simultaneously enabled deformation pairs.

    The second leg of each ordering recomputes its frozen coefficient after
    the first leg, so a nonzero residue is a genuine integrability defect and
    not a bookkeeping artifact.

    The scan covers the first ``exploration_budget`` reachable surfaces in
    breadth-first order; a surface carries the state reached along the edge
    that discovered it. ``surface_levels`` builds the surface graph once,
    one level (step count) at a time, and the lambda = 0 control and the
    main scan both read each level, so two levels are held at a time. A
    level is cut into chunks of whole surfaces whose legs hold at most
    ``_SWAP_BLOCK`` amplitudes. A chunk's first legs, one per enabled
    deformation, are one ``ts_step_batch`` call; each opens every pair it
    belongs to, and the edge that discovered a surface gives the next level
    its state. The chunk's second legs are one more call. Within a call,
    rows that share a generator are one group and one kernel call. The
    witness is the first strict maximum in surface order, then
    ``itertools.combinations`` order.

    Checks: ``apply_deformation`` (so ``is_enabled``) makes every edge of
    the graph; the diamond property (both orders enabled and reaching one
    surface) is asserted for every pair; ``ts_step_batch`` runs each check
    of ``ts_step`` (Hermiticity at cache fill, expectation imaginary part,
    unitarity and norm per row).
    """
    if exploration_budget < 1:
        raise ValueError(f"exploration_budget must be >= 1, got {exploration_budget}")
    (control, *_), (residue, witness, visited, pairs, exhausted) = _swap_scans(
        (linear_config(config), config), exploration_budget
    )
    metrics = (
        ("max_swap_residue", residue),
        ("control_max_swap_residue", control),
        ("surfaces_visited", float(visited)),
        ("pairs_checked", float(pairs)),
        ("exhaustive", 1.0 if exhausted else 0.0),
    )
    if _expects_breakage(config):
        main = ("max_swap_residue", ">=", BREAKAGE_FLOOR)
    else:
        main = ("max_swap_residue", "<=", COVARIANT_SWAP_BOUND)
    thresholds = (main, ("control_max_swap_residue", "<=", LINEAR_SWAP_BOUND))
    return ExperimentReport(
        name="integrability",
        config=config_echo(config, exploration_budget=exploration_budget),
        metrics=metrics,
        thresholds=thresholds,
        detail_header=("surface_heights", "first", "second", "residue"),
        details=(witness,),
    )


# -- foliation sweep ------------------------------------------------------------


def _sweep_finals(config: ModelConfig, foliations, psi0: StateVector):
    finals = []
    for _, fol in foliations:
        final, _ = evolve(psi0, fol, config)
        finals.append(final)
    return finals


def _max_pairwise(finals) -> float:
    worst = 0.0
    for a, b in itertools.combinations(finals, 2):
        worst = max(worst, state_distance(a, b))
    return worst


def foliation_sweep(
    config: ModelConfig,
    n_foliations: int = 50,
    seed: int = 42,
    extra_foliation: Foliation | None = None,
) -> ExperimentReport:
    """Evolve one initial state along many foliations and compare the endpoints."""
    n, t = config.n_sites, config.horizon
    foliations: list[tuple[str, Foliation]] = [
        ("canonical-synchronous", canonical_foliation(n, t, "synchronous")),
        ("canonical-staircase", canonical_foliation(n, t, "staircase")),
    ]
    foliations.extend(
        (f"random-{k}", random_foliation(n, t, seed + k)) for k in range(n_foliations)
    )
    if extra_foliation is not None:
        foliations.append(("replayed", extra_foliation))
    psi0 = default_initial_state(config)

    control_finals = _sweep_finals(linear_config(config), foliations, psi0)
    finals = _sweep_finals(config, foliations, psi0)

    max_pair = _max_pairwise(finals)
    control_pair = _max_pairwise(control_finals)
    metrics = (
        ("max_pairwise_distance", max_pair),
        ("control_max_pairwise_distance", control_pair),
        ("n_foliations_total", float(len(foliations))),
    )
    if _expects_breakage(config):
        main = ("max_pairwise_distance", ">=", BREAKAGE_FLOOR)
    else:
        main = ("max_pairwise_distance", "<=", COVARIANT_SWEEP_BOUND)
    thresholds = (main, ("control_max_pairwise_distance", "<=", LINEAR_SWEEP_BOUND))

    reference = finals[0]
    rows = []
    for (label, fol), final in zip(foliations, finals):
        exps = tuple(
            expectation(final, free_field(i, t, config)) for i in range(n)
        )
        rows.append(
            (label, "" if fol.seed is None else str(fol.seed), state_distance(final, reference))
            + exps
        )
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


_SETTING_OPS = {"Z": "z", "X": "x"}


def _measurement_branches(state: StateVector, site: int, setting: str):
    """Exact Born-rule branching: [(outcome label, probability, collapsed state)]."""
    op = BASE_OPERATORS[_SETTING_OPS[setting]]
    evals, evecs = np.linalg.eigh(op)
    branches = []
    for k in range(2):
        v = evecs[:, k]
        proj = np.outer(v, v.conj())
        amps = _kernels.apply_1q(state.amplitudes, proj, site, state.n_sites)
        p = float(np.vdot(amps, amps).real)
        if p < 1e-15:
            continue
        branches.append(
            (f"{setting}{'+' if evals[k] > 0 else '-'}", p, StateVector(amps / math.sqrt(p), state.n_sites))
        )
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


def signaling_experiment(
    config: ModelConfig,
    alice_site: int = 0,
    bob_site: int | None = None,
    settings: tuple[str, str] = ("Z", "X"),
    foliation: Foliation | None = None,
) -> ExperimentReport:
    """Remote measurement-choice detectability under Bob-local nonlinearity.

    Starts from a Bell pair on (alice, bob) with |0> elsewhere, branches
    Alice's measurement exactly (both outcomes, Born weights), evolves every
    branch, and compares Bob's ensemble-averaged reduced states between the
    two settings. Alice and bob must sit outside each other's horizon-T
    light cones, so the lambda = 0 control isolates the collapse mechanism
    from ordinary causal influence; a pair inside the cone is rejected as a
    usage error, since its control would read an ordinary causal signal.
    """
    n, t = config.n_sites, config.horizon
    if bob_site is None:
        bob_site = n - 1
    if alice_site == bob_site:
        raise ValueError("alice and bob must be distinct sites")
    for s in (alice_site, bob_site):
        if not 0 <= s < n:
            raise ValueError(f"site {s} out of range for {n} sites")
    if abs(alice_site - bob_site) <= t:
        raise ValueError(
            f"signal needs |alice_site - bob_site| > horizon (each outside the "
            f"other's light cone), got |{alice_site} - {bob_site}| <= {t}"
        )
    if foliation is None:
        foliation = canonical_foliation(n, t, "synchronous")
    lam = config.nonlinearity.lam
    bob_local = replace(
        config,
        nonlinearity=NonlinearitySpec(
            kind="local", lam=lam, active_sites=frozenset({bob_site})
        ),
    )

    def signal_for(cfg: ModelConfig, initial: StateVector):
        rhos = []
        all_rows = []
        for setting in settings:
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
    if lam != 0.0:
        main = ("signal", ">=", SIGNAL_FLOOR)
    else:
        main = ("signal", "<=", SIGNAL_CONTROL_BOUND)
    thresholds = (
        main,
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
            config, alice_site=alice_site, bob_site=bob_site, settings="".join(settings)
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
# Per-run timings at n = 4..10 were flat from 2^13 to 2^14 and slower on
# either side; 2^14 lifts the walk's peak at n = 10 above 1 MiB.
_COEVOLVE_BLOCK = 1 << 13


def _coevolved_expectations(pending, adjoints, base, probe_site, n):
    """<U_k^dag psi_k| O |U_k^dag psi_k> for the last len(pending) steps k.

    One backward walk over the recorded adjoints serves the whole batch:
    psi_k joins the block when the walk reaches u_k^dag, so each column gets
    u_k^dag, ..., u_1^dag in that order. The columns are the trailing qubits
    of one 2^(n+m) vector, which the kernels pass over as spectators.
    """
    first = len(adjoints) - len(pending)
    cols = np.zeros((1 << n, 1), dtype=complex)
    live = 0
    for j in range(len(adjoints) - 1, -1, -1):
        if j >= first:
            if live == cols.shape[1]:
                cols = np.concatenate((cols, np.zeros_like(cols)), axis=1)
            cols[:, live] = pending[j - first]
            live += 1
        m = (cols.shape[1] - 1).bit_length()
        u_dag, sites = adjoints[j]
        cols = _apply_gate(cols.reshape(-1), u_dag, sites, n + m).reshape(1 << n, -1)
    m = (cols.shape[1] - 1).bit_length()
    o_cols = _kernels.apply_1q(cols.reshape(-1), base, probe_site, n + m).reshape(1 << n, -1)
    values = np.einsum("ij,ij->j", cols.conj(), o_cols).real
    return [float(v) for v in values[live - 1 :: -1]]


def _degeneracy_metrics(config: ModelConfig, foliation: Foliation, probe_site: int):
    n = config.n_sites
    psi0 = default_initial_state(config)
    base = BASE_OPERATORS[config.base_operator]
    e0 = expectation(psi0, SiteOperator(base, probe_site))
    batch = max(1, _COEVOLVE_BLOCK >> n)
    adjoints = []  # (u^dag, sites) of every step taken, in application order
    pending = []  # psi_k of the steps whose co-evolved value is not taken yet
    coevolved = []
    physical = []
    for k, (psi, surface, entry) in enumerate(_trajectory(psi0, foliation, config), start=1):
        adjoints.append((np.ascontiguousarray(entry.unitary.conj().T), entry.sites))
        pending.append(psi.amplitudes)
        if len(pending) == batch or k == len(foliation.steps):
            coevolved += _coevolved_expectations(pending, adjoints, base, probe_site, n)
            pending = []
        tau = surface.heights[probe_site]
        e_ip = expectation(psi, free_field(probe_site, tau, config))
        physical.append((entry.deformation, tau, e_ip))
    rows = [(0, "-", 0, e0, e0)]
    rows += [
        (k, _fmt_deformation(d), tau, e_co, e_ip)
        for k, (e_co, (d, tau, e_ip)) in enumerate(zip(coevolved, physical), start=1)
    ]
    drift = max((abs(e_co - e0) for e_co in coevolved), default=0.0)
    variation = max((abs(e_ip - e0) for _, _, e_ip in physical), default=0.0)
    return drift, variation, rows


def degeneracy_experiment(
    config: ModelConfig,
    probe_site: int | None = None,
    foliation: Foliation | None = None,
) -> ExperimentReport:
    """Constancy of the co-evolved expectation versus the physical one.

    Co-evolving the probe field with the composed state map freezes its
    expectation at the initial value, while the interaction-picture
    expectation at the probe site genuinely moves.

    The composed map is never built densely: at step k the adjoint
    U_k^dag = u_1^dag ... u_k^dag of the recorded per-step unitaries is
    applied to psi_k one gate at a time (u_k^dag first). Batches of
    max(1, 2^13 / 2^n) consecutive steps share one backward walk over the
    recorded gates, so a run of K steps makes about K + K^2 2^n / 2^14
    kernel calls and K^2 2^n / 2 amplitude updates, against about 2 K 4^n
    for a dense map, on blocks of at most 2^13 probe amplitudes.
    The walk is the cheaper route while K stays below about 3 * 2^n: every
    n = 10 run up to horizon 64, and short horizons at any n. Long
    horizons at small n are past that point and run slower than a dense
    map would (about 1.2x at n = 4 and 6, horizon 64). Like the
    dense-map experiments, it is limited to n_sites <= MAX_DENSE_SITES (10).
    """
    n, t = config.n_sites, config.horizon
    check_dense_sites("degeneracy experiment", n)
    if probe_site is None:
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

# Rows of u^dag u formed at a time by _unitarity_defect: 128 rows of a
# 2^10-column map is 2 MiB, against 16 MiB for the whole product.
_DEFECT_BLOCK = 128


def _unitarity_defect(u: np.ndarray) -> float:
    """max|u^dag u - I|, formed one block of rows at a time."""
    worst = 0.0
    for a in range(0, u.shape[1], _DEFECT_BLOCK):
        b = min(a + _DEFECT_BLOCK, u.shape[1])
        rows = u[:, a:b].conj().T @ u
        rows[np.arange(b - a), np.arange(a, b)] -= 1.0
        worst = max(worst, float(np.abs(rows).max()))
    return worst


def map_nonlinearity_check(
    config: ModelConfig, foliation: Foliation | None = None
) -> ExperimentReport:
    """Unitarity of the composed map versus nonlinearity of the state map."""
    n, t = config.n_sites, config.horizon
    check_dense_sites("composed-map check", n)
    if foliation is None:
        foliation = canonical_foliation(n, t, "synchronous")
    psi1 = zero_state(n)
    psi2 = basis_state(n, 1 << (n - 1))  # |1> at site 0, |0> elsewhere
    sum_amps = (psi1.amplitudes + psi2.amplitudes) / math.sqrt(2.0)
    psi_sum = StateVector(sum_amps, n)

    def superposition_for(cfg: ModelConfig):
        """(final state of psi_sum, its record, distance to the normalized sum of the two finals)."""
        final_sum, record = evolve(psi_sum, foliation, cfg)
        final_1, _ = evolve(psi1, foliation, cfg)
        final_2, _ = evolve(psi2, foliation, cfg)
        lin_amps = final_1.amplitudes + final_2.amplitudes
        lin = StateVector(lin_amps / np.linalg.norm(lin_amps), n)
        return final_sum, record, state_distance(final_sum, lin)

    final_sum, record, superposition_defect = superposition_for(config)
    u = compose_map(record, config)
    unitarity_defect = _unitarity_defect(u)
    mapped = u @ psi_sum.amplitudes
    mapped = mapped / np.linalg.norm(mapped)
    compose_consistency = state_distance(StateVector(mapped, n), final_sum)
    _, _, control_defect = superposition_for(linear_config(config))

    metrics = (
        ("unitarity_defect", unitarity_defect),
        ("superposition_defect", superposition_defect),
        ("compose_consistency", compose_consistency),
        ("control_superposition_defect", control_defect),
    )
    nl = config.nonlinearity
    if nl.kind in STATE_READING_KINDS and nl.lam != 0.0:
        super_threshold = ("superposition_defect", ">=", SUPERPOSITION_FLOOR)
    else:
        super_threshold = ("superposition_defect", "<=", SUPERPOSITION_LINEAR_BOUND)
    thresholds = (
        ("unitarity_defect", "<=", UNITARITY_BOUND),
        super_threshold,
        ("compose_consistency", "<=", UNITARITY_BOUND),
        ("control_superposition_defect", "<=", SUPERPOSITION_LINEAR_BOUND),
    )
    return ExperimentReport(
        name="nonlinearity",
        config=config_echo(config),
        metrics=metrics,
        thresholds=thresholds,
        detail_header=("quantity", "value"),
        details=(
            ("unitarity_defect", unitarity_defect),
            ("superposition_defect", superposition_defect),
            ("compose_consistency", compose_consistency),
            ("control_superposition_defect", control_defect),
        ),
        foliation_text=foliation_to_text(foliation),
    )


# -- entanglement bookkeeping -------------------------------------------------------


def _monitored_cuts(n: int, cut: frozenset[int]):
    cuts = [tuple(sorted(cut))]
    for k in range(n - 1):
        cuts.append(tuple(range(k + 1)))
    for i in range(n):
        cuts.append((i,))
    # dedupe, preserve order
    seen = set()
    out = []
    for c in cuts:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


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


def entanglement_monitor(config: ModelConfig, cut: frozenset[int] | None = None) -> ExperimentReport:
    """Entropy growth from a product state, per nonlinearity kind, at J = 0.

    Local kinds apply only single-site unitaries and must keep every cut at
    zero entropy; the operator-nonlocal kind pairs advancing sites with a
    partner across the cut and must entangle.
    """
    n, t = config.n_sites, config.horizon
    if cut is None:
        cut = frozenset(range(max(1, n // 2)))
    cut = frozenset(int(s) for s in cut)
    if not cut or len(cut) >= n:
        raise ValueError("cut must be a nonempty proper subset of the sites")
    cuts = _monitored_cuts(n, cut)
    foliation = canonical_foliation(n, t, "synchronous")
    lam = config.nonlinearity.lam
    source = config.nonlinearity.source_site
    partner = config.nonlinearity.partner_site
    outside = max(set(range(n)) - cut)
    if source is None:
        source = outside
    if partner is None or partner in cut:
        partner = outside

    variants = {
        "none": NonlinearitySpec(kind="none"),
        "local": NonlinearitySpec(kind="local", lam=lam),
        "coefficient_nonlocal": NonlinearitySpec(
            kind="coefficient_nonlocal", lam=lam, source_site=source
        ),
        "operator_nonlocal": NonlinearitySpec(
            kind="operator_nonlocal", lam=lam, partner_site=partner
        ),
    }
    metrics = []
    rows = []
    for kind, nl in variants.items():
        cfg = replace(config, link_coupling=0.0, nonlinearity=nl)
        worst, (step, argcut) = _max_entropy_over_run(cfg, foliation, cuts)
        metrics.append((f"max_entropy_{kind}", worst))
        rows.append((kind, worst, step, " ".join(map(str, argcut))))
    thresholds = (
        ("max_entropy_none", "<=", ENTROPY_LOCAL_BOUND),
        ("max_entropy_local", "<=", ENTROPY_LOCAL_BOUND),
        ("max_entropy_coefficient_nonlocal", "<=", ENTROPY_LOCAL_BOUND),
        ("max_entropy_operator_nonlocal", ">=", ENTROPY_NONLOCAL_FLOOR),
    )
    metrics = tuple(metrics)
    return ExperimentReport(
        name="entanglement",
        config=config_echo(config, cut=",".join(map(str, sorted(cut)))),
        metrics=metrics,
        thresholds=thresholds,
        detail_header=("kind", "max_entropy", "argmax_step", "argmax_cut"),
        details=tuple(rows),
        foliation_text=foliation_to_text(foliation),
    )
