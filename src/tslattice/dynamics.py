"""Per-deformation nonlinear stepping in the interaction picture.

Local fields carry the free on-site precession (omega * sigma_z / 2 per site,
Heisenberg picture), so they stay strictly on-site and commute at any two
different sites. The state carries the interaction: each site advance applies
exp(-i*dt*(mu + c) * O(i, tau)) with c read from the pre-step state. The read
field commutes with the generator, so c is constant along the step and the
gate is the exact flow of i dpsi/ds = H(psi(s)) psi over dt. Link gates are
linear two-site rotations generated by J * O(i,t) ⊗ O(i+1,t).

Nonlinearity kinds (lambda = 0 is the linear model for each):
  local                  c = lambda * <O(i, tau_i)> at the advancing site
  coefficient_nonlocal   c = lambda * <O(j, tau_j)> read at a fixed remote site
  operator_nonlocal      two-site generator mu*O(i) ⊗ 1 + lambda*O(i) ⊗ O(j)
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ._kernels import apply_gate
from .quantum_core import (
    HERMITIAN_ATOL,
    IDENTITY_2,
    NORM_ATOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    UNITARY_ATOL,
    SiteOperator,
    StateVector,
    _check_site,
    _identity,
    _norm_error,
    _real_expectation,
    _real_expectations,
    _row_products,
    is_hermitian,
    is_unitary,
)
from .spacetime import (
    Deformation,
    Foliation,
    Hypersurface,
    LinkApply,
    SiteAdvance,
    apply_deformation,
    initial_surface,
)

BASE_OPERATORS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

NONLINEARITY_KINDS = ("local", "coefficient_nonlocal", "operator_nonlocal")

# The nonlocal kinds and the field naming each one's fixed remote site.
REMOTE_SITE_FIELDS = {"coefficient_nonlocal": "source_site", "operator_nonlocal": "partner_site"}

# Lattice sizes the model accepts, and the largest lattice whose dense
# 2^N x 2^N map (composed map, degeneracy and nonlinearity experiments) is
# built; the command line reads its ranges from here.
MIN_SITES = 2
MAX_SITES = 14
MAX_DENSE_SITES = 10


def check_dense_sites(what: str, n_sites: int) -> None:
    """Reject a lattice too large for ``what``'s dense map."""
    if n_sites > MAX_DENSE_SITES:
        raise ValueError(f"{what} needs n_sites <= {MAX_DENSE_SITES}, got {n_sites}")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Kind and coupling of the state-dependent Hamiltonian term.

    Every kind at lambda = 0, the default among them, is the linear model.
    ``active_sites`` restricts where the nonlinearity acts (None = everywhere);
    the linear mu/J terms are never masked.
    """

    kind: str = "local"
    lam: float = 0.0
    source_site: int | None = None
    partner_site: int | None = None
    active_sites: frozenset[int] | None = None

    def __post_init__(self):
        _check_finite("lam", self.lam)
        if self.kind not in NONLINEARITY_KINDS:
            raise ValueError(
                f"nonlinearity kind {self.kind!r} not in {'|'.join(NONLINEARITY_KINDS)}"
            )
        remote = REMOTE_SITE_FIELDS.get(self.kind)
        if remote is not None and getattr(self, remote) is None:
            raise ValueError(f"{self.kind} requires {remote}")
        if self.active_sites is not None:
            object.__setattr__(self, "active_sites", frozenset(self.active_sites))

    def active_at(self, site: int) -> bool:
        return self.active_sites is None or site in self.active_sites

    @property
    def remote_site(self) -> int | None:
        """coefficient_nonlocal's source site, operator_nonlocal's partner site; else None."""
        remote = REMOTE_SITE_FIELDS.get(self.kind)
        return None if remote is None else getattr(self, remote)


@dataclass(frozen=True)
class ModelConfig:
    """Lattice sizes, couplings, and the nonlinearity choice."""

    n_sites: int = 6
    horizon: int = 4
    omega: float = 1.0
    mu: float = 0.7
    link_coupling: float = 0.4
    dt: float = 0.15
    base_operator: str = "x"
    nonlinearity: NonlinearitySpec = field(default_factory=NonlinearitySpec)

    def __post_init__(self):
        for name in ("omega", "mu", "link_coupling", "dt"):
            _check_finite(name, getattr(self, name))
        if not MIN_SITES <= self.n_sites <= MAX_SITES:
            raise ValueError(
                f"n_sites must be in [{MIN_SITES}, {MAX_SITES}], got {self.n_sites}"
            )
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.base_operator not in BASE_OPERATORS:
            raise ValueError(
                f"base_operator {self.base_operator!r} not in x|y|z"
            )
        nl = self.nonlinearity
        sites = [("source_site", nl.source_site), ("partner_site", nl.partner_site)]
        sites += [("active_sites", site) for site in sorted(nl.active_sites or ())]
        for label, site in sites:
            if site is not None and not 0 <= site < self.n_sites:
                raise ValueError(f"{label} {site} out of range for {self.n_sites} sites")


@dataclass(frozen=True)
class TrajectoryStep:
    """One applied deformation with its coefficient and unitary."""

    deformation: Deformation
    coefficient: float
    sites: tuple[int, ...]
    unitary: np.ndarray


@dataclass(frozen=True)
class TrajectoryRecord:
    """Everything needed to rebuild the composed map of one evolution."""

    steps: tuple[TrajectoryStep, ...]
    n_sites: int

    def __len__(self) -> int:
        return len(self.steps)


def free_field(site: int, tau: int, config: ModelConfig) -> SiteOperator:
    """Heisenberg-picture local field O(site, tau) under the free precession.

    The field depends only on (site, tau, omega, base_operator), so it is
    built once per key and shared; its matrix is read-only. A site off the
    lattice raises ValueError; tau is not bounded.
    """
    _check_site(config.n_sites, site)
    return _free_field(site, tau, config.omega, config.base_operator)[0]


# The generator caches below test each matrix once, when it is built, and
# store with it max|g @ g - I|, which ``_closed_form_gate`` turns into the
# unitarity bound of every gate made from it.


def _involution_residue(g: np.ndarray) -> float:
    return float(np.abs(g @ g - _identity(g.shape[0])).max())


@lru_cache(maxsize=4096)
def _free_field(
    site: int, tau: int, omega: float, base_operator: str
) -> tuple[SiteOperator, float]:
    """``(O(site, tau), max|O @ O - I|)``; O is tested Hermitian within HERMITIAN_ATOL."""
    base = BASE_OPERATORS[base_operator]
    half = 0.5 * omega * tau
    phases = np.array([np.exp(1j * half), np.exp(-1j * half)])
    m = (phases[:, None] * base) * phases.conj()[None, :]
    if not is_hermitian(m):
        raise ValueError(f"operator at site {site} is not Hermitian within {HERMITIAN_ATOL}")
    m.flags.writeable = False
    return SiteOperator(m, site), _involution_residue(m)


@lru_cache(maxsize=4096)
def _pair_generator(
    i: int, tau_i: int, j: int, tau_j: int, omega: float, base_operator: str
) -> tuple[np.ndarray, float]:
    """``(O(i, tau_i) ⊗ O(j, tau_j), its residue)``, a link's or operator_nonlocal's; tested Hermitian."""
    oi = _free_field(i, tau_i, omega, base_operator)[0].matrix
    oj = _free_field(j, tau_j, omega, base_operator)[0].matrix
    g = _kron2(oi, oj)
    if not is_hermitian(g):
        raise ValueError(f"operator on sites ({i}, {j}) is not Hermitian within {HERMITIAN_ATOL}")
    g.flags.writeable = False
    return g, _involution_residue(g)


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2x2 matrices, without np.kron's general-shape overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _read_heights(surface: Hypersurface, d: Deformation, key: tuple) -> tuple:
    """``(tau_i, tau_j)``, the heights of ``surface`` that ``d``'s plan reads under ``_group_key`` ``key``.

    tau_i is the advancing site's height, and tau_j the remote site's only
    where the plan reads or acts on it; each is None where there is none (a
    link's fields are at its own time). They key ``_fixed_gate`` and
    ``_row_groups``.
    """
    if type(d) is LinkApply:
        return None, None
    return surface.heights[d.site], surface.heights[key[0]] if key and d.site in key[1] else None


def _step_plan(d: Deformation, tau_i, tau_j, config: ModelConfig):
    """``(sites, c, read, terms)`` of one deformation, from the heights its fields read (``_read_heights``).

    The generator is the sum of ``scale * g`` over ``terms``. Each term
    ``(g, residue, scale)`` holds a cached involution g, with g @ g = I up to
    its stored ``residue``. Site advances and link gates have one term.
    operator_nonlocal's two-site advance has two, mu * O(i) ⊗ 1 and
    lambda * O(i) ⊗ O(j); they commute, because both products are
    O(i)^2 ⊗ O(j), so the step's gate is the product of their rotations.
    O(i) ⊗ 1 has O(i)'s residue.

    ``read`` is None when the coefficient c is fixed. Otherwise it is the
    cached field O (a ``SiteOperator``, its matrix and site) whose expectation
    in the pre-step state sets c = lambda * <O>; the step then has one term,
    whose scale mu is raised by c (its g is ``read.matrix`` for ``local``).

    This is the one place the nonlinearity kind picks a step's generator and
    coefficient, and the only one deciding a step is linear. At lambda = 0
    (or -0.0), at an inactive site and at a nonlocal kind's own site
    (``remote_site``), a site advance takes mu * O(i) with c = 0.
    """
    nl = config.nonlinearity
    omega, base = config.omega, config.base_operator
    if isinstance(d, LinkApply):
        (i, j), t = d.link, d.time
        g, residue = _pair_generator(i, t, j, t, omega, base)
        return d.link, 0.0, None, ((g, residue, config.link_coupling),)
    i = d.site
    oi, residue = _free_field(i, tau_i, omega, base)
    linear = ((oi.matrix, residue, config.mu),)
    if nl.lam == 0.0 or not nl.active_at(i):
        return (i,), 0.0, None, linear
    if nl.kind == "local":
        return (i,), None, oi, linear
    j = nl.remote_site
    if j == i:
        return (i,), 0.0, None, linear
    if nl.kind == "coefficient_nonlocal":
        return (i,), None, _free_field(j, tau_j, omega, base)[0], linear
    pair, pair_residue = _pair_generator(i, tau_i, j, tau_j, omega, base)
    terms = ((_kron2(oi.matrix, IDENTITY_2), residue, config.mu), (pair, pair_residue, nl.lam))
    return (i, j), nl.lam, None, terms


@lru_cache(maxsize=128)
def _nonlinear_plans(config: ModelConfig) -> tuple:
    """``(site, sites, read)`` of each site advance whose plan reads the state or spans two sites.

    Plans depend on the surface only through the heights their fields read, so
    the initial surface's site advances (every height 0) show them all (none
    at lambda = 0). They are memoized per config, each read with its field;
    they hold no generator, so every step still takes its gate from
    ``_fixed_gate`` or its fields from the generator caches, with their tests.
    """
    plans = ((i, _step_plan(SiteAdvance(i), 0, 0, config)) for i in range(config.n_sites))
    return tuple((i, sites, read) for i, (sites, _, read, _) in plans if read is not None or len(sites) == 2)


@lru_cache(maxsize=128)
def _group_key(config: ModelConfig) -> tuple:
    """The remote site and the sites whose plan reads or acts on it: what ``_read_heights`` reads of a config.

    It is ``()`` where no plan reaches the remote site: for the linear
    model and ``local``, so configs of one lattice group one leg set alike.
    """
    j = config.nonlinearity.remote_site
    reach = frozenset(
        i for i, sites, read in _nonlinear_plans(config) if j in sites or (read is not None and read.site == j)
    )
    return (j, reach) if reach else ()


def _not_unitary(sites) -> ValueError:
    where = f"at site {sites[0]}" if len(sites) == 1 else f"on sites ({sites[0]}, {sites[1]})"
    return ValueError(f"operator {where} is not unitary within {UNITARY_ATOL}")


def _closed_form_gate(g: np.ndarray, residue: float, theta: float, sites) -> np.ndarray:
    """exp(-i theta g) = cos(theta) I - i sin(theta) g, tested unitary from g's residue.

    For a Hermitian g, u^dag u - I = sin^2(theta) (g^2 - I), so
    sin^2(theta) max|g^2 - I| <= UNITARY_ATOL is the unitarity test of u
    without forming u^dag u; a NaN theta fails it. A zero angle (0 or -0.0)
    gives the shared read-only ``_identity``, which is never applied:
    ``ts_step`` copies the state instead and ``_blocks`` drops it.
    """
    sin = math.sin(theta)
    if not sin * sin * residue <= UNITARY_ATOL:
        raise _not_unitary(sites)
    if sin == 0.0:
        return _identity(g.shape[0])
    return math.cos(theta) * _identity(g.shape[0]) - (1j * sin) * g


def _gate(sites, terms, step_dt: float) -> np.ndarray:
    """The closed-form rotation of each term, multiplied; a product of two is tested by ``is_unitary``."""
    g, residue, scale = terms[0]
    u = _closed_form_gate(g, residue, step_dt * scale, sites)
    if len(terms) == 2:
        g, residue, scale = terms[1]
        u = u @ _closed_form_gate(g, residue, step_dt * scale, sites)
        if not is_unitary(u):
            raise _not_unitary(sites)
    return u


@lru_cache(maxsize=4096)
def _fixed_gate(d: Deformation, tau_i, tau_j, config: ModelConfig):
    """``(sites, c, u)`` of a plan with a fixed coefficient, or None where the plan reads the state.

    A fixed gate depends only on the deformation, the heights its fields read
    (``_read_heights``) and the config, never on the rest of the surface, so
    ``ts_step`` and ``ts_step_batch`` share one entry across foliations. Its
    unitarity tests run once, when the entry is built by ``_gate`` from the
    tested generator caches; a gate that fails them raises and is not stored.
    ``u`` is read-only.
    """
    sites, c, read, terms = _step_plan(d, tau_i, tau_j, config)
    if read is not None:
        return None
    u = _gate(sites, terms, config.dt if isinstance(d, SiteAdvance) else 1.0)
    u.flags.writeable = False
    return sites, c, u


def _check_sizes(state_sites: int, surface_sites: int, n: int) -> None:
    if not state_sites == surface_sites == n:
        raise ValueError(f"sizes differ: state has {state_sites} sites, surface {surface_sites}, config {n}")


def ts_step(
    state: StateVector, surface: Hypersurface, d: Deformation, config: ModelConfig
):
    """Apply one deformation: returns (state', surface', TrajectoryStep).

    Site advances integrate over ``dt``; link gates fold the unit step into
    the link coupling. Every gate is built in closed form
    (``_closed_form_gate``) from the terms of ``_step_plan``: one
    rotation, or for operator_nonlocal's two-site advance the product of
    its two commuting rotations. A gate with a fixed coefficient is built
    once per deformation, heights read and config (``_fixed_gate``); a
    gate whose coefficient reads the state is built at every step.

    Each check runs where its data is made, with the tolerance and error it
    has elsewhere: ``apply_deformation`` raises NotEnabledError, every free
    field and pair generator was tested Hermitian when its cache entry was
    built, each rotation is tested unitary from its generator's stored
    residue (a product of two also by ``is_unitary``) when it is built, and
    the new state's norm is tested with one inner product. The returned
    state and surface are not validated a second time. State, surface and
    config must have one size, so every site the step touches or reads is
    in range.

    Where the plan reads the state, the recorded coefficient is
    c = lambda * <O> of its read field, tested as in ``ts_step_batch``: an
    imaginary residue above IMAG_ATOL raises ArithmeticError. Otherwise it
    is the plan's fixed c: lambda for operator_nonlocal, 0.0 for every
    linear plan, lambda = 0's included.
    """
    n = config.n_sites
    _check_sizes(state.n_sites, surface.n_sites, n)
    surface_next = apply_deformation(surface, d)
    heights = _read_heights(surface, d, _group_key(config))
    fixed = _fixed_gate(d, *heights, config)
    if fixed is not None:
        sites, c, u = fixed
    else:  # a site advance whose coefficient reads the state
        sites, _, read, ((g, residue, scale),) = _step_plan(d, *heights, config)
        c = config.nonlinearity.lam * _real_expectation(state, read.matrix, read.site)
        u = _gate(sites, ((g, residue, scale + c),), config.dt)
    out = state.amplitudes.copy() if u is _identity(len(u)) else apply_gate(state.amplitudes, u, sites, n)
    nrm = math.sqrt(np.vdot(out, out).real)
    if not abs(nrm - 1.0) <= NORM_ATOL:
        raise _norm_error(nrm)
    entry = TrajectoryStep(deformation=d, coefficient=c, sites=sites, unitary=u)
    return StateVector._unchecked(out, n), surface_next, entry


def _row_groups(surfaces, deformations, config: ModelConfig) -> list:
    """``(deformation, heights read, rows)`` of each generator group, in the order of first rows.

    Rows share a group when they share ``_fixed_gate``'s key: a link and
    time, or the advancing site and the heights its plan reads
    (``_read_heights``). Groups depend on the config only through its size
    and ``_group_key``, so configs that share both share them; sizes are
    checked as in ``ts_step``, for one surface per group.
    """
    n, key = config.n_sites, _group_key(config)
    groups: dict = {}
    for r, (s, d) in enumerate(zip(surfaces, deformations)):
        heights = _read_heights(s, d, key)
        gate = (d.link, d.time) if type(d) is LinkApply else (d.site, *heights)
        if gate not in groups:
            _check_sizes(n, s.n_sites, n)
            groups[gate] = d, heights, []
        groups[gate][2].append(r)
    return list(groups.values())


def ts_step_batch(states: np.ndarray, sources, groups, config: ModelConfig) -> np.ndarray:
    """``ts_step``'s new amplitudes for many states at once, as a ``(B, 2^n)`` stack.

    ``groups`` come from ``_row_groups``: row r steps ``states[sources[r]]``
    by its group's deformation, which the caller has found enabled on its
    surface; surfaces are not advanced and no trajectory is recorded.

    A group with a fixed coefficient takes its gate
    from ``_fixed_gate``, as ``ts_step`` does, in one kernel call.
    A group whose coefficient reads the state forms G psi_r in one kernel
    call (O psi_r in one more, unless every read field is its generator),
    into its slice of one stack that holds every such row of the call. One
    coefficient pass then covers those rows together: it reads
    c_r = lambda <psi_r|O psi_r>, tests them (``_real_expectations``), and
    combines cos(theta_r) psi_r - i sin(theta_r) G psi_r.
    numpy's row products over 2^14 amplitudes round with the stack's
    height, so at N = 14 the last digits may differ from a pass per group.

    Each check of ``ts_step`` runs with its tolerance, error type and
    message, per row where rows differ: the expectation's imaginary part,
    sin^2(theta_r) * residue <= UNITARY_ATOL (a NaN fails it, and the error
    names the failing row's sites), and the norm. With several failing rows,
    the error is one of theirs. ``_row_groups`` checks the surfaces' sizes.
    """
    n = config.n_sites
    if states.ndim != 2 or states.shape[1] != 1 << n:
        raise ValueError(f"stack of shape {states.shape} is not (M, 2^{n})")
    sources = np.asarray(sources, dtype=np.intp)
    fixed, reading = [], []  # reading: the groups whose coefficient reads the state
    for d, heights, rows in groups:
        gate = _fixed_gate(d, *heights, config)
        if gate is None:
            sites, _, read, terms = _step_plan(d, *heights, config)
            reading.append((rows, sites, read, terms))
        else:
            fixed.append((rows, gate))
    if reading:
        # One coefficient pass over every reading row. It runs before ``out``
        # is made, so that its stacks and ``out`` are never all held at once.
        rows = [r for group in reading for r in group[0]]
        ends = np.cumsum([len(group[0]) for group in reading])
        psi = states[sources[rows]]
        g_psi = np.empty_like(psi)
        o_psi = g_psi if all(read.matrix is terms[0][0] for _, _, read, terms in reading) else np.empty_like(psi)
        scale, residue = np.empty(len(rows)), np.empty(len(rows))
        lo = 0
        for (_, sites, read, ((g, g_residue, g_scale),)), hi in zip(reading, ends):
            g_psi[lo:hi] = apply_gate(psi[lo:hi], g, sites, n)
            if o_psi is not g_psi:
                o_psi[lo:hi] = apply_gate(psi[lo:hi], read.matrix, (read.site,), n)
            scale[lo:hi], residue[lo:hi] = g_scale, g_residue
            lo = hi
        theta = config.dt * (scale + config.nonlinearity.lam * _real_expectations(psi, o_psi))
        sin = np.sin(theta)
        bad = ~(sin * sin * residue <= UNITARY_ATOL)
        if bad.any():
            raise _not_unitary(reading[int(np.searchsorted(ends, bad.argmax(), side="right"))][1])
        psi *= np.cos(theta)[:, None]
        g_psi *= (-1j * sin)[:, None]
        g_psi += psi
        del psi, o_psi
    out = np.empty((len(sources), 1 << n), dtype=complex)
    if reading:
        out[rows] = g_psi
        del g_psi
    for rows, (sites, _, u) in fixed:
        out[rows] = apply_gate(states[sources[rows]], u, sites, n)
    nrm = np.sqrt(_row_products(out, out).real)
    bad = ~(np.abs(nrm - 1.0) <= NORM_ATOL)
    if bad.any():
        raise _norm_error(float(nrm[bad.argmax()]))
    return out


def _trajectory(state0: StateVector, foliation: Foliation, config: ModelConfig):
    """Fold ``ts_step`` over a foliation, yielding ``(state, surface, entry)`` after each step."""
    state, surface = state0, initial_surface(config.n_sites, config.horizon)
    for d in foliation.steps:
        state, surface, entry = ts_step(state, surface, d, config)
        yield state, surface, entry


def evolve(state0: StateVector, foliation: Foliation, config: ModelConfig):
    """Fold ``ts_step`` over a foliation; returns (final state, record)."""
    state, steps = state0, []
    for state, _, entry in _trajectory(state0, foliation, config):
        steps.append(entry)
    return state, TrajectoryRecord(tuple(steps), config.n_sites)


# Widest run of adjacent sites one block covers (a 2^w matrix on the middle
# axis), as each caller of _blocks asks. On the dense_maps records of seeds
# 1-10 (two workers, one BLAS thread, 2-core host; mean of per-seed medians
# of 15 calls), compose_map took 4.9 ms at 6 against 12.0, 10.0, 5.6 and
# 10.9 ms at 4, 5, 7 and 8; the degeneracy walk's main run, 11.1 ms at 4
# and 11.2 ms at 6.
_MAP_WINDOW = 6
_WINDOW = 4


def _blocks(gates, window: int) -> list:
    """``(u, sites)`` blocks whose product, in order, is that of the ``(u, sites)`` gates.

    A gate may move back to the last block that shares a site with it, or
    to any later block, since gates on disjoint sites commute. It joins the
    first of those whose sites, with its own, are still one block: a pair,
    or sites within ``window`` adjacent ones (``_MAP_WINDOW`` for
    ``compose_map``, ``_WINDOW`` for the degeneracy walk). If none fits, it
    starts a new block. A block's ``sites`` are its pair, or every site from
    its lowest to its highest, and ``u`` is its gates applied to the rows of
    that register's identity. ``apply_gate`` applies it in the degeneracy
    walk and to ``compose_map``'s column slabs, and ``_fold`` takes it as a
    factor. A zero-angle rotation (the shared ``_identity``) is dropped, so
    it is never applied; gates that are all identities make no block.
    """
    blocks = []  # (site set, gates)
    for u, sites in gates:
        if u is _identity(len(u)):
            continue
        gate = set(sites)
        first = max((k for k, (block, _) in enumerate(blocks) if block & gate), default=0)
        for block, members in blocks[first:]:
            joined = block | gate
            if len(joined) <= 2 or max(joined) - min(joined) < window:
                block |= gate
                members.append((u, sites))
                break
        else:
            blocks.append((gate, [(u, sites)]))
    fused = []
    for sites, members in blocks:
        lo, hi = min(sites), max(sites)
        register = tuple(range(lo, hi + 1)) if hi - lo < window else (lo, hi)
        w = len(register)
        u = np.eye(1 << w, dtype=complex).ravel()
        for g, gate_sites in members:
            u = apply_gate(u, g, [register.index(s) for s in gate_sites], 2 * w)
        fused.append((u.reshape(1 << w, 1 << w), register))
    return fused


def _workers() -> int:
    """Threads that ``_in_workers`` shares its chunks over: ``min(2, cores)``, or one beside a BLAS pool.

    OpenBLAS sizes its pool at load from ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else the
    cores; a pool of two or more threads already loads them, and a second worker would oversubscribe them.
    """
    cores = len(os.sched_getaffinity(0))
    sizes = [os.environ.get(var, "").strip() for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    pool = next((int(size) for size in sizes if size.isdecimal() and int(size) > 0), cores)
    return 1 if pool > 1 else min(2, cores)


def _in_workers(work, chunks) -> list:
    """``[work(chunks[k::w]) for k in range(w)]`` with each share on its own thread.

    Share 0 runs on the caller's thread; a pool of helper threads is made
    only for a call of two or more chunks. numpy releases the GIL inside
    ``matmul``, so two single-threaded BLAS products run at once. Which
    share a chunk falls in never changes what it computes, so results do not
    depend on ``w``. An exception raised in any share is raised here.
    """
    w = max(1, min(_workers(), len(chunks)))
    if w == 1:
        return [work(chunks)]
    with ThreadPoolExecutor(w - 1) as pool:
        helpers = [pool.submit(work, chunks[k::w]) for k in range(1, w)]
        first = work(chunks[0::w])
    return [first] + [share.result() for share in helpers]


# Amplitudes of one column slab in compose_map, 32 columns of a 2^10-site
# map: a slab and one block's product are 1 MiB per worker. With slabs of
# 2^16 the N = 10 map's traced peak with two workers was 20.0 MiB, not 18.0.
_MAP_CHUNK = 1 << 15
# Most sites one factor of compose_map's start spans: an eight-site factor
# is 1 MiB, as much as a worker's slab and block.
_FACTOR_SITES = 8
# Entries of one chunk of _contract. Beside an eight-site factor and the
# N = 10 map, two workers' chunks peaked at 17.6 MiB traced; chunks of 2^15
# took 18.1 MiB in the same time.
_CONTRACT_CHUNK = 1 << 14


def _leading(blocks) -> int:
    """How many of ``blocks``, from the first, span at most ``_FACTOR_SITES`` sites together."""
    seen = set()
    for k, (_, sites) in enumerate(blocks):
        seen.update(sites)
        if len(seen) > _FACTOR_SITES:
            return k
    return len(blocks)


def _contract(left, right, sites) -> np.ndarray:
    """The flat matrix of ``left · right``, two ``(u, sites)`` factors, on the ascending ``sites``.

    Each factor's sites ascend and are among ``sites``. The identity acts
    on every site neither factor touches, and an entry sums over the sites
    both touch only: with one axis per row or column bit, the factors' own
    bits index the rows and columns of one matrix product and the shared
    sites' bits its inner index. Chunks of its rows alternate over
    ``_in_workers``, each written once into a strided view of the matrix,
    where an untouched site's axis steps its row and column at once. The
    matrix is zeroed first only if such a site leaves entries unwritten.
    """
    # A bit is (site, 0), its row, or (site, 1), its column: left sums over
    # its shared sites' column bits, right over their row bits.
    ops = []
    for (u, u_sites), other, summed in ((left, right[1], 1), (right, left[1], 0)):
        k = len(u_sites)
        own = [(s, c) for c in (0, 1) for s in u_sites if c != summed or s not in other]
        bits = own + [(s, summed) for s in u_sites if s in other]
        ops.append((u.reshape((2,) * 2 * k).transpose([u_sites.index(s) + k * c for s, c in bits]), own))
    if len(ops[1][1]) > len(ops[0][1]):  # more own bits give the rows: chunks of few wide rows run slower
        ops.reverse()
    (rows, row_bits), (cols, col_bits) = ops
    cols = cols.reshape(1 << len(col_bits), -1).T
    m = len(sites)
    untouched = [k for k, s in enumerate(sites) if s not in left[1] + right[1]]
    out = (np.zeros if untouched else np.empty)(1 << 2 * m, dtype=complex)
    # A column bit's stride; a row bit's is 2^m times it, and an untouched site's axis the sum of both.
    strides = [(out.itemsize << m - 1 - sites.index(s)) << m * (1 - c) for s, c in row_bits + col_bits]
    free = [(out.itemsize << m - 1 - k) * ((1 << m) + 1) for k in untouched]
    view = np.lib.stride_tricks.as_strided(out, [2] * len(strides + free), strides + free)
    height = min(1 << len(row_bits), max(1, _CONTRACT_CHUNK >> len(col_bits)))
    lead = len(row_bits) + 1 - height.bit_length()  # row bits fixed in one chunk
    shape = [2] * (len(strides) - lead) + [1] * len(free)

    def work(chunks):
        for j in chunks:
            at = np.unravel_index(j, [2] * lead)
            view[at] = (rows[at].reshape(height, -1) @ cols).reshape(shape)

    _in_workers(work, range(1 << lead))
    return out


def _fold(blocks) -> tuple:
    """``(u, sites)``: the product of ``_blocks`` blocks in order, on their ascending sites (no site if none)."""
    factor = blocks[0] if blocks else (np.ones((1, 1), dtype=complex), ())
    for block in blocks[1:]:
        sites = tuple(sorted({*factor[1], *block[1]}))
        factor = (_contract(block, factor, sites).reshape(1 << len(sites), -1), sites)
    return factor


def compose_map(record: TrajectoryRecord) -> np.ndarray:
    """Dense product of the recorded per-step unitaries, in application order.

    The result acts on state-independent objects; it is unitary even though
    the state map that produced the record is not linear. The gates fuse
    into ``_blocks`` of up to ``_MAP_WINDOW`` adjacent sites. The leading
    blocks on at most ``_FACTOR_SITES`` sites fold into a right factor, the
    next ones on at most as many into a left factor, and the map is written
    once as ``left · right`` (``_contract``), or is the right factor's
    matrix if there is no left one and it spans every site. Any later
    blocks (long records, far pairs) walk its columns in slabs of at most
    ``_MAP_CHUNK`` amplitudes through ``apply_gate``, the slab's 2^k columns
    the trailing spectator qubits of an (n + k)-site vector. Chunks and
    slabs alternate between the workers of ``_in_workers``, each the same
    work.
    """
    n = record.n_sites
    check_dense_sites("composed map", n)
    blocks = _blocks(((step.unitary, step.sites) for step in record.steps), _MAP_WINDOW)
    front = _leading(blocks)
    back = front + _leading(blocks[front:])
    left, right = _fold(blocks[front:back]), _fold(blocks[:front])
    m = right[0] if not left[1] and right[1] == tuple(range(n)) else _contract(left, right, tuple(range(n)))
    m = m.reshape(1 << n, 1 << n)
    walk = blocks[back:]
    width = min(1 << n, _MAP_CHUNK >> n)
    k = width.bit_length() - 1

    def work(starts):
        for a in starts:
            slab = m[:, a : a + width].copy()
            for u, sites in walk:
                slab = apply_gate(slab, u, sites, n + k)
            m[:, a : a + width] = slab

    if walk:
        _in_workers(work, range(0, 1 << n, width))
    return m


# Rows of u^dag u formed at a time by _unitarity_defect: 64 rows of a
# 2^10-column map is a 1 MiB product beside a 1 MiB column copy, for each
# of the two workers, against 16 MiB for the whole product.
_DEFECT_BLOCK = 64


def _unitarity_defect(u: np.ndarray) -> float:
    """max|u^dag u - I|, formed one block of rows at a time, NaN if any entry is NaN.

    u^dag u is Hermitian for any u, so each block of rows is formed from its
    diagonal on: the upper half holds every entry's magnitude. Block j is
    paired with block -1 - j, so every pair meets the same number of
    columns, and the pairs alternate between the workers of
    ``_in_workers``: two workers take equal shares of the triangle. A
    block's product is dropped before the next is formed, so a worker holds
    one product and its column copy at a time.
    """
    dim = u.shape[1]
    starts = range(0, dim, _DEFECT_BLOCK)
    pairs = [sorted({starts[j], starts[-1 - j]}) for j in range((len(starts) + 1) // 2)]

    def defect(a):
        b = min(a + _DEFECT_BLOCK, dim)
        rows = u[:, a:b].conj().T @ u[:, a:]
        k = np.arange(b - a)
        rows[k, k] -= 1.0
        return np.abs(rows).max()

    def work(share):
        # np.max, unlike max(), propagates a NaN from any block.
        return np.max([defect(a) for pair in share for a in pair])

    return float(np.max(_in_workers(work, pairs)))


def linear_config(config: ModelConfig) -> ModelConfig:
    """The lambda = 0 control twin of a configuration."""
    return replace(config, nonlinearity=replace(config.nonlinearity, lam=0.0))
