"""Reference pieces the tests check the program against.

Each one is written apart from the program's fast path: gates act as dense
``np.kron``-embedded operators, exponentials come from ``eigh`` or a step is
integrated by RK4, and the coefficient is read with its own ``np.vdot``. Only
the step plan (``dynamics._step_plan``: which sites, which generator terms,
and the read, the field whose expectation sets the coefficient and its
site) is shared, since it is the model being stepped: the reference embeds
the plan's terms and its read field on its own.
"""

import numpy as np

from tslattice import dynamics
from tslattice.quantum_core import StateVector, is_hermitian
from tslattice.spacetime import SiteAdvance, apply_deformation


def random_state(n_sites: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random state: normalized complex Gaussian amplitudes."""
    dim = 2**n_sites
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(amps / np.linalg.norm(amps), n_sites)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Q of the QR decomposition of a complex Gaussian matrix."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


def product_state(single_site_states) -> StateVector:
    """Tensor product of per-site 2-vectors (site 0 first)."""
    amps = np.array([1.0], dtype=complex)
    for s in single_site_states:
        amps = np.kron(amps, np.asarray(s, dtype=complex).reshape(2))
    return StateVector(amps / np.linalg.norm(amps), len(single_site_states))


def deformation_sites(d) -> tuple[int, ...]:
    """Sites touched by a deformation (its lattice support)."""
    if isinstance(d, SiteAdvance):
        return (d.site,)
    return d.link


def expm_hermitian(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i*dt*h) by exact eigendecomposition of the Hermitian h.

    No lattice step calls it: ``ts_step`` builds every gate from closed-form
    rotations of involutions. It is the independent reference those gates
    are tested against.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, atol=1e-12):
        raise ValueError("matrix is not Hermitian within 1e-12")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * dt * w)) @ v.conj().T


def embedded(m: np.ndarray, sites, n: int) -> np.ndarray:
    """Dense 2^n matrix of m acting on ``sites`` (site 0 = MSB), built by np.kron.

    For a pair (a, b) the row index of m is (bit_a << 1) | bit_b, in the
    given order, so reversed pairs are covered too.
    """
    k = len(sites)
    full = np.kron(m, np.eye(2 ** (n - k)))
    # Tensor axis j of ``full`` is site order[j]; put site s back on axis s.
    order = list(sites) + [s for s in range(n) if s not in sites]
    back = list(np.argsort(order))
    t = full.reshape((2,) * (2 * n)).transpose(back + [n + j for j in back])
    return t.reshape(2**n, 2**n)


def apply_gate(state: StateVector, u: np.ndarray, sites) -> StateVector:
    """``u`` on ``sites`` of ``state``, as a dense embedded operator; the result is norm-checked."""
    return StateVector(embedded(u, sites, state.n_sites) @ state.amplitudes, state.n_sites)


def step_plan(surface, d, cfg):
    """``dynamics._step_plan`` of ``d`` on ``surface``: ``(sites, c, read, terms)``."""
    return dynamics._step_plan(d, *dynamics._read_heights(surface, d, dynamics._group_key(cfg)), cfg)


def reference_generator(state: StateVector, surface, d, cfg):
    """``(sites, generator, c)`` of one deformation, c read from ``state`` where the plan reads it."""
    sites, c, read, terms = step_plan(surface, d, cfg)
    if read is not None:
        field = embedded(read.matrix, (read.site,), cfg.n_sites)
        c = cfg.nonlinearity.lam * np.vdot(state.amplitudes, field @ state.amplitudes).real
        ((g, residue, scale),) = terms
        terms = ((g, residue, scale + c),)
    return sites, sum(scale * g for g, _, scale in terms), c


def reference_step(state: StateVector, surface, d, cfg):
    """One step from the reference pieces: ``(state', surface', c, u)``."""
    sites, gen, c = reference_generator(state, surface, d, cfg)
    u = expm_hermitian(gen, cfg.dt if isinstance(d, SiteAdvance) else 1.0)
    return apply_gate(state, u, sites), apply_deformation(surface, d), c, u


# RK4's error per step falls as (dt / substeps)^4: at dt = 0.3 and lambda = 1.3
# on four sites, 400 substeps leave each step within 2e-14 of the exact flow,
# well inside the 1e-12 the step is checked to.
RK4_SUBSTEPS = 400


def rk4_step(state: StateVector, surface, d, cfg) -> StateVector:
    """One step as the flow of i dpsi/ds = H(psi(s)) psi over its duration, by RK4.

    H(psi) is the plan's generator, with c = lambda <psi|O|psi> read again at
    every stage where the plan reads the state. The dense generator and the
    read field are built once per step; only <O> is taken per stage.
    """
    n = cfg.n_sites
    sites, _, read, terms = step_plan(surface, d, cfg)
    fixed = embedded(sum(scale * g for g, _, scale in terms), sites, n)
    if read is None:
        def generator(psi):
            return fixed
    else:
        ((g, _, _),) = terms
        coupled = embedded(g, sites, n)
        field = embedded(read.matrix, (read.site,), n)

        def generator(psi):
            return fixed + cfg.nonlinearity.lam * np.vdot(psi, field @ psi).real * coupled

    def rhs(psi):
        return -1j * (generator(psi) @ psi)

    h = (cfg.dt if isinstance(d, SiteAdvance) else 1.0) / RK4_SUBSTEPS
    psi = state.amplitudes
    for _ in range(RK4_SUBSTEPS):
        k1 = rhs(psi)
        k2 = rhs(psi + 0.5 * h * k1)
        k3 = rhs(psi + 0.5 * h * k2)
        k4 = rhs(psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return StateVector(psi, n)
