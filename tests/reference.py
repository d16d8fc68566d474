"""Reference pieces the tests check the program against.

Each one is written apart from the program's fast path: gates act as dense
``np.kron``-embedded operators, exponentials come from ``eigh``, and the
frozen coefficient is read with its own ``np.vdot``. Only the step plan
(``dynamics._step_plan``: which sites, which generator terms, where the
coefficient is read) is shared, since it is the model being stepped.
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


def reference_generator(state: StateVector, surface, d, cfg):
    """``(sites, generator, c)`` of one deformation, c read from ``state`` where the plan reads it."""
    sites, c, read, terms = dynamics._step_plan(surface, d, cfg)
    if read is not None:
        site, tau = read
        field = embedded(dynamics.free_field(site, tau, cfg).matrix, (site,), cfg.n_sites)
        c = cfg.nonlinearity.lam * np.vdot(state.amplitudes, field @ state.amplitudes).real
        ((g, residue, scale),) = terms
        terms = ((g, residue, scale + c),)
    return sites, sum(scale * g for g, _, scale in terms), c


def reference_step(state: StateVector, surface, d, cfg):
    """One step from the reference pieces: ``(state', surface', c, u)``."""
    sites, gen, c = reference_generator(state, surface, d, cfg)
    u = expm_hermitian(gen, cfg.dt if isinstance(d, SiteAdvance) else 1.0)
    return apply_gate(state, u, sites), apply_deformation(surface, d), c, u
