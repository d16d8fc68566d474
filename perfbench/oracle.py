"""Independent reference computations for checking tslattice's reports.

Nothing here imports tslattice. The brickwork rules, the foliation
generators and the statevector evolution are written from the model's
definition (README "Model"), so a report that agrees with them was not
checked against a stored copy of the program's own output.

Conventions shared with the model: site 0 is the most significant bit, the
interaction-picture field is O(i, tau) = D O_base D^dag with
D = diag(exp(+i omega tau / 2), exp(-i omega tau / 2)), link (i, i+1) carries
gates at times t = i (mod 2), and the initial state is |+>^n.
"""

from __future__ import annotations

from collections import deque

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)  # the config's default base_operator

# A deformation is ("A", site) for a site advance or ("G", i, t) for the
# gate on link (i, i+1) at time t; the text form matches foliation files.


# -- brickwork rules -------------------------------------------------------------


def enabled(heights, applied, horizon):
    """Enabled deformations in the canonical (time, leading site, variant) order."""
    n = len(heights)
    out = []
    for i in range(n - 1):
        t = heights[i]
        if t < horizon and heights[i + 1] == t and t % 2 == i % 2 and (i, t) not in applied:
            out.append(((t, i, 0), ("G", i, t)))
    for i in range(n):
        tau = heights[i]
        if tau >= horizon:
            continue
        pending = any(
            0 <= lo and lo + 1 < n and tau % 2 == lo % 2 and (lo, tau) not in applied
            for lo in (i - 1, i)
        )
        if not pending:
            out.append(((tau, i, 1), ("A", i)))
    out.sort()
    return [d for _, d in out]


def advance(heights, applied, d):
    if d[0] == "A":
        h = list(heights)
        h[d[1]] += 1
        return tuple(h), applied
    return heights, applied | {(d[1], d[2])}


def reachable_census(n, horizon):
    """(surfaces reachable from the flat initial one, enabled pairs summed over them)."""
    start = ((0,) * n, frozenset())
    seen = {start}
    queue = deque([start])
    pairs = 0
    while queue:
        heights, applied = queue.popleft()
        ds = enabled(heights, applied, horizon)
        pairs += len(ds) * (len(ds) - 1) // 2
        for d in ds:
            nxt = advance(heights, applied, d)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen), pairs


def synchronous_foliation(n, horizon):
    """Whole gate layer first, then every enabled advance, layer by layer."""
    heights, applied = (0,) * n, frozenset()
    steps = []
    ds = enabled(heights, applied, horizon)
    while ds:
        gates = [d for d in ds if d[0] == "G"]
        for d in gates or ds:
            steps.append(d)
            heights, applied = advance(heights, applied, d)
        ds = enabled(heights, applied, horizon)
    return steps


def staircase_foliation(n, horizon):
    """Always the first enabled deformation in canonical order."""
    heights, applied = (0,) * n, frozenset()
    steps = []
    ds = enabled(heights, applied, horizon)
    while ds:
        steps.append(ds[0])
        heights, applied = advance(heights, applied, ds[0])
        ds = enabled(heights, applied, horizon)
    return steps


def random_foliation(n, horizon, seed):
    """Uniform choice among enabled deformations, drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    heights, applied = (0,) * n, frozenset()
    steps = []
    ds = enabled(heights, applied, horizon)
    while ds:
        d = ds[int(rng.integers(len(ds)))]
        steps.append(d)
        heights, applied = advance(heights, applied, d)
        ds = enabled(heights, applied, horizon)
    return steps


def foliation_text(steps):
    return "".join(f"A {d[1]}\n" if d[0] == "A" else f"G {d[1]} {d[2]}\n" for d in steps)


# -- statevector evolution ---------------------------------------------------------


class Model:
    """Flat model parameters, as in a tslattice config file."""

    def __init__(self, n, horizon, omega, mu, coupling, lam, dt, kind):
        self.n, self.horizon = n, horizon
        self.omega, self.mu, self.coupling, self.lam, self.dt = omega, mu, coupling, lam, dt
        self.kind, self.base = kind, PAULI_X
        self.partner = n - 1  # the config's default partner_site

    def field(self, tau):
        ph = np.exp(0.5j * self.omega * tau * np.array([1.0, -1.0]))
        return ph[:, None] * self.base * ph.conj()[None, :]


def apply_gate(psi, u, sites):
    """Apply a 2x2 (one site) or 4x4 (two sites, first site is the high bit) matrix."""
    k = len(sites)
    g = u.reshape((2,) * (2 * k))
    out = np.tensordot(g, psi, axes=(list(range(k, 2 * k)), list(sites)))
    return np.moveaxis(out, list(range(k)), list(sites))


def local_expectation(psi, op, site):
    phi = np.tensordot(op, psi, axes=([1], [site]))
    return float(np.vdot(np.moveaxis(psi, site, 0), phi).real)


def plus_state(n):
    return np.full((2,) * n, 2.0 ** (-n / 2), dtype=complex)


def evolve(model, steps, probe=None):
    """Fold the frozen-coefficient rule over ``steps``, starting from |+>^n.

    Returns the final state and, when ``probe`` is a site, the
    interaction-picture expectation <O(probe, tau_probe)> after every step.
    """
    # Imported here so that scipy stays out of the set-up and peak memory
    # the benchmark measures before its checks run.
    from scipy.linalg import expm

    m = model
    psi = plus_state(m.n)
    heights = [0] * m.n
    trail = []
    for d in steps:
        if d[0] == "G":
            _, i, t = d
            o = m.field(t)
            u = expm(-1j * m.coupling * np.kron(o, o))
            psi = apply_gate(psi, u, (i, i + 1))
        else:
            i = d[1]
            oi = m.field(heights[i])
            j = m.partner
            if m.kind == "operator_nonlocal" and i != j:
                oj = m.field(heights[j])
                gen = m.mu * np.kron(oi, np.eye(2)) + m.lam * np.kron(oi, oj)
                psi = apply_gate(psi, expm(-1j * m.dt * gen), (i, j))
            else:
                c = m.lam * local_expectation(psi, oi, i) if m.kind == "local" else 0.0
                psi = apply_gate(psi, expm(-1j * m.dt * (m.mu + c) * oi), (i,))
            heights[i] += 1
        if probe is not None:
            trail.append(local_expectation(psi, m.field(heights[probe]), probe))
    return psi, trail


def final_expectations(model, psi):
    """<O(i, T)> at every site of a final state."""
    o = model.field(model.horizon)
    return [local_expectation(psi, o, i) for i in range(model.n)]


def phase_distance(a, b):
    """min over phi of ||a - exp(i phi) b||."""
    z = np.vdot(a, b)
    phase = z.conjugate() / abs(z) if abs(z) > 1e-300 else 1.0
    return float(np.linalg.norm((a - phase * b).ravel()))
