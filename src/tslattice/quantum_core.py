"""Dense statevector and small-matrix linear algebra for the qubit lattice.

Conventions: hbar = 1, site 0 is the most significant bit of the basis index
(so ``amplitudes.reshape((2,) * n)`` puts site ``k`` on axis ``k``), and all
operations are pure: inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import _identity

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-14
UNITARY_ATOL = 1e-12
IMAG_ATOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def _norm_error(nrm: float) -> ValueError:
    return ValueError(f"state norm {nrm} deviates from 1 beyond {NORM_ATOL}")


def _imaginary_residue(imag: float) -> ArithmeticError:
    return ArithmeticError(f"expectation has imaginary residue {imag}")


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    # A NaN entry makes the maximum NaN, which fails the comparison.
    return bool(np.abs(m - m.conj().T).max() <= atol)


def is_unitary(m: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    return bool(np.abs(m.conj().T @ m - _identity(m.shape[0])).max() <= atol)


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over ``n_sites`` qubits."""

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if amps.shape != (2**self.n_sites,):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, expected 2^{self.n_sites}"
            )
        nrm = float(np.linalg.norm(amps))
        # A NaN or infinite amplitude makes the norm NaN or inf, which fails the test.
        if not abs(nrm - 1.0) <= NORM_ATOL:
            raise _norm_error(nrm)

    @classmethod
    def _unchecked(cls, amplitudes: np.ndarray, n_sites: int) -> "StateVector":
        """A state from a contiguous complex vector the caller has checked; no validation."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        object.__setattr__(state, "n_sites", n_sites)
        return state

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class SiteOperator:
    """2x2 operator acting on a single site."""

    matrix: np.ndarray
    site: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (2, 2):
            raise ValueError(f"site operator must be 2x2, got shape {m.shape}")
        if self.site < 0:
            raise ValueError(f"site index must be >= 0, got {self.site}")


@dataclass(frozen=True)
class DensityMatrix:
    """Single-site reduced state: 2x2, Hermitian, unit trace, PSD."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        if not is_hermitian(m, atol=1e-12):
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace {tr} deviates from 1 beyond 1e-12")
        evals = np.linalg.eigvalsh(m)
        if float(evals.min()) < -1e-12:
            raise ValueError(f"density matrix has eigenvalue {evals.min()} < -1e-12")


# -- state constructors -------------------------------------------------------


def zero_state(n_sites: int) -> StateVector:
    """|00...0>."""
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[0] = 1.0
    return StateVector(amps, n_sites)


def basis_state(n_sites: int, index: int) -> StateVector:
    """Computational basis state with the given integer index (site 0 = MSB)."""
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, n_sites)


def plus_state(n_sites: int) -> StateVector:
    """|+>^n, the uniform product state."""
    amps = np.full(2**n_sites, 2.0 ** (-n_sites / 2.0), dtype=complex)
    return StateVector(amps, n_sites)


def bell_pair_state(n_sites: int, site_a: int, site_b: int) -> StateVector:
    """(|0_a 0_b> + |1_a 1_b>)/sqrt(2) with every other site in |0>."""
    if site_a == site_b:
        raise ValueError("Bell pair needs two distinct sites")
    for s in (site_a, site_b):
        if not 0 <= s < n_sites:
            raise ValueError(f"site {s} out of range for {n_sites} sites")
    amps = np.zeros(2**n_sites, dtype=complex)
    hi = (1 << (n_sites - 1 - site_a)) | (1 << (n_sites - 1 - site_b))
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[hi] = 1.0 / math.sqrt(2.0)
    return StateVector(amps, n_sites)


# -- operations ---------------------------------------------------------------


def _check_site(state: StateVector, site: int) -> None:
    if not 0 <= site < state.n_sites:
        raise ValueError(f"site {site} out of range for {state.n_sites} sites")


def expectation(state: StateVector, op: SiteOperator) -> float:
    """<psi| O_site |psi> for a Hermitian single-site operator."""
    _check_site(state, op.site)
    if not is_hermitian(op.matrix):
        raise ValueError(f"operator at site {op.site} is not Hermitian within {HERMITIAN_ATOL}")
    return _real_expectation(state, op.matrix, op.site)


def _real_expectation(state: StateVector, matrix: np.ndarray, site: int) -> float:
    """<psi| matrix_site |psi> for a matrix the caller has found Hermitian."""
    raw = _kernels.expect_1q(state.amplitudes, matrix, site, state.n_sites)
    if abs(raw.imag) > IMAG_ATOL:
        raise _imaginary_residue(raw.imag)
    return float(raw.real)


def reduced_density(state: StateVector, site: int) -> DensityMatrix:
    """Partial trace onto one site."""
    _check_site(state, site)
    v = state.amplitudes.reshape(1 << site, 2, 1 << (state.n_sites - 1 - site))
    return DensityMatrix(np.einsum("air,ajr->ij", v, v.conj()))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2)||a - b||_1 for single-site density matrices."""
    evals = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.sum(np.abs(evals)))


def entanglement_entropy(state: StateVector, cut) -> float:
    """Von Neumann entropy (nats) of the reduced state on the site set ``cut``."""
    cut = sorted(set(int(s) for s in cut))
    if not cut:
        raise ValueError("cut must be a nonempty set of sites")
    if len(cut) >= state.n_sites:
        raise ValueError("cut must be a proper subset of the sites")
    for s in cut:
        _check_site(state, s)
    rest = [s for s in range(state.n_sites) if s not in cut]
    t = state.amplitudes.reshape((2,) * state.n_sites)
    m = t.transpose(cut + rest).reshape(2 ** len(cut), -1)
    sv = np.linalg.svd(m, compute_uv=False)
    p = sv**2
    p = p[p > 1e-18]
    return float(-np.sum(p * np.log(p)))


def state_distance(a: StateVector, b: StateVector) -> float:
    """Global-phase-invariant distance sqrt(2 - 2|<a|b>|).

    Evaluated as the norm of the phase-aligned difference min_phi
    ||a - e^{i phi} b||, which is the same quantity but keeps full double
    precision near zero (the naive 2 - 2|<a|b>| cancels catastrophically).
    """
    if a.n_sites != b.n_sites:
        raise ValueError(f"dimension mismatch: {a.n_sites} vs {b.n_sites} sites")
    z = np.vdot(a.amplitudes, b.amplitudes)
    phase = z.conjugate() / abs(z) if abs(z) > 1e-300 else 1.0
    return float(np.linalg.norm(a.amplitudes - phase * b.amplitudes))


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_r|b_r> for each row r of two ``(B, 2^n)`` amplitude stacks."""
    return np.einsum("ri,ri->r", a.conj(), b)


def _state_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``state_distance`` of each row pair of two ``(B, 2^n)`` amplitude stacks."""
    z = _row_products(a, b)
    size = np.abs(z)
    phase = np.divide(z.conj(), size, out=np.ones_like(z), where=size > 1e-300)
    return np.linalg.norm(a - phase[:, None] * b, axis=1)
