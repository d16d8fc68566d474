"""Statevector and small-matrix operations against independent oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from reference import apply_gate, expm_hermitian, product_state, random_state

from tslattice.dynamics import _closed_form_gate, _involution_residue
from tslattice.quantum_core import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    SiteOperator,
    StateVector,
    _state_distances,
    basis_state,
    bell_pair_state,
    entanglement_entropy,
    expectation,
    is_hermitian,
    is_unitary,
    plus_state,
    reduced_density,
    state_distance,
    trace_distance,
    zero_state,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def random_unitary(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def embed_oracle(u, sites, n):
    """Independent full-space embedding by axis-sorted kron products."""
    dim_u = u.shape[0]
    if dim_u == 2:
        factors = [u if k == sites[0] else IDENTITY_2 for k in range(n)]
        full = np.array([[1.0]], dtype=complex)
        for f in factors:
            full = np.kron(full, f)
        return full
    # 4x4 on arbitrary (a, b): permute into adjacent order via index arithmetic
    a, b = sites
    full = np.zeros((2**n, 2**n), dtype=complex)
    sa, sb = 1 << (n - 1 - a), 1 << (n - 1 - b)
    for col in range(2**n):
        ca, cb = (col // sa) % 2, (col // sb) % 2
        base = col - ca * sa - cb * sb
        for ra in range(2):
            for rb in range(2):
                row = base + ra * sa + rb * sb
                full[row, col] += u[(ra << 1) | rb, (ca << 1) | cb]
    return full


class TestStateVector:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), 2)
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0], dtype=complex), 1)

    @pytest.mark.parametrize(
        "amps,shown",
        [
            (np.full(4, np.nan), "nan"),
            ([1.0, 0.0, np.nan, 0.0], "nan"),
            ([1.0, 0.0, 0.0, 1j * np.nan], "nan"),
            ([np.inf, 0.0, 0.0, 0.0], "inf"),
            ([1.0, -np.inf, 0.0, 0.0], "inf"),
            ([np.inf, np.nan, 0.0, 0.0], "nan"),
        ],
    )
    def test_non_finite_amplitudes_rejected(self, amps, shown):
        with pytest.raises(ValueError, match=f"^state norm {shown} deviates from 1 beyond 1e-12$"):
            StateVector(np.array(amps, dtype=complex), 2)

    def test_basis_and_product_constructors(self):
        psi = product_state([(1, 0), (0, 1)])
        assert_allclose(psi.amplitudes, basis_state(2, 0b01).amplitudes)
        assert_allclose(plus_state(1).amplitudes, [1 / math.sqrt(2)] * 2)

    def test_bell_pair_on_distant_sites(self):
        psi = bell_pair_state(4, 0, 3)
        nonzero = np.flatnonzero(np.abs(psi.amplitudes) > 1e-15)
        assert list(nonzero) == [0b0000, 0b1001]


class TestReferenceApplyOnSite:
    """The tests' dense gate application against definitions and an index-arithmetic oracle."""

    def test_identity_leaves_state(self):
        rng = np.random.default_rng(7)
        psi = random_state(3, rng)
        out = apply_gate(psi, IDENTITY_2, (1,))
        assert_allclose(out.amplitudes, psi.amplitudes)

    def test_pauli_x_flips_msb(self):
        out = apply_gate(zero_state(2), PAULI_X, (0,))
        assert_allclose(out.amplitudes, basis_state(2, 0b10).amplitudes)

    def test_hadamard_definition(self):
        out = apply_gate(zero_state(1), HADAMARD, (0,))
        assert_allclose(out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            psi = random_state(n, rng)
            u = random_unitary(2, rng)
            site = int(rng.integers(n))
            out = apply_gate(psi, u, (site,))
            expected = embed_oracle(u, (site,), n) @ psi.amplitudes
            assert_allclose(out.amplitudes, expected, atol=1e-13)


class TestReferenceApplyOnLink:
    def test_identity(self):
        rng = np.random.default_rng(3)
        psi = random_state(3, rng)
        out = apply_gate(psi, np.eye(4), (0, 2))
        assert_allclose(out.amplitudes, psi.amplitudes)

    def test_cnot_control_off(self):
        out = apply_gate(zero_state(2), CNOT, (0, 1))
        assert_allclose(out.amplitudes, zero_state(2).amplitudes)

    def test_cnot_bell_preparation(self):
        plus0 = apply_gate(zero_state(2), HADAMARD, (0,))
        out = apply_gate(plus0, CNOT, (0, 1))
        assert_allclose(out.amplitudes, bell_pair_state(2, 0, 1).amplitudes, atol=1e-15)

    def test_matches_kron_oracle_arbitrary_pairs(self):
        rng = np.random.default_rng(5)
        for n, sites in ((3, (0, 2)), (4, (3, 1)), (5, (4, 0))):
            psi = random_state(n, rng)
            u = random_unitary(4, rng)
            out = apply_gate(psi, u, sites)
            expected = embed_oracle(u, sites, n) @ psi.amplitudes
            assert_allclose(out.amplitudes, expected, atol=1e-13)


class TestExpectation:
    def test_eigenstate_values(self):
        assert expectation(zero_state(1), SiteOperator(PAULI_Z, 0)) == pytest.approx(1.0)
        assert expectation(plus_state(1), SiteOperator(PAULI_X, 0)) == pytest.approx(1.0)

    def test_bell_state_symmetry(self):
        bell = bell_pair_state(2, 0, 1)
        assert expectation(bell, SiteOperator(PAULI_Z, 0)) == pytest.approx(0.0, abs=1e-14)

    def test_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(zero_state(1), SiteOperator(np.array([[0, 1], [0, 0]]), 0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_real_and_phase_invariant(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(3, rng)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = h + h.conj().T
        op = SiteOperator(h, 1)
        e = expectation(psi, op)
        rotated = StateVector(np.exp(1j * rng.uniform(0, 2 * np.pi)) * psi.amplitudes, 3)
        assert expectation(rotated, op) == pytest.approx(e, abs=1e-12)


def partial_trace_oracle(psi, n, site):
    """Direct sum over the complement basis, independent of reshaping tricks."""
    rho = np.zeros((2, 2), dtype=complex)
    stride = 1 << (n - 1 - site)
    for a in range(2):
        for b in range(2):
            for idx in range(2**n):
                if (idx // stride) % 2 != a:
                    continue
                jdx = idx - a * stride + b * stride
                rho[a, b] += psi[idx] * np.conj(psi[jdx])
    return rho


class TestReducedDensity:
    def test_product_state_marginal(self):
        psi = product_state([(1, 0), (0.6, 0.8)])
        rho = reduced_density(psi, 0)
        assert_allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_bell_marginal_maximally_mixed(self):
        rho = reduced_density(bell_pair_state(2, 0, 1), 1)
        assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_schmidt_angle_against_oracle(self):
        # cos(theta)|00> + sin(theta)|11> -> diag(cos^2, sin^2); expected
        # values computed with the explicit partial-trace sum below.
        theta = 0.7
        amps = np.zeros(4, dtype=complex)
        amps[0b00] = math.cos(theta)
        amps[0b11] = math.sin(theta)
        psi = StateVector(amps, 2)
        rho = reduced_density(psi, 0)
        assert_allclose(rho.matrix, partial_trace_oracle(amps, 2, 0), atol=1e-15)
        assert_allclose(np.diag(rho.matrix).real, [math.cos(theta) ** 2, math.sin(theta) ** 2])

    def test_random_states_match_oracle(self):
        rng = np.random.default_rng(13)
        for n in (2, 4):
            psi = random_state(n, rng)
            for site in range(n):
                rho = reduced_density(psi, site)
                assert_allclose(
                    rho.matrix, partial_trace_oracle(psi.amplitudes, n, site), atol=1e-13
                )

    def test_unitary_elsewhere_leaves_marginal(self):
        rng = np.random.default_rng(17)
        psi = random_state(4, rng)
        u = random_unitary(2, rng)
        before = reduced_density(psi, 3).matrix
        after = reduced_density(apply_gate(psi, u, (1,)), 3).matrix
        assert_allclose(after, before, atol=1e-12)


class TestTraceDistance:
    def test_identical_states(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.diag([0.0, 1.0]))
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_zero_vs_plus_closed_form(self):
        # Eigenvalues of (|0><0| - |+><+|) are +-1/sqrt(2).
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.full((2, 2), 0.5))
        assert trace_distance(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-14)

    def test_symmetry_and_triangle_on_random_triples(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            mats = []
            for _ in range(3):
                psi = random_state(2, rng)
                mats.append(reduced_density(psi, 0))
            a, b, c = mats
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


class TestEntanglementEntropy:
    def test_product_state_zero(self):
        psi = product_state([(0.6, 0.8), (1, 0), (1 / math.sqrt(2), 1j / math.sqrt(2))])
        for cut in ({0}, {1}, {2}, {0, 1}, {0, 2}):
            assert entanglement_entropy(psi, cut) <= 1e-12

    def test_bell_pair_ln2(self):
        # Schmidt coefficients are (1/sqrt2, 1/sqrt2) -> entropy ln 2.
        assert entanglement_entropy(bell_pair_state(2, 0, 1), {0}) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_basis_product(self):
        assert entanglement_entropy(zero_state(2), {0}) == 0.0

    def test_schmidt_oracle_random(self):
        rng = np.random.default_rng(29)
        psi = random_state(4, rng)
        cut = [0, 2]
        # independent oracle: gather the bipartition matrix by bit surgery
        m = np.zeros((4, 4), dtype=complex)
        for idx in range(16):
            bits = [(idx >> (3 - k)) & 1 for k in range(4)]
            row = (bits[0] << 1) | bits[2]
            col = (bits[1] << 1) | bits[3]
            m[row, col] = psi.amplitudes[idx]
        p = np.linalg.svd(m, compute_uv=False) ** 2
        p = p[p > 1e-18]
        expected = float(-np.sum(p * np.log(p)))
        assert entanglement_entropy(psi, cut) == pytest.approx(expected, abs=1e-12)

    def test_rejects_degenerate_cuts(self):
        psi = zero_state(2)
        with pytest.raises(ValueError):
            entanglement_entropy(psi, set())
        with pytest.raises(ValueError):
            entanglement_entropy(psi, {0, 1})


class TestExpmHermitian:
    """The tests' eigh reference for the closed-form gates, against scipy."""
    def test_zero_generator(self):
        assert_allclose(expm_hermitian(np.zeros((2, 2)), 0.37), np.eye(2))

    def test_sigma_z_quarter_turn(self):
        # Diagonal exponentiation: exp(-i pi/2 sigma_z) = diag(-i, i).
        u = expm_hermitian(PAULI_Z, math.pi / 2)
        assert_allclose(u, np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)]), atol=1e-15)

    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(31)
        for dim in (2, 4):
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = h + h.conj().T
            dt = float(rng.uniform(0.01, 1.5))
            assert_allclose(
                expm_hermitian(h, dt), scipy.linalg.expm(-1j * dt * h), atol=1e-12
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_always_unitary(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = h + h.conj().T
        u = expm_hermitian(h, float(rng.uniform(0, 2)))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(np.array([[0, 1], [0, 0]]), 1.0)


class TestExpmInvolution:
    """The closed form every lattice step uses, exp(-i theta g) for an involution g."""

    def test_matches_scipy_expm_for_paulis_and_products(self):
        gens = (PAULI_X, PAULI_Y, PAULI_Z, np.kron(PAULI_X, PAULI_Y), np.kron(PAULI_Z, PAULI_Z))
        for g in gens:
            residue = _involution_residue(g)
            sites = (0,) if g.shape == (2, 2) else (0, 1)
            for theta in (-2.3, 0.0, 0.4, math.pi / 2):
                assert_allclose(
                    _closed_form_gate(g, residue, theta, sites),
                    scipy.linalg.expm(-1j * theta * g),
                    rtol=0,
                    atol=1e-14,
                )


class TestValidationPredicates:
    def test_accepts_within_tolerance(self):
        assert is_unitary(PAULI_Y) and is_unitary(np.kron(HADAMARD, PAULI_X))
        assert is_hermitian(PAULI_Y) and is_hermitian(np.kron(PAULI_Z, PAULI_X))
        assert is_unitary((1 + 1e-13) * PAULI_X)
        assert is_hermitian(PAULI_Z + 1e-15j * PAULI_X)

    def test_rejects_beyond_tolerance(self):
        assert not is_unitary((1 + 1e-11) * PAULI_X)
        assert not is_unitary(np.kron(PAULI_X, 2 * IDENTITY_2))
        assert not is_hermitian(PAULI_Z + 1e-13j * PAULI_X)
        assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_nan_fails(self):
        for dim in (2, 4):
            m = np.eye(dim, dtype=complex)
            m[0, dim - 1] = np.nan
            assert not is_unitary(m)
            assert not is_hermitian(m)


class TestStateDistance:
    def test_identical_and_phase(self):
        rng = np.random.default_rng(37)
        psi = random_state(3, rng)
        assert state_distance(psi, psi) == 0.0
        rotated = StateVector(np.exp(1j * 1.234) * psi.amplitudes, 3)
        assert state_distance(psi, rotated) <= 1e-12

    def test_orthogonal(self):
        assert state_distance(basis_state(1, 0), basis_state(1, 1)) == pytest.approx(
            math.sqrt(2)
        )

    def test_matches_overlap_formula(self):
        rng = np.random.default_rng(41)
        a, b = random_state(3, rng), random_state(3, rng)
        overlap = abs(np.vdot(a.amplitudes, b.amplitudes))
        assert state_distance(a, b) == pytest.approx(math.sqrt(2 - 2 * overlap), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            state_distance(zero_state(2), zero_state(3))

    def test_row_distances_match_state_distance(self):
        # Random pairs, a phase-rotated pair, an identical pair, and an
        # orthogonal pair (no overlap, so no phase to align).
        rng = np.random.default_rng(43)
        pairs = [(random_state(3, rng), random_state(3, rng)) for _ in range(4)]
        psi = random_state(3, rng)
        pairs += [(psi, StateVector(np.exp(0.7j) * psi.amplitudes, 3)), (psi, psi)]
        pairs.append((basis_state(3, 0), basis_state(3, 5)))
        a = np.array([x.amplitudes for x, _ in pairs])
        b = np.array([y.amplitudes for _, y in pairs])
        want = [state_distance(x, y) for x, y in pairs]
        assert_allclose(_state_distances(a, b), want, rtol=0, atol=1e-15)


class TestNormAndCommutation:
    def test_norm_preserved_under_unitaries(self):
        rng = np.random.default_rng(43)
        psi = random_state(4, rng)
        for _ in range(100):
            psi = apply_gate(psi, random_unitary(2, rng), (int(rng.integers(4)),))
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    def test_disjoint_support_commutes(self):
        rng = np.random.default_rng(47)
        psi = random_state(4, rng)
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        uv = apply_gate(apply_gate(psi, u, (0,)), v, (3,))
        vu = apply_gate(apply_gate(psi, v, (3,)), u, (0,))
        assert np.max(np.abs(uv.amplitudes - vu.amplitudes)) <= 1e-13
