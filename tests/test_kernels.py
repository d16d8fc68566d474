"""Gate kernels: the numpy view kernels against dense operators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from reference import embedded

from tslattice import _kernels
from tslattice.quantum_core import StateVector, _real_expectation


def random_vec(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def random_matrix(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def ordered_pairs(n):
    return [(a, b) for a in range(n) for b in range(n) if a != b]


class TestPyKernelsAgainstDense:
    """Every site and every ordered pair (adjacent, reversed, non-adjacent)."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_site(self, n):
        rng = np.random.default_rng(100 + n)
        v = random_vec(n, rng)
        for site in range(n):
            m = random_matrix(2, rng)
            assert_allclose(
                _kernels.apply_gate(v, m, (site,), n), embedded(m, [site], n) @ v, rtol=0, atol=1e-13
            )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_pair(self, n):
        rng = np.random.default_rng(200 + n)
        v = random_vec(n, rng)
        for a, b in ordered_pairs(n):
            m = random_matrix(4, rng)
            assert_allclose(
                _kernels.apply_gate(v, m, (a, b), n), embedded(m, [a, b], n) @ v, rtol=0, atol=1e-13
            )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_site_expectation(self, n):
        rng = np.random.default_rng(300 + n)
        v = random_vec(n, rng)
        for site in range(n):
            h = random_matrix(2, rng)
            h = h + h.conj().T
            want = np.vdot(v, embedded(h, [site], n) @ v)
            assert _real_expectation(StateVector(v, n), h, site) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_map_layout_of_compose_map(self, n):
        # A dim x dim matrix in C order is a state on 2n sites whose first n
        # axes are the row index: a gate on a site < n multiplies from the left.
        rng = np.random.default_rng(400 + n)
        dim = 2**n
        mat = random_matrix(dim, rng)
        for site in range(n):
            u = random_matrix(2, rng)
            got = _kernels.apply_gate(mat.ravel(), u, (site,), 2 * n).reshape(dim, dim)
            assert_allclose(got, embedded(u, [site], n) @ mat, rtol=0, atol=1e-12)
        for a, b in ordered_pairs(n):
            u = random_matrix(4, rng)
            got = _kernels.apply_gate(mat.ravel(), u, (a, b), 2 * n).reshape(dim, dim)
            assert_allclose(got, embedded(u, [a, b], n) @ mat, rtol=0, atol=1e-12)


# Shapes past the dense oracle's reach, and the edges of the fold limits,
# with the route the kernels take for each: a broadcast matmul, a gate folded
# over the trailing block, or (a non-adjacent pair) a gather into gate-major
# order. (n, site) for one site, (n, a, b) for a pair.
WIDE_1Q = [
    (14, 9, "fold"),
    (14, 8, "matmul"),
    (15, 8, "matmul"),
    (16, 9, "matmul"),
    (14, 11, "fold"),
    (9, 4, "matmul"),
    (9, 5, "fold"),
]
WIDE_2Q = [
    (14, 8, 9, "matmul"),
    (14, 9, 8, "matmul"),
    (14, 9, 10, "fold"),
    (16, 7, 8, "matmul"),
    (14, 3, 13, "gather"),
    (14, 13, 11, "gather"),
    (14, 11, 12, "fold"),
]


def spy_routes(monkeypatch):
    """Record which of the fold and gather routes the kernels take."""
    taken = []
    for name, route in (("_folded", "fold"), ("_gathered", "gather")):
        real = getattr(_kernels, name)

        def spy(*args, _real=real, _route=route):
            taken.append(_route)
            return _real(*args)

        monkeypatch.setattr(_kernels, name, spy)
    return taken


class TestPyKernelsWideShapes:
    """Checked against einsum on the same reshape view, an independent product."""

    @pytest.mark.parametrize("n, site, route", WIDE_1Q)
    def test_one_site(self, monkeypatch, n, site, route):
        rng = np.random.default_rng(n * 100 + site)
        v = random_vec(n, rng)
        m = random_matrix(2, rng)
        view = v.reshape(2**site, 2, -1)
        want = np.einsum("ij,ajr->air", m, view).ravel()
        taken = spy_routes(monkeypatch)
        assert_allclose(_kernels.apply_gate(v, m, (site,), n), want, rtol=0, atol=1e-13)
        assert taken == ([] if route == "matmul" else [route])

    @pytest.mark.parametrize("n, a, b, route", WIDE_2Q)
    def test_pair(self, monkeypatch, n, a, b, route):
        rng = np.random.default_rng(n * 10000 + a * 100 + b)
        v = random_vec(n, rng)
        m = random_matrix(4, rng)
        lo, hi = min(a, b), max(a, b)
        view = v.reshape(2**lo, 2, 2 ** (hi - lo - 1), 2, 2 ** (n - 1 - hi))
        m4 = m.reshape(2, 2, 2, 2)  # (out a, out b, in a, in b)
        spec = "ikjl,ajblr->aibkr" if a < b else "kilj,ajblr->aibkr"
        want = np.einsum(spec, m4, view).ravel()
        taken = spy_routes(monkeypatch)
        assert_allclose(_kernels.apply_gate(v, m, (a, b), n), want, rtol=0, atol=1e-13)
        assert taken == ([] if route == "matmul" else [route])


PURITY_CASES_1Q = [(1, 0), (5, 0), (5, 4), (6, 5), (10, 6), (14, 9), (16, 9)]
PURITY_CASES_2Q = [(2, 1, 0), (5, 0, 1), (5, 4, 0), (6, 4, 5), (10, 7, 8), (14, 8, 9), (14, 2, 13)]


class TestPyKernelsPurity:
    """Inputs are only read, and every output is a fresh array."""

    @staticmethod
    def frozen(a):
        a = a.copy()
        a.flags.writeable = False
        return a

    @pytest.mark.parametrize("n, site", PURITY_CASES_1Q)
    def test_one_site(self, n, site):
        rng = np.random.default_rng(n + site)
        v = self.frozen(random_vec(n, rng))
        m = self.frozen(random_matrix(2, rng))
        v0, m0 = v.copy(), m.copy()
        out = _kernels.apply_gate(v, m, (site,), n)
        assert np.array_equal(v, v0) and np.array_equal(m, m0)
        assert out.shape == v.shape and out.flags.writeable
        assert not np.shares_memory(out, v) and not np.shares_memory(out, m)

    @pytest.mark.parametrize("n, a, b", PURITY_CASES_2Q)
    def test_pair(self, n, a, b):
        rng = np.random.default_rng(n + 10 * a + b)
        v = self.frozen(random_vec(n, rng))
        m = self.frozen(random_matrix(4, rng))
        v0, m0 = v.copy(), m.copy()
        out = _kernels.apply_gate(v, m, (a, b), n)
        assert np.array_equal(v, v0) and np.array_equal(m, m0)
        assert out.shape == v.shape and out.flags.writeable
        assert not np.shares_memory(out, v) and not np.shares_memory(out, m)


def test_pykernel_ordering_convention():
    # site 0 is the MSB: X on site 0 of |00> lands on index 0b10
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    out = _kernels.apply_gate(v, x, (0,), 2)
    assert np.argmax(np.abs(out)) == 0b10
    out = _kernels.apply_gate(v, x, (1,), 2)
    assert np.argmax(np.abs(out)) == 0b01


def forced_route(monkeypatch, route, d, rest):
    """Set the fold limits so that ``_apply_middle`` takes ``route`` on any (lead, d, rest) view."""
    monkeypatch.setattr(_kernels, "_FOLD_MAX_WIDTH", d * rest if route == "fold" else 0)
    monkeypatch.setattr(_kernels, "_FOLD_MIN_LEAD", 0)


# The routes of a gate on the middle axis; a non-adjacent pair has only the gather.
MIDDLE_ROUTES = ["matmul", "fold"]


class TestStackedKernels:
    """A (B, 2^n) stack in one call equals B calls on its rows, on every route."""

    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_site(self, monkeypatch, n, rows):
        rng = np.random.default_rng(500 + 10 * n + rows)
        stack = TestPyKernelsPurity.frozen(np.array([random_vec(n, rng) for _ in range(rows)]))
        for site in range(n):
            m = TestPyKernelsPurity.frozen(random_matrix(2, rng))
            want = np.array([_kernels.apply_gate(v, m, (site,), n) for v in stack])
            rest = 1 << (n - 1 - site)
            for route in MIDDLE_ROUTES:
                with monkeypatch.context() as patch:
                    forced_route(patch, route, 2, rest)
                    taken = spy_routes(patch)
                    got = _kernels.apply_gate(stack, m, (site,), n)
                assert taken == ([] if route == "matmul" else [route])
                assert got.shape == stack.shape and not np.shares_memory(got, stack)
                assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_pair(self, monkeypatch, n, rows):
        rng = np.random.default_rng(600 + 10 * n + rows)
        stack = TestPyKernelsPurity.frozen(np.array([random_vec(n, rng) for _ in range(rows)]))
        for a, b in ordered_pairs(n):
            m = TestPyKernelsPurity.frozen(random_matrix(4, rng))
            want = np.array([_kernels.apply_gate(v, m, (a, b), n) for v in stack])
            lo, hi = min(a, b), max(a, b)
            rest = 1 << (n - 1 - hi)
            routes = MIDDLE_ROUTES if hi == lo + 1 else ["gather"]
            for route in routes:
                with monkeypatch.context() as patch:
                    forced_route(patch, route, 4, rest)
                    taken = spy_routes(patch)
                    got = _kernels.apply_gate(stack, m, (a, b), n)
                assert taken == ([] if route == "matmul" else [route])
                assert got.shape == stack.shape and not np.shares_memory(got, stack)
                assert_allclose(got, want, rtol=0, atol=1e-14)


def test_no_middle_axis_view_is_gathered(monkeypatch):
    # Every site and adjacent pair at N = 14, and the co-evolution walk's
    # stacks of eight 2^10 vectors at site 5 and pair (5, 6): only a
    # non-adjacent pair may take the gather.
    shapes = []
    real_middle = _kernels._apply_middle

    def middle(v, g):
        shapes.append(v.shape)
        return real_middle(v, g)

    monkeypatch.setattr(_kernels, "_apply_middle", middle)
    taken = spy_routes(monkeypatch)
    rng = np.random.default_rng(700)
    m2, m4 = random_matrix(2, rng), random_matrix(4, rng)
    v = random_vec(14, rng)
    for site in range(14):
        _kernels.apply_gate(v, m2, (site,), 14)
    for lo in range(13):
        _kernels.apply_gate(v, m4, (lo, lo + 1), 14)
        _kernels.apply_gate(v, m4, (lo + 1, lo), 14)
    stack = np.array([random_vec(10, rng) for _ in range(8)])
    _kernels.apply_gate(stack, m2, (5,), 10)
    _kernels.apply_gate(stack, m4, (5, 6), 10)
    assert shapes[-2:] == [(256, 2, 16), (256, 4, 8)]
    assert len(shapes) == 14 + 2 * 13 + 2
    assert "gather" not in taken


class TestWindows:
    """A run of 3 to 6 adjacent sites, as ``dynamics._blocks`` fuses them, on vectors and stacks."""

    @pytest.mark.parametrize("width", [3, 4, 5, 6])
    @pytest.mark.parametrize("n", range(4, 9))
    def test_against_dense(self, monkeypatch, n, width):
        rng = np.random.default_rng(800 + 10 * n + width)
        stack = TestPyKernelsPurity.frozen(np.array([random_vec(n, rng) for _ in range(3)]))
        for lo in range(n - width + 1):
            sites = tuple(range(lo, lo + width))
            m = TestPyKernelsPurity.frozen(random_matrix(1 << width, rng))
            dense = embedded(m, sites, n)
            rest = 1 << (n - 1 - sites[-1])
            for route in MIDDLE_ROUTES:
                with monkeypatch.context() as patch:
                    forced_route(patch, route, 1 << width, rest)
                    taken = spy_routes(patch)
                    got_vec = _kernels.apply_gate(stack[0], m, sites, n)
                    got_stack = _kernels.apply_gate(stack, m, sites, n)
                assert taken == ([] if route == "matmul" else [route, route])
                assert got_stack.shape == stack.shape and not np.shares_memory(got_stack, stack)
                assert_allclose(got_vec, dense @ stack[0], rtol=0, atol=1e-13)
                assert_allclose(got_stack, stack @ dense.T, rtol=0, atol=1e-13)
