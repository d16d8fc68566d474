"""Stepper, frozen coefficients, trajectory records, and the composed map."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from reference import (
    deformation_sites,
    expm_hermitian,
    product_state,
    random_state,
    reference_generator,
    reference_step,
)

import tslattice.dynamics as dynamics
from tslattice.dynamics import (
    ModelConfig,
    NonlinearitySpec,
    TrajectoryRecord,
    TrajectoryStep,
    compose_map,
    evolve,
    free_field,
    linear_config,
    ts_step,
)
from tslattice.quantum_core import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    bell_pair_state,
    entanglement_entropy,
    expectation,
    is_hermitian,
    is_unitary,
    plus_state,
    state_distance,
    zero_state,
)
from tslattice.spacetime import (
    Hypersurface,
    LinkApply,
    NotEnabledError,
    SiteAdvance,
    apply_deformation,
    canonical_foliation,
    enabled_deformations,
    initial_surface,
    random_foliation,
    surface_levels,
)


def make_config(**kw):
    nl_kw = {}
    for key in ("kind", "lam", "source_site", "partner_site", "active_sites"):
        if key in kw:
            nl_kw[key] = kw.pop(key)
    if nl_kw:
        kw["nonlinearity"] = NonlinearitySpec(**nl_kw)
    return ModelConfig(**kw)


ALL_KINDS = [
    {"kind": "none"},
    {"kind": "local", "lam": 0.5},
    {"kind": "coefficient_nonlocal", "lam": 0.5, "source_site": 0},
    {"kind": "operator_nonlocal", "lam": 0.5, "partner_site": 3},
]


class TestFreeField:
    def test_zero_time_is_base(self):
        cfg = make_config(n_sites=2, horizon=2, base_operator="x")
        assert_allclose(free_field(1, 0, cfg).matrix, PAULI_X)

    def test_half_turn_flips_sigma_x(self):
        # conjugation by exp(+i pi sigma_z / 2): 2x2 product oracle
        cfg = make_config(n_sites=2, horizon=2, omega=math.pi, base_operator="x")
        p = np.diag([np.exp(1j * math.pi / 2), np.exp(-1j * math.pi / 2)])
        oracle = p @ PAULI_X @ p.conj().T
        got = free_field(0, 1, cfg).matrix
        assert_allclose(got, oracle, atol=1e-15)
        assert_allclose(got, -PAULI_X, atol=1e-12)

    def test_sigma_z_commutes_with_precession(self):
        cfg = make_config(n_sites=2, horizon=3, omega=1.3, base_operator="z")
        for tau in range(4):
            assert_allclose(free_field(0, tau, cfg).matrix, PAULI_Z, atol=1e-15)

    def test_rotation_in_xy_plane(self):
        cfg = make_config(n_sites=2, horizon=2, omega=0.9, base_operator="x")
        got = free_field(0, 1, cfg).matrix
        assert_allclose(
            got, math.cos(0.9) * PAULI_X - math.sin(0.9) * PAULI_Y, atol=1e-14
        )

    def test_always_hermitian(self):
        cfg = make_config(n_sites=2, horizon=4, omega=0.7, base_operator="y")
        for tau in range(5):
            assert is_hermitian(free_field(0, tau, cfg).matrix)

    @pytest.mark.parametrize("base", ["x", "y", "z"])
    def test_cached_field_matches_closed_form(self, base):
        ops = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}
        cfg = make_config(n_sites=3, horizon=4, omega=0.83, base_operator=base)
        for tau in range(5):
            p = np.diag([np.exp(0.5j * 0.83 * tau), np.exp(-0.5j * 0.83 * tau)])
            closed = p @ ops[base] @ p.conj().T
            for site in range(3):
                first = free_field(site, tau, cfg)
                assert first.site == site
                assert_allclose(first.matrix, closed, atol=1e-15)
                assert free_field(site, tau, cfg) is first

    def test_cached_field_is_read_only(self):
        cfg = make_config(n_sites=2, horizon=2, omega=0.6)
        m = free_field(1, 2, cfg).matrix
        before = m.copy()
        with pytest.raises(ValueError):
            m[0, 0] = 5.0
        assert np.array_equal(free_field(1, 2, cfg).matrix, before)

    def test_cache_keys_on_omega_and_base(self):
        a = free_field(0, 1, make_config(n_sites=2, horizon=2, omega=0.4))
        b = free_field(0, 1, make_config(n_sites=2, horizon=2, omega=0.5))
        c = free_field(0, 1, make_config(n_sites=2, horizon=2, omega=0.4, base_operator="y"))
        assert not np.allclose(a.matrix, b.matrix)
        assert not np.allclose(a.matrix, c.matrix)


def expected_coefficient(psi, surface, site, cfg):
    """The coefficient rule, stated apart from ``_step_plan``, for advancing ``site``."""
    nl = cfg.nonlinearity
    if nl.kind == "none" or not nl.active_at(site) or nl.remote_site == site:
        return 0.0
    if nl.kind == "operator_nonlocal":
        return nl.lam
    read = site if nl.kind == "local" else nl.remote_site
    return nl.lam * expectation(psi, free_field(read, surface.heights[read], cfg))


def recorded_coefficient(psi, surface, site, cfg):
    """The coefficient ``ts_step`` records for advancing ``site``."""
    return ts_step(psi, surface, SiteAdvance(site), cfg)[2].coefficient


def both_sites_enabled():
    """A 2-site surface whose link gate at t = 0 is applied, so both sites may advance."""
    return apply_deformation(initial_surface(2, 1), LinkApply((0, 1), 0))


class TestRecordedCoefficient:
    def test_kind_none_is_zero(self):
        cfg = make_config(n_sites=2, horizon=1)
        assert recorded_coefficient(zero_state(2), both_sites_enabled(), 0, cfg) == 0.0

    def test_local_eigenstate(self):
        cfg = make_config(n_sites=2, horizon=1, base_operator="z", kind="local", lam=0.5)
        assert recorded_coefficient(zero_state(2), both_sites_enabled(), 0, cfg) == pytest.approx(0.5)

    def test_local_bell_marginal_is_zero(self):
        cfg = make_config(n_sites=3, horizon=1, base_operator="z", kind="local", lam=0.7)
        s = apply_deformation(initial_surface(3, 1), LinkApply((0, 1), 0))
        psi = bell_pair_state(3, 0, 1)
        assert recorded_coefficient(psi, s, 0, cfg) == pytest.approx(0.0, abs=1e-14)

    def test_nonlocal_reads_source_height(self):
        cfg = make_config(
            n_sites=2, horizon=2, omega=math.pi, base_operator="x",
            kind="coefficient_nonlocal", lam=1.0, source_site=1,
        )
        psi = plus_state(2)
        s0 = apply_deformation(initial_surface(2, 2), LinkApply((0, 1), 0))
        assert recorded_coefficient(psi, s0, 0, cfg) == pytest.approx(1.0)
        # after raising the source, the free field there has flipped sign
        s1 = apply_deformation(s0, SiteAdvance(1))
        assert recorded_coefficient(psi, s1, 0, cfg) == pytest.approx(-1.0)

    @pytest.mark.parametrize(
        "nl",
        [
            {"kind": "coefficient_nonlocal", "source_site": 0},
            {"kind": "operator_nonlocal", "partner_site": 0},
        ],
        ids=["coefficient_nonlocal", "operator_nonlocal"],
    )
    def test_self_pair_is_zero(self, nl):
        # The advancing site is the kind's own remote site: the step drops
        # the nonlinear term, and the coefficient is the 0.0 it records.
        cfg = make_config(n_sites=2, horizon=1, base_operator="z", lam=0.5, **nl)
        s = both_sites_enabled()
        assert recorded_coefficient(zero_state(2), s, 0, cfg) == 0.0
        assert recorded_coefficient(zero_state(2), s, 1, cfg) == 0.5

    @pytest.mark.parametrize("kind", ["none", "local", "coefficient_nonlocal", "operator_nonlocal"])
    def test_follows_the_rule_on_every_surface(self, kind):
        # Every enabled advance on every reachable surface at n <= 4, with
        # the remote site at each site (so every site is once a self-pair)
        # and with the odd sites inactive.
        rng = np.random.default_rng(9)
        for n, t in ((2, 2), (3, 2), (4, 2), (3, 3)):
            psi = random_state(n, rng)
            for remote in range(n):
                for active in (None, frozenset(range(0, n, 2))):
                    cfg = make_config(
                        n_sites=n, horizon=t, kind=kind, lam=0.7,
                        source_site=remote, partner_site=remote, active_sites=active,
                    )
                    for surfaces, successors in surface_levels(n, t):
                        for s, edges in zip(surfaces, successors):
                            for d in edges:
                                if isinstance(d, SiteAdvance):
                                    want = expected_coefficient(psi, s, d.site, cfg)
                                    assert recorded_coefficient(psi, s, d.site, cfg) == want

    def test_every_read_site_is_bounded(self):
        # An advance off the lattice is never enabled, and a remote site off
        # the lattice never makes a config, so the read needs no range check.
        cfg = make_config(n_sites=2, horizon=1, kind="local", lam=0.5)
        with pytest.raises(NotEnabledError):
            recorded_coefficient(zero_state(2), both_sites_enabled(), 5, cfg)
        with pytest.raises(ValueError, match="^source_site 5 out of range for 2 sites$"):
            make_config(n_sites=2, horizon=1, kind="coefficient_nonlocal", lam=0.5, source_site=5)

    def test_inactive_site_masked_to_zero(self):
        cfg = make_config(
            n_sites=2, horizon=1, base_operator="z",
            kind="local", lam=0.5, active_sites=frozenset({1}),
        )
        s = both_sites_enabled()
        assert recorded_coefficient(zero_state(2), s, 0, cfg) == 0.0
        assert recorded_coefficient(zero_state(2), s, 1, cfg) == pytest.approx(0.5)


class TestStepPlanGenerator:
    """The generator and coefficient ``_step_plan`` gives, summed by the reference."""

    def test_zero_couplings_zero_generator(self):
        cfg = make_config(n_sites=2, horizon=2, mu=0.0, link_coupling=0.0)
        s = apply_deformation(initial_surface(2, 2), LinkApply((0, 1), 0))
        _, gen, c = reference_generator(zero_state(2), s, SiteAdvance(0), cfg)
        assert c == 0.0
        assert_allclose(gen, np.zeros((2, 2)))

    def test_local_composition(self):
        cfg = make_config(
            n_sites=2, horizon=1, mu=0.0, base_operator="z", kind="local", lam=1.0
        )
        _, gen, c = reference_generator(zero_state(2), both_sites_enabled(), SiteAdvance(0), cfg)
        assert c == pytest.approx(1.0)
        assert_allclose(gen, PAULI_Z, atol=1e-14)

    def test_link_generator_definition(self):
        cfg = make_config(n_sites=2, horizon=1, link_coupling=0.3, base_operator="x")
        sites, gen, c = reference_generator(zero_state(2), initial_surface(2, 1), LinkApply((0, 1), 0), cfg)
        assert sites == (0, 1) and c == 0.0
        assert_allclose(gen, 0.3 * np.kron(PAULI_X, PAULI_X), atol=1e-14)

    def test_operator_nonlocal_two_site_generator(self):
        cfg = make_config(
            n_sites=4, horizon=1, mu=0.7, base_operator="x",
            kind="operator_nonlocal", lam=0.5, partner_site=3,
        )
        s = initial_surface(4, 1)
        # site 1 advances freely at t=0 only if its parity link gate is done;
        # link (1,2) gates at odd t, link (0,1) at even t -> apply (0,1)@0 first
        s = apply_deformation(s, LinkApply((0, 1), 0))
        sites, gen, c = reference_generator(plus_state(4), s, SiteAdvance(1), cfg)
        assert sites == (1, 3)
        assert c == pytest.approx(0.5)
        expected = 0.7 * np.kron(PAULI_X, np.eye(2)) + 0.5 * np.kron(PAULI_X, PAULI_X)
        assert_allclose(gen, expected, atol=1e-14)

    def test_partner_advance_stays_linear(self):
        cfg = make_config(
            n_sites=2, horizon=2, mu=0.7, base_operator="x",
            kind="operator_nonlocal", lam=0.5, partner_site=1,
        )
        s = apply_deformation(initial_surface(2, 2), LinkApply((0, 1), 0))
        sites, gen, c = reference_generator(plus_state(2), s, SiteAdvance(1), cfg)
        assert sites == (1,) and gen.shape == (2, 2)
        assert c == 0.0

    @pytest.mark.parametrize("kind", dynamics.NONLINEARITY_KINDS)
    def test_state_reading_kinds_are_those_whose_plan_reads(self, kind):
        # The table the nonlinearity verdict reads agrees with the plan on
        # every reachable surface, with the remote site at each site.
        reads = set()
        for remote in range(3):
            cfg = make_config(n_sites=3, horizon=2, kind=kind, lam=0.5, source_site=remote, partner_site=remote)
            for surfaces, successors in surface_levels(3, 2):
                for s, edges in zip(surfaces, successors):
                    reads.update(dynamics._step_plan(s, d, cfg)[2] is not None for d in edges)
        assert (True in reads) == (kind in dynamics.STATE_READING_KINDS)


class TestTsStep:
    def test_zero_couplings_identity(self):
        cfg = make_config(n_sites=3, horizon=2, omega=0.9, mu=0.0, link_coupling=0.0)
        psi = plus_state(3)
        s = initial_surface(3, 2)
        for d in enabled_deformations(s):
            out, _, _ = ts_step(psi, s, d, cfg)
            assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    def test_quarter_turn_phases(self):
        # generator sigma_z with dt = pi/2 on |+>: amplitudes (e^{-i pi/2}, e^{+i pi/2})/sqrt 2
        cfg = make_config(
            n_sites=2, horizon=1, mu=1.0, link_coupling=0.0, dt=math.pi / 2,
            base_operator="z",
        )
        psi = product_state([(1 / math.sqrt(2), 1 / math.sqrt(2)), (1, 0)])
        s = apply_deformation(initial_surface(2, 1), LinkApply((0, 1), 0))
        out, s2, entry = ts_step(psi, s, SiteAdvance(0), cfg)
        expected_site0 = np.array([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)]) / math.sqrt(2)
        assert_allclose(out.amplitudes[[0b00, 0b10]], expected_site0, atol=1e-14)
        assert s2.heights == (1, 0)
        assert entry.coefficient == 0.0

    @pytest.mark.parametrize("nl", ALL_KINDS)
    def test_norm_preserved_every_kind(self, nl):
        cfg = make_config(n_sites=4, horizon=3, **dict(nl))
        psi = plus_state(4)
        s = initial_surface(4, 3)
        fol = random_foliation(4, 3, 12)
        for d in fol.steps:
            psi, s, _ = ts_step(psi, s, d, cfg)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    @pytest.mark.parametrize("nl", ALL_KINDS, ids=[k["kind"] for k in ALL_KINDS])
    def test_coefficient_follows_the_rule(self, nl):
        # Both site fields set: each kind drops the nonlinear term only where
        # its own site (the source, or the partner) advances.
        nl = {**nl, "source_site": 0, "partner_site": 2}
        own = {"coefficient_nonlocal": 0, "operator_nonlocal": 2}.get(nl["kind"])
        cfg = make_config(n_sites=3, horizon=2, **nl)
        psi, s = plus_state(3), initial_surface(3, 2)
        for d in random_foliation(3, 2, 5).steps:
            psi_next, s_next, entry = ts_step(psi, s, d, cfg)
            if isinstance(d, SiteAdvance):
                if d.site == own:
                    assert entry.coefficient == 0.0
                assert entry.coefficient == expected_coefficient(psi, s, d.site, cfg)
            psi, s = psi_next, s_next

    def test_rejects_disabled_deformation(self):
        cfg = make_config(n_sites=2, horizon=1)
        with pytest.raises(NotEnabledError):
            ts_step(zero_state(2), initial_surface(2, 1), SiteAdvance(0), cfg)
        # A non-integer field is never enabled; it does not reach the heights.
        with pytest.raises(NotEnabledError):
            ts_step(zero_state(2), initial_surface(2, 1), LinkApply((0, 1), 0.0), cfg)
        s = apply_deformation(initial_surface(2, 1), LinkApply((0, 1), 0))
        with pytest.raises(NotEnabledError):
            ts_step(zero_state(2), s, SiteAdvance(0.0), cfg)


class TestClosedFormGates:
    """cos(theta) I - i sin(theta) G against expm_hermitian of the same generator."""

    @pytest.mark.parametrize("base", ["x", "y", "z"])
    def test_field_generators_match_eigh(self, base):
        rng = np.random.default_rng({"x": 11, "y": 12, "z": 13}[base])
        for _ in range(50):
            omega = float(rng.uniform(-5, 5))
            tau_i, tau_j = (int(t) for t in rng.integers(0, 1000, size=2))
            oi, res_i = dynamics._free_field(0, tau_i, omega, base)
            oj = free_field(1, tau_j, make_config(omega=omega, base_operator=base)).matrix
            dt = float(rng.uniform(0.01, 1.0))
            scale = float(rng.uniform(-3, 3))  # mu + c for a site, J for a link
            assert_allclose(
                dynamics._closed_form_gate(oi.matrix, res_i, dt * scale, (0,)),
                expm_hermitian(scale * oi.matrix, dt),
                rtol=0,
                atol=1e-14,
            )
            pair, res_pair = dynamics._pair_generator(0, tau_i, 1, tau_j, omega, base)
            assert_allclose(
                dynamics._closed_form_gate(pair, res_pair, scale, (0, 1)),
                expm_hermitian(scale * np.kron(oi.matrix, oj), 1.0),
                rtol=0,
                atol=1e-14,
            )

    @pytest.mark.parametrize("base", ["x", "y", "z"])
    def test_ts_step_unitaries_match_eigh(self, base):
        # Random couplings and a random path through the surfaces, so that
        # tau, the frozen coefficient c and J all vary, for every kind.
        rng = np.random.default_rng({"x": 21, "y": 22, "z": 23}[base])
        for _ in range(10):
            couplings = dict(
                omega=float(rng.uniform(-3, 3)), mu=float(rng.uniform(-2, 2)),
                link_coupling=float(rng.uniform(-2, 2)), dt=float(rng.uniform(0.01, 1.0)),
                lam=float(rng.uniform(-2, 2)),
                source_site=int(rng.integers(4)), partner_site=int(rng.integers(4)),
            )
            for kind in ("none", "local", "coefficient_nonlocal", "operator_nonlocal"):
                cfg = make_config(n_sites=4, horizon=4, base_operator=base, kind=kind, **couplings)
                psi, s = random_state(4, rng), initial_surface(4, 4)
                while enabled := enabled_deformations(s):
                    d = enabled[int(rng.integers(len(enabled)))]
                    _, gen, _ = reference_generator(psi, s, d, cfg)
                    advance = isinstance(d, SiteAdvance)
                    c = expected_coefficient(psi, s, d.site, cfg) if advance else 0.0
                    step_dt = cfg.dt if advance else 1.0
                    psi, s, entry = ts_step(psi, s, d, cfg)
                    assert entry.coefficient == c
                    assert_allclose(
                        entry.unitary, expm_hermitian(gen, step_dt), rtol=0, atol=1e-14
                    )

    @pytest.mark.parametrize("nl", ALL_KINDS, ids=[k["kind"] for k in ALL_KINDS])
    def test_no_kind_goes_through_eigh(self, monkeypatch, nl):
        calls = {"eigh": 0, "closed": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(
            dynamics, "_closed_form_gate", counted("closed", dynamics._closed_form_gate)
        )
        cfg = make_config(n_sites=4, horizon=2, **nl)
        _, record = evolve(plus_state(4), canonical_foliation(4, 2, "synchronous"), cfg)
        two_site_advances = sum(
            isinstance(step.deformation, SiteAdvance) and len(step.sites) == 2
            for step in record.steps
        )
        if nl["kind"] == "operator_nonlocal":
            assert two_site_advances > 0
        else:
            assert two_site_advances == 0
        # A two-site advance is the product of two rotations.
        assert calls == {"eigh": 0, "closed": len(record) + two_site_advances}

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.sampled_from(["x", "y", "z"]),
        omega=st.floats(-5, 5),
        tau_i=st.integers(0, 64),
        tau_j=st.integers(0, 64),
        mu=st.floats(-2, 2),
        lam=st.floats(-2, 2),
        dt=st.floats(0.01, 1.0),
        pair=st.permutations(range(4)).map(lambda p: (p[0], p[1])),
    )
    def test_two_site_advance_matches_eigh(self, base, omega, tau_i, tau_j, mu, lam, dt, pair):
        i, j = pair
        cfg = make_config(
            n_sites=4, horizon=65, base_operator=base, omega=omega, mu=mu, dt=dt,
            kind="operator_nonlocal", lam=lam, partner_site=j,
        )
        heights = [0] * 4
        heights[i], heights[j] = tau_i, tau_j
        # Every gate incident to site i at height tau_i is applied, so i may advance.
        gates = {((a, a + 1), tau_i) for a in (i - 1, i) if 0 <= a < 3}
        s = Hypersurface(tuple(heights), frozenset(gates), 65)
        psi = plus_state(4)
        _, gen, _ = reference_generator(psi, s, SiteAdvance(i), cfg)
        _, _, entry = ts_step(psi, s, SiteAdvance(i), cfg)
        assert entry.sites == (i, j)
        assert_allclose(entry.unitary, expm_hermitian(gen, dt), rtol=0, atol=1e-14)
        assert is_unitary(entry.unitary, atol=1e-12)


def _foliations(n, horizon):
    return {
        "synchronous": canonical_foliation(n, horizon, "synchronous"),
        "staircase": canonical_foliation(n, horizon, "staircase"),
        "random": random_foliation(n, horizon, 31 * n + horizon),
    }


class TestLeanStepAgainstReference:
    """ts_step checks once where its data is made; it must still match the dense reference step."""

    @pytest.mark.parametrize("nl", ALL_KINDS, ids=[k["kind"] for k in ALL_KINDS])
    @pytest.mark.parametrize("base", ["x", "y", "z"])
    @pytest.mark.parametrize("n, horizon", [(4, 3), (5, 2)])
    def test_matches_reference_on_every_foliation(self, nl, base, n, horizon):
        cfg = make_config(n_sites=n, horizon=horizon, base_operator=base, **nl)
        for name, fol in _foliations(n, horizon).items():
            psi = ref = plus_state(n)
            s = s_ref = initial_surface(n, horizon)
            for d in fol.steps:
                psi, s, entry = ts_step(psi, s, d, cfg)
                ref, s_ref, c, u = reference_step(ref, s_ref, d, cfg)
                assert s == s_ref
                assert entry.coefficient == pytest.approx(c, rel=0, abs=1e-14)
                assert_allclose(entry.unitary, u, rtol=0, atol=1e-14)
                assert_allclose(psi.amplitudes, ref.amplitudes, rtol=0, atol=1e-14, err_msg=name)
            assert s.is_final()


@pytest.fixture
def fresh_generator_caches():
    """Empty the field and pair caches around a test that patches the base operators."""
    dynamics._free_field.cache_clear()
    dynamics._pair_generator.cache_clear()
    yield dynamics
    dynamics._free_field.cache_clear()
    dynamics._pair_generator.cache_clear()


def gate_then_site_surface():
    """A 3-site surface with site 0 enabled, reached without ts_step."""
    s = apply_deformation(initial_surface(3, 2), LinkApply((0, 1), 0))
    assert SiteAdvance(0) in enabled_deformations(s)
    return s


class TestMovedChecksStillFail:
    """Faults the per-step checks used to catch, now caught where their data is made."""

    def test_non_hermitian_field_fails_at_the_cache(self, monkeypatch, fresh_generator_caches):
        bad = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]], dtype=complex)
        monkeypatch.setitem(fresh_generator_caches.BASE_OPERATORS, "x", bad)
        cfg = make_config(n_sites=3, horizon=2, kind="local", lam=0.5)
        message = r"^operator at site 0 is not Hermitian within 1e-14$"
        with pytest.raises(ValueError, match=message):
            ts_step(plus_state(3), gate_then_site_surface(), SiteAdvance(0), cfg)
        # A link gate's fields meet the same test (per step it was 1e-12).
        with pytest.raises(ValueError, match=message):
            ts_step(plus_state(3), initial_surface(3, 2), LinkApply((0, 1), 0), cfg)

    def test_generator_squaring_off_identity_fails_unitarity(
        self, monkeypatch, fresh_generator_caches
    ):
        monkeypatch.setitem(fresh_generator_caches.BASE_OPERATORS, "x", 2.0 * PAULI_X)
        cfg = make_config(n_sites=3, horizon=2, kind="local", lam=0.5)
        with pytest.raises(ValueError, match=r"^operator at site 0 is not unitary within 1e-12$"):
            ts_step(plus_state(3), gate_then_site_surface(), SiteAdvance(0), cfg)
        with pytest.raises(
            ValueError, match=r"^operator on sites \(0, 1\) is not unitary within 1e-12$"
        ):
            ts_step(plus_state(3), initial_surface(3, 2), LinkApply((0, 1), 0), cfg)
        # Both rotations of operator_nonlocal's two-site advance meet the same test.
        cfg = make_config(n_sites=3, horizon=2, kind="operator_nonlocal", lam=0.5, partner_site=2)
        with pytest.raises(
            ValueError, match=r"^operator on sites \(0, 2\) is not unitary within 1e-12$"
        ):
            ts_step(plus_state(3), gate_then_site_surface(), SiteAdvance(0), cfg)

    def test_nan_in_the_state_fails_the_step(self):
        cfg = make_config(n_sites=3, horizon=2, kind="local", lam=0.5)
        psi = plus_state(3)
        psi.amplitudes[5] = np.nan
        # The frozen coefficient turns NaN, and so does the gate angle.
        with pytest.raises(ValueError, match=r"^operator at site 0 is not unitary within 1e-12$"):
            ts_step(psi, gate_then_site_surface(), SiteAdvance(0), cfg)
        # A link gate reads no coefficient; the norm test stops the NaN.
        with pytest.raises(ValueError, match=r"^state norm nan deviates from 1 beyond 1e-12$"):
            ts_step(psi, initial_surface(3, 2), LinkApply((0, 1), 0), cfg)

    def test_norm_drift_fails_the_step(self):
        cfg = make_config(n_sites=3, horizon=2)
        psi = plus_state(3)
        psi.amplitudes[0] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="deviates from 1 beyond 1e-12"):
            ts_step(psi, initial_surface(3, 2), LinkApply((0, 1), 0), cfg)

    def test_state_smaller_than_the_surface_is_rejected(self):
        cfg = make_config(n_sites=3, horizon=2)
        with pytest.raises(ValueError, match=r"^sizes differ: state has 1 sites, surface 3, config 3$"):
            ts_step(StateVector(np.array([1.0, 0.0]), 1), initial_surface(3, 2), LinkApply((0, 1), 0), cfg)


class TestSizeMismatch:
    """ts_step and ts_step_batch step only a state and surface of the config's size."""

    @pytest.mark.parametrize("kind", dynamics.NONLINEARITY_KINDS)
    def test_larger_state_and_surface_than_the_config(self, kind):
        cfg = make_config(n_sites=3, horizon=2, kind=kind, lam=0.5, source_site=0, partner_site=1)
        s = apply_deformation(initial_surface(4, 2), LinkApply((2, 3), 0))
        with pytest.raises(ValueError, match=r"^sizes differ: state has 4 sites, surface 4, config 3$"):
            ts_step(plus_state(4), s, SiteAdvance(3), cfg)

    def test_surface_of_another_size(self):
        cfg = make_config(n_sites=3, horizon=2)
        with pytest.raises(ValueError, match=r"^sizes differ: state has 3 sites, surface 2, config 3$"):
            ts_step(plus_state(3), initial_surface(2, 2), LinkApply((0, 1), 0), cfg)

    def test_batch_checks_each_group_surface(self):
        cfg = make_config(n_sites=3, horizon=2)
        good = (initial_surface(3, 2), LinkApply((0, 1), 0))
        bad = (initial_surface(4, 2), SiteAdvance(3))
        stack = np.array([plus_state(3).amplitudes])
        with pytest.raises(ValueError, match=r"^sizes differ: state has 3 sites, surface 4, config 3$"):
            dynamics.ts_step_batch(stack, [0, 0], *zip(good, bad), cfg)


class TestSpacelikeInvariance:
    @pytest.mark.parametrize(
        "nl",
        [
            {"kind": "none"},
            {"kind": "local", "lam": 0.5},
            {"kind": "coefficient_nonlocal", "lam": 0.5, "source_site": 0},
        ],
    )
    def test_local_kinds_never_disturb_spacelike_expectations(self, nl):
        cfg = make_config(n_sites=4, horizon=3, **dict(nl))
        psi = plus_state(4)
        s = initial_surface(4, 3)
        for d in canonical_foliation(4, 3, "synchronous").steps:
            support = set(deformation_sites(d))
            before = {
                j: expectation(psi, free_field(j, s.heights[j], cfg))
                for j in range(4)
                if j not in support
            }
            psi, s_next, _ = ts_step(psi, s, d, cfg)
            for j, e in before.items():
                after = expectation(psi, free_field(j, s.heights[j], cfg))
                assert abs(after - e) <= 1e-12
            s = s_next

    def test_operator_nonlocal_disturbs_spacelike_marginals(self):
        # The two-site generator's partner factor is exactly O(j, tau_j), so
        # that particular expectation is conserved by commutation; the
        # spacelike disturbance shows up in the partner's reduced state.
        from tslattice.quantum_core import reduced_density, trace_distance

        cfg = make_config(
            n_sites=4, horizon=3, kind="operator_nonlocal", lam=0.5, partner_site=3
        )
        psi = plus_state(4)
        s = initial_surface(4, 3)
        worst = 0.0
        for d in canonical_foliation(4, 3, "synchronous").steps:
            support = set(deformation_sites(d))
            before = {
                j: reduced_density(psi, j) for j in range(4) if j not in support
            }
            psi, s_next, _ = ts_step(psi, s, d, cfg)
            for j, rho in before.items():
                worst = max(worst, trace_distance(reduced_density(psi, j), rho))
            s = s_next
        assert worst > 1e-6


class TestEvolve:
    def test_zero_couplings_fixed_point(self):
        cfg = make_config(n_sites=3, horizon=2, omega=0.0, mu=0.0, link_coupling=0.0)
        psi0 = plus_state(3)
        final, record = evolve(psi0, canonical_foliation(3, 2, "synchronous"), cfg)
        assert_allclose(final.amplitudes, psi0.amplitudes, atol=1e-14)
        assert len(record) == len(canonical_foliation(3, 2, "synchronous"))

    def test_deterministic(self):
        cfg = make_config(n_sites=4, horizon=3, kind="local", lam=0.5)
        fol = random_foliation(4, 3, 3)
        a, _ = evolve(plus_state(4), fol, cfg)
        b, _ = evolve(plus_state(4), fol, cfg)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_local_kind_foliation_independent(self):
        cfg = make_config(n_sites=4, horizon=3, kind="local", lam=0.5)
        sync, _ = evolve(plus_state(4), canonical_foliation(4, 3, "synchronous"), cfg)
        stair, _ = evolve(plus_state(4), canonical_foliation(4, 3, "staircase"), cfg)
        assert state_distance(sync, stair) <= 1e-10

    def test_record_has_one_entry_per_step(self):
        cfg = make_config(n_sites=3, horizon=2, kind="local", lam=0.5)
        fol = canonical_foliation(3, 2, "synchronous")
        _, record = evolve(plus_state(3), fol, cfg)
        assert len(record) == len(fol)
        for d, entry in zip(fol.steps, record.steps):
            assert entry.deformation == d
            assert np.isfinite(entry.coefficient)
            dim = 2 ** len(entry.sites)
            assert_allclose(entry.unitary.conj().T @ entry.unitary, np.eye(dim), atol=1e-12)

    def test_product_structure_preserved_without_links(self):
        for nl in (
            {"kind": "none"},
            {"kind": "local", "lam": 0.5},
            {"kind": "coefficient_nonlocal", "lam": 0.5, "source_site": 2},
        ):
            cfg = make_config(n_sites=4, horizon=3, link_coupling=0.0, **dict(nl))
            psi = plus_state(4)
            s = initial_surface(4, 3)
            for d in canonical_foliation(4, 3, "synchronous").steps:
                psi, s, _ = ts_step(psi, s, d, cfg)
                for k in range(1, 4):
                    assert entanglement_entropy(psi, set(range(k))) <= 1e-12


class TestComposeMap:
    def test_empty_record_is_identity(self):
        cfg = make_config(n_sites=2, horizon=1)
        u = compose_map(TrajectoryRecord((), 2), cfg)
        assert_allclose(u, np.eye(4))

    def test_single_gate_embedding(self):
        cfg = make_config(n_sites=2, horizon=1)
        step = TrajectoryStep(
            deformation=SiteAdvance(0),
            coefficient=0.0,
            sites=(0,),
            unitary=PAULI_X,
        )
        u = compose_map(TrajectoryRecord((step,), 2), cfg)
        assert_allclose(u, np.kron(PAULI_X, np.eye(2)))

    @pytest.mark.parametrize("nl", ALL_KINDS)
    def test_unitary_and_consistent_for_every_kind(self, nl):
        cfg = make_config(n_sites=4, horizon=2, **dict(nl))
        psi0 = plus_state(4)
        final, record = evolve(psi0, canonical_foliation(4, 2, "synchronous"), cfg)
        u = compose_map(record, cfg)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-10
        mapped = u @ psi0.amplitudes
        mapped = StateVector(mapped / np.linalg.norm(mapped), 4)
        assert state_distance(mapped, final) <= 1e-10

    def test_dimension_guard(self):
        cfg = make_config(n_sites=11, horizon=1)
        with pytest.raises(ValueError, match="<= 10"):
            compose_map(TrajectoryRecord((), 11), cfg)


class TestStateMapNonlinearity:
    def test_superposition_broken_at_finite_coupling(self):
        cfg = make_config(n_sites=4, horizon=3, kind="local", lam=0.5)
        fol = canonical_foliation(4, 3, "synchronous")
        psi1 = zero_state(4)
        psi2 = StateVector(np.roll(zero_state(4).amplitudes, 8), 4)  # |1000>
        summed = StateVector(
            (psi1.amplitudes + psi2.amplitudes) / math.sqrt(2), 4
        )
        f_sum, _ = evolve(summed, fol, cfg)
        f1, _ = evolve(psi1, fol, cfg)
        f2, _ = evolve(psi2, fol, cfg)
        lin = f1.amplitudes + f2.amplitudes
        lin = StateVector(lin / np.linalg.norm(lin), 4)
        assert state_distance(f_sum, lin) > 1e-3

    def test_linear_at_zero_coupling(self):
        cfg = linear_config(make_config(n_sites=4, horizon=3, kind="local", lam=0.5))
        fol = canonical_foliation(4, 3, "synchronous")
        psi1 = zero_state(4)
        psi2 = StateVector(np.roll(zero_state(4).amplitudes, 8), 4)
        summed = StateVector((psi1.amplitudes + psi2.amplitudes) / math.sqrt(2), 4)
        f_sum, _ = evolve(summed, fol, cfg)
        f1, _ = evolve(psi1, fol, cfg)
        f2, _ = evolve(psi2, fol, cfg)
        lin = f1.amplitudes + f2.amplitudes
        lin = StateVector(lin / np.linalg.norm(lin), 4)
        assert state_distance(f_sum, lin) <= 1e-12


class TestConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_config(n_sites=1, horizon=2)
        with pytest.raises(ValueError):
            make_config(n_sites=4, horizon=0)
        with pytest.raises(ValueError):
            make_config(n_sites=4, horizon=2, dt=0.0)

    def test_rejects_unknown_kind_and_base(self):
        with pytest.raises(ValueError, match="kind"):
            NonlinearitySpec(kind="frobnicate")
        with pytest.raises(ValueError):
            make_config(n_sites=4, horizon=2, base_operator="w")

    def test_nonlocal_kinds_require_sites(self):
        with pytest.raises(ValueError, match="source_site"):
            NonlinearitySpec(kind="coefficient_nonlocal", lam=0.5)
        with pytest.raises(ValueError, match="partner_site"):
            NonlinearitySpec(kind="operator_nonlocal", lam=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega", "mu", "link_coupling", "dt"])
    def test_rejects_non_finite_reals(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite real number"):
            make_config(n_sites=4, horizon=2, **{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lambda(self, value):
        with pytest.raises(ValueError, match="lam must be a finite real number"):
            NonlinearitySpec(kind="local", lam=value)

    def test_nonlocal_site_in_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_config(n_sites=3, horizon=2, kind="operator_nonlocal", lam=0.5, partner_site=7)


def batch_rows(n, horizon, seed, size, pool):
    """``size`` rows of (state, surface, deformation) for ``ts_step_batch``.

    The steps come from a pool of ``pool`` random enabled steps, so several
    rows share one generator group with their own coefficients; the states
    come from a pool of ``size`` random states, so some rows share a state.
    """
    rng = np.random.default_rng(seed)
    steps = []
    for k in range(pool):
        fol = random_foliation(n, horizon, seed + k)
        s = initial_surface(n, horizon)
        for d in fol.steps[: int(rng.integers(len(fol.steps)))]:
            s = apply_deformation(s, d)
        enabled = enabled_deformations(s)
        steps.append((s, enabled[int(rng.integers(len(enabled)))]))
    states = [random_state(n, rng) for _ in range(size)]
    return [(states[int(rng.integers(size))],) + steps[int(rng.integers(pool))] for _ in range(size)]


def step_rows(rows, cfg):
    """ts_step_batch on ``rows``, each state drawn by index from a stack of the distinct states."""
    states = list({id(psi): psi for psi, _, _ in rows}.values())
    stack = np.array([psi.amplitudes for psi in states])
    sources = [next(k for k, x in enumerate(states) if x is psi) for psi, _, _ in rows]
    surfaces, steps = [s for _, s, _ in rows], [d for _, _, d in rows]
    return dynamics.ts_step_batch(stack, sources, surfaces, steps, cfg)


class TestBatchedStep:
    """ts_step_batch against ts_step, row by row."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["none", "local", "coefficient_nonlocal", "operator_nonlocal"]),
        base=st.sampled_from(["x", "y", "z"]),
        n=st.integers(2, 6),
        horizon=st.integers(1, 3),
        size=st.integers(1, 8),
        pool=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        remote=st.integers(0, 5),
        masked=st.booleans(),
        lam=st.floats(-2, 2),
    )
    def test_matches_ts_step_per_row(
        self, kind, base, n, horizon, size, pool, seed, remote, masked, lam
    ):
        cfg = make_config(
            n_sites=n, horizon=horizon, base_operator=base, kind=kind, lam=lam,
            source_site=remote % n, partner_site=remote % n,
            active_sites=frozenset(range(0, n, 2)) if masked else None,
        )
        rows = batch_rows(n, horizon, seed, size, pool)
        got = step_rows(rows, cfg)
        assert got.shape == (size, 1 << n)
        for row, (psi, s, d) in zip(got, rows):
            want, _, _ = ts_step(psi, s, d, cfg)
            assert_allclose(row, want.amplitudes, rtol=0, atol=1e-14)

    def test_rejects_a_stack_of_the_wrong_width(self):
        cfg = make_config(n_sites=3, horizon=2)
        with pytest.raises(ValueError, match=r"^stack of shape \(2, 4\) is not \(M, 2\^3\)$"):
            dynamics.ts_step_batch(np.zeros((2, 4), complex), [], [], [], cfg)


class TestBatchedStepFaults:
    """Each fault ts_step catches stops ts_step_batch with ts_step's error and message."""

    @staticmethod
    def assert_same_error(rows, cfg, failing):
        with pytest.raises(Exception) as want:
            ts_step(*rows[failing], cfg)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            step_rows(rows, cfg)

    @staticmethod
    def rows_with(psi, surface, d, n=3):
        """``psi`` stepped with two good states around it, all in one group."""
        return [(plus_state(n), surface, d), (psi, surface, d), (zero_state(n), surface, d)]

    def test_non_hermitian_field(self, monkeypatch, fresh_generator_caches):
        bad = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]], dtype=complex)
        monkeypatch.setitem(fresh_generator_caches.BASE_OPERATORS, "x", bad)
        cfg = make_config(n_sites=3, horizon=2, kind="local", lam=0.5)
        for s, d in ((gate_then_site_surface(), SiteAdvance(0)), (initial_surface(3, 2), LinkApply((0, 1), 0))):
            self.assert_same_error(self.rows_with(plus_state(3), s, d), cfg, 1)

    def test_generator_squaring_off_identity(self, monkeypatch, fresh_generator_caches):
        monkeypatch.setitem(fresh_generator_caches.BASE_OPERATORS, "x", 2.0 * PAULI_X)
        site = (gate_then_site_surface(), SiteAdvance(0))
        link = (initial_surface(3, 2), LinkApply((0, 1), 0))
        for kind, extra in (("local", {}), ("operator_nonlocal", {"partner_site": 2})):
            cfg = make_config(n_sites=3, horizon=2, kind=kind, lam=0.5, **extra)
            for s, d in (site, link):
                self.assert_same_error(self.rows_with(plus_state(3), s, d), cfg, 1)

    def test_nan_row(self):
        psi = plus_state(3)
        psi.amplitudes[5] = np.nan
        for kind, extra in (("local", {}), ("coefficient_nonlocal", {"source_site": 2}), ("none", {})):
            cfg = make_config(n_sites=3, horizon=2, kind=kind, lam=0.5, **extra)
            # A coefficient kind fails the angle's test; a fixed gate fails the norm's.
            for s, d in ((gate_then_site_surface(), SiteAdvance(0)), (initial_surface(3, 2), LinkApply((0, 1), 0))):
                self.assert_same_error(self.rows_with(psi, s, d), cfg, 1)

    def test_norm_drift(self):
        cfg = make_config(n_sites=3, horizon=2, kind="local", lam=0.5)
        psi = plus_state(3)
        psi.amplitudes[0] *= 1.0 + 1e-9
        for s, d in ((gate_then_site_surface(), SiteAdvance(0)), (initial_surface(3, 2), LinkApply((0, 1), 0))):
            rows = self.rows_with(psi, s, d)
            with pytest.raises(ValueError) as want:
                ts_step(*rows[1], cfg)
            with pytest.raises(ValueError, match=r"^state norm (\S+) deviates from 1 beyond 1e-12$") as got:
                step_rows(rows, cfg)
            # The value is the row's own norm, formed by another summation.
            reported = [float(str(exc.value).split()[2]) for exc in (got, want)]
            assert reported[0] == pytest.approx(reported[1], rel=0, abs=1e-15)
