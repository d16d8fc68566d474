"""Stepper, frozen coefficients, trajectory records, and the composed map."""

import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from reference import (
    deformation_sites,
    embedded,
    expm_hermitian,
    product_state,
    random_state,
    random_unitary,
    reference_generator,
    reference_step,
    rk4_step,
    step_plan,
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
from tslattice.experiments import integrability_check
from tslattice.quantum_core import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SiteOperator,
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


# The linear model (every kind at lambda = 0) and each kind at lambda = 0.5.
ALL_KINDS = [
    {"kind": "local", "lam": 0.0},
    {"kind": "local", "lam": 0.5},
    {"kind": "coefficient_nonlocal", "lam": 0.5, "source_site": 0},
    {"kind": "operator_nonlocal", "lam": 0.5, "partner_site": 3},
]
KIND_IDS = ["linear", "local", "coefficient_nonlocal", "operator_nonlocal"]


class TestFreeField:
    def test_rejects_a_site_off_the_lattice(self):
        cfg = make_config(n_sites=6, horizon=2)
        dynamics._free_field.cache_clear()
        for site in (99, 6, -1):
            with pytest.raises(ValueError, match=rf"^site {site} out of range for 6 sites$"):
                free_field(site, 0, cfg)
        # Nothing was built for the missing sites; tau stays unbounded.
        assert dynamics._free_field.cache_info().currsize == 0
        assert_allclose(free_field(5, 1000, cfg).matrix, free_field(5, 1, replace(cfg, omega=1000.0)).matrix)

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
    if nl.lam == 0.0 or not nl.active_at(site) or nl.remote_site == site:
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
    def test_linear_model_is_zero(self):
        # The default nonlinearity is local at lambda = 0: the linear model.
        cfg = make_config(n_sites=2, horizon=1)
        assert cfg.nonlinearity == NonlinearitySpec(kind="local", lam=0.0)
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

    @pytest.mark.parametrize(
        "kind, lam", [("local", 0.0), ("local", 0.7), ("coefficient_nonlocal", 0.7), ("operator_nonlocal", 0.7)]
    )
    def test_follows_the_rule_on_every_surface(self, kind, lam):
        # Every enabled advance on every reachable surface at n <= 4, with
        # the remote site at each site (so every site is once a self-pair)
        # and with the odd sites inactive.
        rng = np.random.default_rng(9)
        for n, t in ((2, 2), (3, 2), (4, 2), (3, 3)):
            psi = random_state(n, rng)
            for remote in range(n):
                for active in (None, frozenset(range(0, n, 2))):
                    cfg = make_config(
                        n_sites=n, horizon=t, kind=kind, lam=lam,
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


def field_key(read, cfg):
    """``(site, tau)`` of the cached free field a plan reads, or None where it reads none."""
    if read is None:
        return None
    return next((read.site, tau) for tau in range(cfg.horizon + 1) if read is free_field(read.site, tau, cfg))


class TestNonlinearPlans:
    """``_nonlinear_plans``: the site advances whose plan reads the state or spans two sites."""

    @staticmethod
    def plans(kind, lam=0.5, n=4, remote=3, active=None):
        cfg = make_config(
            n_sites=n, horizon=2, kind=kind, lam=lam,
            source_site=remote, partner_site=remote, active_sites=active,
        )
        return tuple((i, sites, field_key(read, cfg)) for i, sites, read in dynamics._nonlinear_plans(cfg))

    def test_every_kind(self):
        assert self.plans("local") == tuple((i, (i,), (i, 0)) for i in range(4))
        assert self.plans("coefficient_nonlocal") == tuple((i, (i,), (3, 0)) for i in range(3))
        assert self.plans("operator_nonlocal") == tuple((i, (i, 3), None) for i in range(3))

    @pytest.mark.parametrize("kind", dynamics.NONLINEARITY_KINDS)
    def test_none_at_lambda_zero(self, kind):
        assert self.plans(kind, lam=0.0) == ()
        assert self.plans(kind, lam=-0.0) == ()

    def test_masks(self):
        for kind in dynamics.NONLINEARITY_KINDS:
            assert self.plans(kind, active=frozenset()) == ()
        assert self.plans("local", active=frozenset({1})) == ((1, (1,), (1, 0)),)
        # A nonlocal kind active only at its own remote site never reaches it.
        assert self.plans("coefficient_nonlocal", active=frozenset({3})) == ()
        assert self.plans("operator_nonlocal", active=frozenset({3})) == ()
        assert self.plans("operator_nonlocal", active=frozenset({0, 3})) == ((0, (0, 3), None),)

    def test_self_pair(self):
        assert self.plans("coefficient_nonlocal", n=2, remote=0) == ((1, (1,), (0, 0)),)
        assert self.plans("operator_nonlocal", n=2, remote=0) == ((1, (1, 0), None),)

    @pytest.mark.parametrize("lam", [0.5, 0.0, -0.0])
    @pytest.mark.parametrize("kind", dynamics.NONLINEARITY_KINDS)
    def test_every_reachable_surface_takes_one_of_the_plans(self, kind, lam):
        # The plans of every enabled advance on every reachable surface are
        # those of the initial surface, up to the heights their fields read;
        # at lambda = 0 there are none on any surface.
        for remote in range(3):
            for active in (None, frozenset({0, remote})):
                cfg = make_config(
                    n_sites=3, horizon=2, kind=kind, lam=lam,
                    source_site=remote, partner_site=remote, active_sites=active,
                )
                seen = set()
                for surfaces, successors in surface_levels(3, 2):
                    for s, edges in zip(surfaces, successors):
                        for d in edges:
                            if isinstance(d, SiteAdvance):
                                sites, _, read, _ = step_plan(s, d, cfg)
                                if read is not None or len(sites) == 2:
                                    seen.add((d.site, sites, None if read is None else read.site))
                plans = dynamics._nonlinear_plans(cfg)
                assert seen == {(i, sites, None if read is None else read.site) for i, sites, read in plans}


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

    @pytest.mark.parametrize("nl", ALL_KINDS, ids=KIND_IDS)
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
            lam = couplings.pop("lam")
            for kind, kind_lam in (("local", 0.0), *((k, lam) for k in dynamics.NONLINEARITY_KINDS)):
                cfg = make_config(n_sites=4, horizon=4, base_operator=base, kind=kind, lam=kind_lam, **couplings)
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

    @pytest.mark.parametrize("nl", ALL_KINDS, ids=KIND_IDS)
    def test_no_kind_goes_through_eigh(self, monkeypatch, nl):
        calls = {"eigh": 0, "closed": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        # Every gate of the evolution is built here, none taken from the memo.
        dynamics._fixed_gate.cache_clear()
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
        # At lambda = 0 the advance takes the linear one-site plan.
        assert entry.sites == ((i,) if lam == 0.0 else (i, j))
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

    @pytest.mark.parametrize("nl", ALL_KINDS, ids=KIND_IDS)
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


class TestExactFlow:
    """Each step is the exact flow of i dpsi/ds = H(psi(s)) psi, not a frozen-coefficient approximation.

    The field a step reads commutes with its generator, so <O> and with it
    the coefficient stay constant along the step.
    """

    @pytest.mark.parametrize("nl", ALL_KINDS, ids=KIND_IDS)
    @pytest.mark.parametrize("base", ["x", "y"])
    def test_each_step_matches_the_rk4_flow(self, nl, base):
        n, horizon = 4, 3
        lam = 1.3 if nl["lam"] else 0.0  # the linear model stays at lambda = 0
        cfg = make_config(n_sites=n, horizon=horizon, dt=0.3, base_operator=base, **dict(nl, lam=lam))
        psi = random_state(n, np.random.default_rng(90))
        s = initial_surface(n, horizon)
        for d in random_foliation(n, horizon, 91).steps:
            want = rk4_step(psi, s, d, cfg)
            psi, s, _ = ts_step(psi, s, d, cfg)
            assert np.abs(psi.amplitudes - want.amplitudes).max() <= 1e-12


def clear_generator_caches():
    """Empty the field and pair caches and the gate memo built from them."""
    dynamics._free_field.cache_clear()
    dynamics._pair_generator.cache_clear()
    dynamics._fixed_gate.cache_clear()


@pytest.fixture
def fresh_generator_caches():
    """Empty the field and pair caches and the plan memo around a test that patches the base operators."""
    clear_generator_caches()
    dynamics._nonlinear_plans.cache_clear()
    dynamics._group_key.cache_clear()
    yield dynamics
    clear_generator_caches()
    dynamics._nonlinear_plans.cache_clear()
    dynamics._group_key.cache_clear()


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


class TestZeroAngleGates:
    """A zero-angle rotation is the shared read-only identity, and no step or block applies it."""

    @pytest.mark.parametrize("theta", [0.0, -0.0])
    def test_zero_angle_is_the_shared_identity(self, theta):
        oi, residue = dynamics._free_field(0, 3, 0.7, "x")
        pair, pair_residue = dynamics._pair_generator(0, 3, 1, 2, 0.7, "x")
        assert dynamics._closed_form_gate(oi.matrix, residue, theta, (0,)) is dynamics._identity(2)
        assert dynamics._closed_form_gate(pair, pair_residue, theta, (0, 1)) is dynamics._identity(4)
        assert not dynamics._identity(2).flags.writeable

    @pytest.mark.parametrize("theta", [1e-300, -1e-300, 1e-310, 5e-324])
    def test_tiny_angles_are_rotations(self, theta):
        # sin(theta) is theta here, so the off-diagonal entries are -i theta.
        u = dynamics._closed_form_gate(PAULI_X, 0.0, theta, (0,))
        assert u is not dynamics._identity(2)
        assert u[0, 1] == u[1, 0] == complex(0.0, -theta)
        [(block, sites)] = dynamics._blocks([(u, (1,)), (dynamics._identity(2), (0,))], dynamics._WINDOW)
        assert sites == (1,) and block[0, 1] == complex(0.0, -theta)

    def test_nan_angle_still_fails_the_unitarity_test(self):
        message = r"^operator at site 0 is not unitary within 1e-12$"
        with pytest.raises(ValueError, match=message):
            dynamics._closed_form_gate(PAULI_X, 0.0, math.nan, (0,))
        # A NaN coupling cannot pass ModelConfig; set one past its check.
        cfg = make_config(n_sites=3, horizon=2, mu=0.0, link_coupling=0.0)
        object.__setattr__(cfg, "mu", math.nan)
        with pytest.raises(ValueError, match=message):
            ts_step(plus_state(3), gate_then_site_surface(), SiteAdvance(0), cfg)

    def test_zero_angle_step_copies_the_state(self, monkeypatch):
        made = []
        kernel = dynamics.apply_gate
        monkeypatch.setattr(dynamics, "apply_gate", lambda *args: made.append(1) or kernel(*args))
        cfg = make_config(n_sites=3, horizon=2, mu=0.0, link_coupling=0.0)
        psi = random_state(3, np.random.default_rng(35))
        for s, d in ((initial_surface(3, 2), LinkApply((0, 1), 0)), (gate_then_site_surface(), SiteAdvance(0))):
            out, _, entry = ts_step(psi, s, d, cfg)
            assert not np.shares_memory(out.amplitudes, psi.amplitudes)
            assert np.array_equal(out.amplitudes, psi.amplitudes)
            assert entry.unitary is dynamics._identity(2 ** len(entry.sites))
            assert entry.coefficient == 0.0
        assert made == []
        # The norm test still runs on the copy.
        psi.amplitudes[0] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="deviates from 1 beyond 1e-12"):
            ts_step(psi, initial_surface(3, 2), LinkApply((0, 1), 0), cfg)


def install_read(monkeypatch, matrix):
    """Make every state-reading plan read ``matrix`` at its advancing site, and empty the memos built from plans."""
    plan = dynamics._step_plan

    def reading(d, tau_i, tau_j, config):
        sites, c, read, terms = plan(d, tau_i, tau_j, config)
        return sites, c, None if read is None else SiteOperator(matrix, d.site), terms

    monkeypatch.setattr(dynamics, "_step_plan", reading)
    dynamics._fixed_gate.cache_clear()
    dynamics._nonlinear_plans.cache_clear()
    dynamics._group_key.cache_clear()


class TestReadObject:
    """A read defined only here, <Y> at the advancing site, through both step algorithms (ROADMAP item 23).

    The step reads what its plan's read object names: its field and site.
    Y does not commute with an x-base generator, so the coefficient differs
    from ``local``'s and the read field is not the generator.
    """

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_y_read_matches_the_reference_step(self, monkeypatch, fresh_generator_caches, n):
        install_read(monkeypatch, PAULI_Y)
        cfg = make_config(n_sites=n, horizon=2, base_operator="x", kind="local", lam=0.9)
        foliations = [canonical_foliation(n, 2, pick) for pick in ("synchronous", "staircase")]
        foliations += [random_foliation(n, 2, seed) for seed in (1, 2)]
        rng = np.random.default_rng(50 + n)
        for fol in foliations:
            psi, s = random_state(n, rng), initial_surface(n, 2)
            for d in fol.steps:
                # Every enabled step from psi in one batch: reading groups on
                # several sites share one coefficient pass.
                enabled = enabled_deformations(s)
                rows = len(enabled)
                got = batch_step(psi.amplitudes[None, :], [0] * rows, [s] * rows, enabled, cfg)
                for row, e in zip(got, enabled):
                    assert_allclose(row, reference_step(psi, s, e, cfg)[0].amplitudes, rtol=0, atol=1e-14)
                want, _, c, u = reference_step(psi, s, d, cfg)
                if isinstance(d, SiteAdvance):
                    y = expectation(psi, SiteOperator(PAULI_Y, d.site))
                    assert c == pytest.approx(0.9 * y, rel=0, abs=1e-14)
                psi, s, entry = ts_step(psi, s, d, cfg)
                assert entry.coefficient == pytest.approx(c, rel=0, abs=1e-14)
                assert_allclose(entry.unitary, u, rtol=0, atol=1e-14)
                assert_allclose(psi.amplitudes, want.amplitudes, rtol=0, atol=1e-14)

    def test_non_hermitian_read_fails_both_algorithms_alike(self, monkeypatch, fresh_generator_caches):
        # A field that skipped the cache's Hermiticity test: <psi|M psi> = <Y> + 1e-6 i.
        install_read(monkeypatch, PAULI_Y + 1e-6j * np.eye(2))
        cfg = make_config(n_sites=3, horizon=2, kind="local", lam=0.5)
        rows = TestBatchedStepFaults.rows_with(plus_state(3), gate_then_site_surface(), SiteAdvance(0))
        with pytest.raises(ArithmeticError, match=r"^expectation has imaginary residue "):
            ts_step(*rows[1], cfg)
        TestBatchedStepFaults.assert_same_error(rows, cfg, 1)


class TestSizeMismatch:
    """ts_step and ts_step_batch step only a state and surface of the config's size."""

    @pytest.mark.parametrize(
        "kind, lam",
        [("local", 0.0), *((kind, 0.5) for kind in dynamics.NONLINEARITY_KINDS)],
        ids=["linear", *dynamics.NONLINEARITY_KINDS],
    )
    def test_larger_state_and_surface_than_the_config(self, kind, lam):
        cfg = make_config(n_sites=3, horizon=2, kind=kind, lam=lam, source_site=0, partner_site=1)
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
        with pytest.raises(ValueError, match=r"^sizes differ: state has 3 sites, surface 4, config 3$"):
            dynamics._row_groups(*zip(good, bad), cfg)


class TestSpacelikeInvariance:
    @pytest.mark.parametrize(
        "nl",
        [
            {"kind": "local", "lam": 0.0},
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
            {"kind": "local", "lam": 0.0},
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
        u = compose_map(TrajectoryRecord((), 2))
        assert_allclose(u, np.eye(4))

    def test_single_gate_embedding(self):
        step = TrajectoryStep(
            deformation=SiteAdvance(0),
            coefficient=0.0,
            sites=(0,),
            unitary=PAULI_X,
        )
        u = compose_map(TrajectoryRecord((step,), 2))
        assert_allclose(u, np.kron(PAULI_X, np.eye(2)))

    @pytest.mark.parametrize("nl", ALL_KINDS)
    def test_unitary_and_consistent_for_every_kind(self, nl):
        cfg = make_config(n_sites=4, horizon=2, **dict(nl))
        psi0 = plus_state(4)
        final, record = evolve(psi0, canonical_foliation(4, 2, "synchronous"), cfg)
        u = compose_map(record)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-10
        mapped = u @ psi0.amplitudes
        mapped = StateVector(mapped / np.linalg.norm(mapped), 4)
        assert state_distance(mapped, final) <= 1e-10

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="<= 10"):
            compose_map(TrajectoryRecord((), 11))


def kron_product(gates, n):
    """Product of ``(u, sites)`` gates in application order, each embedded by np.kron."""
    m = np.eye(2**n, dtype=complex)
    for u, sites in gates:
        m = embedded(u, sites, n) @ m
    return m


def hand_step(sites, rng):
    d = SiteAdvance(sites[0]) if len(sites) == 1 else LinkApply(tuple(sites), 0)
    return TrajectoryStep(d, 0.0, tuple(sites), random_unitary(2 ** len(sites), rng))


def kind_configs(n):
    """Every kind on n sites; operator_nonlocal's partner both last and first."""
    yield make_config(n_sites=n, horizon=3)
    yield make_config(n_sites=n, horizon=3, kind="local", lam=0.5)
    yield make_config(n_sites=n, horizon=3, kind="coefficient_nonlocal", lam=0.5, source_site=0)
    for partner in (n - 1, 0):
        yield make_config(n_sites=n, horizon=3, kind="operator_nonlocal", lam=0.5, partner_site=partner)


def one_gate_per_link(steps):
    """Passes of one gate per two-site step, plus one per site that carries only one-site gates."""
    pairs = [step.sites for step in steps if len(step.sites) == 2]
    linked = {s for sites in pairs for s in sites}
    return len(pairs) + len({step.sites[0] for step in steps if len(step.sites) == 1} - linked)


def is_one_pass(sites, window):
    """A far pair, or at most ``window`` adjacent sites listed in order."""
    if len(sites) == 2 and sites[1] - sites[0] >= window:
        return True
    return len(sites) <= window and list(sites) == list(range(sites[0], sites[0] + len(sites)))


# The windows of both callers of _blocks: the degeneracy walk's and compose_map's.
WINDOWS = (dynamics._WINDOW, dynamics._MAP_WINDOW)


class TestBlocks:
    """``_blocks`` keeps the product of a record's gates, in blocks of one pass each."""

    @staticmethod
    def check(steps, n, window=dynamics._MAP_WINDOW):
        blocks = dynamics._blocks(((step.unitary, step.sites) for step in steps), window)
        want = kron_product(((step.unitary, step.sites) for step in steps), n)
        assert np.max(np.abs(kron_product(blocks, n) - want)) <= 1e-13
        assert np.max(np.abs(compose_map(TrajectoryRecord(tuple(steps), n)) - want)) <= 1e-13
        assert all(is_one_pass(sites, window) for _, sites in blocks)
        return blocks

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("order", ["synchronous", "staircase", "random"])
    def test_product_of_every_kind_and_foliation(self, n, order, window):
        if order == "random":
            fol = random_foliation(n, 3, 100 + n)
        else:
            fol = canonical_foliation(n, 3, order)
        for cfg in kind_configs(n):
            _, record = evolve(plus_state(n), fol, cfg)
            blocks = self.check(record.steps, n, window)
            assert len(blocks) <= one_gate_per_link(record.steps)

    def test_partner_below_the_advancing_site(self):
        cfg = make_config(n_sites=4, horizon=3, kind="operator_nonlocal", lam=0.5, partner_site=0)
        _, record = evolve(plus_state(4), random_foliation(4, 3, 5), cfg)
        assert any(step.sites[0] > step.sites[1] for step in record.steps if len(step.sites) == 2)
        self.check(record.steps, 4)

    def test_one_site_gates_only(self):
        rng = np.random.default_rng(11)
        steps = [hand_step(sites, rng) for sites in [(0,), (2,), (0,), (1,), (2,), (2,)]]
        blocks = self.check(steps, 3)
        assert [sites for _, sites in blocks] == [(0, 1, 2)]

    def test_one_site_gate_after_the_last_two_site_gate(self):
        rng = np.random.default_rng(12)
        steps = [hand_step(sites, rng) for sites in [(0, 1), (1, 2), (0,), (1,), (2,), (0,), (2, 0), (2,)]]
        blocks = self.check(steps, 3)
        assert [sites for _, sites in blocks] == [(0, 1, 2)]

    def test_one_site_gate_before_the_first_two_site_gate(self):
        rng = np.random.default_rng(13)
        steps = [hand_step(sites, rng) for sites in [(2,), (1,), (2,), (3,), (0, 1), (3, 1), (0,), (2, 3)]]
        blocks = self.check(steps, 4)
        assert [sites for _, sites in blocks] == [(0, 1, 2, 3)]

    @pytest.mark.parametrize("window", WINDOWS)
    def test_far_pairs_stay_pairs(self, window):
        # Sites 0 and f = window + 1 are further apart than a window: a block
        # on both is a pair, which a one-site gate on a third site cannot join.
        rng = np.random.default_rng(14)
        f = window + 1
        steps = [hand_step(sites, rng) for sites in [(0, f), (2,), (f, 0), (0,), (2, 3), (f - 1, f), (1, 0)]]
        blocks = self.check(steps, f + 1, window)
        assert [sites for _, sites in blocks] == [(0, f), tuple(range(2, f + 1)), (0, 1)]

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 7),
        seed=st.integers(0, 2**16),
        picks=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.booleans()), max_size=24),
        window=st.sampled_from(WINDOWS),
    )
    def test_random_records(self, n, seed, picks, window):
        # One-site gates, and pairs both adjacent and far, in either order.
        rng = np.random.default_rng(seed)
        steps = []
        for a, b, one_site in picks:
            a, b = a % n, b % n
            steps.append(hand_step((a,) if one_site or a == b else (a, b), rng))
        self.check(steps, n, window)

    def test_map_is_the_same_for_every_window(self):
        cfg = make_config(n_sites=7, horizon=3, kind="operator_nonlocal", lam=0.5, partner_site=6)
        _, record = evolve(plus_state(7), random_foliation(7, 3, 15), cfg)
        maps = [kron_product(self.check(record.steps, 7, window), 7) for window in range(2, 7)]
        assert max(np.max(np.abs(u - maps[0])) for u in maps) <= 1e-13


def one_gate_at_a_time(record):
    """The record's gates folded over the identity, each by ``apply_gate`` on the map's 2n sites."""
    n = record.n_sites
    m = np.eye(2**n, dtype=complex).ravel()
    for step in record.steps:
        m = dynamics.apply_gate(m, step.unitary, step.sites, 2 * n)
    return m.reshape(2**n, 2**n)


def traced_compose(monkeypatch, record):
    """``(u, start, walked)``: compose_map's map, the sites of the (left, right) factors its start
    contracts (None if it contracts none), and the sites of each block that a column slab walked.

    The start is the ``_contract`` call made outside ``_fold``, which
    contracts blocks into factors; a slab is a 2-D ``apply_gate`` input,
    where ``_blocks`` fuses on flat vectors.
    """
    starts, walked, folding = [], [], []
    contract, fold, gate = dynamics._contract, dynamics._fold, dynamics.apply_gate

    def spy_contract(left, right, sites):
        if not folding:
            starts.append((left[1], right[1]))
        return contract(left, right, sites)

    def spy_fold(blocks):
        folding.append(blocks)
        try:
            return fold(blocks)
        finally:
            folding.pop()

    def spy_gate(amps, u, sites, n):
        if amps.ndim == 2:
            walked.append(tuple(sites))
        return gate(amps, u, sites, n)

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_contract", spy_contract)
        patch.setattr(dynamics, "_fold", spy_fold)
        patch.setattr(dynamics, "apply_gate", spy_gate)
        u = compose_map(record)
    assert len(starts) <= 1
    return u, starts[0] if starts else None, walked


LINKS_TO_EIGHT = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]


class TestFactorStart:
    """The map starts as ``left · right``, two folded factors summed over the sites they share."""

    @staticmethod
    def check(monkeypatch, record):
        u, start, walked = traced_compose(monkeypatch, record)
        assert np.max(np.abs(u - one_gate_at_a_time(record))) <= 1e-13
        return start, walked

    @pytest.mark.parametrize(
        "links, n, start",
        [
            # A window on sites 0-5 is the right factor; the links after it
            # fuse on sites 5-8, which would make nine, so they are the left
            # factor, sharing site 5; site 9 is on neither.
            (LINKS_TO_EIGHT, 10, ((5, 6, 7, 8), (0, 1, 2, 3, 4, 5))),
            # Two blocks far apart fold into one factor on sites 0, 1, 8 and
            # 9: a Kronecker product, with the identity on sites 2-7.
            ([(0, 1), (8, 9)], 10, ((), (0, 1, 8, 9))),
            ([(2, 3)], 6, ((), (2, 3))),
        ],
        ids=["shared-site", "kronecker", "between"],
    )
    def test_sites_outside_both_factors(self, monkeypatch, links, n, start):
        rng = np.random.default_rng(40 + n)
        record = TrajectoryRecord(tuple(hand_step(sites, rng) for sites in links), n)
        assert self.check(monkeypatch, record) == (start, [])

    @pytest.mark.parametrize(
        "steps, start",
        [
            # The far pair (0, 8) and the window on 1-6 fold into the right
            # factor; the link (6, 7) is the left one.
            ([(0, 8), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)], ((6, 7), (0, 1, 2, 3, 4, 5, 6, 8))),
            # Reversed: the window on 3-7 and the link (1, 2) fold into the
            # right factor; the far pair is the left one, on no shared site.
            ([(6, 7), (5, 6), (4, 5), (3, 4), (1, 2), (0, 8)], ((0, 8), (1, 2, 3, 4, 5, 6, 7))),
        ],
        ids=["right", "left"],
    )
    def test_far_pair_inside_a_factor(self, monkeypatch, steps, start):
        rng = np.random.default_rng(41)
        record = TrajectoryRecord(tuple(hand_step(sites, rng) for sites in steps), 9)
        assert self.check(monkeypatch, record) == (start, [])

    @pytest.mark.parametrize(
        "sites, block",
        [((), ()), ((0,), (0,)), ((3,), (3,)), ((1, 2), (1, 2)), ((2, 1), (1, 2)), ((0, 6), (0, 6)), ((6, 0), (0, 6))]
        # A pair within a window is a block on the six sites from one to the other.
        + [((0, 5), (0, 1, 2, 3, 4, 5)), ((5, 0), (0, 1, 2, 3, 4, 5))],
    )
    def test_one_block_and_empty_records(self, monkeypatch, sites, block):
        rng = np.random.default_rng(30 + len(sites))
        record = TrajectoryRecord((hand_step(sites, rng),) if sites else (), 7)
        assert self.check(monkeypatch, record) == (((), block), [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_after_the_left_factor_walk_column_slabs(self, monkeypatch, workers):
        # At T = 8 the seed 1 record fuses into five blocks: a six-site window
        # is the right factor, the next block the left one, and each of the
        # map's 32 column slabs walks the other three.
        monkeypatch.setattr(dynamics, "_workers", lambda: workers)
        cfg = make_config(n_sites=10, horizon=8, kind="local", lam=0.5)
        final, record = evolve(zero_state(10), random_foliation(10, 8, 1), cfg)
        blocks = dynamics._blocks(((step.unitary, step.sites) for step in record.steps), dynamics._MAP_WINDOW)
        (left, right), walked = self.check(monkeypatch, record)
        assert (len(blocks), len(right), len(walked)) == (5, 6, 3 * 32)
        assert sorted(walked) == sorted([sites for _, sites in blocks[2:]] * 32)
        assert np.abs(compose_map(record)[:, 0] - final.amplitudes).max() <= 1e-13

    @pytest.mark.parametrize("seed", list(range(1, 11)) + [21])
    def test_dense_maps_records_take_no_slab_pass(self, monkeypatch, seed):
        # The benchmark's dense_maps records fuse into three blocks; the two
        # factors cover all ten sites and share three, so each entry of the
        # map is a sum of 8 terms, and no block walks the map.
        cfg = make_config(n_sites=10, horizon=4, kind="local", lam=0.5)
        final, record = evolve(zero_state(10), random_foliation(10, 4, seed), cfg)
        (left, right), walked = self.check(monkeypatch, record)
        assert walked == []
        assert (set(left) | set(right), len(set(left) & set(right))) == (set(range(10)), 3)
        assert np.abs(compose_map(record)[:, 0] - final.amplitudes).max() <= 1e-13

    @pytest.mark.parametrize("step", [0, -1], ids=["right", "left"])
    @pytest.mark.parametrize("entry", [(0, 0), (3, 1)])
    def test_nan_in_either_factor_gives_a_nan_defect(self, step, entry):
        # The first gate is in the right factor, the last in the left one;
        # each of their entries reaches the map.
        rng = np.random.default_rng(34)
        steps = [hand_step(sites, rng) for sites in LINKS_TO_EIGHT]
        steps[step].unitary[entry] = np.nan
        record = TrajectoryRecord(tuple(steps), 10)
        assert math.isnan(dynamics._unitarity_defect(compose_map(record)))

    @pytest.mark.parametrize("n", [6, 8])
    def test_a_right_factor_on_every_site_is_the_map(self, monkeypatch, n):
        # Up to eight sites every block folds into the right factor, so
        # there is no left factor, and the record's blocks cover every site.
        for cfg in kind_configs(n):
            _, record = evolve(plus_state(n), random_foliation(n, 3, 1), cfg)
            assert self.check(monkeypatch, record) == (None, [])

    @pytest.mark.parametrize("n", [6, 8, 10])
    @pytest.mark.parametrize("base", ["x", "z"])
    def test_zero_angle_links_against_one_gate_at_a_time(self, monkeypatch, n, base):
        # With J = 0 every link gate is the identity, which _blocks drops;
        # base z makes every site gate diagonal.
        for cfg in kind_configs(n):
            cfg = replace(cfg, link_coupling=0.0, base_operator=base)
            _, record = evolve(plus_state(n), random_foliation(n, 3, 19), cfg)
            links = [step.unitary for step in record.steps if isinstance(step.deformation, LinkApply)]
            assert links and all(u is dynamics._identity(4) for u in links)
            self.check(monkeypatch, record)

    @pytest.mark.parametrize("n", [2, 7, 10])
    def test_an_all_identity_record_is_the_identity(self, monkeypatch, n):
        cfg = make_config(n_sites=n, horizon=3, omega=0.0, mu=0.0, link_coupling=0.0)
        _, record = evolve(plus_state(n), random_foliation(n, 3, 20), cfg)
        assert dynamics._blocks(((step.unitary, step.sites) for step in record.steps), dynamics._MAP_WINDOW) == []
        u, start, walked = traced_compose(monkeypatch, record)
        assert (start, walked) == (((), ()), [])
        assert np.array_equal(u, np.eye(2**n))

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_every_kind_against_one_gate_at_a_time(self, monkeypatch, n):
        for cfg in kind_configs(n):
            _, record = evolve(plus_state(n), random_foliation(n, 3, 18), cfg)
            self.check(monkeypatch, record)


class TestContractFill:
    """``_contract`` leaves no entry unwritten: it zeroes the matrix only for sites neither factor touches."""

    @staticmethod
    def contract_with_nan_empty(monkeypatch, left, right, n):
        empty = np.empty

        def nan_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill(np.nan)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(dynamics.np, "empty", nan_empty)
            got = dynamics._contract(left, right, tuple(range(n)))
        want = embedded(left[0], left[1], n) @ embedded(right[0], right[1], n)
        assert not np.isnan(got).any()
        assert np.max(np.abs(got.reshape(2**n, 2**n) - want)) <= 1e-13

    @pytest.mark.parametrize(
        "left_sites, right_sites",
        [((2, 3, 4), (0, 1, 2, 3)), ((), (0, 1, 2, 3, 4)), ((0, 4), (1, 2, 3)), ((0, 1, 2, 3, 4), (1, 3))],
    )
    def test_factors_on_every_site_write_every_entry(self, monkeypatch, left_sites, right_sites):
        rng = np.random.default_rng(36)
        left, right = ((random_unitary(2 ** len(s), rng), s) for s in (left_sites, right_sites))
        self.contract_with_nan_empty(monkeypatch, left, right, 5)

    @pytest.mark.parametrize("left_sites, right_sites", [((0, 1), (3, 4)), ((), (1, 2)), ((), ())])
    def test_a_free_site_still_gets_the_identity(self, monkeypatch, left_sites, right_sites):
        rng = np.random.default_rng(37)
        left, right = ((random_unitary(2 ** len(s), rng), s) for s in (left_sites, right_sites))
        self.contract_with_nan_empty(monkeypatch, left, right, 5)


def dense_maps_record():
    """The benchmark's dense_maps record: N = 10, T = 4, kind local, random foliation seed 21."""
    cfg = make_config(n_sites=10, horizon=4, kind="local", lam=0.5)
    return evolve(zero_state(10), random_foliation(10, 4, 21), cfg)


class TestWorkers:
    """``_in_workers`` and the dense map: results do not depend on the worker count."""

    @pytest.mark.parametrize("n", [9, 10])
    def test_compose_map_is_the_same_for_every_worker_count(self, monkeypatch, n):
        for cfg in kind_configs(n):
            _, record = evolve(plus_state(n), random_foliation(n, 3, 16), cfg)
            maps = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(dynamics, "_workers", lambda w=workers: w)
                maps.append(compose_map(record))
            assert all(np.array_equal(u, maps[0]) for u in maps[1:])

    def test_three_workers_under_fast_switching(self, monkeypatch):
        # More workers than cores, switching as often as the interpreter
        # allows: a chunk lost or written twice would change the map.
        _, record = evolve(plus_state(9), random_foliation(9, 4, 17), make_config(n_sites=9, horizon=4))
        want = compose_map(record)
        monkeypatch.setattr(dynamics, "_workers", lambda: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [compose_map(record) for _ in range(10)]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(u, want) for u in got)

    def test_shares_alternate_and_come_back_in_worker_order(self, monkeypatch):
        for workers in (1, 2, 3):
            monkeypatch.setattr(dynamics, "_workers", lambda w=workers: w)
            got = dynamics._in_workers(list, range(7))
            assert got == [list(range(k, 7, workers)) for k in range(workers)]

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool of helper threads was made")

        monkeypatch.setattr(dynamics, "_workers", lambda: 2)
        monkeypatch.setattr(dynamics, "ThreadPoolExecutor", no_pool)
        assert dynamics._in_workers(list, [5]) == [[5]]
        compose_map(TrajectoryRecord((), 4))

    def test_helper_thread_error_reaches_the_caller(self, monkeypatch):
        # The helper's share must not come back as None, nor its error be
        # printed and dropped.
        monkeypatch.setattr(dynamics, "_workers", lambda: 2)
        caller = threading.get_ident()
        ran = []

        def work(share):
            ran.append(list(share))
            if threading.get_ident() != caller:
                raise ZeroDivisionError("in the helper thread")
            return share

        with pytest.raises(ZeroDivisionError, match="in the helper thread"):
            dynamics._in_workers(work, [0, 1, 2, 3])
        assert sorted(ran) == [[0, 2], [1, 3]]

    def test_caller_share_error_waits_for_the_helper(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_workers", lambda: 2)
        caller = threading.get_ident()
        done = []

        def work(share):
            if threading.get_ident() == caller:
                raise ZeroDivisionError("in the caller's share")
            done.append(list(share))

        with pytest.raises(ZeroDivisionError, match="in the caller's share"):
            dynamics._in_workers(work, [0, 1, 2, 3])
        assert done == [[1, 3]]

    @pytest.mark.parametrize(
        "env, two",
        [
            ({"OPENBLAS_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "2"}, False),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
            ({"OMP_NUM_THREADS": "1"}, True),
            ({"OMP_NUM_THREADS": "2"}, False),
            ({}, False),
        ],
        ids=["openblas-1", "openblas-2", "openblas-before-omp", "omp-1", "omp-2", "unset"],
    )
    def test_workers_follow_the_blas_pool(self, env, two):
        # Each in a fresh process, which loads OpenBLAS with this environment.
        # Unset, the pool has a thread per core: one worker on any host.
        base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        src = str(Path(dynamics.__file__).resolve().parents[1])
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import os, tslattice.dynamics as d; print(d._workers(), len(os.sched_getaffinity(0)))"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True, check=True
        )
        workers, cores = map(int, done.stdout.split())
        assert workers == (min(2, cores) if two else 1)

    @staticmethod
    def traced_peak(record):
        compose_map(record)  # warm caches outside the traced region
        tracemalloc.start()
        try:
            u = compose_map(record)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return u, peak

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_at_ten_sites(self, monkeypatch, workers):
        # One 16 MiB map, written once, beside its 1 MiB eight-site factor and
        # per worker one 256 KiB chunk; a pass that makes a new map holds two
        # maps (32 MiB).
        monkeypatch.setattr(dynamics, "_workers", lambda: workers)
        final, record = dense_maps_record()
        u, peak = self.traced_peak(record)
        assert np.abs(u[:, 0] - final.amplitudes).max() <= 1e-13
        assert peak < 20 << 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_far_pairs_walk_column_slabs(self, monkeypatch, workers):
        # operator_nonlocal with partner 9 on the dense_maps foliation: 11 of
        # the 20 blocks after the two factors are far pairs, whose gather
        # copies a slab, not the map (a new map per far pair peaked at 64 MiB).
        monkeypatch.setattr(dynamics, "_workers", lambda: workers)
        cfg = make_config(n_sites=10, horizon=4, kind="operator_nonlocal", lam=0.5, partner_site=9)
        _, record = evolve(zero_state(10), random_foliation(10, 4, 21), cfg)
        _, _, walked = traced_compose(monkeypatch, record)
        far = sum(sites[-1] - sites[0] >= dynamics._MAP_WINDOW for sites in walked)
        assert (len(walked), far) == (20 * 32, 11 * 32)
        u, peak = self.traced_peak(record)
        assert np.max(np.abs(u - one_gate_at_a_time(record))) <= 1e-13
        assert peak < 24 << 20


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
        for kind in ("frobnicate", "none"):
            with pytest.raises(
                ValueError, match=rf"^nonlinearity kind '{kind}' not in local\|coefficient_nonlocal\|operator_nonlocal$"
            ):
                NonlinearitySpec(kind=kind)
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

    @pytest.mark.parametrize("active, bad", [({7}, 7), ({-1}, -1), ({7, -1}, -1), ({0, 4}, 4)])
    def test_active_sites_on_the_lattice(self, active, bad):
        with pytest.raises(ValueError, match=rf"^active_sites {bad} out of range for 4 sites$"):
            ModelConfig(n_sites=4, nonlinearity=NonlinearitySpec(kind="local", lam=0.5, active_sites=active))
        for ok in (set(), {0, 3}):  # the empty set masks every site
            spec = NonlinearitySpec(kind="local", lam=0.5, active_sites=ok)
            assert ModelConfig(n_sites=4, nonlinearity=spec).nonlinearity.active_sites == frozenset(ok)


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


def batch_step(stack, sources, surfaces, steps, cfg):
    """ts_step_batch on the groups ``_row_groups`` forms of ``surfaces`` and ``steps``."""
    return dynamics.ts_step_batch(stack, sources, dynamics._row_groups(surfaces, steps, cfg), cfg)


def step_rows(rows, cfg):
    """ts_step_batch on ``rows``, each state drawn by index from a stack of the distinct states."""
    states = list({id(psi): psi for psi, _, _ in rows}.values())
    stack = np.array([psi.amplitudes for psi in states])
    sources = [next(k for k, x in enumerate(states) if x is psi) for psi, _, _ in rows]
    surfaces, steps = [s for _, s, _ in rows], [d for _, _, d in rows]
    return batch_step(stack, sources, surfaces, steps, cfg)


class TestBatchedStep:
    """ts_step_batch against ts_step, row by row."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(dynamics.NONLINEARITY_KINDS),
        base=st.sampled_from(["x", "y", "z"]),
        n=st.integers(2, 6),
        horizon=st.integers(1, 3),
        size=st.integers(1, 16),
        pool=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        remote=st.integers(0, 5),
        masked=st.booleans(),
        lam=st.just(0.0) | st.floats(-2, 2),
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

    @pytest.mark.parametrize("n", [4, 14])
    @pytest.mark.parametrize("kind, lam", [("local", 0.0), ("operator_nonlocal", 0.5)], ids=["linear", "nonlocal"])
    def test_interleaved_fixed_groups_step_as_their_own_kernel_calls(self, n, kind, lam):
        # Every row has a fixed gate: links and site advances, one- and
        # two-site, whose groups interleave in shuffled row order. Each
        # group's rows are bit-equal to one kernel call on that group's
        # states with its memoized gate.
        partner = n - 1 if kind == "operator_nonlocal" else None
        cfg = make_config(n_sites=n, horizon=2, kind=kind, lam=lam, partner_site=partner)
        rng = np.random.default_rng(37 + n)
        s, pool = initial_surface(n, 2), []
        for d in random_foliation(n, 2, n).steps[:8]:
            pool += [(s, e) for e in enabled_deformations(s)]
            s = apply_deformation(s, d)
        rows = [pool[k] for k in rng.permutation(len(pool))[:24]]
        assert {type(d) for _, d in rows} == {SiteAdvance, LinkApply}
        stack = np.array([random_state(n, rng).amplitudes for _ in range(5)])
        sources = rng.integers(len(stack), size=len(rows))
        groups = dynamics._row_groups(*zip(*rows), cfg)
        got = dynamics.ts_step_batch(stack, sources, groups, cfg)
        assert any(group[-1] - group[0] >= len(group) for _, _, group in groups)  # some group interleaves
        for d, heights, group in groups:
            s = rows[group[0]][0]
            assert all(rows[r][1] == d for r in group)
            assert heights == dynamics._read_heights(s, d, dynamics._group_key(cfg))
            sites, _, u = dynamics._fixed_gate(d, *heights, cfg)
            assert np.array_equal(got[group], dynamics.apply_gate(stack[sources[group]], u, sites, n))

    def test_rejects_a_stack_of_the_wrong_width(self):
        cfg = make_config(n_sites=3, horizon=2)
        with pytest.raises(ValueError, match=r"^stack of shape \(2, 4\) is not \(M, 2\^3\)$"):
            dynamics.ts_step_batch(np.zeros((2, 4), complex), [], [], cfg)


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

    def test_failing_row_of_a_later_group(self, monkeypatch):
        # Two state-reading groups share the coefficient pass; only site 2's
        # field reports a residue that fails the unitarity test.
        real = dynamics._free_field

        def residue_off_at_site_2(site, tau, omega, base_operator):
            field, residue = real(site, tau, omega, base_operator)
            return field, 1e6 if site == 2 else residue

        monkeypatch.setattr(dynamics, "_free_field", residue_off_at_site_2)
        cfg = make_config(n_sites=3, horizon=2, kind="local", lam=0.5)
        s = gate_then_site_surface()
        rows = [(plus_state(3), s, SiteAdvance(0)), (zero_state(3), s, SiteAdvance(0))]
        rows += [(plus_state(3), s, SiteAdvance(2)), (zero_state(3), s, SiteAdvance(2))]
        self.assert_same_error(rows, cfg, 3)
        with pytest.raises(ValueError, match=r"^operator at site 2 is not unitary"):
            step_rows(rows, cfg)

    def test_memoized_plans_keep_the_hermiticity_test(self, monkeypatch, fresh_generator_caches):
        cfg = make_config(n_sites=3, horizon=2, kind="local", lam=0.5)
        rows = self.rows_with(plus_state(3), gate_then_site_surface(), SiteAdvance(0))
        step_rows(rows, cfg)
        integrability_check(cfg, exploration_budget=20)
        assert dynamics._nonlinear_plans.cache_info().currsize > 0
        bad = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]], dtype=complex)
        monkeypatch.setitem(fresh_generator_caches.BASE_OPERATORS, "x", bad)
        clear_generator_caches()  # the plan memo stays filled
        self.assert_same_error(rows, cfg, 1)
        first = (plus_state(3), initial_surface(3, 2), enabled_deformations(initial_surface(3, 2))[0])
        with pytest.raises(ValueError) as want:
            ts_step(*first, cfg)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            integrability_check(cfg, exploration_budget=20)
        assert dynamics._nonlinear_plans.cache_info().currsize > 0

    def test_nan_row(self):
        psi = plus_state(3)
        psi.amplitudes[5] = np.nan
        for nl in (
            {"kind": "local", "lam": 0.5},
            {"kind": "coefficient_nonlocal", "lam": 0.5, "source_site": 2},
            {"kind": "local", "lam": 0.0},
        ):
            cfg = make_config(n_sites=3, horizon=2, **nl)
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


def reachable_steps(n, horizon):
    """Every ``(surface, deformation)`` of the reachable-surface graph, level by level."""
    return [
        [(s, d) for s, edges in zip(surfaces, successors) for d in edges]
        for surfaces, successors in surface_levels(n, horizon)
    ]


def bits(*values):
    return [np.asarray(v).tobytes() for v in values]


class TestGateMemo:
    """``_fixed_gate`` builds each fixed-coefficient gate once; a warm memo changes no bit."""

    @pytest.mark.parametrize("nl", ALL_KINDS, ids=KIND_IDS)
    @pytest.mark.parametrize("n, horizon", [(2, 1), (3, 2), (4, 1), (4, 2)])
    def test_warm_memo_steps_as_an_empty_one(self, nl, n, horizon):
        # The remote site of ALL_KINDS, wrapped onto the lattice.
        nl = {key: value % n if key.endswith("_site") else value for key, value in nl.items()}
        cfg = make_config(n_sites=n, horizon=horizon, **nl)
        levels = [level for level in reachable_steps(n, horizon) if level]
        psi = random_state(n, np.random.default_rng(36 + n))
        stack = np.array([psi.amplitudes, plus_state(n).amplitudes])

        def batch(level):
            surfaces, steps = zip(*level)
            return batch_step(stack, [k % 2 for k in range(len(level))], surfaces, steps, cfg)

        cold_steps, cold_batches = [], []
        for level in levels:
            for s, d in level:
                dynamics._fixed_gate.cache_clear()
                out, _, entry = ts_step(psi, s, d, cfg)
                cold_steps.append(bits(out.amplitudes, entry.coefficient, entry.unitary))
            dynamics._fixed_gate.cache_clear()
            cold_batches.append(batch(level).tobytes())
        # One walk fills the memo, and each later surface with a filled key reads its entry.
        warm_steps = []
        for level in levels:
            for s, d in level:
                out, _, entry = ts_step(psi, s, d, cfg)
                warm_steps.append(bits(out.amplitudes, entry.coefficient, entry.unitary))
        assert warm_steps == cold_steps
        filled = dynamics._fixed_gate.cache_info()
        assert filled.hits > 0
        # The batch's groups read the entries ts_step filled, and build none.
        assert [batch(level).tobytes() for level in levels] == cold_batches
        assert dynamics._fixed_gate.cache_info().misses == filled.misses

    def test_configs_differing_in_one_coupling_share_no_entry(self):
        base = make_config(n_sites=4, horizon=2, kind="operator_nonlocal", lam=0.5, partner_site=3)
        couplings = ("dt", "mu", "link_coupling", "omega")
        configs = [base] + [replace(base, **{name: getattr(base, name) + 0.25}) for name in couplings]
        start = initial_surface(4, 2)
        steps = [(start, LinkApply((0, 1), 0)), (apply_deformation(start, LinkApply((0, 1), 0)), SiteAdvance(0))]
        dynamics._fixed_gate.cache_clear()
        gates = [ts_step(plus_state(4), s, d, cfg)[2].unitary for cfg in configs for s, d in steps]
        assert dynamics._fixed_gate.cache_info().currsize == len(gates) == 10
        assert len({id(u) for u in gates}) == len(gates)
        assert dynamics._fixed_gate.cache_info().maxsize is not None

    def test_one_key_per_gate_where_the_plan_reads_no_remote_height(self):
        # Site 0 alone reads the source at site 2; every other advance's gate
        # is keyed by its own height only, so no gate takes one key per
        # height of the source.
        cfg = make_config(
            n_sites=6, horizon=4, kind="coefficient_nonlocal", lam=0.5, source_site=2, active_sites=frozenset({0})
        )
        dynamics._fixed_gate.cache_clear()
        steps, reads = [], set()
        for seed in range(5):
            fol = random_foliation(6, 4, seed)
            steps += evolve(plus_state(6), fol, cfg)[1].steps
            s = initial_surface(6, 4)
            for d in fol.steps:
                if d == SiteAdvance(0):
                    reads.add((s.heights[0], s.heights[2]))
                s = apply_deformation(s, d)
        memoized = [step for step in steps if not step.unitary.flags.writeable]
        gates = {(step.sites, step.unitary.tobytes()) for step in memoized}
        assert len({id(step.unitary) for step in memoized}) == len(gates) == 30
        # The memo's other keys are site 0's reads, which hold no gate.
        assert dynamics._fixed_gate.cache_info().currsize == len(gates) + len(reads)

    def test_cached_gate_is_read_only(self):
        cfg = make_config(n_sites=3, horizon=2, kind="operator_nonlocal", lam=0.5, partner_site=2)
        for s, d in ((initial_surface(3, 2), LinkApply((0, 1), 0)), (gate_then_site_surface(), SiteAdvance(0))):
            _, _, entry = ts_step(plus_state(3), s, d, cfg)
            before = entry.unitary.copy()
            with pytest.raises(ValueError, match="read-only"):
                entry.unitary[0, 0] = 5.0
            _, _, again = ts_step(zero_state(3), s, d, cfg)
            assert again.unitary is entry.unitary
            assert np.array_equal(again.unitary, before)

    def test_planted_residue_raises_on_every_call(self, monkeypatch):
        dynamics._fixed_gate.cache_clear()
        field, pair = dynamics._free_field, dynamics._pair_generator
        monkeypatch.setattr(dynamics, "_free_field", lambda *key: (field(*key)[0], 1e6))
        monkeypatch.setattr(dynamics, "_pair_generator", lambda *key: (pair(*key)[0], 1e6))
        linear = make_config(n_sites=3, horizon=2)
        pair_cfg = make_config(n_sites=3, horizon=2, kind="operator_nonlocal", lam=0.5, partner_site=2)
        cases = [
            (linear, gate_then_site_surface(), SiteAdvance(0), "at site 0"),
            (linear, initial_surface(3, 2), LinkApply((0, 1), 0), r"on sites \(0, 1\)"),
            (pair_cfg, gate_then_site_surface(), SiteAdvance(0), r"on sites \(0, 2\)"),
        ]
        stack = plus_state(3).amplitudes[None, :]
        for cfg, s, d, where in cases:
            message = rf"^operator {where} is not unitary within 1e-12$"
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    ts_step(plus_state(3), s, d, cfg)
                with pytest.raises(ValueError, match=message):
                    batch_step(stack, [0], [s], [d], cfg)
        assert dynamics._fixed_gate.cache_info().currsize == 0
