"""Surface mechanics, the brickwork causal order, and foliation generation."""

import itertools
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from tslattice.spacetime import (
    Foliation,
    FoliationError,
    Hypersurface,
    LinkApply,
    NotEnabledError,
    SiteAdvance,
    apply_deformation,
    all_gates,
    canonical_foliation,
    count_foliations,
    deformation_sites,
    enabled_deformations,
    foliation_from_text,
    foliation_length,
    foliation_to_text,
    initial_surface,
    is_enabled,
    random_foliation,
    surface_levels,
    validate_foliation,
)


def every_surface(n, T):
    """Every reachable surface, level by level."""
    return [s for surfaces, _ in surface_levels(n, T) for s in surfaces]


def linear_extensions_oracle(n, T):
    """Count linear extensions of the deformation order built from first
    principles: per-site advance chains plus gate-before/after constraints.
    Independent of the surface-replay machinery under test.
    """
    elements = []
    for i in range(n):
        elements.extend(("A", i, k) for k in range(T))
    for i in range(n - 1):
        elements.extend(("G", i, t) for t in range(T) if t % 2 == i % 2)
    preds = {e: set() for e in elements}
    for i in range(n):
        for k in range(1, T):
            preds[("A", i, k)].add(("A", i, k - 1))
    for i in range(n - 1):
        for t in range(T):
            if t % 2 != i % 2:
                continue
            g = ("G", i, t)
            for site in (i, i + 1):
                if t >= 1:
                    preds[g].add(("A", site, t - 1))
                preds[("A", site, t)].add(g)

    def count(done):
        if len(done) == len(elements):
            return 1
        total = 0
        for e in elements:
            if e not in done and preds[e] <= done:
                total += count(done | {e})
        return total

    return count(frozenset())


class TestInitialSurface:
    @pytest.mark.parametrize("n,t", [(2, 1), (3, 2), (5, 4)])
    def test_flat_start(self, n, t):
        s = initial_surface(n, t)
        assert s.heights == (0,) * n
        assert s.applied_gates == frozenset()

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            initial_surface(0, 3)
        with pytest.raises(ValueError):
            initial_surface(2, 0)


class TestEnabledDeformations:
    def test_two_site_one_layer_only_gate(self):
        s = initial_surface(2, 1)
        assert enabled_deformations(s) == (LinkApply((0, 1), 0),)

    def test_final_surface_has_nothing(self):
        s = initial_surface(2, 1)
        for d in (LinkApply((0, 1), 0), SiteAdvance(0), SiteAdvance(1)):
            s = apply_deformation(s, d)
        assert s.is_final()
        assert enabled_deformations(s) == ()

    def test_gate_unblocks_both_advances(self):
        s = apply_deformation(initial_surface(2, 2), LinkApply((0, 1), 0))
        assert enabled_deformations(s) == (SiteAdvance(0), SiteAdvance(1))

    def test_odd_parity_site_starts_free(self):
        # On 3 sites, link (1,2) only gates at odd t, so site 2 is free at t=0.
        s = initial_surface(3, 2)
        assert SiteAdvance(2) in enabled_deformations(s)
        assert SiteAdvance(0) not in enabled_deformations(s)

    def test_disjoint_support_exhaustive_small(self):
        for n, t in ((2, 2), (3, 2), (4, 2), (3, 3)):
            for s in every_surface(n, t):
                for d1, d2 in itertools.combinations(enabled_deformations(s), 2):
                    assert not set(deformation_sites(d1)) & set(deformation_sites(d2))

    def test_diamond_property_exhaustive_small(self):
        for n, t in ((2, 2), (3, 2), (3, 3)):
            for s in every_surface(n, t):
                for d1, d2 in itertools.combinations(enabled_deformations(s), 2):
                    s1 = apply_deformation(s, d1)
                    s2 = apply_deformation(s, d2)
                    assert apply_deformation(s1, d2) == apply_deformation(s2, d1)


def _candidate_deformations(n, T):
    """Every deformation the enumerator could name, and many it never does.

    Out-of-range sites, non-adjacent and reversed links, wrong-parity,
    negative and beyond-horizon times, plus malformed links and non-deformations.
    """
    out = [SiteAdvance(i) for i in range(-2, n + 2)]
    for i in range(-2, n + 2):
        for j in (i - 1, i, i + 1, i + 2):
            out.extend(LinkApply((i, j), t) for t in range(-1, T + 2))
    out += [LinkApply([0, 1], 0), LinkApply((0, 1, 2), 0), LinkApply((0,), 0), None, (0, 1)]
    return out


class TestIsEnabled:
    @pytest.mark.parametrize("n,t", [(n, t) for n in range(1, 5) for t in range(1, 4)])
    def test_matches_enumeration_on_every_reachable_surface(self, n, t):
        candidates = _candidate_deformations(n, t)
        for s in every_surface(n, t):
            enabled = enabled_deformations(s)
            for d in candidates:
                assert is_enabled(s, d) == (d in enabled), (s, d)
            # Already-applied gates are among the candidates; none is enabled again.
            for link, time in s.applied_gates:
                assert LinkApply(link, time) in candidates
                assert not is_enabled(s, LinkApply(link, time))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 8), t=st.integers(1, 4), seed=st.integers(0, 2**16), data=st.data())
    def test_agrees_with_enumeration_on_drawn_surfaces(self, n, t, seed, data):
        # A reachable surface (a random foliation's prefix) and any candidate,
        # malformed ones included, at sizes beyond the exhaustive check.
        steps = random_foliation(n, t, seed).steps
        s = initial_surface(n, t)
        for d in steps[: data.draw(st.integers(0, len(steps)), label="prefix")]:
            s = apply_deformation(s, d)
        d = data.draw(st.sampled_from(_candidate_deformations(n, t)), label="candidate")
        enabled = d in enabled_deformations(s)
        assert is_enabled(s, d) == enabled
        if enabled:
            apply_deformation(s, d)
        else:
            with pytest.raises(NotEnabledError):
                apply_deformation(s, d)

    def test_apply_raises_exactly_when_not_enabled(self):
        for s in every_surface(3, 3):
            enabled = enabled_deformations(s)
            for d in _candidate_deformations(3, 3):
                if d in enabled:
                    apply_deformation(s, d)
                else:
                    with pytest.raises(NotEnabledError):
                        apply_deformation(s, d)

    @pytest.mark.parametrize(
        "d",
        [SiteAdvance(1.0), SiteAdvance("1"), LinkApply((0, 1.0), 0), LinkApply((0.0, 1), 0),
         LinkApply((0, 1), 0.0)],
        ids=repr,
    )
    def test_non_integer_field_is_not_enabled(self, d):
        s = initial_surface(3, 2)
        assert not is_enabled(s, d)
        with pytest.raises(NotEnabledError):
            apply_deformation(s, d)
        with pytest.raises(FoliationError, match="^step 0 invalid"):
            validate_foliation(Foliation((d,)), 3, 2)

    def test_numpy_integer_fields_are_integers(self):
        np = pytest.importorskip("numpy")
        s = initial_surface(3, 2)
        assert is_enabled(s, LinkApply((np.int64(0), np.int64(1)), np.int64(0)))
        s = apply_deformation(s, LinkApply((0, 1), 0))
        assert is_enabled(s, SiteAdvance(np.int64(0)))


class TestApplyDeformation:
    def test_gate_records_without_height_change(self):
        s = apply_deformation(initial_surface(2, 1), LinkApply((0, 1), 0))
        assert s.heights == (0, 0)
        assert s.applied_gates == frozenset({((0, 1), 0)})

    def test_advance_increments_height(self):
        s = apply_deformation(initial_surface(2, 1), LinkApply((0, 1), 0))
        s = apply_deformation(s, SiteAdvance(0))
        assert s.heights == (1, 0)

    def test_rejects_blocked_advance(self):
        with pytest.raises(NotEnabledError):
            apply_deformation(initial_surface(2, 1), SiteAdvance(0))

    @pytest.mark.parametrize("n, T, seed", [(3, 2, 0), (4, 3, 1), (5, 4, 2)])
    def test_result_equals_the_validated_surface(self, n, T, seed):
        # apply_deformation skips Hypersurface's validation; every surface on
        # a foliation must still equal, and hash like, the validated one.
        s = initial_surface(n, T)
        for d in random_foliation(n, T, seed).steps:
            s = apply_deformation(s, d)
            checked = Hypersurface(s.heights, s.applied_gates, s.horizon)
            assert s == checked and hash(s) == hash(checked)
            assert type(s.heights) is tuple and all(type(h) is int for h in s.heights)
            assert all(0 <= h <= T for h in s.heights)
            assert type(s.applied_gates) is frozenset
        assert s.is_final()


class TestFoliations:
    def test_random_foliation_length_formula(self):
        assert len(random_foliation(2, 2, 1)) == 5
        assert len(random_foliation(3, 2, 1)) == 8
        assert foliation_length(3, 2) == 8

    def test_random_foliation_deterministic(self):
        a = random_foliation(4, 3, 99)
        b = random_foliation(4, 3, 99)
        assert a.steps == b.steps

    def test_random_foliations_are_valid(self):
        for seed in range(10):
            f = random_foliation(4, 3, seed)
            final = validate_foliation(f, 4, 3)
            assert final.is_final()

    def test_synchronous_two_sites(self):
        f = canonical_foliation(2, 1, "synchronous")
        assert f.steps == (LinkApply((0, 1), 0), SiteAdvance(0), SiteAdvance(1))

    @pytest.mark.parametrize("kind", ["synchronous", "staircase"])
    @pytest.mark.parametrize("n,t", [(2, 1), (3, 2), (4, 3), (6, 4)])
    def test_canonical_foliations_complete(self, kind, n, t):
        f = canonical_foliation(n, t, kind)
        assert validate_foliation(f, n, t).is_final()
        assert len(f) == foliation_length(n, t)

    def test_same_multiset_across_foliations(self):
        fols = [
            canonical_foliation(3, 2, "synchronous"),
            canonical_foliation(3, 2, "staircase"),
            random_foliation(3, 2, 0),
            random_foliation(3, 2, 5),
        ]
        ms = [Counter(f.steps) for f in fols]
        assert all(m == ms[0] for m in ms)

    def test_unknown_canonical_kind(self):
        with pytest.raises(ValueError):
            canonical_foliation(2, 1, "diagonal")

    def test_incomplete_sequence_rejected(self):
        f = Foliation((LinkApply((0, 1), 0), SiteAdvance(0)))
        with pytest.raises(FoliationError, match="before the final"):
            validate_foliation(f, 2, 1)

    def test_invalid_step_rejected_with_index(self):
        f = Foliation((SiteAdvance(0),))
        with pytest.raises(FoliationError, match="step 0"):
            validate_foliation(f, 2, 1)


class TestCountFoliations:
    def test_two_by_one(self):
        assert count_foliations(2, 1) == 2

    def test_two_by_two(self):
        assert count_foliations(2, 2) == 6

    @pytest.mark.parametrize("t", [1, 3, 7])
    def test_single_chain(self, t):
        assert count_foliations(1, t) == 1

    @pytest.mark.parametrize("n,t", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
    def test_matches_linear_extension_oracle(self, n, t):
        assert count_foliations(n, t) == linear_extensions_oracle(n, t)

    def test_refuses_large_instances(self):
        with pytest.raises(ValueError, match="limited"):
            count_foliations(6, 4)


class TestGateLayout:
    def test_parity_rule(self):
        gates = all_gates(4, 3)
        assert ((0, 1), 0) in gates and ((0, 1), 2) in gates
        assert ((1, 2), 1) in gates and ((1, 2), 0) not in gates
        assert ((2, 3), 0) in gates and ((2, 3), 2) in gates
        assert all(t % 2 == link[0] % 2 for link, t in gates)


class TestSerialization:
    def test_round_trip(self):
        f = random_foliation(4, 3, 7)
        text = foliation_to_text(f)
        back = foliation_from_text(text)
        assert back.steps == f.steps

    def test_text_format(self):
        f = Foliation((LinkApply((0, 1), 0), SiteAdvance(1)))
        assert foliation_to_text(f) == "G 0 0\nA 1\n"

    def test_comments_and_blanks_ignored(self):
        back = foliation_from_text("# header\n\nG 0 0\nA 0\n")
        assert back.steps == (LinkApply((0, 1), 0), SiteAdvance(0))

    def test_garbage_rejected(self):
        with pytest.raises(FoliationError, match="line 1"):
            foliation_from_text("Q 1 2\n")

    @pytest.mark.parametrize("bad", ["A x", "G 0 t", "G y 0", "A 1.5", "G 0 0 0", "A"])
    def test_unparsable_line_named(self, bad):
        with pytest.raises(FoliationError, match=f"^line 2: cannot parse foliation step '{bad}'$"):
            foliation_from_text(f"G 0 0\n{bad}\n")


def queue_bfs(n, T):
    """Breadth-first order from one FIFO queue, the enumeration levels must reproduce."""
    start = initial_surface(n, T)
    seen, queue, order = {start}, deque([start]), []
    while queue:
        s = queue.popleft()
        order.append(s)
        for d in enabled_deformations(s):
            nxt = apply_deformation(s, d)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return order


class TestSurfaceLevels:
    @pytest.mark.parametrize("n,t", [(1, 2), (2, 3), (3, 2), (4, 3), (5, 2)])
    def test_levels_are_the_queue_order_split_by_step_count(self, n, t):
        levels = list(surface_levels(n, t))
        assert [s for surfaces, _ in levels for s in surfaces] == queue_bfs(n, t)
        assert len(levels) == foliation_length(n, t) + 1
        for k, (surfaces, _) in enumerate(levels):
            assert {sum(s.heights) + len(s.applied_gates) for s in surfaces} == {k}

    @pytest.mark.parametrize(
        "n, t, n_surfaces, n_edges",
        [(5, 4, 754, 2291), (6, 4, 2789, 10153), (7, 4, 9186, 38325)],
    )
    def test_reachable_surface_and_edge_counts(self, n, t, n_surfaces, n_edges):
        # Pinned figures, not derived from the enabling rule under test; the
        # surface counts agree with perfbench's own brickwork enumeration.
        levels = list(surface_levels(n, t))
        assert sum(len(surfaces) for surfaces, _ in levels) == n_surfaces
        assert sum(len(row) for _, successors in levels for row in successors) == n_edges

    @pytest.mark.parametrize("n,t", [(2, 3), (3, 2), (4, 3)])
    def test_successors_index_the_next_level_in_discovery_order(self, n, t):
        levels = list(surface_levels(n, t))
        for (surfaces, successors), (after, _) in zip(levels, levels[1:]):
            top = -1
            for s, edges in zip(surfaces, successors):
                assert tuple(edges) == enabled_deformations(s)
                for d, q in edges.items():
                    assert after[q] == apply_deformation(s, d)
                    # A new surface takes the next index; a seen one an earlier index.
                    assert q <= top + 1
                    top = max(top, q)
            assert top == len(after) - 1
        final, successors = levels[-1]
        assert final[0].is_final() and successors == [{}]
