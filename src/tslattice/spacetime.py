"""Discrete spacetime geometry for a 1+1D brickwork lattice.

A hypersurface is an integer height function per site plus the set of link
gates already applied. Link gates exist only at times matching the link
parity (t ≡ i mod 2 for link (i, i+1)), which guarantees that simultaneously
enabled deformations never share a site. Foliations are linear extensions of
the induced causal order, swept from the all-zero to the all-T surface.
Open boundaries: links are (i, i+1) for 0 <= i < n-1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

Link = tuple[int, int]
Gate = tuple[Link, int]


class NotEnabledError(ValueError):
    """A deformation was applied to a surface on which it is not enabled."""


class FoliationError(ValueError):
    """A step sequence is not a valid complete foliation."""


@dataclass(frozen=True)
class SiteAdvance:
    site: int


@dataclass(frozen=True)
class LinkApply:
    link: Link
    time: int


Deformation = SiteAdvance | LinkApply


@dataclass(frozen=True)
class Hypersurface:
    """Height function per site, applied-gate set, and the time horizon T."""

    heights: tuple[int, ...]
    applied_gates: frozenset[Gate]
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "heights", tuple(int(h) for h in self.heights))
        object.__setattr__(self, "applied_gates", frozenset(self.applied_gates))
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if len(self.heights) < 1:
            raise ValueError("surface needs at least one site")
        for i, h in enumerate(self.heights):
            if not 0 <= h <= self.horizon:
                raise ValueError(f"height {h} at site {i} outside [0, {self.horizon}]")

    @classmethod
    def _unchecked(cls, heights, applied_gates, horizon) -> "Hypersurface":
        """A surface from fields already in canonical form and range; no validation."""
        s = object.__new__(cls)
        object.__setattr__(s, "heights", heights)
        object.__setattr__(s, "applied_gates", applied_gates)
        object.__setattr__(s, "horizon", horizon)
        return s

    @property
    def n_sites(self) -> int:
        return len(self.heights)

    def is_final(self) -> bool:
        n, t = self.n_sites, self.horizon
        return all(h == t for h in self.heights) and self.applied_gates == all_gates(n, t)


@dataclass(frozen=True)
class Foliation:
    """Ordered deformation sequence from the initial to the final surface."""

    steps: tuple[Deformation, ...]
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)


def _has_gate(link_index: int, t: int) -> bool:
    """The parity rule: link (i, i+1) carries a gate at time t iff t ≡ i (mod 2)."""
    return t % 2 == link_index % 2


def gate_times(link_index: int, horizon: int) -> tuple[int, ...]:
    """Parity-valid gate times for link (i, i+1): t in [0, T), t ≡ i (mod 2)."""
    return tuple(t for t in range(horizon) if _has_gate(link_index, t))


def all_gates(n_sites: int, horizon: int) -> frozenset[Gate]:
    return frozenset(
        ((i, i + 1), t) for i in range(n_sites - 1) for t in gate_times(i, horizon)
    )


def foliation_length(n_sites: int, horizon: int) -> int:
    """N*T site advances plus one step per parity-valid link gate."""
    return n_sites * horizon + len(all_gates(n_sites, horizon))


def initial_surface(n_sites: int, horizon: int) -> Hypersurface:
    """All heights zero, no gates applied."""
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return Hypersurface((0,) * n_sites, frozenset(), horizon)


def _sort_key(s: Hypersurface, d: Deformation):
    # (time, leading site, variant): gates order before advances on ties.
    if isinstance(d, LinkApply):
        return (d.time, d.link[0], 0)
    return (s.heights[d.site], d.site, 1)


def _pending(s: Hypersurface, i: int, t: int) -> bool:
    """Whether link (i, i+1) has a parity-valid gate at time t not yet applied."""
    return _has_gate(i, t) and ((i, i + 1), t) not in s.applied_gates


def _link_enabled(s: Hypersurface, i: int) -> bool:
    """Whether both ends of link (i, i+1) sit at one time below the horizon with its gate pending."""
    t = s.heights[i]
    return t < s.horizon and s.heights[i + 1] == t and _pending(s, i, t)


def _site_enabled(s: Hypersurface, i: int) -> bool:
    """Whether site i is below the horizon with no gate pending at its height on an incident link."""
    tau = s.heights[i]
    return (
        tau < s.horizon
        and not (i > 0 and _pending(s, i - 1, tau))
        and not (i < s.n_sites - 1 and _pending(s, i, tau))
    )


def enabled_deformations(s: Hypersurface) -> tuple[Deformation, ...]:
    """All deformations applicable to ``s``, in canonical (time, site) order."""
    n = s.n_sites
    out: list[Deformation] = [
        LinkApply((i, i + 1), s.heights[i]) for i in range(n - 1) if _link_enabled(s, i)
    ]
    out += [SiteAdvance(i) for i in range(n) if _site_enabled(s, i)]
    out.sort(key=lambda d: _sort_key(s, d))
    return tuple(out)


def _is_index(x) -> bool:
    """Whether x is an integer (``operator.index`` accepts it); a plain int is checked first."""
    if type(x) is int:
        return True
    try:
        operator.index(x)
    except TypeError:
        return False
    return True


def is_enabled(s: Hypersurface, d: Deformation) -> bool:
    """Whether ``d`` is one of ``enabled_deformations(s)``, from d's own conditions.

    Checks that ``d`` names a deformation the enumeration could build, then
    asks the enumeration's own predicate. A site, link or time field that is
    not an integer is never enabled.
    """
    n = s.n_sites
    if type(d) is LinkApply:
        link, t = d.link, d.time
        if not isinstance(link, tuple) or len(link) != 2:
            return False
        i = link[0]
        if not (_is_index(i) and _is_index(link[1]) and _is_index(t)):
            return False
        return 0 <= i and link[1] == i + 1 < n and t == s.heights[i] and _link_enabled(s, i)
    if type(d) is not SiteAdvance or not _is_index(d.site) or not 0 <= d.site < n:
        return False
    return _site_enabled(s, d.site)


def apply_deformation(s: Hypersurface, d: Deformation) -> Hypersurface:
    """Advance the surface by one enabled deformation.

    The result is not validated again: ``is_enabled`` requires the advancing
    height to be below the horizon, so every height stays in [0, T].
    """
    if not is_enabled(s, d):
        raise NotEnabledError(f"deformation {d} is not enabled on surface {s.heights}")
    if type(d) is SiteAdvance:
        i = d.site
        heights = s.heights[:i] + (s.heights[i] + 1,) + s.heights[i + 1 :]
        return Hypersurface._unchecked(heights, s.applied_gates, s.horizon)
    return Hypersurface._unchecked(s.heights, s.applied_gates | {(d.link, d.time)}, s.horizon)


def validate_foliation(foliation: Foliation, n_sites: int, horizon: int) -> Hypersurface:
    """Replay to the end and require completeness; returns the final surface."""
    s = initial_surface(n_sites, horizon)
    for k, d in enumerate(foliation.steps):
        try:
            s = apply_deformation(s, d)
        except NotEnabledError as exc:
            raise FoliationError(f"step {k} invalid: {exc}") from exc
    if not s.is_final():
        raise FoliationError(
            f"foliation of length {len(foliation)} stops before the final surface"
        )
    return s


def _walk(n_sites: int, horizon: int, pick) -> tuple[Deformation, ...]:
    """Steps from the initial surface: apply ``pick(enabled)``'s deformations until none is enabled."""
    s = initial_surface(n_sites, horizon)
    steps: list[Deformation] = []
    enabled = enabled_deformations(s)
    while enabled:
        for d in pick(enabled):
            steps.append(d)
            s = apply_deformation(s, d)
        enabled = enabled_deformations(s)
    return tuple(steps)


def random_foliation(n_sites: int, horizon: int, seed: int) -> Foliation:
    """Uniform choice among enabled deformations at every step, seeded."""
    rng = np.random.default_rng(seed)
    steps = _walk(n_sites, horizon, lambda enabled: (enabled[int(rng.integers(len(enabled)))],))
    return Foliation(steps, seed=seed)


def canonical_foliation(n_sites: int, horizon: int, kind: str) -> Foliation:
    """Deterministic reference foliations.

    ``synchronous``: apply the whole current gate layer, then advance every
    site, layer by layer. ``staircase``: always apply the enabled deformation
    with the smallest (time, site, variant) key, giving a maximally skewed
    but still valid sweep.
    """
    picks = {
        "synchronous": lambda enabled: [d for d in enabled if type(d) is LinkApply] or enabled,
        "staircase": lambda enabled: enabled[:1],
    }
    if kind not in picks:
        raise ValueError(f"canonical foliation kind {kind!r} not in {'|'.join(picks)}")
    return Foliation(_walk(n_sites, horizon, picks[kind]))


def count_foliations(n_sites: int, horizon: int) -> int:
    """Exact number of complete foliations, by counting paths over ``surface_levels``."""
    total = foliation_length(n_sites, horizon)
    if total > 12:
        raise ValueError(
            f"instance has {total} steps; exact enumeration is limited to 12"
        )
    paths = [1]  # paths from the initial surface to each surface of the level
    for _, successors in surface_levels(n_sites, horizon):
        into: dict[int, int] = {}
        for p, row in zip(paths, successors):
            for q in row.values():
                into[q] = into.get(q, 0) + p
        if into:
            paths = [into[q] for q in range(len(into))]
    return paths[0]  # the last level holds the final surface alone


def surface_levels(n_sites: int, horizon: int):
    """The graph of reachable surfaces, one level (step count) at a time.

    Each level is a pair ``(surfaces, successors)``: the surfaces in
    discovery order, and for each a dict from its enabled deformations, in
    canonical order, to the index in the next level of the surface each
    leads to. Indices are numbered in discovery order. Every path to a
    surface takes one step per deformation applied, so the levels in turn
    are the breadth-first order. Edges are made by ``apply_deformation``.
    """
    surfaces = [initial_surface(n_sites, horizon)]
    while surfaces:
        index: dict[Hypersurface, int] = {}
        successors = []
        for s in surfaces:
            row = {}
            for d in enabled_deformations(s):
                row[d] = index.setdefault(apply_deformation(s, d), len(index))
            successors.append(row)
        yield surfaces, successors
        surfaces = list(index)


# -- plain-text serialization (one step per line) ------------------------------


def foliation_to_text(foliation: Foliation) -> str:
    """``A <site>`` for advances, ``G <i> <t>`` for link gates, one per line."""
    lines = []
    for d in foliation.steps:
        if isinstance(d, SiteAdvance):
            lines.append(f"A {d.site}")
        else:
            lines.append(f"G {d.link[0]} {d.time}")
    return "\n".join(lines) + ("\n" if lines else "")


def foliation_from_text(text: str) -> Foliation:
    """Inverse of ``foliation_to_text``; a line it cannot parse raises FoliationError naming it."""
    steps: list[Deformation] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "A" and len(parts) == 2:
                steps.append(SiteAdvance(int(parts[1])))
                continue
            if parts[0] == "G" and len(parts) == 3:
                i = int(parts[1])
                steps.append(LinkApply((i, i + 1), int(parts[2])))
                continue
        except ValueError:
            pass  # a field that is not an integer
        raise FoliationError(f"line {ln}: cannot parse foliation step {raw!r}")
    return Foliation(tuple(steps))
