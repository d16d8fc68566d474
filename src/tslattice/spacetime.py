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
from collections import Counter
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


def gate_times(link_index: int, horizon: int) -> tuple[int, ...]:
    """Parity-valid gate times for link (i, i+1): t in [0, T), t ≡ i (mod 2)."""
    return tuple(t for t in range(horizon) if t % 2 == link_index % 2)


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


def deformation_sites(d: Deformation) -> tuple[int, ...]:
    """Sites touched by a deformation (its lattice support)."""
    if isinstance(d, SiteAdvance):
        return (d.site,)
    return d.link


def _sort_key(s: Hypersurface, d: Deformation):
    # (time, leading site, variant): gates order before advances on ties.
    if isinstance(d, LinkApply):
        return (d.time, d.link[0], 0)
    return (s.heights[d.site], d.site, 1)


def enabled_deformations(s: Hypersurface) -> tuple[Deformation, ...]:
    """All deformations applicable to ``s``, in canonical (time, site) order.

    A link gate is enabled when both endpoint heights sit exactly at its
    (parity-valid, unapplied) time. A site advance is enabled when the site is
    below the horizon and no incident parity-valid gate at the current height
    is still pending.
    """
    n, t_max = s.n_sites, s.horizon
    out: list[Deformation] = []
    for i in range(n - 1):
        t = s.heights[i]
        if (
            t < t_max
            and s.heights[i + 1] == t
            and t % 2 == i % 2
            and ((i, i + 1), t) not in s.applied_gates
        ):
            out.append(LinkApply((i, i + 1), t))
    for i in range(n):
        tau = s.heights[i]
        if tau >= t_max:
            continue
        blocked = False
        for link in ((i - 1, i), (i, i + 1)):
            if link[0] < 0 or link[1] >= n:
                continue
            if tau % 2 == link[0] % 2 and (link, tau) not in s.applied_gates:
                blocked = True
                break
        if not blocked:
            out.append(SiteAdvance(i))
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

    Tests the same conditions the enumeration applies, for the one candidate
    only. A site, link or time field that is not an integer is never enabled.
    """
    n, t_max, heights, applied = s.n_sites, s.horizon, s.heights, s.applied_gates
    if type(d) is LinkApply:
        link, t = d.link, d.time
        if not isinstance(link, tuple) or len(link) != 2:
            return False
        i = link[0]
        if not (_is_index(i) and _is_index(link[1]) and _is_index(t)):
            return False
        return (
            0 <= i
            and link[1] == i + 1 < n
            and heights[i] == t == heights[i + 1]
            and t < t_max
            and t % 2 == i % 2
            and (link, t) not in applied
        )
    if type(d) is not SiteAdvance or not _is_index(d.site) or not 0 <= d.site < n:
        return False
    i = d.site
    tau = heights[i]
    if tau >= t_max:
        return False
    # A pending gate at height tau on an incident link (a, a + 1) blocks it.
    for a in (i - 1, i):
        if 0 <= a < n - 1 and tau % 2 == a % 2 and ((a, a + 1), tau) not in applied:
            return False
    return True


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


def random_foliation(n_sites: int, horizon: int, seed: int) -> Foliation:
    """Uniform choice among enabled deformations at every step, seeded."""
    rng = np.random.default_rng(seed)
    s = initial_surface(n_sites, horizon)
    steps: list[Deformation] = []
    enabled = enabled_deformations(s)
    while enabled:
        d = enabled[int(rng.integers(len(enabled)))]
        steps.append(d)
        s = apply_deformation(s, d)
        enabled = enabled_deformations(s)
    return Foliation(tuple(steps), seed=seed)


def canonical_foliation(n_sites: int, horizon: int, kind: str) -> Foliation:
    """Deterministic reference foliations.

    ``synchronous``: apply the whole current gate layer, then advance every
    site, layer by layer. ``staircase``: always apply the enabled deformation
    with the smallest (time, site, variant) key, giving a maximally skewed
    but still valid sweep.
    """
    if kind not in ("synchronous", "staircase"):
        raise ValueError(f"canonical foliation kind {kind!r} not in synchronous|staircase")
    s = initial_surface(n_sites, horizon)
    steps: list[Deformation] = []
    enabled = enabled_deformations(s)
    while enabled:
        if kind == "staircase":
            batch = [enabled[0]]
        else:
            gates = [d for d in enabled if isinstance(d, LinkApply)]
            batch = gates if gates else list(enabled)
        for d in batch:
            steps.append(d)
            s = apply_deformation(s, d)
        enabled = enabled_deformations(s)
    return Foliation(tuple(steps))


def count_foliations(n_sites: int, horizon: int) -> int:
    """Exact number of complete foliations, by enumeration (small instances)."""
    total = foliation_length(n_sites, horizon)
    if total > 12:
        raise ValueError(
            f"instance has {total} steps; exact enumeration is limited to 12"
        )
    memo: dict[Hypersurface, int] = {}

    def count(s: Hypersurface) -> int:
        enabled = enabled_deformations(s)
        if not enabled:
            return 1
        if s in memo:
            return memo[s]
        c = sum(count(apply_deformation(s, d)) for d in enabled)
        memo[s] = c
        return c

    return count(initial_surface(n_sites, horizon))


def step_multiset(foliation: Foliation) -> Counter:
    return Counter(foliation.steps)


def reachable_surfaces(n_sites: int, horizon: int, limit: int | None = None):
    """Breadth-first enumeration of surfaces reachable from the initial one.

    Yields surfaces in deterministic BFS order; stops after ``limit`` when set.
    """
    from collections import deque

    start = initial_surface(n_sites, horizon)
    seen = {start}
    queue = deque([start])
    emitted = 0
    while queue:
        s = queue.popleft()
        yield s
        emitted += 1
        if limit is not None and emitted >= limit:
            return
        for d in enabled_deformations(s):
            nxt = apply_deformation(s, d)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


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
    steps: list[Deformation] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "A" and len(parts) == 2:
            steps.append(SiteAdvance(int(parts[1])))
        elif parts[0] == "G" and len(parts) == 3:
            i = int(parts[1])
            steps.append(LinkApply((i, i + 1), int(parts[2])))
        else:
            raise FoliationError(f"line {ln}: cannot parse foliation step {raw!r}")
    return Foliation(tuple(steps))
