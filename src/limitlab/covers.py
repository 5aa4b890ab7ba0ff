"""The acceptable-operation covering constructions.

Each construction walks a fixed enumeration of tentative operations against a
working copy of a staged family.  An operation is performed only when every
per-index constraint (cardinality, total mass, measure) still holds
afterwards; accepted operations persist and are logged.  The result is a
single finite object that provably contains / dominates the liminf of the
presented family while obeying the same budget the family members do:

* ``cover_sets``         -- adds elements, budget: fewer than 2^k per index;
* ``cover_semimeasure``  -- raises values, budget: total mass at most 1
                            (flat) or root mass at most 1 (binary tree);
* ``cover_open``         -- adds intervals, budget: measure at most epsilon;
* ``cover_open_strong``  -- covers the disjoint decomposition of the liminf
                            piece by piece inside an epsilon' budget.

The enumeration order (index threshold ascending, then element order, then
value ascending) is fixed so that runs are reproducible; any computable order
would do, and only the guarantees above are contractual.

The family is constant on each breakpoint segment ``[b_i, b_(i+1))`` (the
last one runs to ``nmax + 1``), and ``families.members`` yields each with its
member from one pass over the log, so the first three constructions keep one
working copy per segment, not per index.  Copies inside a segment start
equal and only grow, so a budget check that fails at the segment's start
fails again at every later threshold of it, while an operation accepted at
the start has left its element, value or interval in every later copy and is
accepted again as a no-op.  Operations are therefore tried only at segment
starts, and the log repeats a start's accepted list, in the same order, for
every threshold of its segment: the log is exactly the per-index one, and
the cost grows with the number of breakpoints and the size of the output,
not with the value of an index.

Every accepted operation goes to all later copies, so while segment ``i``
is processed the copy of a later segment ``j`` is its own member
``bases[j]`` combined with everything accepted so far.  ``cover_open``
keeps just that: members and candidates become ``int`` point masks at depth
``lmax`` (bit ``t`` for the ``t``-th string of that length), the accepted
region is one mask ``built``, and segment ``j``'s copy is
``bases[j] | built``.  Nothing is deeper than ``lmax``, so the budget test
``popcount <= floor(epsilon * 2^lmax)`` is exact.  ``cover_semimeasure``
keeps a table per segment (a tree copy is the closure of that combination)
and counts in integer units of ``1/scale``, ``scale`` the grid's least
common denominator: every event value is on the grid, and closure sums of
such values are whole units too.  Only the final guarantee checks use
:class:`Fraction` and :class:`ClopenSet`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Optional, Sequence

from .cantor import EMPTY, ClopenSet, _ranges, format_fraction, max_interval_depth, normalize
from .families import (
    OpenFamilyPresentation,
    SemimeasureFamilyPresentation,
    SetFamilyPresentation,
    family_at,  # noqa: F401  (perfbench --trace 1 looks it up by name, else AttributeError)
    liminf_family,
    max_event_interval_length,
    members,
    require_valid,
    tree_closure,
)


class CoverSet(NamedTuple):
    elements: frozenset[str]
    accepted_ops: tuple[tuple[int, str], ...]


class CoverSemimeasure(NamedTuple):
    values: Mapping[str, Fraction]
    accepted_ops: tuple[tuple[Fraction, int, str], ...]
    tree: bool

    def value(self, u: str) -> Fraction:
        return self.values.get(u, Fraction(0))

    def total_mass(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))


class CoverOpenSet(NamedTuple):
    region: ClopenSet
    accepted_ops: tuple[tuple[str, int], ...]
    slack_report: Optional[tuple[tuple[int, Fraction], ...]] = None


def cover_sets(p: SetFamilyPresentation, nmax: Optional[int] = None) -> CoverSet:
    """Grow a single small set containing the liminf of a set family.

    For every pair (N, u), N ascending then u in universe order, the tentative
    operation adds u to every working U_n with n >= N.  It is performed iff
    every such U_n either already holds u or has room below 2^k.  Elements of
    the liminf are added by a no-op (they are already everywhere in the tail),
    so the accepted elements contain the liminf; they all live in the final
    tail member, so there are fewer than 2^k of them.
    """
    require_valid(p)
    segments = list(members(p, nmax))
    cap = 2**p.k
    working = [set(member) for _, _, member in segments]
    # the last copy stands for every n >= its start: all thresholds at play are <= nmax
    accepted: list[tuple[int, str]] = []
    for i, (start, end, _) in enumerate(segments):
        later = working[i:]
        here = []
        for u in p.universe:
            if all(u in w or len(w) < cap - 1 for w in later):
                for w in later:
                    w.add(u)
                here.append(u)
        accepted.extend((n, u) for n in range(start, end) for u in here)
    elements = frozenset(u for _, u in accepted)
    assert len(elements) < cap
    assert liminf_family(p) <= elements
    return CoverSet(elements=elements, accepted_ops=tuple(accepted))


def _prepare_grid(p: SemimeasureFamilyPresentation, grid: Sequence[Fraction]) -> list[Fraction]:
    values = sorted(set(Fraction(g) for g in grid))
    outside = [v for v in values if not 0 <= v <= 1]
    if outside:
        raise ValueError(f"grid value {format_fraction(outside[0])} outside [0, 1]")
    missing = sorted({ev.value for ev in p.events if ev.value not in values}, reverse=True)
    if missing:
        shown = ", ".join(format_fraction(v) for v in missing[:4])
        raise ValueError(f"grid is missing event values: {shown}")
    return values


def _raise(table: dict[str, int], u: str, r: int, tree: bool) -> tuple[dict[str, int], int]:
    """(entries changed, mass gained) when ``u`` is raised to ``r``; ``table``
    is left as it is.

    A flat table changes at ``u`` only and gains the sum of the deltas.  In a
    closed tree table only ancestors of ``u`` can fall below their children,
    and none above the first one that does not; the mass is the root's, so
    the gain is the root's delta.
    """
    if r <= table.get(u, 0):
        return {}, 0
    changed = {u: r}
    node = u
    while tree and node:
        parent = node[:-1]
        r += table.get(parent + ("1" if node[-1] == "0" else "0"), 0)  # the sibling
        if r <= table.get(parent, 0):
            break
        changed[parent] = r
        node = parent
    gain = sum(v - table.get(y, 0) for y, v in changed.items() if not tree or y == "")
    return changed, gain


def cover_semimeasure(
    p: SemimeasureFamilyPresentation,
    grid: Sequence[Fraction],
    nmax: Optional[int] = None,
) -> CoverSemimeasure:
    """Build one semimeasure dominating the liminf of a semimeasure family.

    Triples (r, N, u) are attempted with N ascending, u in (length, lex)
    order over the event elements and r ascending over the grid; the grid
    must lie in [0, 1] and contain every event value so that the liminf
    value itself is attempted.  The tentative increase raises every working
    m_n(u), n >= N, to r; in tree mode each prefix of u is then raised to its
    children's sum.  The increase is kept iff every index keeps total mass
    (flat) or root mass (tree) at most 1.  That mass grows with r and a
    refusal changes no table, so the grid scan for an element stops at its
    first refused value.

    The returned values are the accepted increases replayed on an initially
    empty table, which keeps them below the final working tables, hence
    within the same mass budget.
    """
    require_valid(p)
    segments = list(members(p, nmax))
    rgrid = _prepare_grid(p, grid)
    scale = lcm(*(r.denominator for r in rgrid))
    steps = [(r, int(r * scale)) for r in rgrid]
    elements = sorted({ev.element for ev in p.events}, key=lambda u: (len(u), u))
    close = tree_closure if p.tree else dict
    working = [
        {y: int(v * scale) for y, v in close(member).items()} for _, _, member in segments
    ]
    masses = [w.get("", 0) if p.tree else sum(w.values()) for w in working]
    accepted: list[tuple[Fraction, int, str]] = []
    built: dict[str, int] = {}
    for i, (start, end, _) in enumerate(segments):
        later = range(i, len(segments))
        here = []
        for u in elements:
            for r, units in steps:
                raises = [_raise(working[j], u, units, p.tree) for j in later]
                if any(masses[j] + gain > scale for j, (_, gain) in zip(later, raises)):
                    break
                for j, (changed, gain) in zip(later, raises):
                    working[j].update(changed)
                    masses[j] += gain
                built.update(_raise(built, u, units, p.tree)[0])
                here.append((r, u))
        accepted.extend((r, n, u) for n in range(start, end) for r, u in here)
    values = {u: Fraction(v, scale) for u, v in built.items()}
    if p.tree:
        assert values.get("", Fraction(0)) <= 1
    else:
        assert sum(values.values(), Fraction(0)) <= 1
    assert all(values.get(u, Fraction(0)) >= v for u, v in liminf_family(p).items())
    return CoverSemimeasure(values=values, accepted_ops=tuple(accepted), tree=p.tree)


def _ceil_log2_reciprocal(value: Fraction) -> int:
    # smallest natural m with value * 2^m >= 1, for 0 < value <= 1
    p, q = value.numerator, value.denominator
    m = 0
    power = 1
    while p * power < q:
        power <<= 1
        m += 1
    return m


def semimeasure_to_complexity(cover: CoverSemimeasure) -> dict[str, int]:
    """Description lengths read off a semimeasure: ceil(-log2 value).

    Entries with value zero carry no information and are omitted.
    """
    return {
        u: _ceil_log2_reciprocal(v) for u, v in cover.values.items() if v > 0
    }


def _candidates(lmax: int) -> list[str]:
    out = [""]
    level = [""]
    for _ in range(lmax):
        level = [x + b for x in level for b in "01"]
        out.extend(level)
    return out  # already (length, lex) ordered


def cover_open(
    p: OpenFamilyPresentation, lmax: int, nmax: Optional[int] = None
) -> CoverOpenSet:
    """One open set of measure <= epsilon containing the liminf of the family.

    Pairs (x, N) are attempted with N ascending and x over all strings of
    length at most ``lmax`` in (length, lex) order; the tentative operation
    adds the interval of x to every working U_n with n >= N, and is kept iff
    every measure stays at most epsilon.  Intervals of the liminf survive as
    no-ops, so the union of accepted intervals contains the liminf; it is a
    subset of the final tail member, so its measure obeys the budget.
    """
    require_valid(p)
    deepest = max_event_interval_length(p)
    if lmax < deepest:
        raise ValueError(
            f"Lmax = {lmax} is below the deepest event interval ({deepest})"
        )
    cap = max_interval_depth()
    if lmax > cap:
        raise ValueError(f"Lmax = {lmax} exceeds the interval depth cap {cap}")
    segments = list(members(p, nmax))
    # canonical intervals are disjoint, so summing their point masks unites them
    bases = [
        sum((1 << b) - (1 << a) for a, b in _ranges(member.intervals, lmax))
        for _, _, member in segments
    ]
    budget = p.epsilon.numerator * 2**lmax // p.epsilon.denominator
    candidates = _candidates(lmax)
    pieces = _ranges(candidates, lmax)
    built = 0
    accepted: list[tuple[str, int]] = []
    for i, (start, end, _) in enumerate(segments):
        later = bases[i:]
        here = []
        for x, (a, b) in zip(candidates, pieces):
            grown = built | ((1 << b) - (1 << a))
            if all((base | grown).bit_count() <= budget for base in later):
                built = grown
                here.append(x)
        accepted.extend((x, n) for n in range(start, end) for x in here)
    region = normalize(x for x, _ in accepted)
    assert region.measure() <= p.epsilon
    assert liminf_family(p).difference(region).is_empty()
    return CoverOpenSet(region=region, accepted_ops=tuple(accepted))


def decompose_liminf(p: OpenFamilyPresentation) -> list[ClopenSet]:
    """Split the liminf by the last index whose member misses a point.

    F_0 is the intersection of all members; F_{i+1} collects the points in
    every member from i+1 on that U_i still misses.  The parts are pairwise
    disjoint, their union is the liminf, and beyond the last breakpoint every
    part is empty (those are omitted).

    Members and suffix intersections are built once per breakpoint segment:
    inside a segment U_{i-1} = U_i contains the intersection of U_i.., so
    only a segment's first index can receive a nonempty part.
    """
    require_valid(p)
    if p.granularity is None:
        raise ValueError("decomposition requires a granularity bound")
    segments = list(members(p))
    suffix = [m for _, _, m in segments]  # suffix[j] = intersection of the members of j..
    for j in range(len(segments) - 2, -1, -1):
        suffix[j] = suffix[j + 1].intersection(suffix[j])
    parts = [EMPTY] * segments[-1][1]
    parts[0] = suffix[0]
    for j in range(1, len(segments)):
        parts[segments[j][0]] = suffix[j].difference(segments[j - 1][2])
    return parts


def cover_open_strong(
    p: OpenFamilyPresentation, epsilon_prime: Fraction
) -> CoverOpenSet:
    """Cover the liminf itself within a strictly larger measure budget.

    Each decomposition part F_i may be covered with slack
    (epsilon' - epsilon) / 2^(i+1); at desk scale every part is clopen, so it
    is covered exactly and the whole slack budget is reported unconsumed.
    """
    epsilon_prime = Fraction(epsilon_prime)
    if epsilon_prime <= p.epsilon:
        raise ValueError(
            "epsilon' must exceed epsilon "
            f"({format_fraction(epsilon_prime)} <= {format_fraction(p.epsilon)})"
        )
    parts = decompose_liminf(p)
    region = EMPTY
    accepted: list[tuple[str, int]] = []
    slack: list[tuple[int, Fraction]] = []
    for i, part in enumerate(parts):
        if part.intervals:
            region = region.union(part)
        accepted.extend((x, i) for x in part.intervals)
        slack.append((i, (epsilon_prime - p.epsilon) / 2 ** (i + 1)))
    assert region.measure() <= epsilon_prime
    return CoverOpenSet(
        region=region, accepted_ops=tuple(accepted), slack_report=tuple(slack)
    )


def replay_set_ops(
    p: SetFamilyPresentation, ops: Sequence[tuple[int, str]], nmax: Optional[int] = None
) -> bool:
    """Re-run a logged cover_sets schedule; True iff every op is acceptable."""
    require_valid(p)
    cap = 2**p.k
    working = [set(m) for start, end, m in members(p, nmax) for _ in range(start, end)]
    for big_n, u in ops:
        if big_n < 0:
            raise ValueError(f"operation ({big_n}, {u!r}): threshold must be a natural number")
        if not all(u in w or len(w) < cap - 1 for w in working[big_n:]):
            return False
        for w in working[big_n:]:
            w.add(u)
    return True
