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
last one runs to ``nmax + 1``), and ``families.members`` returns each with its
member from one validating pass, so the first three constructions keep one
working copy per segment, not per index.  Copies inside a segment start
equal and only grow, so a budget check that fails at the segment's start
fails again at every later threshold of it, while an operation accepted at
the start has left its element, value or interval in every later copy and is
accepted again as a no-op.  Operations are therefore tried only at segment
starts, and each construction logs one *run* ``(start, end, ops)`` per
segment: ``ops`` is the list accepted at ``start``, in order, and it is
accepted again, unchanged, at every threshold up to ``end - 1``.  The
per-index log exists only as these runs (the writers fill ``acceptedOps``
from them, and ``tests/oracles.py`` expands them by definition), so the
cost of a construction grows with the number of breakpoints and the size of
its output, not with the value of an index.

Every accepted operation goes to all later copies, so while segment ``i``
is processed the copy of a later segment ``j`` is its own member
``bases[j]`` combined with everything accepted so far.  ``cover_sets`` and
``cover_open`` share one loop, ``_sweep``, over ``int`` point masks: the
accepted region is one mask ``built`` and copy ``j`` is ``bases[j] | built``.
A set cover's points are universe positions (budget ``2^k - 1``), an open
cover's the strings of length ``lmax`` (budget ``floor(epsilon * 2^lmax)``,
exact as nothing is deeper).  A candidate inside ``built`` changes no copy
and is accepted unchecked, which is exact: each later copy is within budget
already, its member by validation and ``built`` by the checks that admitted
it.  ``cover_semimeasure`` counts in integer units of ``1/scale``, ``scale``
the grid's least common denominator: every event value is on the grid, and
closure sums of such values are whole units too.  Each copy is an integer
table with its mass, flat or closed on the tree, and one loop,
``_semimeasure_runs``, serves both: an element's grid scan at a segment is
decided by one bound over the later copies, and only its largest accepted
value is applied.  Only the final guarantee checks use :class:`Fraction`
and :class:`ClopenSet`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Sequence

from .cantor import EMPTY, ClopenSet, _ranges, _require_depth, _require_writable_power
from .cantor import _strings_of_length, _unit_grid
from .cantor import _fraction_text, _require_kind, _require_naturals, _require_rationals, normalize
from .families import (
    OpenFamilyPresentation,
    SemimeasureFamilyPresentation,
    SetFamilyPresentation,
    _floor,
    _guarantee,
    _raise,
    family_at,  # noqa: F401  (perfbench --trace 1 looks it up by name, else AttributeError)
    max_event_interval_length,
    members,
)


class CoverSet(namedtuple("CoverSet", "elements runs")):
    """``runs``: one ``(start, end, elements accepted at start)`` per segment."""
    __slots__ = ()


class CoverSemimeasure(namedtuple("CoverSemimeasure", "values runs tree")):
    """``runs``: one ``(start, end, ((value, element), ...) accepted at start)`` per segment."""

    __slots__ = ()

    def value(self, u: str) -> Fraction:
        return self.values.get(u, Fraction(0))

    def total_mass(self) -> Fraction:
        """Sum of every entry.  A tree cover's budget is its root value
        ``values[""]``; its total sums the closed value of every node."""
        return sum(self.values.values(), Fraction(0))


class CoverOpenSet(namedtuple("CoverOpenSet", "region runs slack_report", defaults=(None,))):
    """``runs``: one ``(start, end, intervals accepted at start)`` per segment;
    ``slack_report``, if any: one ``(i, slack of part i)`` per decomposition part."""
    __slots__ = ()


def _sweep(
    segments: list, bases: list[int], pieces: list, labels: Sequence[str], budget: int
) -> Iterator[tuple]:
    """Yield one run ``(start, end, ops)`` per segment of a point-mask cover,
    ``ops`` the ``labels`` of the candidates accepted at ``start``.

    Candidate ``t`` adds the points ``[a, b)`` of ``pieces[t]`` to the copy
    ``bases[j] | built`` of every later segment ``j``, and is kept iff each
    then holds at most ``budget`` points (or it changes no copy).
    """
    built = 0
    for i, (start, end, _) in enumerate(segments):
        later = bases[i:]
        here = []
        for label, (a, b) in zip(labels, pieces):
            grown = built | ((1 << b) - (1 << a))
            if grown == built or all((base | grown).bit_count() <= budget for base in later):
                built = grown
                here.append(label)
        yield start, end, tuple(here)


def cover_sets(p: SetFamilyPresentation, nmax: Optional[int] = None) -> CoverSet:
    """Grow a single small set containing the liminf of a set family.

    For every pair (N, u), N ascending then u in universe order, the tentative
    operation adds u to every working U_n with n >= N.  It is performed iff
    every such U_n either already holds u or has room below 2^k.  Elements of
    the liminf are added by a no-op (they are already everywhere in the tail),
    so the accepted elements contain the liminf; they all live in the final
    tail member, so there are fewer than 2^k of them.
    """
    _require_kind(SetFamilyPresentation, p=p)
    segments = list(members(p, nmax))
    point = {u: t for t, u in enumerate(p.universe)}
    # no copy outgrows the universe, so a larger k changes no decision
    cap = 2 ** min(p.k, len(p.universe))
    bases = [sum(1 << point[u] for u in member) for _, _, member in segments]
    pieces = [(point[u], point[u] + 1) for u in p.universe]
    runs = tuple(_sweep(segments, bases, pieces, p.universe, cap - 1))
    elements = frozenset(u for _, _, ops in runs for u in ops)
    _guarantee(len(elements) < cap, f"cover-sets holds {len(elements)} elements, not < 2^k")
    _guarantee(segments[-1][2] <= elements, "cover-sets misses an element of the liminf")
    return CoverSet(elements=elements, runs=runs)


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

    Raising u to r in copy j adds ``max(0, r - T_j)`` to its mass, where
    ``T_j`` is u's value in a flat copy, and in a closed tree copy u's value
    plus the slack ``w[a] - w[a+"0"] - w[a+"1"]`` (never negative) of each
    proper ancestor a.  So the step stays within budget iff
    ``r <= T_j + 1 - mass_j``; let B be the least of these bounds over the
    later copies.  Accepting a step raises each ``mass_j`` by exactly as
    much as it raises ``T_j``, or neither, so B stays the same for the rest
    of u's scan, and the accepted values are exactly the grid values up to
    B: one bound and one bisection per segment and element, whatever the
    grid, and only the largest accepted value is applied.

    The returned values are the accepted increases replayed on an initially
    empty table, which keeps them below the final working tables, hence
    within the same mass budget.
    """
    _require_kind(SemimeasureFamilyPresentation, p=p)
    rgrid = _unit_grid(grid)
    segments = list(members(p, nmax))
    missing = sorted({ev.value for ev in p.events}.difference(rgrid), reverse=True)
    if missing:
        shown = ", ".join(map(_fraction_text, missing[:4]))
        raise ValueError(f"grid is missing event values: {shown}")
    scale = lcm(*(r.denominator for r in rgrid))
    elements = sorted({ev.element for ev in p.events}, key=lambda u: (len(u), u))
    runs, built = _semimeasure_runs(segments, elements, rgrid, scale, p.tree)
    values = {u: Fraction(v, scale) for u, v in built.items()}
    mass = values.get("", Fraction(0)) if p.tree else sum(values.values(), Fraction(0))
    _guarantee(mass <= 1, f"the semimeasure cover has mass {_fraction_text(mass)} > 1")
    below = [u for u, v in segments[-1][2].items() if values.get(u, 0) < v]
    _guarantee(not below, "the semimeasure cover falls below the liminf")
    return CoverSemimeasure(values=values, runs=tuple(runs), tree=p.tree)


def _held(table: dict, u: str) -> int:
    """T of :func:`cover_semimeasure` for a flat ``table``: ``u``'s value."""
    return table.get(u, 0)


def _set(table: dict, u: str, r: int) -> tuple[dict, int]:
    """(entries changed, mass gained) when ``u`` is raised to ``r`` in a flat table."""
    held = table.get(u, 0)
    return ({u: r}, r - held) if r > held else ({}, 0)


def _semimeasure_runs(
    segments: list, elements: list[str], rgrid: list[Fraction], scale: int, tree: bool
) -> tuple[list, dict[str, int]]:
    """``(runs, built)`` of a semimeasure cover, in units of ``1/scale``.

    ``tables[j]`` is copy ``j``, its member with every accepted step applied,
    and ``masses[j]`` its mass.  ``built`` is one more table, with an empty
    member: it lies below every copy, so it never lowers a bound.
    """
    floor, lift = (_floor, _raise) if tree else (_held, _set)
    units = [int(r * scale) for r in rgrid]
    tables = [{} for _ in range(len(segments) + 1)]
    masses = [0] * len(tables)

    def apply(j: int, u: str, r: int) -> None:
        changed, gain = lift(tables[j], u, r)
        tables[j].update(changed)
        masses[j] += gain

    for j, (_, _, member) in enumerate(segments):
        for u, v in member.items():
            apply(j, u, int(v * scale))
    built = tables[-1]
    runs = []
    for i, (start, end, _) in enumerate(segments):
        later = range(i, len(tables))
        here = []
        for u in elements:
            bound = min(floor(tables[j], u) - masses[j] for j in later) + scale
            accepted = bisect_right(units, bound)
            here.extend((r, u) for r in rgrid[:accepted])
            top = units[accepted - 1] if accepted else 0
            if top > built.get(u, 0):  # else every copy holds u at top or more
                for j in later:
                    apply(j, u, top)
        runs.append((start, end, tuple(here)))
    return runs, built


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
    ``lmax`` must be a natural number, and so must ``nmax`` when given.
    """
    _require_kind(OpenFamilyPresentation, p=p)
    _require_naturals(lmax=lmax)
    segments = list(members(p, nmax))
    deepest = max_event_interval_length(p)
    if lmax < deepest:
        raise ValueError(
            f"Lmax = {lmax} is below the deepest event interval ({deepest})"
        )
    _require_depth("Lmax =", lmax)
    # canonical intervals are disjoint, so summing their point masks unites them
    bases = [
        sum((1 << b) - (1 << a) for a, b in _ranges(member.intervals, lmax))
        for _, _, member in segments
    ]
    budget = p.epsilon.numerator * 2**lmax // p.epsilon.denominator
    candidates = [x for n in range(lmax + 1) for x in _strings_of_length(n)]
    pieces = _ranges(candidates, lmax)
    runs = tuple(_sweep(segments, bases, pieces, candidates, budget))
    region = normalize(x for _, _, ops in runs for x in ops)
    _guarantee(region.measure() <= p.epsilon, "cover-open has measure above epsilon")
    _guarantee(segments[-1][2].difference(region).is_empty(), "cover-open misses the liminf")
    return CoverOpenSet(region=region, runs=runs)


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
    _require_kind(OpenFamilyPresentation, p=p)
    return _parts(p, list(members(p)))


def _parts(p: OpenFamilyPresentation, segments: list[tuple]) -> list[ClopenSet]:
    """:func:`decompose_liminf` of ``p`` from its ``members``."""
    if p.granularity is None:
        raise ValueError("decomposition requires a granularity bound")
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
    _require_kind(OpenFamilyPresentation, p=p)
    _require_rationals(epsilon_prime=epsilon_prime)
    segments = list(members(p))  # validates p before its epsilon is read
    epsilon_prime = Fraction(epsilon_prime)
    if epsilon_prime <= p.epsilon:
        raise ValueError(
            "epsilon' must exceed epsilon "
            f"({_fraction_text(epsilon_prime)} <= {_fraction_text(p.epsilon)})"
        )
    # the last slack has the longest denominator: diff's, times the powers of
    # two in 2^(last+1) that diff's numerator does not cancel
    diff, last = epsilon_prime - p.epsilon, segments[-1][0]
    twos = (diff.numerator & -diff.numerator).bit_length() - 1  # diff.numerator's factors 2
    _require_writable_power(
        max(last + 1 - twos, 0),
        f"the slack (epsilon' - epsilon) / 2^{last + 1} at the last breakpoint {last} "
        "(--epsilon-prime)",
        diff.denominator,
    )
    parts = _parts(p, segments)
    runs = tuple((i, i + 1, part.intervals) for i, part in enumerate(parts) if part.intervals)
    region = normalize(x for _, _, ops in runs for x in ops)
    slack = tuple((i, diff / 2 ** (i + 1)) for i in range(len(parts)))
    _guarantee(region.measure() <= epsilon_prime, "cover-open-strong has measure above epsilon'")
    return CoverOpenSet(region=region, runs=runs, slack_report=slack)
