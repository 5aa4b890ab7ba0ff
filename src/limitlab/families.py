"""Finite staged presentations of indexed families and their exact liminf.

A presentation is an ordered event log.  Each event carries an index
specification: ``single(n)`` touches index ``n`` only, ``tail(N)`` touches
every index ``>= N``.  Because the log is finite, every presented family is
eventually constant in the index, so its limit inferior is computable exactly
and serves as the brute-force oracle for the covering constructions.
``members`` builds the member of every breakpoint segment in one pass over
the log; ``family_at(p, n)`` is the by-definition query that rescans it.
For an open family the pass is a range sweep: each member is held as merged
integer ranges at the depth of the deepest event interval, grown with one
:func:`cantor._union` per breakpoint that adds events, and ``validate``
compares each member's point count with epsilon without building a set.

Three kinds are supported: set families (with a capacity bound ``< 2^k`` per
index), semimeasure families (value tables, flat or on the binary tree) and
open families (clopen subsets of Cantor space with a measure bound).

Presentations and events are ``NamedTuple`` records, so they compare as
tuples: a ``SetEvent`` equals an ``IntervalEvent`` with the same fields.
Code that must tell the kinds apart does so with ``isinstance``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .cantor import ClopenSet, _clopen, _ranges, _union, check_bit_string, format_fraction
from .cantor import max_interval_depth, normalize


class IndexSpec(NamedTuple):
    """Which indices an event applies to."""

    kind: str  # "single" or "tail"
    index: int

    def covers(self, n: int) -> bool:
        if self.kind == "single":
            return n == self.index
        return n >= self.index

    def well_formed(self) -> bool:
        return self.kind in ("single", "tail") and isinstance(self.index, int) and self.index >= 0


def single(n: int) -> IndexSpec:
    return IndexSpec("single", n)


def tail(n: int) -> IndexSpec:
    return IndexSpec("tail", n)


class SetEvent(NamedTuple):
    stage: int
    spec: IndexSpec
    element: str


class ValueEvent(NamedTuple):
    stage: int
    spec: IndexSpec
    element: str
    value: Fraction


class IntervalEvent(NamedTuple):
    stage: int
    spec: IndexSpec
    interval: str


class SetFamilyPresentation(NamedTuple):
    """Staged family of finite string sets, each kept below 2^k elements."""

    k: int
    universe: tuple[str, ...]
    events: tuple[SetEvent, ...] = ()


class SemimeasureFamilyPresentation(NamedTuple):
    """Staged family of value tables; an event raises m_n(element) to value.

    With ``tree=False`` each index must carry total mass at most 1.  With
    ``tree=True`` the tables are lower bounds for a semimeasure on the binary
    tree, and validity means the bounds are consistent with some tree
    semimeasure (equivalently: the minimal upward closure has root at most 1).
    """

    events: tuple[ValueEvent, ...] = ()
    tree: bool = False


class OpenFamilyPresentation(NamedTuple):
    """Staged family of clopen sets, each of measure at most epsilon."""

    epsilon: Fraction
    events: tuple[IntervalEvent, ...] = ()
    granularity: Optional[tuple[tuple[int, int], ...]] = None


Presentation = Union[
    SetFamilyPresentation, SemimeasureFamilyPresentation, OpenFamilyPresentation
]


class ValidationReport(NamedTuple):
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems


class ValidationError(ValueError):
    """Raised by operations whose precondition is a valid presentation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(report.problems) or "invalid presentation")


def breakpoints(p: Presentation) -> list[int]:
    """Indices at which the family can change; constant from the last one on.

    Contains 0, every single index and its successor, and every tail start.
    """
    points = {0}
    for ev in p.events:
        if not ev.spec.well_formed():
            continue
        if ev.spec.kind == "single":
            points.add(ev.spec.index)
            points.add(ev.spec.index + 1)
        else:
            points.add(ev.spec.index)
    return sorted(points)


def _grow(p: Presentation, events, member=None):
    """A new member: ``member`` (None for the empty one) with ``events`` added."""
    if isinstance(p, SetFamilyPresentation):
        return frozenset(member or ()).union(ev.element for ev in events)
    if isinstance(p, SemimeasureFamilyPresentation):
        table: dict[str, Fraction] = dict(member or {})
        for ev in events:
            if ev.value > table.get(ev.element, Fraction(0)):
                table[ev.element] = ev.value
        return table
    if isinstance(p, OpenFamilyPresentation):
        prior = member.intervals if member is not None else ()
        return normalize(prior + tuple(ev.interval for ev in events))
    raise TypeError(f"not a presentation: {type(p).__name__}")


def family_at(p: Presentation, n: int, stage: Optional[int] = None):
    """The family member at index ``n`` (restricted to events up to ``stage``).

    Returns a frozenset for set families, a dict of positive values for
    semimeasure families and a ClopenSet for open families.  Assumes ``p``
    is valid.
    """
    return _grow(
        p, (ev for ev in p.events if (stage is None or ev.stage <= stage) and ev.spec.covers(n))
    )


def _sweep(p: Presentation, nmax: Optional[int], grow, running):
    """Yield ``(start, end, member)`` per breakpoint segment, from ``running`` (the
    empty member) and ``grow(events, member)``, which returns a new member."""
    starts = breakpoints(p)
    if nmax is None:
        nmax = starts[-1]
    elif nmax < starts[-1]:
        raise ValueError(
            f"Nmax = {nmax} is below the last breakpoint {starts[-1]}; "
            "the containment guarantee needs every tail threshold attempted"
        )
    by_spec: dict[IndexSpec, list] = {}
    for ev in p.events:
        by_spec.setdefault(ev.spec, []).append(ev)
    for start, end in zip(starts, starts[1:] + [nmax + 1]):
        if tail(start) in by_spec:
            running = grow(by_spec[tail(start)], running)
        here = by_spec.get(single(start))
        yield start, end, grow(here, running) if here else running


def _open_sweep(p: OpenFamilyPresentation, nmax: Optional[int] = None):
    """The depth of the deepest event interval, and :func:`_sweep` with each
    member as its merged ranges at that depth."""
    depth = max_event_interval_length(p)

    def grow(events, ranges):
        return _union(ranges + _ranges([ev.interval for ev in events], depth))

    return depth, _sweep(p, nmax, grow, [])


def members(p: Presentation, nmax: Optional[int] = None):
    """Yield ``(start, end, member)`` for each breakpoint segment of ``0..nmax``.

    The last segment ends at ``nmax + 1`` (``nmax`` defaults to the last
    breakpoint).  The events are bucketed by spec in one pass: a ``tail(N)``
    event joins the running member at ``N``, a ``single(n)`` event only the
    member at ``n``.  An open member is swept as merged integer ranges and
    becomes a ``ClopenSet`` only where it changes (``validate`` reads the
    same sweep and counts the ranges' points).  Segments may share a member,
    so treat members as read-only.  Assumes ``p`` is valid.
    """
    if not isinstance(p, OpenFamilyPresentation):
        yield from _sweep(p, nmax, lambda events, member: _grow(p, events, member), _grow(p, ()))
        return
    depth, segments = _open_sweep(p, nmax)
    ranges = member = None
    for start, end, here in segments:
        if here is not ranges:
            ranges, member = here, _clopen(here, depth)
        yield start, end, member


def liminf_family(p: Presentation):
    """Exact liminf of the presented family.

    The log is finite, so the family is constant from the last breakpoint on
    and the liminf is simply the member there.  This is the oracle every
    covering construction is tested against.
    """
    return family_at(p, max(breakpoints(p)))


def tree_closure(table: dict[str, Fraction]) -> dict[str, Fraction]:
    """Minimal tree semimeasure dominating a table of lower bounds.

    Every node receives max(own bound, sum of children); only the event
    elements and their prefixes can be positive.
    """
    nodes: set[str] = set()
    for u in table:
        nodes.update(u[:i] for i in range(len(u) + 1))
    closed: dict[str, Fraction] = {}
    for y in sorted(nodes, key=len, reverse=True):
        kids = closed.get(y + "0", Fraction(0)) + closed.get(y + "1", Fraction(0))
        own = table.get(y, Fraction(0))
        closed[y] = max(own, kids)
    return {y: v for y, v in closed.items() if v > 0}


def _structural_problems(p: Presentation) -> list[str]:
    problems = []
    cap = max_interval_depth()
    universe = set(p.universe) if isinstance(p, SetFamilyPresentation) else None
    if isinstance(p, SetFamilyPresentation):
        if p.k < 0:
            problems.append(f"capacity exponent k must be a natural number, got {p.k}")
        for u in p.universe:
            try:
                check_bit_string(u, cap)
            except ValueError as exc:
                problems.append(f"universe: {exc}")
    if isinstance(p, OpenFamilyPresentation):
        if p.epsilon < 0:
            problems.append(f"epsilon must be nonnegative, got {format_fraction(p.epsilon)}")
        if p.granularity is not None:
            seen = set()
            for n, c in p.granularity:
                if n < 0 or c < 0:
                    problems.append(f"granularity pair ({n}, {c}) must be natural numbers")
                if n in seen:
                    problems.append(f"granularity lists index n={n} twice")
                seen.add(n)
    last_stage = None
    for pos, ev in enumerate(p.events):
        where = f"event #{pos}"
        if ev.stage < 0:
            problems.append(f"{where}: stage must be a natural number, got {ev.stage}")
        if last_stage is not None and ev.stage < last_stage:
            problems.append(
                f"{where}: stage {ev.stage} decreases below previous stage {last_stage}"
            )
        last_stage = ev.stage if ev.stage >= 0 else last_stage
        if not ev.spec.well_formed():
            problems.append(f"{where}: malformed index spec {ev.spec!r}")
        if isinstance(ev, SetEvent):
            if universe is not None and ev.element not in universe:
                problems.append(f"{where}: element {ev.element!r} not in the universe")
        if isinstance(ev, ValueEvent):
            try:
                check_bit_string(ev.element, cap)
            except ValueError as exc:
                problems.append(f"{where}: {exc}")
            if not Fraction(0) <= ev.value <= Fraction(1):
                problems.append(
                    f"{where}: value {format_fraction(ev.value)} outside [0, 1]"
                )
        if isinstance(ev, IntervalEvent):
            try:
                check_bit_string(ev.interval, cap)
            except ValueError as exc:
                problems.append(f"{where}: {exc}")
    return problems


def _index_problems(p: Presentation) -> list[str]:
    problems = []
    if isinstance(p, OpenFamilyPresentation):
        # mu(U_n) = points / 2^depth > num / den, decided on integers
        depth, segments = _open_sweep(p)
        num, den = p.epsilon.numerator, p.epsilon.denominator
        for n, _, ranges in segments:
            points = sum(b - a for a, b in ranges)
            if points * den > num << depth:
                problems.append(
                    f"measure bound violated at n={n}: "
                    f"mu(U_n) = {format_fraction(Fraction(points, 1 << depth))}"
                    f" > epsilon = {format_fraction(p.epsilon)}"
                )
        for n, c in p.granularity or ():
            for pos, ev in enumerate(p.events):
                if ev.spec.well_formed() and ev.spec.covers(n) and len(ev.interval) > c:
                    problems.append(
                        f"granularity violated at n={n}: event #{pos} interval "
                        f"{ev.interval!r} longer than c(n)={c}"
                    )
        return problems
    for n, _, member in members(p):
        if isinstance(p, SetFamilyPresentation):
            if len(member) >> p.k:  # |U_n| >= 2^k, so k is small
                problems.append(
                    f"capacity violated at n={n}: |U_n| = {len(member)} >= 2^{p.k} = {2**p.k}"
                )
        elif p.tree:
            root = tree_closure(member).get("", Fraction(0))
            if root > 1:
                problems.append(
                    f"tree semimeasure violated at n={n}: root mass {format_fraction(root)} > 1"
                )
        else:
            total = sum(member.values(), Fraction(0))
            if total > 1:
                problems.append(
                    f"semimeasure violated at n={n}: total mass {format_fraction(total)} > 1"
                )
    return problems


def validate(p: Presentation) -> ValidationReport:
    """Check every invariant of a presentation; an empty report means valid.

    Structural problems (stage order, out-of-universe elements, intervals
    beyond the depth cap) are reported first; per-index invariants are
    checked at the breakpoints, which suffices because the family is constant
    between them.
    """
    problems = _structural_problems(p)
    if not problems:
        problems = _index_problems(p)
    return ValidationReport(tuple(problems))


def require_valid(p: Presentation) -> None:
    report = validate(p)
    if not report.ok:
        raise ValidationError(report)


def max_event_interval_length(p: OpenFamilyPresentation) -> int:
    return max((len(ev.interval) for ev in p.events), default=0)
