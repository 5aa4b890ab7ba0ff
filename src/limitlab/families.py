"""Finite staged presentations of indexed families and their exact liminf.

A presentation is an ordered event log.  Each event carries an index
specification: ``single(n)`` touches index ``n`` only, ``tail(N)`` touches
every index ``>= N``.  Because the log is finite, every presented family is
eventually constant in the index, so its limit inferior is computable exactly.
Each kind has one member rule and budget, :func:`_rule`.  ``family_at(p, n)``
grows the member at ``n`` alone from the events covering ``n``;
``validate`` and ``members`` read one sweep that grows every breakpoint
segment's member in one pass over the log and checks the budget, so ``members``
validates its input.  An open member grows as merged integer ranges at the
depth of the deepest event interval (one :func:`cantor._union` per step), so
validation counts its points without building a set.  :func:`_raise` is the
one upward-closure step for tree values: :func:`tree_closure` closes a table
by it, and :func:`_floor` reads the highest raise that leaves the root fixed.

Three kinds are supported: set families (with a capacity bound ``< 2^k`` per
index), semimeasure families (value tables, flat or on the binary tree) and
open families (clopen subsets of Cantor space with a measure bound).

Presentations and events are ``collections.namedtuple`` records, so they
compare as tuples: a ``SetEvent`` equals an ``IntervalEvent`` with the same fields.
Code that must tell the kinds apart does so with ``isinstance``; ``EVENT_CLASS``
pairs each presentation class with its event class.  Validation checks the
type of every field before it reads it, so a mistyped input is a problem it
names, never an exception.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Optional, Union

from .cantor import _clopen, _echo, _int_text, _ranges, _union, check_bit_string
from .cantor import format_fraction, max_interval_depth


class IndexSpec(namedtuple("IndexSpec", "kind index")):
    """Which indices an event applies to: ``kind`` is "single" or "tail"."""

    __slots__ = ()

    def covers(self, n: int) -> bool:
        if self.kind == "single":
            return n == self.index
        return n >= self.index


def single(n: int) -> IndexSpec:
    return IndexSpec("single", n)


def tail(n: int) -> IndexSpec:
    return IndexSpec("tail", n)


class SetEvent(namedtuple("SetEvent", "stage spec element")):
    __slots__ = ()


class ValueEvent(namedtuple("ValueEvent", "stage spec element value")):
    __slots__ = ()


class IntervalEvent(namedtuple("IntervalEvent", "stage spec interval")):
    __slots__ = ()


class SetFamilyPresentation(namedtuple("SetFamilyPresentation", "k universe events",
                                       defaults=((),))):
    """Staged family of finite string sets, each kept below 2^k elements."""

    __slots__ = ()


class SemimeasureFamilyPresentation(namedtuple("SemimeasureFamilyPresentation", "events tree",
                                               defaults=((), False))):
    """Staged family of value tables; an event raises m_n(element) to value.

    With ``tree=False`` each index must carry total mass at most 1.  With
    ``tree=True`` the tables are lower bounds for a semimeasure on the binary
    tree, and validity means the bounds are consistent with some tree
    semimeasure (equivalently: the minimal upward closure has root at most 1).
    """

    __slots__ = ()


class OpenFamilyPresentation(namedtuple("OpenFamilyPresentation", "epsilon events granularity",
                                        defaults=((), None))):
    """Staged family of clopen sets, each of measure at most epsilon.

    ``granularity``, if any, holds one ``(n, c)`` per bounded index n: the
    intervals of events covering n are at most c bits long.
    """

    __slots__ = ()


Presentation = Union[
    SetFamilyPresentation, SemimeasureFamilyPresentation, OpenFamilyPresentation
]
# the class of every event of each kind of presentation
EVENT_CLASS = {
    SetFamilyPresentation: SetEvent,
    SemimeasureFamilyPresentation: ValueEvent,
    OpenFamilyPresentation: IntervalEvent,
}


class ValidationReport(namedtuple("ValidationReport", "problems", defaults=((),))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.problems


class ValidationError(ValueError):
    """Raised by operations whose precondition is a valid presentation, and
    by a construction whose own guarantee fails (see :func:`_guarantee`)."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(report.problems) or "invalid presentation")


def _guarantee(holds: bool, what: str) -> None:
    """Raise :class:`ValidationError` with the one problem ``guarantee violated:
    <what>`` unless ``holds``: the check a construction makes of its own result."""
    if not holds:
        raise ValidationError(ValidationReport((f"guarantee violated: {what}",)))


def breakpoints(p: Presentation) -> list[int]:
    """Indices at which the family can change; constant from the last one on.

    Contains 0, every single index and its successor, and every tail start.
    """
    points = {0}
    for ev in p.events:
        if not _well_formed(ev.spec):
            continue
        if ev.spec.kind == "single":
            points.add(ev.spec.index)
            points.add(ev.spec.index + 1)
        else:
            points.add(ev.spec.index)
    return sorted(points)


def _rule(p: Presentation):
    """``(empty member, grow, finish, excess)`` for ``p``'s kind.

    ``grow(events, member)`` returns a new member with ``events`` added;
    ``finish`` is the identity, except that open members grow as ranges and
    finish as a canonical ``ClopenSet``.  ``excess(n, member)`` checks the
    kind's budget on the unfinished member at ``n``: the problem text, or
    ``None`` within budget.
    """
    if isinstance(p, SetFamilyPresentation):

        def excess(n, member):
            if len(member) >> p.k:  # |U_n| >= 2^k, so k is small
                return f"capacity violated at n={n}: |U_n| = {len(member)} >= 2^{p.k} = {2**p.k}"

        return (frozenset(), lambda events, member: member.union(ev.element for ev in events),
                _same, excess)
    if isinstance(p, SemimeasureFamilyPresentation):
        kind, what = ("tree semimeasure", "root") if p.tree else ("semimeasure", "total")

        def excess(n, table):
            mass = tree_closure(table).get("", 0) if p.tree else sum(table.values())
            if mass > 1:
                return f"{kind} violated at n={n}: {what} mass {format_fraction(mass)} > 1"

        return {}, _max_merge, _same, excess
    if isinstance(p, OpenFamilyPresentation):
        depth = max_event_interval_length(p)

        def grow(events, ranges):
            return _union(ranges + _ranges([ev.interval for ev in events], depth))

        def excess(n, ranges):
            # mu(U_n) = points / 2^depth > num / den, decided on integers
            points = sum(b - a for a, b in ranges)
            if points * p.epsilon.denominator > p.epsilon.numerator << depth:
                mu, eps = format_fraction(Fraction(points, 1 << depth)), format_fraction(p.epsilon)
                return f"measure bound violated at n={n}: mu(U_n) = {mu} > epsilon = {eps}"

        return [], grow, lambda ranges: _clopen(ranges, depth), excess
    raise TypeError(f"not a presentation: {type(p).__name__}")


def _same(member):
    return member


def _max_merge(events, table: dict[str, Fraction]) -> dict[str, Fraction]:
    table = dict(table)
    for ev in events:
        if ev.value > table.get(ev.element, Fraction(0)):
            table[ev.element] = ev.value
    return table


def family_at(p: Presentation, n: int):
    """The family member at index ``n``.

    Returns a frozenset for set families, a dict of positive values for
    semimeasure families and a ClopenSet for open families.  Assumes ``p``
    is valid.  Its per-index oracles live in ``tests/oracles.py``.
    """
    empty, grow, finish, _ = _rule(p)
    return finish(grow([ev for ev in p.events if ev.spec.covers(n)], empty))


def _sweep(p: Presentation, empty, grow):
    """Yield ``(start, end, member)`` per breakpoint segment up to the last
    breakpoint, the member grown by ``grow`` and not finished: a ``tail(N)``
    event joins the running member at ``N``, a ``single(n)`` only the one at ``n``."""
    starts = breakpoints(p)
    by_spec: dict[IndexSpec, list] = {}
    for ev in p.events:
        by_spec.setdefault(ev.spec, []).append(ev)
    running = empty
    for start, end in zip(starts, starts[1:] + [starts[-1] + 1]):
        if tail(start) in by_spec:
            running = grow(by_spec[tail(start)], running)
        here = by_spec.get(single(start))
        yield start, end, grow(here, running) if here else running


def members(p: Presentation, nmax: Optional[int] = None) -> list[tuple]:
    """The list of ``(start, end, member)``, one per breakpoint segment of ``0..nmax``.

    ``p`` is validated by the sweep that grows the members: an invalid one
    raises :class:`ValidationError` with ``validate(p)``'s report.  The last
    segment ends at ``nmax + 1`` (``nmax``, a natural number, defaults to the
    last breakpoint).
    Segments may share a member, so treat members as read-only.
    """
    if nmax is not None:
        _require_naturals(nmax=nmax)
    segments = _valid_segments(p)
    last = segments[-1][0]
    if nmax is not None and nmax < last:
        raise ValueError(
            f"Nmax = {_int_text(nmax)} is below the last breakpoint {_int_text(last)}; "
            "the containment guarantee needs every tail threshold attempted"
        )
    segments[-1] = (last, (last if nmax is None else nmax) + 1, segments[-1][2])
    finish = _rule(p)[2]
    return [(start, end, finish(member)) for start, end, member in segments]


def liminf_family(p: Presentation):
    """Exact liminf of ``p``, validated as by ``members``: the finite log leaves
    the family constant from the last breakpoint on, so it is the last segment's
    member, finished alone; the per-index oracles live in ``tests/oracles.py``."""
    last = _valid_segments(p)[-1][2]
    return _rule(p)[2](last)


def _raise(table: dict, u: str, r: int | Fraction) -> tuple[dict, int | Fraction]:
    """(entries changed, root mass gained) when ``u`` is raised to ``r`` in a
    closed tree table (every node at least its children's sum); ``table`` is
    left as it is.

    Only ancestors of ``u`` can fall below their children, and none above
    the first one that does not; the mass is the root's, so the gain is the
    root's delta, zero when the raise stops below the root.
    """
    if r <= table.get(u, 0):
        return {}, 0
    changed = {u: r}
    node = u
    while node:
        parent = node[:-1]
        r += table.get(parent + ("1" if node[-1] == "0" else "0"), 0)  # the sibling
        if r <= table.get(parent, 0):
            return changed, 0
        changed[parent] = r
        node = parent
    return changed, r - table.get("", 0)


def _floor(table: dict, u: str) -> int:
    """T of ``covers.cover_semimeasure`` for a closed tree ``table``: ``u``'s value
    plus the slack ``w[a] - w[a+"0"] - w[a+"1"]`` of each proper ancestor ``a``,
    which telescopes to the root's value less the siblings along ``u``'s path."""
    floor = table.get("", 0)
    while u:
        floor -= table.get(u[:-1] + ("1" if u[-1] == "0" else "0"), 0)
        u = u[:-1]
    return floor


def tree_closure(table: dict[str, Fraction]) -> dict[str, Fraction]:
    """Minimal tree semimeasure dominating a table of lower bounds.

    Every node receives max(own bound, sum of children); only the event
    elements and their prefixes can be positive.
    """
    closed: dict = {}
    for u, r in table.items():
        closed.update(_raise(closed, u, r)[0])
    return closed


def _natural(value) -> bool:
    """A natural number is an ``int`` at least 0, never a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _require_naturals(**arguments: object) -> None:
    """Refuse the first of ``arguments`` that is not a natural number, by name."""
    for name, value in arguments.items():
        if not _natural(value):
            raise ValueError(f"{name} must be a natural number, got {_echo(value)}")


def _rational(value) -> bool:
    """An exact rational is a ``Fraction`` or an ``int`` that is not a ``bool``."""
    return isinstance(value, Fraction) or isinstance(value, int) and not isinstance(value, bool)


def _well_formed(spec) -> bool:
    return isinstance(spec, IndexSpec) and spec.kind in ("single", "tail") and _natural(spec.index)


def _structural_problems(p: Presentation) -> list[str]:
    """Every problem read off the records alone; no field of a value is read
    before its type is checked, so a mistyped field is a problem, not an error."""
    problems = []
    cap = max_interval_depth()
    event_cls = next((ev for cls, ev in EVENT_CLASS.items() if isinstance(p, cls)), None)
    if event_cls is None:
        raise TypeError(f"not a presentation: {type(p).__name__}")
    universe = set()
    if isinstance(p, SetFamilyPresentation):
        if not _natural(p.k):
            problems.append(f"capacity exponent k must be a natural number, got {_echo(p.k)}")
        items = p.universe
        if not isinstance(items, (tuple, list)):
            problems.append(f"universe must be a tuple of bit strings, got {_echo(items)}")
            items = ()
        for u in items:
            try:
                check_bit_string(u, cap)
            except ValueError as exc:
                problems.append(f"universe: {exc}")
                continue
            if u in universe:
                problems.append(f"universe lists element {_echo(u)} twice")
            universe.add(u)
    if isinstance(p, SemimeasureFamilyPresentation) and not isinstance(p.tree, bool):
        problems.append(f"tree must be a boolean, got {_echo(p.tree)}")
    if isinstance(p, OpenFamilyPresentation):
        if not _rational(p.epsilon):
            problems.append(f"epsilon must be an exact rational, got {_echo(p.epsilon)}")
        elif p.epsilon < 0:
            problems.append(f"epsilon must be nonnegative, got {format_fraction(p.epsilon)}")
        problems += _granularity_problems(p.granularity)
    if not isinstance(p.events, (tuple, list)):
        return problems + [f"events must be a tuple of events, got {_echo(p.events)}"]
    last_stage = None
    for pos, ev in enumerate(p.events):
        where = f"event #{pos}"
        if not isinstance(ev, event_cls):
            problems.append(
                f"{where}: {type(ev).__name__} is not {event_cls.__name__}, "
                f"the event class of {type(p).__name__}"
            )
            continue
        natural = _natural(ev.stage)
        if not natural:
            problems.append(f"{where}: stage must be a natural number, got {_echo(ev.stage)}")
        if isinstance(ev.stage, int) and last_stage is not None and ev.stage < last_stage:
            problems.append(
                f"{where}: stage {ev.stage} decreases below previous stage {last_stage}"
            )
        last_stage = ev.stage if natural else last_stage
        if not _well_formed(ev.spec):
            problems.append(f"{where}: malformed index spec {_echo(ev.spec)}")
        if isinstance(ev, SetEvent):
            if not (isinstance(ev.element, str) and ev.element in universe):
                problems.append(f"{where}: element {_echo(ev.element)} not in the universe")
        else:
            try:
                check_bit_string(ev.interval if isinstance(ev, IntervalEvent) else ev.element, cap)
            except ValueError as exc:
                problems.append(f"{where}: {exc}")
        if isinstance(ev, ValueEvent):
            if not _rational(ev.value):
                problems.append(f"{where}: value must be an exact rational, got {_echo(ev.value)}")
            elif not 0 <= ev.value <= 1:
                problems.append(f"{where}: value {format_fraction(ev.value)} outside [0, 1]")
    return problems


def _granularity_problems(granularity) -> list[str]:
    """Problems of an open family's granularity: ``None``, or ``(n, c)`` pairs
    of naturals with no index twice."""
    if granularity is None:
        return []
    if not isinstance(granularity, (tuple, list)):
        return [f"granularity must be a tuple of (n, c) pairs, got {_echo(granularity)}"]
    problems, seen = [], set()
    for pair in granularity:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            problems.append(f"granularity entry {_echo(pair)} must be a pair (n, c)")
            continue
        n, c = pair
        if not (_natural(n) and _natural(c)):
            problems.append(f"granularity pair ({_echo(n)}, {_echo(c)}) must be natural numbers")
        if isinstance(n, int):
            if n in seen:
                problems.append(f"granularity lists index n={n} twice")
            seen.add(n)
    return problems


def _checked_sweep(p: Presentation) -> tuple[ValidationReport, list[tuple]]:
    """``validate``'s report and the unfinished segments of its one sweep; a
    structural problem is reported before the sweep, with no segments."""
    problems = _structural_problems(p)
    if problems:
        return ValidationReport(tuple(problems)), []
    empty, grow, _, excess = _rule(p)
    segments = list(_sweep(p, empty, grow))
    problems = [text for n, _, member in segments if (text := excess(n, member))]
    for n, c in isinstance(p, OpenFamilyPresentation) and p.granularity or ():
        for pos, ev in enumerate(p.events):
            if ev.spec.covers(n) and len(ev.interval) > c:
                problems.append(
                    f"granularity violated at n={n}: event #{pos} interval "
                    f"{_echo(ev.interval)} longer than c(n)={c}"
                )
    return ValidationReport(tuple(problems)), segments


def _valid_segments(p: Presentation) -> list[tuple]:
    """``_checked_sweep``'s segments, or its report raised as :class:`ValidationError`."""
    report, segments = _checked_sweep(p)
    if not report.ok:
        raise ValidationError(report)
    return segments


def validate(p: Presentation) -> ValidationReport:
    """Check every invariant of a presentation; an empty report means valid.

    Structural problems (stage order, out-of-universe elements, intervals
    beyond the depth cap) are reported first; per-index invariants are
    checked at the breakpoints, which suffices because the family is constant
    between them.
    """
    return _checked_sweep(p)[0]


def max_event_interval_length(p: OpenFamilyPresentation) -> int:
    return max((len(ev.interval) for ev in p.events), default=0)
