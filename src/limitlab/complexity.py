"""Exact description complexity for a tiny two-mode reference machine.

The machine M0 is total and halting by construction: a program "00"+q outputs
q literally, and "01"+q (q nonempty) outputs the periodic fill of q out to
the length given as the condition.  All other programs produce nothing.  The
machine is deliberately small: exact shortest-description lengths then have a
closed form, C(x | n) = 2 + per(x) when |x| = n >= 1 (per the least period)
and |x| + 2 otherwise, which the test suite checks against an exhaustive
program enumeration; the conditional mode makes the complexity genuinely
depend on the condition.

On top of the machine sit the randomness-deficiency tools: per-prefix
deficiency d(x) = |x| - C(x), its extension infimum dbar truncated at a
horizon, the staged open families generated by the sets of compressible
strings, and the converse ordinal coding that turns a small cover back into
description-length bounds.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Optional

from .cantor import _echo, _fraction_text, _int_text, _require_writable_power
from .cantor import _require_bits, _require_kind, _require_naturals, _strings_of_length
from .families import (
    IntervalEvent,
    OpenFamilyPresentation,
    _guarantee,
    family_at,  # noqa: F401  (perfbench --trace 1 looks it up by name, else AttributeError)
    members,
    single,
    tail,
)

EXACT_COMPLEXITY_BOUND = 16


def run_m0(program: str, condition: int) -> Optional[str]:
    """Run the reference machine; None when the program is reserved.  The program
    must be a bit string and the condition a natural number."""
    _require_bits("program", program)
    _require_naturals(condition=condition)
    if len(program) < 2:
        return None
    mode, payload = program[:2], program[2:]
    if mode == "00":
        return payload
    if mode == "01" and payload:
        return "".join(payload[i % len(payload)] for i in range(condition))
    return None


def _least_period(x: str) -> int:
    """Smallest p >= 1 with x[i] == x[i + p] wherever both exist (x nonempty),
    by that definition: the first shift p < |x| with x[p:] == x[:-p], else |x|;
    at most |x|^2 / 2 character comparisons, |x| <= EXACT_COMPLEXITY_BOUND."""
    return next((p for p in range(1, len(x)) if x[p:] == x[:-p]), len(x))


def exact_complexity(x: str, condition: int) -> int:
    """Length of the shortest M0 program producing ``x`` under the condition.

    The literal program "00"+x costs |x| + 2.  The periodic mode prints
    exactly ``condition`` bits, so it can only win when |x| = condition >= 1,
    and then its shortest payload is x[:per(x)], with per(x) <= |x|.
    ``condition`` must be a natural number.
    """
    _require_naturals(condition=condition)
    _require_bits("x", x)
    _require_enumerable("string of length", len(x))
    return 2 + _least_period(x) if len(x) == condition >= 1 else len(x) + 2


def _require_enumerable(what: str, length: int) -> None:
    """Refuse a natural ``length``, named ``what``, above ``EXACT_COMPLEXITY_BOUND``."""
    if length > EXACT_COMPLEXITY_BOUND:
        raise ValueError(
            f"{what} {_int_text(length)} exceeds the enumeration bound {EXACT_COMPLEXITY_BOUND}")


def _periods(n: int, by_length: list) -> list[int]:
    """per(x) of each bit string x of length n >= 1, in lex order.  "01"+q prints
    the fill of q out to n bits, so per(x) is the length of the shortest q whose
    fill is x: the fills are written from |q| = n down, so the last write wins,
    and |q| = n writes each x once, in lex order.  ``by_length[p]`` holds the
    strings of length p for every p <= n."""
    per: dict[str, int] = {}
    for p in range(n, 0, -1):
        reps = -(-n // p)
        per.update(zip([(q * reps)[:n] for q in by_length[p]], repeat(p)))
    return list(per.values())


# the table modes
MODES = ("conditional", "plain")


class ComplexityTable(
    namedtuple("ComplexityTable", "by_condition mode", defaults=("conditional",))
):
    """Finite exact table of description lengths, one dict per condition:
    ``by_condition`` maps a condition to its ``{string: length}``.

    ``mode`` fixes how a string is looked up: "conditional" uses the string's
    length as the condition, "plain" uses the fixed condition 0.
    """

    __slots__ = ()

    @property
    def entries(self) -> dict[tuple[str, int], int]:
        """The same table as one dict (string, condition) -> length, built when read."""
        return {
            (u, cond): v for cond, strings in self.by_condition.items() for u, v in strings.items()
        }

    def condition_at(self, length: int) -> int:
        """The condition a string of this length is looked up under."""
        return length if self.mode == "conditional" else 0

    def strings_at(self, length: int) -> dict[str, int]:
        """The dict of the condition that strings of this length are looked
        up under (it may hold other strings too); empty when there is none."""
        return self.by_condition.get(self.condition_at(length), {})

    def value(self, u: str) -> int:
        return self.strings_at(len(u))[u]

    def has(self, u: str) -> bool:
        return u in self.strings_at(len(u))


def complexity_blocks(max_len: int, nmax: int) -> list[tuple]:
    """Exact M0 table for all strings up to ``max_len`` under the conditions up
    to ``nmax``, as groups ``(conditions, blocks)`` in the artifact's order:
    ``conditions`` a slice of ``range(nmax + 1)``, ``blocks`` one
    ``(strings, values)`` per length, whose strings are the rows.

    Every string costs its literal length |x| + 2, so ``values`` is that one
    int, except in the block of length n = condition >= 1: the list of values
    2 + per(x) (see exact_complexity).  So condition 0 and those above
    ``max_len`` are two groups of one list of literal blocks, each of
    1..max_len is a group, and they cost O(2^max_len * max_len) whatever ``nmax``.
    Both arguments must be natural numbers.
    """
    _require_naturals(max_len=max_len, nmax=nmax)
    _require_enumerable("max_len", max_len)
    conditions = range(nmax + 1)
    by_length = [_strings_of_length(n) for n in range(max_len + 1)]
    literal = [(strings, n + 2) for n, strings in enumerate(by_length)]
    groups = [(conditions[:1], literal)]
    for n in conditions[1:max_len + 1]:
        periodic = (by_length[n], [2 + p for p in _periods(n, by_length)])
        groups.append((conditions[n:n + 1], [*literal[:n], periodic, *literal[n + 1:]]))
    groups.append((conditions[max_len + 1:], literal))
    return [group for group in groups if group[0]]


def complexity_table(max_len: int, nmax: int) -> ComplexityTable:
    """Exact M0 table for all strings up to ``max_len`` under every condition
    up to ``nmax`` (see complexity_blocks): each group's strings and values
    make one dict, copied for each of its conditions."""
    by_condition = {}
    for conditions, blocks in complexity_blocks(max_len, nmax):
        lengths = {
            u: v
            for strings, values in blocks
            for u, v in zip(strings, repeat(values) if type(values) is int else values)
        }
        by_condition.update((cond, lengths.copy()) for cond in conditions)
    return ComplexityTable(by_condition=by_condition, mode="conditional")


def counting_violations(t: ComplexityTable) -> list[str]:
    """Failures of the bound: fewer than 2^m strings of complexity below m.

    Checked for every condition in the table and every m up to the largest
    value plus one, but below the bit length of the table's size: no count
    exceeds the size, so a larger m cannot fail.  Each condition's values
    are sorted once, so the count below m is a ``bisect_left``.
    """
    _require_table(t)
    problems = []
    groups = {cond: sorted(strings.values()) for cond, strings in t.by_condition.items()}
    tops = [values[-1] for values in groups.values() if values]
    if not tops:
        return problems
    stop = min(max(tops) + 2, sum(map(len, groups.values())).bit_length())
    for condition in sorted(groups):
        for m in range(stop):
            if text := _too_many(groups[condition], condition, m):
                problems.append(f"{text} (bound 2^{m} = {2**m})")
    return problems


def _too_many(values: list[int], condition: int, m: int) -> Optional[str]:
    """The counting bound for ``m`` at ``condition``: None when fewer than 2^m of
    its complexities, the sorted ``values``, are below m, else the failure in words."""
    count = bisect_left(values, m)
    if count >= 2**m:
        return (f"counting bound violated at condition {_int_text(condition)}: "
                f"{count} strings below complexity {m}")


class DeficiencyReport(namedtuple("DeficiencyReport", "per_prefix horizon c")):
    """Per-prefix deficiencies ``per_prefix``: one ``(prefix, d, dbar)`` per prefix.

    ``dbar`` is the minimum deficiency over all extensions up to ``horizon``;
    the horizon is carried so the truncation is never overstated.
    """

    __slots__ = ()

    def dbar(self, x: str) -> int:
        for prefix, _, dbar in self.per_prefix:
            if prefix == x:
                return dbar
        raise KeyError(x)


def _require_defined(t: ComplexityTable, prefixes: Iterable[str]) -> None:
    missing = [u for u in prefixes if not t.has(u)]
    if missing:
        shown = ", ".join(map(_echo, missing[:5]))
        raise ValueError(f"table is missing {len(missing)} prefixes of the omega prefix: {shown}")


def _require_table(t: object) -> None:
    """Refuse ``t`` unless it is a :class:`ComplexityTable` whose ``by_condition`` is a dict of
    dicts and whose ``mode`` is "conditional" or "plain", naming the field; O(conditions)."""
    _require_kind(ComplexityTable, t=t)
    _require_kind(dict, by_condition=t.by_condition)
    for condition, strings in t.by_condition.items():
        if not isinstance(strings, dict):
            shown = f"by_condition[{_echo(condition)}]"
            raise ValueError(f"{shown} must be a dict, got {type(strings).__name__}")
    if t.mode not in MODES:
        raise ValueError(f'mode must be "conditional" or "plain", got {_echo(t.mode)}')


def _require_all_strings(t: ComplexityTable, lengths: range) -> None:
    """Refuse unless the table defines all 2^l bit strings of every length l.

    A length l reads only the dict of its strings' condition.  When its 2^l
    strings do not outnumber that dict (told by bit length, without
    building 2^l), they are looked up.  Only a refusal counts the dict's bit
    strings of that length, in one pass over the dict, so it costs time in
    proportion to the table, not to 2^l; the scan of ``lengths`` stops at
    the first length the table does not fill, and one too long to write is
    refused by its value.
    """
    for length in lengths:
        strings = t.strings_at(length)
        if length < len(strings).bit_length() and all(
            map(strings.__contains__, _strings_of_length(length))
        ):
            continue
        shown = _int_text(length)
        what = f"length {shown} (--nmin or --horizon) is too large: the count 2^{shown}"
        _require_writable_power(length, what)
        count = sum(1 for u in strings if len(u) == length and not u.strip("01"))
        raise ValueError(
            f"table is missing {2**length - count} of the {2**length} "
            f"strings of length {length}"
        )


def deficiency_report(
    t: ComplexityTable, omega_prefix: str, horizon: int, c: int
) -> DeficiencyReport:
    """Deficiency d and horizon-truncated extension deficiency dbar per prefix;
    ``horizon`` and ``c`` must be natural numbers."""
    _require_table(t)
    _require_naturals(horizon=horizon, c=c)
    _require_bits("omega prefix", omega_prefix)
    if horizon < len(omega_prefix):
        raise ValueError(f"horizon {horizon} shorter than the prefix ({len(omega_prefix)})")
    _require_all_strings(t, range(horizon + 1))
    dbar: dict[str, int] = {}
    for length in range(horizon, -1, -1):
        strings = t.strings_at(length)
        for y in _strings_of_length(length):
            best = length - strings[y]
            if length < horizon:
                best = min(best, dbar[y + "0"], dbar[y + "1"])
            dbar[y] = best
    rows = []
    for i in range(len(omega_prefix) + 1):
        x = omega_prefix[:i]
        rows.append((x, i - t.value(x), dbar[x]))
    return DeficiencyReport(per_prefix=tuple(rows), horizon=horizon, c=c)


def deficiency_family(
    t: ComplexityTable, c: int, n_range: tuple[int, int]
) -> OpenFamilyPresentation:
    """Staged open family generated by the compressible strings per length.

    For each n in the range ``n_range = (n_min, n_max)`` of naturals, D_n
    holds the length-n strings of complexity below n - c (``c`` a natural);
    index n receives the union of their intervals.  The family is truncated
    by replicating the last level as a tail, and its measure bound
    epsilon = 2^-c follows from the counting bound, which is checked up
    front.  A ``c`` whose 2^c has more decimal digits than the interpreter
    converts to text is refused, since the family's epsilon could not be
    written.
    """
    _require_table(t)
    if not (isinstance(n_range, (tuple, list)) and len(n_range) == 2):
        raise ValueError(f"n_range must be a pair (n_min, n_max), got {_echo(n_range)}")
    n_min, n_max = n_range
    _require_naturals(c=c, n_min=n_min, n_max=n_max)
    if n_max < n_min:
        raise ValueError(f"bad length range ({_int_text(n_min)}, {_int_text(n_max)})")
    shown = _int_text(c)
    _require_writable_power(c, f"c = {shown} is too large: epsilon = 2^-{shown}")
    _require_all_strings(t, range(n_min, n_max + 1))
    events: list[IntervalEvent] = []
    for n in range(n_min, n_max + 1):
        m, strings = n - c, t.strings_at(n)
        if m > 0 and (text := _too_many(sorted(strings.values()), t.condition_at(n), m)):
            raise ValueError(f"{text}; the family would exceed measure 2^-{c}")
        level = [u for u in _strings_of_length(n) if strings[u] < m]
        spec = tail(n) if n == n_max else single(n)
        events.extend(IntervalEvent(stage=n, spec=spec, interval=u) for u in level)
    return OpenFamilyPresentation(
        epsilon=Fraction(1, 2**c),
        events=tuple(events),
        granularity=tuple((n, n) for n in range(n_min, n_max + 1)),
    )


class RandomnessReport(namedtuple("RandomnessReport", "qualifying count largest c")):
    """Prefix lengths at which the sequence stays incompressible."""

    __slots__ = ()


def randomness_report(t: ComplexityTable, omega_prefix: str, c: int) -> RandomnessReport:
    """All n with C(prefix of length n) >= n - c; a finite stand-in for
    "infinitely many", so the largest qualifying n is reported alongside;
    ``c`` must be a natural number."""
    _require_naturals(c=c)
    _require_bits("omega prefix", omega_prefix)
    problems = counting_violations(t)
    if problems:
        raise ValueError(problems[0])
    prefixes = [omega_prefix[:i] for i in range(len(omega_prefix) + 1)]
    _require_defined(t, prefixes)
    qualifying = tuple(
        n for n, x in enumerate(prefixes) if t.value(x) >= n - c
    )
    return RandomnessReport(
        qualifying=qualifying,
        count=len(qualifying),
        largest=qualifying[-1] if qualifying else None,
        c=c,
    )


def _exceeds_power(num: int, den: int, c: int) -> bool:
    """num / den > 2^-c, for naturals num, c and den > 0, decided on integers:
    2^c > den is told by bit length, without building 2^c."""
    return num > 0 and (c >= den.bit_length() or num << c > den)


def cover_to_complexity_bounds(
    p: OpenFamilyPresentation, c: int
) -> dict[str, int]:
    """Description-length bounds read off a small cover by ordinal coding.

    At each breakpoint n, the length-n strings whose whole interval lies in
    U_n are counted in lex order; naming one by its ordinal number in that list
    takes ceil(log2(count)) bits, which bounds its complexity at that level.
    ``c``, the exponent of the measure bound 2^-c, must be a natural number.
    """
    _require_kind(OpenFamilyPresentation, p=p)
    _require_naturals(c=c)
    segments = list(members(p))
    if p.granularity is None:
        raise ValueError("ordinal coding requires a granularity bound")
    if _exceeds_power(p.epsilon.numerator, p.epsilon.denominator, c):
        shown = _int_text(c)
        _require_writable_power(c, f"c = {shown} (--c) is too large: the bound 2^-{shown}")
        raise ValueError(
            f"measure bound violated: epsilon = {_fraction_text(p.epsilon)} "
            f"exceeds 2^-{c} = {_fraction_text(Fraction(1, 2**c))}"
        )
    for n, cn in p.granularity:
        if cn > n:
            shown = _int_text(n)
            raise ValueError(f"granularity c({shown}) = {_int_text(cn)} exceeds the level {shown}")
    # a bounded level holds no interval deeper than c(n) <= n, by validation
    for n, _, member in segments:
        for i in member.intervals:
            if len(i) > n:
                raise ValueError(
                    f"the granularity does not bound n={n}, "
                    f"whose member holds the interval {_echo(i)}, longer than n"
                )
    result: dict[str, int] = {}
    for n, _, member in segments:
        covered = [
            i + suffix for i in member.intervals for suffix in _strings_of_length(n - len(i))
        ]
        if not covered:
            continue
        count = len(covered)
        too_many = _exceeds_power(count, 2**n, c)  # count / 2^n > 2^-c
        _guarantee(not too_many, f"complexity-bounds covers {count} strings at n={n}, over 2^(n-c)")
        code_length = (count - 1).bit_length()
        for w in covered:
            result[w] = code_length
    return result
