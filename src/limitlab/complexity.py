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
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional

from .cantor import format_fraction
from .families import (
    IndexSpec,
    IntervalEvent,
    OpenFamilyPresentation,
    family_at,  # noqa: F401  (perfbench --trace 1 looks it up by name, else AttributeError)
    members,
    require_valid,
)

EXACT_COMPLEXITY_BOUND = 16


def run_m0(program: str, condition: int) -> Optional[str]:
    """Run the reference machine; None when the program is reserved."""
    if len(program) < 2:
        return None
    mode, payload = program[:2], program[2:]
    if mode == "00":
        return payload
    if mode == "01" and payload:
        return "".join(payload[i % len(payload)] for i in range(condition))
    return None


def _least_period(x: str) -> int:
    """Smallest p >= 1 with x[i] == x[i + p] wherever both exist (x nonempty).

    The KMP prefix function gives the longest proper border of x, and the
    least period is |x| minus its length.
    """
    border = [0] * len(x)
    k = 0
    for i in range(1, len(x)):
        while k and x[i] != x[k]:
            k = border[k - 1]
        if x[i] == x[k]:
            k += 1
        border[i] = k
    return len(x) - border[-1]


def exact_complexity(x: str, condition: int) -> int:
    """Length of the shortest M0 program producing ``x`` under the condition.

    The literal program "00"+x costs |x| + 2.  The periodic mode prints
    exactly ``condition`` bits, so it can only win when |x| = condition >= 1,
    and then its shortest payload is x[:per(x)], with per(x) <= |x|.
    """
    if len(x) > EXACT_COMPLEXITY_BOUND:
        raise ValueError(
            f"string of length {len(x)} exceeds the enumeration bound "
            f"{EXACT_COMPLEXITY_BOUND}"
        )
    if x.strip("01"):
        raise ValueError(f"M0 outputs bit strings only, got {x!r}")
    return _m0_length(x, condition)


def _m0_length(x: str, condition: int) -> int:
    return 2 + _least_period(x) if len(x) == condition >= 1 else len(x) + 2


class ComplexityTable(NamedTuple):
    """Finite exact map (string, condition) -> description length.

    ``mode`` fixes how a string is looked up: "conditional" uses the string's
    length as the condition, "plain" uses the fixed condition 0.
    """

    entries: Mapping[tuple[str, int], int]
    mode: str = "conditional"

    def condition_for(self, u: str) -> int:
        return len(u) if self.mode == "conditional" else 0

    def value(self, u: str) -> int:
        return self.entries[(u, self.condition_for(u))]

    def has(self, u: str) -> bool:
        return (u, self.condition_for(u)) in self.entries

    def conditions(self) -> set[int]:
        return {cond for _, cond in self.entries}


def complexity_table(max_len: int, conditions: Iterable[int]) -> ComplexityTable:
    """Exact M0 table for all strings up to ``max_len`` per condition.

    Every string costs its literal length |x| + 2, except the strings of
    length n = condition >= 1, which cost 2 + per(x) (see exact_complexity).
    """
    if max_len > EXACT_COMPLEXITY_BOUND:
        raise ValueError(
            f"max_len {max_len} exceeds the enumeration bound {EXACT_COMPLEXITY_BOUND}"
        )
    strings = [u for n in range(max_len + 1) for u in _strings_of_length(n)]
    entries = {(u, cond): _m0_length(u, cond) for cond in conditions for u in strings}
    return ComplexityTable(entries=entries, mode="conditional")


def _sorted_values(t: ComplexityTable) -> dict[int, list[int]]:
    """The table's values grouped by condition, each group sorted once, so
    the number of entries below m under a condition is a ``bisect_left``."""
    groups: dict[int, list[int]] = {}
    for (_, cond), v in t.entries.items():
        groups.setdefault(cond, []).append(v)
    for values in groups.values():
        values.sort()
    return groups


def counting_violations(t: ComplexityTable, m_max: Optional[int] = None) -> list[str]:
    """Failures of the bound: fewer than 2^m strings of complexity below m.

    Checked for every condition appearing in the table and every m up to the
    largest value plus one (the count is constant beyond).
    """
    problems = []
    if not t.entries:
        return problems
    top = max(t.entries.values()) + 1
    limit = top if m_max is None else min(m_max, top)
    groups = _sorted_values(t)
    for condition in sorted(groups):
        for m in range(limit + 1):
            count = bisect_left(groups[condition], m)
            if count >= 2**m:
                problems.append(
                    f"counting bound violated at condition {condition}: "
                    f"{count} strings below complexity {m} (bound 2^{m} = {2**m})"
                )
    return problems


def require_counting_bound(t: ComplexityTable, m_max: Optional[int] = None) -> None:
    problems = counting_violations(t, m_max)
    if problems:
        raise ValueError(problems[0])


class DeficiencyReport(NamedTuple):
    """Per-prefix deficiencies of one sequence prefix.

    ``dbar`` is the minimum deficiency over all extensions up to ``horizon``;
    the horizon is carried so the truncation is never overstated.
    """

    per_prefix: tuple[tuple[str, int, int], ...]  # (prefix, d, dbar)
    horizon: int
    c: int

    def dbar(self, x: str) -> int:
        for prefix, _, dbar in self.per_prefix:
            if prefix == x:
                return dbar
        raise KeyError(x)


def _require_defined(t: ComplexityTable, strings: Iterable[str]) -> None:
    missing = [u for u in strings if not t.has(u)]
    if missing:
        shown = ", ".join(repr(u) for u in missing[:5])
        raise ValueError(f"table is missing {len(missing)} entries within horizon: {shown}")


def _require_all_strings(t: ComplexityTable, lengths: range) -> None:
    """Refuse unless the table defines all 2^l bit strings of every length l.

    One pass over the table counts its bit strings per length, so a refusal
    costs time in proportion to the table, not to 2^l; the scan of
    ``lengths`` stops at the first length the table does not fill.
    """
    counts = Counter(
        len(u) for u, cond in t.entries if not u.strip("01") and cond == t.condition_for(u)
    )
    for length in lengths:
        if counts[length] < 2**length:
            raise ValueError(
                f"table is missing {2**length - counts[length]} of the {2**length} "
                f"strings of length {length}"
            )


def deficiency_report(
    t: ComplexityTable, omega_prefix: str, horizon: int, c: int
) -> DeficiencyReport:
    """Deficiency d and horizon-truncated extension deficiency dbar per prefix."""
    if horizon < len(omega_prefix):
        raise ValueError(f"horizon {horizon} shorter than the prefix ({len(omega_prefix)})")
    if omega_prefix.strip("01"):
        raise ValueError(f"omega prefix must be a bit string, got {omega_prefix!r}")
    _require_all_strings(t, range(horizon + 1))
    levels: list[list[str]] = [[""]]
    for _ in range(horizon):
        levels.append([y + b for y in levels[-1] for b in "01"])
    dbar: dict[str, int] = {}
    for length in range(horizon, -1, -1):
        for y in levels[length]:
            best = length - t.value(y)
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

    For each n in the range, D_n holds the length-n strings of complexity
    below n - c; index n receives the union of their intervals.  The family
    is truncated by replicating the last level as a tail, and its measure
    bound epsilon = 2^-c follows from the counting bound, which is checked
    up front.
    """
    n_min, n_max = n_range
    if n_min < 0 or n_max < n_min:
        raise ValueError(f"bad length range ({n_min}, {n_max})")
    _require_all_strings(t, range(n_min, n_max + 1))
    groups = _sorted_values(t)
    events: list[IntervalEvent] = []
    for n in range(n_min, n_max + 1):
        strings = list(_strings_of_length(n))
        m = n - c
        if m > 0:
            condition = n if t.mode == "conditional" else 0
            count = bisect_left(groups.get(condition, ()), m)
            if count >= 2**m:
                raise ValueError(
                    f"counting bound violated at condition {condition}: "
                    f"{count} strings below complexity {m}; the family would "
                    f"exceed measure 2^-{c}"
                )
        level = sorted(u for u in strings if t.value(u) < n - c)
        spec = IndexSpec.tail(n) if n == n_max else IndexSpec.single(n)
        events.extend(IntervalEvent(stage=n, spec=spec, interval=u) for u in level)
    return OpenFamilyPresentation(
        epsilon=Fraction(1, 2**c),
        events=tuple(events),
        granularity=tuple((n, n) for n in range(n_min, n_max + 1)),
    )


def _strings_of_length(n: int) -> Iterable[str]:
    if n == 0:
        yield ""
        return
    for code in range(2**n):
        yield format(code, f"0{n}b")


class RandomnessReport(NamedTuple):
    """Prefix lengths at which the sequence stays incompressible."""

    qualifying: tuple[int, ...]
    count: int
    largest: Optional[int]
    c: int


def randomness_report(t: ComplexityTable, omega_prefix: str, c: int) -> RandomnessReport:
    """All n with C(prefix of length n) >= n - c; a finite stand-in for
    "infinitely many", so the largest qualifying n is reported alongside."""
    require_counting_bound(t)
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


def cover_to_complexity_bounds(
    p: OpenFamilyPresentation, c: int
) -> dict[str, int]:
    """Description-length bounds read off a small cover by ordinal coding.

    At each breakpoint n, the length-n strings whose whole interval lies in
    U_n are counted and sorted; naming one by its ordinal number in that list
    takes ceil(log2(count)) bits, which bounds its complexity at that level.
    """
    require_valid(p)
    if p.granularity is None:
        raise ValueError("ordinal coding requires a granularity bound")
    bound = Fraction(1, 2**c)
    if p.epsilon > bound:
        raise ValueError(
            f"measure bound violated: epsilon = {format_fraction(p.epsilon)} "
            f"exceeds 2^-{c} = {format_fraction(bound)}"
        )
    for n, cn in p.granularity:
        if cn > n:
            raise ValueError(f"granularity c({n}) = {cn} exceeds the level {n}")
    result: dict[str, int] = {}
    for n, _, member in members(p):
        covered = sorted(
            i + suffix
            for i in member.intervals
            if len(i) <= n
            for suffix in _strings_of_length(n - len(i))
        )
        if not covered:
            continue
        count = len(covered)
        if Fraction(count, 2**n) > bound:
            raise ValueError(
                f"measure bound violated at n={n}: {count} covered strings"
            )
        code_length = (count - 1).bit_length()
        for w in covered:
            result[w] = code_length
    return result
