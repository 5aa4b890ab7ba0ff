"""Independent brute-force oracles the library is checked against.

Everything here is written from the definitions, not from the library code:
point membership decides set questions, direct event scans decide family
questions, and a from-scratch machine enumeration decides complexity
questions.  Keeping these separate from the implementation is the point.
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import lcm
from operator import or_


def all_strings(length):
    return ["".join(bits) for bits in product("01", repeat=length)]


def strings_up_to(length):
    out = []
    for n in range(length + 1):
        out.extend(all_strings(n))
    return out


def member(w, intervals):
    """Point membership: the sequences extending w meet the union iff some
    interval is a prefix of w (w at least as deep as every interval)."""
    return any(w.startswith(i) for i in intervals)


def measure_by_counting(intervals, depth):
    covered = sum(1 for w in all_strings(depth) if member(w, intervals))
    return Fraction(covered, 2**depth)


def set_family_member(events, n):
    return {ev.element for ev in events if _covers(ev.spec, n)}


def semimeasure_member(events, n):
    table = {}
    for ev in events:
        if _covers(ev.spec, n) and ev.value > table.get(ev.element, Fraction(0)):
            table[ev.element] = ev.value
    return {u: v for u, v in table.items() if v > 0}


def open_member_intervals(events, n):
    return [ev.interval for ev in events if _covers(ev.spec, n)]


def _covers(spec, n):
    return n == spec.index if spec.kind == "single" else n >= spec.index


# The covers by their definition: one working copy for every index 0..nmax,
# every tentative operation checked against every copy from its threshold on
# and each budget recomputed from scratch.  Same enumeration order as the
# library, so the whole result, accepted-ops log included, must agree.


def cover_sets_by_index(p, nmax):
    """(elements, accepted ops) of the set cover."""
    cap = 2**p.k
    working = [set_family_member(p.events, n) for n in range(nmax + 1)]
    accepted = []
    for big_n in range(nmax + 1):
        for u in p.universe:
            if all(u in w or len(w) + 1 < cap for w in working[big_n:]):
                for w in working[big_n:]:
                    w.add(u)
                accepted.append((big_n, u))
    return frozenset(u for _, u in accepted), tuple(accepted)


def least_tree_semimeasure(table):
    """Every node gets the larger of its own bound and its children's sum."""
    nodes = {u[:i] for u in table for i in range(len(u) + 1)}
    closed = {}
    for y in sorted(nodes, key=len, reverse=True):
        closed[y] = max(table.get(y, 0), closed.get(y + "0", 0) + closed.get(y + "1", 0))
    return closed


def cover_semimeasure_by_index(p, grid, nmax):
    """(positive values, accepted ops) of the flat or tree semimeasure cover."""
    # exact integer arithmetic: every value counted in units of 1/scale
    grid = sorted(set(map(Fraction, grid)))
    scale = lcm(*(v.denominator for v in grid + [ev.value for ev in p.events]))

    def mass(table):
        return least_tree_semimeasure(table).get("", 0) if p.tree else sum(table.values())

    elements = sorted({ev.element for ev in p.events}, key=lambda u: (len(u), u))
    working = [
        {u: int(v * scale) for u, v in semimeasure_member(p.events, n).items()}
        for n in range(nmax + 1)
    ]
    accepted = []
    for big_n in range(nmax + 1):
        for u in elements:
            for r in grid:
                units = int(r * scale)
                if all(mass({**w, u: max(units, w.get(u, 0))}) <= scale for w in working[big_n:]):
                    for w in working[big_n:]:
                        w[u] = max(units, w.get(u, 0))
                    accepted.append((r, big_n, u))
    built = {}
    for r, _, u in accepted:
        built[u] = max(r, built.get(u, 0))
    if p.tree:
        built = least_tree_semimeasure(built)
    return {u: v for u, v in built.items() if v > 0}, tuple(accepted)


def points_at_depth(intervals, depth):
    """Bit i set iff the length-``depth`` string numbered i extends an interval."""

    def points(x):
        shift = depth - len(x)
        return ((1 << (1 << shift)) - 1) << (int(x or "0", 2) << shift)

    return reduce(or_, map(points, intervals), 0)


def cover_open_by_index(p, lmax, nmax):
    """(points of the region at depth lmax, accepted ops) of the open cover."""
    working = [points_at_depth(open_member_intervals(p.events, n), lmax) for n in range(nmax + 1)]
    accepted = []
    for big_n in range(nmax + 1):
        for x in strings_up_to(lmax):
            grown = [w | points_at_depth([x], lmax) for w in working[big_n:]]
            if all(Fraction(w.bit_count(), 2**lmax) <= p.epsilon for w in grown):
                working[big_n:] = grown
                accepted.append((x, big_n))
    return points_at_depth([x for x, _ in accepted], lmax), tuple(accepted)


def m0_reference(program, condition):
    """From-scratch rewrite of the reference machine semantics."""
    if len(program) < 2:
        return None
    if program.startswith("00"):
        return program[2:]
    if program.startswith("01") and len(program) > 2:
        body = program[2:]
        out = []
        for i in range(condition):
            out.append(body[i % len(body)])
        return "".join(out)
    return None


def complexity_by_enumeration(x, condition):
    """Minimum program length by scanning every program, no early exit."""
    best = None
    for length in range(len(x) + 3):
        for code in range(2**length):
            program = format(code, f"0{length}b") if length else ""
            if m0_reference(program, condition) == x and (best is None or length < best):
                best = length
    return best


def complexity_table_by_enumeration(max_len, conditions):
    """The whole (string, condition) -> length map by running every program
    of length up to max_len + 2 under every condition, shortest first."""
    entries = {}
    for condition in conditions:
        for length in range(max_len + 3):
            for code in range(2**length):
                program = format(code, f"0{length}b") if length else ""
                out = m0_reference(program, condition)
                if out is not None and len(out) <= max_len:
                    entries.setdefault((out, condition), length)
    return entries


def counting_violations_by_scan(entries, m_max=None):
    """(condition, m, count) for every m with 2^m or more entries below m,
    counted by a full scan of the table per pair."""
    if not entries:
        return []
    top = max(entries.values()) + 1
    limit = top if m_max is None else min(m_max, top)
    found = []
    for condition in sorted({cond for _, cond in entries}):
        for m in range(limit + 1):
            count = sum(1 for (_, cond), v in entries.items() if cond == condition and v < m)
            if count >= 2**m:
                found.append((condition, m, count))
    return found


def dbar_by_scan(t, x, horizon):
    """Extension deficiency by direct enumeration of every extension."""
    best = None
    for n in range(len(x), horizon + 1):
        for suffix in all_strings(n - len(x)):
            y = x + suffix
            d = len(y) - t.value(y)
            if best is None or d < best:
                best = d
    return best


def frequencies_by_average(prefix, period, repetitions):
    """Running shares over the prefix-free repetition of the period block."""
    block = list(period) * repetitions
    counts = {}
    for slot in block:
        if slot is not None:
            counts[slot] = counts.get(slot, 0) + 1
    return {x: Fraction(c, len(block)) for x, c in counts.items()}


def trace_to_family_by_index(prefix, period, nmax, grid):
    """The trace family rebuilt per index: each n < nmax recounts the first n
    terms from scratch and floors each share by a scan of the whole grid.

    Returned as plain tuples ``(events, tree)`` with events
    ``(stage, (kind, index), element, value)``; the library's records are
    NamedTuples, so a presentation equals this field for field."""
    grid = [Fraction(g) for g in grid]

    def floored(share):
        return max(g for g in grid if g <= share)

    terms = list(prefix) + list(period) * (nmax // len(period) + 1)
    events = []
    for n in range(1, nmax):
        counts = {}
        for slot in terms[:n]:
            if slot is not None:
                counts[slot] = counts.get(slot, 0) + 1
        for x in sorted(counts):
            value = floored(Fraction(counts[x], n))
            if value > 0:
                events.append((n, ("single", n), format(x, "b"), value))
    for x, share in sorted(frequencies_by_average(prefix, period, 1).items()):
        value = floored(share)
        if value > 0:
            events.append((nmax, ("tail", nmax), format(x, "b"), value))
    return tuple(events), False
