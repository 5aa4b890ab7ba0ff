"""Event-log semantics, written independently of the program.

Both the input generators (to keep generated families valid) and the
artifact checks (to recompute a family's liminf and budgets) use these, so
neither trusts the code under test.  Events are the dicts of the JSON event
log: ``kind`` (single/tail), ``index`` and the payload.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path


def read_log(path: Path) -> tuple[dict, list[dict]]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def breakpoints(events: list[dict]) -> list[int]:
    points = {0}
    for ev in events:
        points.add(ev["index"])
        if ev["kind"] == "single":
            points.add(ev["index"] + 1)
    return sorted(points)


def member(events: list[dict], n: int) -> list[dict]:
    """Events that apply to index ``n``."""
    return [
        ev for ev in events
        if (n == ev["index"] if ev["kind"] == "single" else n >= ev["index"])
    ]


def value_table(events: list[dict]) -> dict[str, Fraction]:
    table: dict[str, Fraction] = {}
    for ev in events:
        value = Fraction(ev["value"])
        if value > table.get(ev["element"], Fraction(0)):
            table[ev["element"]] = value
    return table


def tree_root(table: dict[str, Fraction]) -> Fraction:
    """Root mass of the least tree semimeasure above the table."""
    nodes = {u[:i] for u in table for i in range(len(u) + 1)}
    closed: dict[str, Fraction] = {}
    for y in sorted(nodes, key=len, reverse=True):
        kids = closed.get(y + "0", Fraction(0)) + closed.get(y + "1", Fraction(0))
        closed[y] = max(table.get(y, Fraction(0)), kids)
    return closed.get("", Fraction(0))


def union_measure(intervals) -> Fraction:
    """Uniform measure of the union of the intervals named by bit strings."""
    strings = list(intervals)
    if not strings:
        return Fraction(0)
    depth = max(len(x) for x in strings)
    ranges = sorted(
        (int(x or "0", 2) << (depth - len(x)), (int(x or "0", 2) + 1) << (depth - len(x)))
        for x in strings
    )
    total, reach = 0, 0
    for lo, hi in ranges:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return Fraction(total, 2**depth)


def liminf(header: dict, events: list[dict]):
    """The member at the last breakpoint, from which the family is constant."""
    last = member(events, breakpoints(events)[-1])
    if header["type"] == "set-family":
        return {ev["element"] for ev in last}
    if header["type"] == "semimeasure-family":
        return {u: v for u, v in value_table(last).items() if v > 0}
    return [ev["interval"] for ev in last]
