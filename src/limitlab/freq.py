"""Exact limit frequencies of eventually periodic partial traces.

A trace lists the values of a partial function on 0, 1, 2, ...: a finite
prefix followed by a block repeated forever, with None marking places where
the function is undefined.  For such traces the limit frequency of every
value exists, is rational, and equals its share of the repeated block; the
prefix is washed out.  A trace can also be replayed into a staged semimeasure
family whose liminf is exactly the (grid-floored) frequency table.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .families import IndexSpec, SemimeasureFamilyPresentation, ValueEvent

Slot = Optional[int]


class _Trace(NamedTuple):
    prefix: tuple[Slot, ...]
    period: tuple[Slot, ...]


class PartialTrace(_Trace):
    """A validated trace record; ``NamedTuple`` forbids ``__new__`` in its own
    body, so the check lives in this subclass."""

    __slots__ = ()

    def __new__(cls, prefix: tuple[Slot, ...], period: tuple[Slot, ...]) -> "PartialTrace":
        if not period:
            raise ValueError("period must be nonempty")
        for slot in prefix + period:
            if slot is not None and (
                not isinstance(slot, int) or isinstance(slot, bool) or slot < 0
            ):
                raise ValueError(f"trace values must be naturals or None, got {slot!r}")
        return super().__new__(cls, prefix, period)

    @classmethod
    def _make(cls, iterable) -> "PartialTrace":
        # the inherited _make (and so _replace) builds with tuple.__new__, skipping the check
        return cls(*iterable)

    def term(self, i: int) -> Slot:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]


def limit_frequency(trace: PartialTrace) -> dict[int, Fraction]:
    """Limit share of each value: its count in the period over the period length."""
    table: dict[int, Fraction] = {}
    for slot in trace.period:
        if slot is not None:
            table[slot] = table.get(slot, Fraction(0)) + Fraction(1, len(trace.period))
    return table


def running_frequency(trace: PartialTrace, n: int) -> dict[int, Fraction]:
    """Share of each value among the first n terms (undefined slots count in n)."""
    if n <= 0:
        raise ValueError("the running frequency needs at least one term")
    table: dict[int, Fraction] = {}
    for i in range(n):
        slot = trace.term(i)
        if slot is not None:
            table[slot] = table.get(slot, Fraction(0)) + Fraction(1, n)
    return table


def _grid_floor(value: Fraction, grid: Sequence[Fraction]) -> Fraction:
    i = bisect_right(grid, value)
    if i == 0:
        raise ValueError(
            f"grid has no value at or below {value.numerator}/{value.denominator}"
        )
    return grid[i - 1]


def trace_to_family(
    trace: PartialTrace, nmax: int, grid: Sequence[Fraction]
) -> SemimeasureFamilyPresentation:
    """Staged semimeasure family sampling the running frequencies of a trace.

    Index n < nmax receives the grid-floored running frequencies over the
    first n terms; from nmax on, the family holds the grid-floored limit
    frequencies, so the liminf is exactly the floored limit table.  Elements
    are the binary numerals of the traced values.  Every index carries total
    mass at most 1 because flooring only shrinks exact frequencies.
    """
    plen = len(trace.period)
    if nmax % plen != 0 or nmax < len(trace.prefix) + plen:
        raise ValueError(
            f"nmax must be a multiple of the period length {plen} and at least "
            f"{len(trace.prefix) + plen}"
        )
    grid = sorted(set(Fraction(g) for g in grid))
    events: list[ValueEvent] = []
    counts: dict[int, int] = {}  # running count of each value over the first n terms
    for n in range(1, nmax + 1):
        if n < nmax:
            slot = trace.term(n - 1)
            if slot is not None:
                counts[slot] = counts.get(slot, 0) + 1
            spec, shares = IndexSpec.single(n), {x: Fraction(c, n) for x, c in counts.items()}
        else:
            spec, shares = IndexSpec.tail(n), limit_frequency(trace)
        for x, share in sorted(shares.items()):
            floored = _grid_floor(share, grid)
            if floored > 0:
                events.append(ValueEvent(n, spec, format(x, "b"), floored))
    return SemimeasureFamilyPresentation(events=tuple(events), tree=False)
