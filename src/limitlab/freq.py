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
from collections import Counter, namedtuple
from fractions import Fraction
from typing import Optional, Sequence

from .cantor import _echo, _fraction_text, _natural, _require_kind, _require_naturals, _unit_grid
from .families import SemimeasureFamilyPresentation, ValueEvent, single, tail

Slot = Optional[int]


class PartialTrace(namedtuple("PartialTrace", "prefix period")):
    """A validated trace: ``prefix`` and the nonempty ``period`` are tuples of
    naturals or None.  Building one checks them, through ``__new__``,
    ``_make`` and so ``_replace``."""

    __slots__ = ()

    def __new__(cls, prefix: tuple[Slot, ...], period: tuple[Slot, ...]) -> "PartialTrace":
        if not period:
            raise ValueError("period must be nonempty")
        for slot in prefix + period:
            if slot is not None and not _natural(slot):
                raise ValueError(f"trace values must be naturals or None, got {_echo(slot)}")
        return super().__new__(cls, prefix, period)

    @classmethod
    def _make(cls, iterable) -> "PartialTrace":
        # namedtuple's _make (and so _replace) builds with tuple.__new__, skipping the check
        return cls(*iterable)

    def term(self, i: int) -> Slot:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]


def _shares(counts: Counter, n: int) -> dict[int, Fraction]:
    """Each value's count over ``n``, in the order of ``counts``; None, an
    undefined slot, is no value."""
    return {x: Fraction(c, n) for x, c in counts.items() if x is not None}


def limit_frequency(trace: PartialTrace) -> dict[int, Fraction]:
    """Limit share of each value: its count in the period over the period length."""
    _require_kind(PartialTrace, trace=trace)
    return _shares(Counter(trace.period), len(trace.period))


def running_frequency(trace: PartialTrace, n: int) -> dict[int, Fraction]:
    """Share of each value among the first n terms (undefined slots count in n),
    in order of first occurrence.  Counted in closed form, in time independent
    of n: the prefix's terms up to n, then the whole periods, then the part of
    one period that is left.  ``n`` must be a natural number."""
    _require_kind(PartialTrace, trace=trace)
    _require_naturals(n=n)
    if n <= 0:
        raise ValueError("the running frequency needs at least one term")
    counts = Counter(trace.prefix[:n])
    whole, part = divmod(max(n - len(trace.prefix), 0), len(trace.period))
    if whole:
        counts.update({x: c * whole for x, c in Counter(trace.period).items()})
    counts.update(trace.period[:part])
    return _shares(counts, n)


def _grid_floor(value: Fraction, grid: Sequence[Fraction]) -> Fraction:
    i = bisect_right(grid, value)
    if i == 0:
        raise ValueError(f"grid has no value at or below {_fraction_text(value)}")
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
    ``nmax`` must be a natural number and ``grid`` a list or tuple of exact
    rationals.
    """
    _require_kind(PartialTrace, trace=trace)
    _require_naturals(nmax=nmax)
    grid = _unit_grid(grid)
    plen = len(trace.period)
    if nmax % plen != 0 or nmax < len(trace.prefix) + plen:
        raise ValueError(
            f"nmax must be a multiple of the period length {plen} and at least "
            f"{len(trace.prefix) + plen}"
        )
    events: list[ValueEvent] = []
    counts: dict[int, int] = {}  # running count of each value over the first n terms
    for n in range(1, nmax + 1):
        if n < nmax:
            slot = trace.term(n - 1)
            if slot is not None:
                counts[slot] = counts.get(slot, 0) + 1
            spec, shares = single(n), {x: Fraction(c, n) for x, c in counts.items()}
        else:
            spec, shares = tail(n), limit_frequency(trace)
        for x, share in sorted(shares.items()):
            floored = _grid_floor(share, grid)
            if floored > 0:
                events.append(ValueEvent(n, spec, format(x, "b"), floored))
    return SemimeasureFamilyPresentation(events=tuple(events), tree=False)
