"""Exact arithmetic and the clopen-set algebra of Cantor space.

Points of Cantor space are infinite binary sequences.  A finite bit string
``x`` names the basic interval of all sequences extending ``x``; a clopen set
is a finite union of such intervals, kept in a canonical form (a prefix-free
antichain in which no two sibling intervals ``x0``, ``x1`` are both present).
Canonical form is unique for a given point set, so equality of clopen sets is
tuple equality.

Each operation maps its operands to half-open integer ranges ``[a, b)`` of
``[0, 2^D)``, ``D`` the deepest interval among them, combines them with one
merge (:func:`_union`: sort once, coalesce overlapping and touching ranges in
one pass; :func:`_gaps` is the complement walk over its output, which gives
intersection and difference by De Morgan) and cuts the result back into
maximal aligned dyadic blocks, the canonical form.  A set that only grows can
stay in range form and become a :class:`ClopenSet` once, where a caller needs
one.  No step recurses, so ``LIMITLAB_MAX_DEPTH`` is the only limit on
interval depth.  Every question goes through the merge: whether a set covers
or meets the interval of ``x``, and how much of it, is a set operation with
``interval(x)``.

All measures are :class:`fractions.Fraction`; no floating point is used
anywhere in the package.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Optional

DEFAULT_MAX_DEPTH = 64


def max_interval_depth() -> int:
    """Current cap on interval depth (LIMITLAB_MAX_DEPTH overrides 64)."""
    raw = os.environ.get("LIMITLAB_MAX_DEPTH")
    if raw is None:
        return DEFAULT_MAX_DEPTH
    try:
        depth = parse_int(raw)
    except _TooManyDigits as exc:
        raise ValueError(f"LIMITLAB_MAX_DEPTH: {exc}") from None
    except ValueError:
        raise ValueError(f"LIMITLAB_MAX_DEPTH must be an integer, got {_echo(raw)}") from None
    if depth < 1:
        raise ValueError(f"LIMITLAB_MAX_DEPTH must be positive, got {depth}")
    return depth


def _echo(value: object) -> str:
    """``repr(value)`` in a message; past 64 characters, the repr of the first 64 and the length.
    An int of more digits than the interpreter writes (see :func:`parse_int`) has no
    repr: its first four digits, its last and its digit count stand for it.  A tuple
    or list that holds one is written as its type and its items, each echoed, and
    any other value whose repr raises ``ValueError`` by its type alone."""
    try:
        text = value if isinstance(value, str) else repr(value)
    except ValueError:
        if isinstance(value, int):
            return _int_text(value)
        if not isinstance(value, (tuple, list)):
            return f"<{type(value).__name__} that repr refuses>"
        text = f"{type(value).__name__}({', '.join(map(_echo, value))})"
    if len(text) > 64:
        return f"{text[:64]!r}... ({len(text)} characters)"
    return repr(value) if isinstance(value, str) else text


def _int_text(value: int) -> str:
    """``str(value)``, or for an int of more digits than the interpreter writes,
    ``-1000...0 (5001 digits)`` for -10^5000, named without converting it to text."""
    try:
        return str(value)
    except ValueError:
        pass
    magnitude = abs(value)
    # 3010299956 / 10^10 < log10(2), so 10^digits <= 2^(bit length - 1) <= magnitude
    digits = (magnitude.bit_length() - 1) * 3010299956 // 10**10
    power = 10**digits
    while power * 10 <= magnitude:
        power, digits = power * 10, digits + 1
    sign = "-" if value < 0 else ""
    return f"{sign}{magnitude // (power // 1000)}...{magnitude % 10} ({digits + 1} digits)"


def _fraction_text(value: Fraction) -> str:
    """:func:`format_fraction` for a message: each term written by :func:`_int_text`."""
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


def _not_bits(x: str) -> str:
    """The refusal of a string ``x`` that holds a character other than 0 and 1."""
    return f"bit string may contain only 0 and 1, got {_echo(x)}"


def check_bit_string(x: str, cap: Optional[int] = None) -> str:
    """Validate a finite bit string of depth at most ``cap`` (by default
    :func:`max_interval_depth`); returns it unchanged."""
    if not isinstance(x, str):
        raise ValueError(f"bit string expected, got {type(x).__name__}")
    if x.strip("01"):
        raise ValueError(_not_bits(x))
    if cap is None:
        cap = max_interval_depth()
    if len(x) > cap:
        raise ValueError(f"interval {_echo(x)} deeper than the configured cap {cap}")
    return x


def _require_depth(what: str, length: int) -> None:
    """Refuse a natural ``length``, named ``what``, above :func:`max_interval_depth`."""
    cap = max_interval_depth()
    if length > cap:
        raise ValueError(f"{what} {_int_text(length)} exceeds the interval depth cap {cap}")


def _name(value: int, length: int) -> str:
    # the length-bit numeral of value; setting bit `length` keeps its leading zeros
    return bin(value | 1 << length)[3:]


def _strings_of_length(length: int) -> list[str]:
    """All bit strings of one length, in lex order."""
    return [_name(v, length) for v in range(1 << length)]


def _ranges(strings: Iterable[str], depth: int) -> list[tuple[int, int]]:
    """The range ``[a, b)`` of ``[0, 2^depth)`` covered by each interval, in order."""
    out = []
    for x in strings:
        v, shift = int(x or "0", 2), depth - len(x)
        out.append((v << shift, v + 1 << shift))
    return out


def _union(ranges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The merge: the ranges' union as sorted, disjoint, non-touching ranges.

    Sorts once, then coalesces overlapping and touching neighbours in one pass.
    """
    out: list[tuple[int, int]] = []
    end = -1
    for a, b in sorted(ranges):
        if a > end:
            out.append((a, b))
            end = b
        elif b > end:
            out[-1] = (out[-1][0], b)
            end = b
    return out


def _gaps(ranges: Iterable[tuple[int, int]], depth: int) -> list[tuple[int, int]]:
    """Complement of the ranges' union inside ``[0, 2^depth)``: the walk over the
    gaps of :func:`_union`'s output, so the ranges may come in any order."""
    out, start = [], 0
    for a, b in _union(ranges):
        if start < a:
            out.append((start, a))
        start = b
    if start < 1 << depth:
        out.append((start, 1 << depth))
    return out


def _clopen(ranges: list[tuple[int, int]], depth: int) -> "ClopenSet":
    """Canonical set of sorted, disjoint, non-touching ranges (:func:`_union` or
    :func:`_gaps` output), cut into maximal aligned blocks."""
    out = []
    for a, b in ranges:
        while a < b:
            size = min(a & -a or 1 << depth, 1 << (b - a).bit_length() - 1)
            shift = size.bit_length() - 1
            out.append(_name(a >> shift, depth - shift))
            a += size
    return ClopenSet(tuple(out))


def _lift(*sets: "ClopenSet", depth: int = 0) -> tuple[int, list[list[tuple[int, int]]]]:
    """Shared scale (deepest interval, at least ``depth``) and each operand's ranges."""
    depth = max([depth] + [len(x) for s in sets for x in s.intervals])
    return depth, [_ranges(s.intervals, depth) for s in sets]


class ClopenSet(namedtuple("ClopenSet", "intervals", defaults=((),))):
    """Canonical finite union of basic intervals.

    ``intervals`` is always a lexicographically sorted prefix-free antichain
    with every sibling pair merged; construct instances via :func:`normalize`
    or the set operations below rather than by hand.
    """

    __slots__ = ()

    def measure(self) -> Fraction:
        """Exact uniform measure: 2^-len per interval, summed as integers at the deepest scale."""
        top = max(map(len, self.intervals), default=0)
        return Fraction(sum(1 << top - len(x) for x in self.intervals), 1 << top)

    def is_empty(self) -> bool:
        return not self.intervals

    def is_full(self) -> bool:
        return self.intervals == ("",)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        depth, (a, b) = _lift(self, other)
        return _clopen(_union(a + b), depth)

    def intersection(self, other: "ClopenSet") -> "ClopenSet":
        depth, (a, b) = _lift(self, other)
        return _clopen(_gaps(_gaps(a, depth) + _gaps(b, depth), depth), depth)

    def complement(self) -> "ClopenSet":
        depth, (a,) = _lift(self)
        return _clopen(_gaps(a, depth), depth)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        depth, (a, b) = _lift(self, other)
        return _clopen(_gaps(_gaps(a, depth) + b, depth), depth)

    def covers_string(self, x: str) -> bool:
        """True iff the whole interval of ``x`` lies inside this set."""
        return interval(x).difference(self).is_empty()

    def meets_interval(self, x: str) -> bool:
        """True iff the interval of ``x`` intersects this set."""
        return not self.intersection(interval(x)).is_empty()

    def interval_overlap(self, x: str) -> Fraction:
        """Exact measure of the intersection with the interval of ``x``."""
        return self.intersection(interval(x)).measure()

    def leftmost_avoiding(self, length: int) -> Optional[str]:
        """Least string of the given length whose interval misses this set."""
        if length < 0:
            raise ValueError("length must be a natural number")
        depth, (ranges,) = _lift(self, depth=length)
        shift = depth - length
        for a, b in _gaps(ranges, depth):
            first = -(-a >> shift)  # the first length-bit block starting at or after a
            if first + 1 << shift <= b:
                return _name(first, length)
        return None

    __contains__ = covers_string

    def __repr__(self) -> str:
        body = ", ".join(repr(x) for x in self.intervals)
        return f"ClopenSet([{body}])"


EMPTY = ClopenSet(())
FULL = ClopenSet(("",))


def normalize(intervals: Iterable[str]) -> ClopenSet:
    """Canonical clopen set denoting the union of the given intervals."""
    cap = max_interval_depth()
    checked = [check_bit_string(x, cap) for x in intervals]
    depth = max(map(len, checked), default=0)
    return _clopen(_union(_ranges(checked, depth)), depth)


def interval(x: str) -> ClopenSet:
    """The basic interval named by ``x``."""
    return ClopenSet((check_bit_string(x),))


class _TooManyDigits(ValueError):
    """Integer text longer than the interpreter converts; the message names the limit."""


def parse_int(text: str) -> int:
    """Parse integer text: ASCII digits with an optional leading "-".

    ``int()`` would also take "_" separators, non-ASCII digits, "+" and
    surrounding whitespace; none of these is integer text here.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {_echo(text)}")
    try:
        return int(text)
    except ValueError:  # the only one left: more digits than the interpreter's limit
        raise _TooManyDigits(f"integer text has more digits than {_digit_limit()}") from None


def _digit_limit() -> str:
    """The interpreter's limit on integer text, as a refusal of longer text names it."""
    return f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}"


def parse_fraction(text: str) -> Fraction:
    """Parse exact rational text: "num/den" or a plain integer string."""
    if not isinstance(text, str):
        raise ValueError(f"rational text expected, got {type(text).__name__}")
    body = text.strip()
    try:
        if "/" in body:
            num, den = body.split("/", 1)
            value = Fraction(parse_int(num), parse_int(den))
        else:
            value = Fraction(parse_int(body))
    except _TooManyDigits as exc:
        raise _TooManyDigits(f"not an exact rational: {exc}") from None
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational: {_echo(text)}") from None
    return value


def format_fraction(value: Fraction) -> str:
    """Serialize a rational as "num/den" (denominator always present)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _require_writable_power(exponent: int, what: str, factor: int = 1) -> None:
    """Refuse ``what`` if ``factor * 2^exponent`` has more digits than ``str``
    converts; a large ``exponent`` is decided by bit length, without building
    the power."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    top = 10**limit
    if limit and (exponent >= top.bit_length() or factor << exponent >= top):
        raise ValueError(
            f"{what} needs more than {limit} digits, "
            "the interpreter's limit for integer text (sys.get_int_max_str_digits)"
        )
