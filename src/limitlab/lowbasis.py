"""Finite forcing over clopen query sets, low-basis style.

The simulator keeps an open set U with nonempty complement and answers a list
of queries in order.  A query set T is answered "halts" when U together with
T already covers the whole space (so every point outside U is in T), and
"diverges" otherwise, in which case T is folded into U.  Either way the
answer is forced: it holds for every point of the final complement, and in
particular for the extracted leftmost witness.  The answers are a function of
the instance alone, never of the witness.

U only grows, so it is held as merged integer ranges.  One
:func:`cantor._lift` of the initial U and every query gives the scale (the
deepest interval in the instance) and each operand's ranges; each query is
then one :func:`cantor._union` of U's ranges with the query's, and U becomes
one :class:`ClopenSet` at the end, from which the witness is read.
"""

from __future__ import annotations

from collections import namedtuple

from .cantor import ClopenSet, _clopen, _echo, _lift, _require_depth, _union
from .families import _guarantee, _require_kind, _require_naturals


class ForcingInstance(namedtuple("ForcingInstance", "initial_u queries")):
    """``queries``: one ``(label, query set)`` per query, in order."""
    __slots__ = ()


class ForcingOutcome(namedtuple("ForcingOutcome", "answers final_u witness_prefix")):
    """``answers``: one ``(label, "halts" | "diverges")`` per query, in order."""
    __slots__ = ()


def force(instance: ForcingInstance, witness_length: int) -> ForcingOutcome:
    """Decide every query while keeping the complement nonempty.

    Requires a witness length at least the deepest interval in play, so that
    the leftmost string avoiding the final U is guaranteed to exist, and at
    most the interval depth cap, so that the witness is no longer than any
    interval may be.  ``instance`` must be a :class:`ForcingInstance` whose
    ``initial_u`` is a ``ClopenSet`` and whose ``queries`` are ``(str, ClopenSet)``
    pairs, and ``witness_length`` a natural number.
    """
    _require_kind(ForcingInstance, instance=instance)
    _require_kind(ClopenSet, initial_u=instance.initial_u)
    _require_kind((list, tuple), queries=instance.queries)
    for pair in instance.queries:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and isinstance(pair[0], str)
                and isinstance(pair[1], ClopenSet)):
            raise ValueError(f"queries must hold (str, ClopenSet) pairs, got {_echo(pair)}")
    _require_naturals(witness_length=witness_length)
    deepest, (u, *queries) = _lift(instance.initial_u, *(q for _, q in instance.queries))
    full = [(0, 1 << deepest)]
    u = _union(u)
    if u == full:
        raise ValueError("initial U must have nonempty complement")
    if witness_length < deepest:
        raise ValueError(
            f"witness length {witness_length} below the deepest interval ({deepest})"
        )
    _require_depth("witness length", witness_length)
    answers = []
    for (label, _), query in zip(instance.queries, queries):
        merged = _union(u + query)
        if merged == full:
            answers.append((label, "halts"))
        else:
            answers.append((label, "diverges"))
            u = merged
    final_u = _clopen(u, deepest)
    witness = final_u.leftmost_avoiding(witness_length)
    _guarantee(witness is not None, "forcing left no point outside U")
    return ForcingOutcome(
        answers=tuple(answers), final_u=final_u, witness_prefix=witness
    )
