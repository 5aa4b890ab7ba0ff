"""Finite forcing over clopen query sets, low-basis style.

The simulator keeps an open set U with nonempty complement and answers a list
of queries in order.  A query set T is answered "halts" when U together with
T already covers the whole space (so every point outside U is in T), and
"diverges" otherwise, in which case T is folded into U.  Either way the
answer is forced: it holds for every point of the final complement, and in
particular for the extracted leftmost witness.  The answers are a function of
the instance alone, never of the witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cantor import ClopenSet, max_interval_depth


@dataclass(frozen=True)
class ForcingInstance:
    initial_u: ClopenSet
    queries: tuple[tuple[str, ClopenSet], ...]  # (label, query set)


@dataclass(frozen=True)
class ForcingOutcome:
    answers: tuple[tuple[str, str], ...]  # (label, "halts" | "diverges")
    final_u: ClopenSet
    witness_prefix: str


def _max_depth(instance: ForcingInstance) -> int:
    depths = [len(x) for x in instance.initial_u.intervals]
    for _, query in instance.queries:
        depths.extend(len(x) for x in query.intervals)
    return max(depths, default=0)


def force(instance: ForcingInstance, witness_length: int) -> ForcingOutcome:
    """Decide every query while keeping the complement nonempty.

    Requires a witness length at least the deepest interval in play, so that
    the leftmost string avoiding the final U is guaranteed to exist, and at
    most the interval depth cap, so that the witness is no longer than any
    interval may be.
    """
    if instance.initial_u.is_full():
        raise ValueError("initial U must have nonempty complement")
    deepest = _max_depth(instance)
    if witness_length < deepest:
        raise ValueError(
            f"witness length {witness_length} below the deepest interval ({deepest})"
        )
    cap = max_interval_depth()
    if witness_length > cap:
        raise ValueError(
            f"witness length {witness_length} exceeds the interval depth cap {cap}"
        )
    u = instance.initial_u
    answers = []
    for label, query in instance.queries:
        merged = u.union(query)
        if merged.is_full():
            answers.append((label, "halts"))
        else:
            answers.append((label, "diverges"))
            u = merged
        assert not u.is_full()
    witness = u.leftmost_avoiding(witness_length)
    assert witness is not None
    return ForcingOutcome(
        answers=tuple(answers), final_u=u, witness_prefix=witness
    )
