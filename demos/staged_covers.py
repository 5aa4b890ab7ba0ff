"""Staged families, their exact liminf, and the acceptable-operation covers.

A presentation is a finite event log: single(n) events touch one index, tail(N)
events touch every index from N on.  Because logs are finite the family is
eventually constant, so its liminf is computable exactly and every cover can
be checked against it.
"""

from fractions import Fraction

import limitlab as ll


def ceil_log2_reciprocal(value: Fraction) -> int:
    """ceil(-log2 value) for 0 < value <= 1: the least m with value * 2^m >= 1."""
    m = 0
    while value * 2**m < 1:
        m += 1
    return m


print("== a staged set family ==")
p = ll.SetFamilyPresentation(
    k=2,
    universe=("0", "10", "11"),
    events=(
        ll.SetEvent(0, ll.tail(0), "0"),     # '0' joins every U_n
        ll.SetEvent(0, ll.single(0), "10"),  # '10' visits U_0 only
        ll.SetEvent(1, ll.tail(2), "11"),    # '11' joins from index 2 on
    ),
)
print("valid:", ll.validate(p).ok)
print("breakpoints:", ll.breakpoints(p))
for n in range(4):
    print(f"  U_{n} = {sorted(ll.family_at(p, n))}")
print("liminf =", sorted(ll.liminf_family(p)), " (the members from the last breakpoint on)")

print("\n== covering the liminf with one small set ==")
cover = ll.cover_sets(p)
print("runs (start, end, elements accepted at every threshold in [start, end)):")
for run in cover.runs:
    print("  ", run)
print("the same log per threshold (threshold, element):")
for start, end, ops in cover.runs:
    for n in range(start, end):
        for u in ops:
            print("  ", (n, u))
print("cover elements:", sorted(cover.elements), f" (bound: fewer than 2^{p.k} = {2**p.k})")
print("contains the liminf:", ll.liminf_family(p) <= cover.elements)

print("\n== a staged semimeasure family ==")
q = ll.SemimeasureFamilyPresentation(
    events=(
        ll.ValueEvent(0, ll.tail(0), "0", Fraction(1, 4)),
        ll.ValueEvent(0, ll.single(3), "0", Fraction(1, 2)),  # a bump at index 3 only
        ll.ValueEvent(1, ll.tail(1), "11", Fraction(1, 8)),
    )
)
print("valid:", ll.validate(q).ok)
print("m_3 =", ll.family_at(q, 3), " (index 3 sees the bump)")
print("liminf =", ll.liminf_family(q))

grid = [Fraction(n, 8) for n in range(9)]
smcover = ll.cover_semimeasure(q, grid)
print("cover values:", dict(smcover.values))
print("total mass:", smcover.total_mass(), "<= 1")

print("\n== the tree variant raises prefixes too ==")
t = ll.SemimeasureFamilyPresentation(
    events=(ll.ValueEvent(0, ll.tail(0), "00", Fraction(1, 2)),), tree=True
)
tcover = ll.cover_semimeasure(t, grid)
print("cover values:", dict(sorted(tcover.values.items())))
print("   (raising '00' forces '0' and the root up to the children's sum)")

print("\n== description lengths from a semimeasure ==")
lengths = {u: ceil_log2_reciprocal(v) for u, v in smcover.values.items() if v > 0}
print("flat cover values:", dict(sorted(smcover.values.items())))
print("ceil(-log2 value):", dict(sorted(lengths.items())))
