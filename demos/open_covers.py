"""Open families of bounded measure: plain cover, decomposition, strong cover.

The plain cover adds intervals wherever every family member can still afford
them, so its union stays within the same budget epsilon while swallowing the
liminf.  With a granularity bound the liminf splits into disjoint clopen
pieces F_0, F_1, ... and can be covered piece by piece inside any strictly
larger budget epsilon'.
"""

from fractions import Fraction

import limitlab as ll

print("== an open family with budget 1/2 ==")
p = ll.OpenFamilyPresentation(
    epsilon=Fraction(1, 2),
    events=(ll.IntervalEvent(0, ll.tail(0), "0"),),
)
print("valid:", ll.validate(p).ok)
print("every member is the interval of '0', measure 1/2")

cover = ll.cover_open(p, lmax=3)
accepted = sum((end - start) * len(ops) for start, end, ops in cover.runs)
print("\naccepted pairs (interval, threshold):", accepted)
print("cover region:", cover.region.intervals, " measure:", cover.region.measure())
print("   ('1' was never affordable: it would push members to measure 1 > 1/2;")
print("    all sub-intervals of '0' are free no-ops and normalize back to '0')")

print("\n== a shrinking family and its decomposition ==")
q = ll.OpenFamilyPresentation(
    epsilon=Fraction(1, 2),
    events=(
        ll.IntervalEvent(0, ll.tail(0), "00"),
        ll.IntervalEvent(0, ll.single(0), "01"),  # present at index 0 only
    ),
    granularity=((0, 2), (1, 2)),  # events applying to n are never deeper than c(n)
)
print("valid:", ll.validate(q).ok)
print("U_0 =", ll.family_at(q, 0).intervals, " U_1 =", ll.family_at(q, 1).intervals)

parts = ll.decompose_liminf(q)
for i, part in enumerate(parts):
    print(f"F_{i} = {part.intervals or '(empty)'}  measure {part.measure()}")
lim = ll.liminf_family(q)
print("union of parts == liminf:", parts[0].union(parts[1]) == lim)
print("measures add up exactly:",
      sum((part.measure() for part in parts), Fraction(0)) == lim.measure())

print("\n== strong cover within an enlarged budget ==")
strong = ll.cover_open_strong(q, Fraction(3, 4))
print("region:", strong.region.intervals, " measure:", strong.region.measure())
print("slack budgets per piece (unconsumed, every piece is exactly clopen here):")
for i, budget in strong.slack_report:
    print(f"  F_{i}: up to {budget} extra measure allowed")
