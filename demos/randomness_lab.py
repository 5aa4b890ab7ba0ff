"""The toy complexity lab: exact description lengths and deficiency analysis.

The reference machine has two modes: "00"+q prints q, and "01"+q fills q
periodically out to the condition.  It is small enough that shortest-program
lengths are exact, and rich enough that the conditional complexity genuinely
depends on the condition.
"""

from fractions import Fraction

import limitlab as ll

print("== running the reference machine ==")
for program, condition in [("00101", 0), ("010", 4), ("0110", 5), ("11", 0)]:
    out = ll.run_m0(program, condition)
    print(f"  run({program!r}, condition={condition}) -> {out!r}")

print("\n== exact shortest descriptions ==")
for x, n in [("0000", 4), ("0101", 4), ("01", 0), ("", 0)]:
    print(f"  C({x!r} | {n}) = {ll.exact_complexity(x, n)}")
print("  (periodic strings compress; everything else costs its length plus two)")

print("\n== the full table and the counting bound ==")
table = ll.complexity_table(6, 6)
print(f"table entries: {len(table.entries)}")
print("counting-bound violations:", ll.counting_violations(table) or "none")

print("\n== deficiency along a prefix ==")
omega = "001001"
report = ll.deficiency_report(table, omega, horizon=6, c=1)
print("prefix        d   dbar   (dbar = least deficiency over all extensions up to the horizon)")
for x, d, dbar in report.per_prefix:
    print(f"  {x!r:10} {d:3} {dbar:5}")

print("\n== which prefix lengths stay incompressible ==")
rnd = ll.randomness_report(table, omega, c=0)
print(f"lengths n with C(prefix_n) >= n: {rnd.qualifying}, largest = {rnd.largest}")

print("\n== from compressible strings to a small open family ==")
family = ll.deficiency_family(table, c=1, n_range=(2, 6))
print("budget epsilon =", family.epsilon)
for n in (4, 5, 6):
    member = ll.family_at(family, n)
    print(f"  level {n}: {len(member.intervals)} intervals, measure {member.measure()}")

cover = ll.cover_open(family, lmax=6)
print("one open cover of the whole family's liminf:",
      f"{len(cover.region.intervals)} intervals, measure {cover.region.measure()}",
      f"<= {family.epsilon}")

print("\n== and back: ordinal coding of a covered level ==")
levels = ll.OpenFamilyPresentation(
    epsilon=Fraction(1, 4),
    events=(
        ll.IntervalEvent(0, ll.tail(3), "000"),
        ll.IntervalEvent(0, ll.tail(3), "110"),
    ),
    granularity=((3, 3),),
)
bounds = ll.cover_to_complexity_bounds(levels, c=2)
print("covered level-3 strings get code lengths:", bounds)
print("   (two covered strings: naming one by its ordinal takes 1 bit)")
