"""Lower-bound formulas in action: where they bind and where they are slack.

The catalogue stores each formula with an applicability predicate; asking
check_bounds for a concrete (set, fold) pair returns one report per formula
whose hypotheses the pair satisfies.
"""

from sumsetlab import (
    IntegerSet,
    SumsetVariant,
    bound_catalogue,
    check_bounds,
    compute_dp,
)
from sumsetlab.intset import DilatedOddProgression

print("catalogue:", ", ".join(entry.id for entry in bound_catalogue()))
print()

print("Odd progressions meet the main formula exactly:")
for k in range(4, 8):
    A = DilatedOddProgression(1).reconstruct(k)
    for h in range(3, k):
        result = compute_dp(A, SumsetVariant.RESTRICTED_SIGNED, h)
        [report] = [r for r in check_bounds(A, h, result.cardinality) if r.id == "RSS_direct"]
        print(f"  k={k} h={h}: |fold| = {report.observed}, "
              f"bound = {report.bound}, slack = {report.slack}")
print()

print("A generic set exceeds the formula:")
A = IntegerSet((1, 4, 9, 16, 25))
h = 3
result = compute_dp(A, SumsetVariant.RESTRICTED_SIGNED, h)
for report in check_bounds(A, h, result.cardinality):
    print(f"  {report.id}: observed {report.observed} vs bound {report.bound} "
          f"(slack {report.slack}, met={report.met})")
print()

print("Mixed-parity sets of size h+1 get sharper case-specific bounds:")
for elems, h in [((2, 4, 5, 6, 8), 4), ((1, 2, 4, 6), 3), ((1, 2, 3, 5, 7), 4)]:
    A = IntegerSet(elems)
    result = compute_dp(A, SumsetVariant.RESTRICTED_SIGNED, h)
    applicable = [r for r in check_bounds(A, h, result.cardinality) if r.id.startswith("MixedParity")]
    for report in applicable:
        print(f"  {A} h={h}: {report.id} bound {report.bound}, "
              f"observed {report.observed}, met={report.met}")
