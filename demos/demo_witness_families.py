"""Witness families: the lemma-level lower bounds made tangible.

Each generator builds, for a set satisfying one lemma's hypotheses, the
explicit disjoint blocks of fold values the lemma's proof exhibits.  The
machine check then trusts only membership queries: parts must be pairwise
disjoint, lie inside the target sumset, avoid the baseline fold when one is
counted separately, and add up to the claimed total.
"""

from sumsetlab import IntegerSet, generate, ordering_guards_hold

CASES = [
    ("odd-subsums", IntegerSet((1, 3, 5, 7)), dict()),
    ("parity-split", IntegerSet((2, 4, 5, 6, 8)), dict(h=4, r=3)),
    ("mixed-parity-a3", IntegerSet((1, 2, 6, 8)), dict(h=3)),
    ("mixed-parity-a2", IntegerSet((1, 2, 3, 5, 7)), dict(h=4)),
    ("all-odd-extension", IntegerSet((1, 3, 5, 9)), dict(h=3)),
]

for lemma, A, kwargs in CASES:
    family = generate(lemma, A, **kwargs)
    checks = family.verify()
    guards = ordering_guards_hold(family)
    print(f"{lemma}: A = {A}, fold = {family.fold}, target = {family.target_kind}")
    for part in family.parts:
        branch = f" [{part.branch}]" if part.branch else ""
        print(f"  {part.name:<16} size {part.size:2d}{branch}: "
              + ",".join(str(v) for v in part.values))
    print(f"  exhibits {family.claimed_total} of the target's "
          f"{checks.target_cardinality} values")
    print(f"  disjoint={checks.disjoint} contained={checks.contained} "
          f"total_matches={checks.total_matches} ordering_guards={guards}")
    print()

print("A family whose checks fail would be a counterexample to its lemma;")
print("none exists, so the suite treats any failure as a falsification event.")
