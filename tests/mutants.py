"""Source mutants the test suite must kill, and a runner that tries each one.

Each mutant replaces one exact text, which occurs once in its file, and names
the tests expected to kill it.  `expect` is what the last run found:

- "killed": the named tests fail on the mutant;
- "survived": they pass.  A surviving mutant stays listed, and is reported,
  with what is known of why in `why`;
- "equivalent": it changes only how fast the code runs, never a result,
  and none of its tests can tell; `why` says why in one line.

The runner copies the committed tree (`git archive HEAD`) into a temporary
directory, applies one mutant at a time to the copy, runs only its named
tests there, and prints killed or survived for each.  It exits 1 if any
outcome differs from `expect` ("equivalent" expects survived).  It tests
committed code only, so commit first:

    python tests/mutants.py

tests/test_mutants.py checks, in the tier-1 suite, that this list parses
and that each old text still occurs exactly once, so a refactor that moves
mutated code fails there instead of silently retiring a mutant.  A change
to the walk, the fold, the decoder, a guard or a hypothesis predicate adds
its own mutants here.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

EXPECTS = ("killed", "survived", "equivalent")


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids
    expect: str
    why: str = ""


SEARCH = "src/sumsetlab/search.py"
ENGINE = "src/sumsetlab/engine.py"
WITNESS = "src/sumsetlab/witness.py"
BOUNDS = "src/sumsetlab/bounds.py"
FLOORS = "tests/test_search.py::TestPruneFloors::test_floors_are_sound_and_strict"
SLACK = "tests/test_search.py::TestPruneFloors::test_floor_slack_is_pinned"
DEEP = "tests/test_search.py::TestPruneFloors::test_deep_floors_change_no_report"
PRUNES = "tests/test_search.py::TestPruneFloors::test_each_floor_prunes"
BRUTE = "tests/test_search.py::TestMinimize::test_matches_brute_force"
SHARDS = "tests/test_search.py::TestShardSplit"
SEEDS = "tests/test_search.py::TestSeedSet"
CPU_CAP = "tests/test_search.py::TestPoolSizing::test_pool_is_capped_at_the_cpu_count"
SMALL = "tests/test_search.py::TestPoolSizing::test_small_space_never_starts_a_pool"
ROUTES = "tests/test_engine.py::TestDualRoutes::test_routes_agree_on_seeded_random_sets"
WIDE = "tests/test_engine.py::TestDualRoutes::test_routes_agree_on_wide_sets"
MOVED = "tests/test_witness.py::TestOrderingGuards::test_moved_part_fails"
SPLIT = "tests/test_bounds.py::TestApplicability::test_mixed_parity_split_is_exhaustive_and_exclusive"
CASE2 = "tests/test_bounds.py::TestApplicability::test_mixed_parity_partition"
CASE3 = "tests/test_bounds.py::TestApplicability::test_mixed_parity_case3_partition"
CASE1 = "tests/test_bounds.py::TestApplicability::test_case1_needs_shared_parity_prefix"
FOUR_FOLDS = "tests/test_witness.py::TestMixedParityA2::test_needs_four_folds"

MUTANTS = (
    # search.layer_floor, one branch at a time: each raises a floor by one
    # past what is proven.  Both floors are attained (a pinned slack of 0),
    # at j = 1 for every p and at j = p = 2.
    Mutant(SEARCH, "        return 2 * p\n", "        return 2 * p + 1\n",
           (SLACK, FLOORS, BRUTE), "killed"),
    Mutant(SEARCH, "    return 2 * j * (p - j + 1) - 1\n", "    return 2 * j * (p - j + 1)\n",
           (SLACK, FLOORS, BRUTE), "killed"),
    # The deep lift's test prunes on a floor equal to best.  For j >= 3 the
    # smallest slack the pinned sweep finds is 1, at j = p = 3, so no
    # completion it covers meets the floor exactly; but that is not a proof.
    Mutant(SEARCH, "if lifted and lifted.bit_count() + floor[i] > best:",
           "if lifted and lifted.bit_count() + floor[i] >= best:", (BRUTE, DEEP, SHARDS),
           "survived", "no tested completion meets a j >= 3 floor exactly"),
    # The inline tests of layers h - 1 and h - 2 go, one at a time: the walk
    # only prunes less, so only the test that raises each floor sees it.
    Mutant(SEARCH, "            if u and u.bit_count() + floor[1] > best:\n                continue\n",
           "", (PRUNES,), "killed"),
    Mutant(SEARCH, "            if v and v.bit_count() + floor[2] > best:\n                continue\n",
           "", (PRUNES,), "killed"),
    # The deep loop ends one layer early, so the level below reads a stale
    # layer h - p.
    Mutant(SEARCH, "range(max(2, min(p, h)) + 1)", "range(max(2, min(p - 1, h)) + 1)",
           (BRUTE, SHARDS), "killed"),
    # The fused loop's level-1 floor drops from |below| + 1 to |below|.
    Mutant(SEARCH, "below.bit_count() >= best", "below.bit_count() > best", (BRUTE, SHARDS),
           "equivalent", "a lower floor prunes less but never cuts a tie"),
    # The fused loop's test on top, run after the one on below, goes.
    Mutant(SEARCH, "            if top.bit_count() > best:\n                continue\n", "",
           (BRUTE, SHARDS), "equivalent",
           "each set counts at least |top|, so the inner loop rejects it itself"),
    # The seed set, where the odd progression does not fit in the space.
    Mutant(SEARCH, "2 * k - 1 <= self.max_element", "2 * k - 1 <= self.max_element + 1",
           (SEEDS,), "killed"),
    # The seed set, where h = k.
    Mutant(SEARCH, "self.h < k and", "self.h <= k and", (SEEDS,), "killed"),
    # The pool size forgets the usable CPUs.
    Mutant(SEARCH, "len(ranges), usable_cpus())", "len(ranges))", (CPU_CAP,), "killed"),
    # The pool gate lets a one-worker search split the space and probe the
    # CPUs, though no pool starts.
    Mutant(SEARCH, "if pool_size > 1:\n        ranges", "if pool_size > 0:\n        ranges",
           (SMALL,), "killed"),
    # A search with no pool walks the space once, but stops one value of the
    # largest free element short.
    Mutant(SEARCH, "space.choose_k, space.max_element)]", "space.choose_k, space.max_element - 1)]",
           (BRUTE,), "killed"),
    # The restricted fold stops one layer short of h - rest, the lowest
    # layer the elements still to fold can lift to the top.
    Mutant(ENGINE, "range(h, max(1, h - rest) - 1, -1)", "range(h, max(1, h - rest + 1) - 1, -1)",
           (ROUTES,), "killed"),
    # The decoder counts a chunk's offset in bytes, not bits: only a table
    # wider than one 4096-bit chunk reads wrong values.
    Mutant(ENGINE, "base = 8 * start - 1 - offset", "base = start - 1 - offset",
           (WIDE,), "killed"),
    # The witness chain guard orders the blocks only, not the clusters
    # between them.
    Mutant(WITNESS, "for p in (block, *clusters[i : i + 1])]", "for p in (block,)]",
           (MOVED,), "killed"),
    # bounds.mixed_parity_case, the one split behind the seven MixedParity
    # entries and both mixed-parity witnesses.
    Mutant(BOUNDS, "2 * e[0] + e[1]", "e[0] + e[1]", (CASE2,), "killed"),
    Mutant(BOUNDS, "if h < 4:", "if h < 3:", (FOUR_FOLDS, SPLIT), "killed"),
    Mutant(BOUNDS, 'return "1" if any(differs[2:]) else None', 'return "1"', (CASE1, SPLIT),
           "killed"),
    Mutant(BOUNDS, 'if h == 4 else "3_ap_even"', 'if h <= 5 else "3_ap_even"', (CASE3,), "killed"),
    Mutant(BOUNDS, "if e[1] % 2:", "if not e[1] % 2:", (CASE3,), "killed"),
)


def committed_tree(root: Path, dest: Path) -> None:
    """Extract HEAD's tracked files under dest."""
    data = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=root,
                          capture_output=True, check=True).stdout
    # The "data" filter exists from Python 3.12 (and in some 3.10/3.11
    # patch releases); without it extractall warns on 3.12-3.13.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **safe)


def run(mutant: Mutant, tree: Path) -> str:
    """Apply one mutant to tree, run its tests, restore the file; returns
    "killed" or "survived"."""
    path = tree / mutant.path
    source = path.read_text(encoding="utf-8")
    if source.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.path}: old text must occur once: {mutant.old!r}")
    path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, capture_output=True, timeout=900,
        )
    except subprocess.TimeoutExpired:
        return "killed"  # a hang fails the tests too
    finally:
        path.write_text(source, encoding="utf-8")
    if done.returncode not in (0, 1):
        raise SystemExit(f"pytest could not run {mutant.tests}:\n{done.stdout.decode()[-2000:]}")
    return "survived" if done.returncode == 0 else "killed"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        committed_tree(root, tree)
        for i, mutant in enumerate(MUTANTS):
            outcome = run(mutant, tree)
            want = "survived" if mutant.expect == "equivalent" else mutant.expect
            wrong += outcome != want
            note = f" ({mutant.why})" if mutant.why else ""
            flag = "" if outcome == want else f"  <-- listed as {mutant.expect}"
            print(f"{i}: {outcome}: {mutant.path}: {mutant.old.strip()!r} -> "
                  f"{mutant.new.strip()!r}{note}{flag}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
