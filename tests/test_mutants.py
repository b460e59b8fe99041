"""The committed mutant list (tests/mutants.py) parses, and each mutant still
applies: its old text occurs exactly once in its file, and the tests it
names exist."""

import re
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: (m.new or m.old).strip().split("\n")[0][:40])
def test_mutant_applies(mutant):
    assert mutant.expect in mutants.EXPECTS
    assert mutant.why or mutant.expect != "equivalent"
    assert mutant.old != mutant.new and mutant.tests
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1, mutant.old
    for node in mutant.tests:
        path, *names = node.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(def|class) {name}\b", text, re.M), node
