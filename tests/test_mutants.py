"""The mutation catalogue of ``tests/mutants.py`` against ``src/`` and the
checked-in kill matrix.  The full run, ``python tests/mutants.py``, stays
out of tier-1."""

import ast
import json
from collections import Counter

import pytest

from mutants import CATALOGUE, EQUIVALENT, OUTPUT, ROOT


@pytest.mark.parametrize("entry", CATALOGUE, ids=[entry[3] for entry in CATALOGUE])
def test_old_text_occurs_once_and_the_mutant_compiles(entry):
    module, old, new, _, files = entry
    text = (ROOT / "src" / "quivercert" / module).read_text(encoding="utf-8")
    assert text.count(old) == 1
    assert new != old
    compile(text.replace(old, new), module, "exec")
    assert files and all((ROOT / "tests" / name).is_file() for name in files)


def test_catalogue_covers_every_module_that_defines_a_function():
    labels = [entry[3] for entry in CATALOGUE]
    assert len(set(labels)) == len(labels) >= 60
    assert set(EQUIVALENT) <= set(labels)
    modules = Counter(entry[0] for entry in CATALOGUE)
    for path in (ROOT / "src" / "quivercert").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.FunctionDef) for node in ast.walk(tree)):
            assert modules[path.name] >= 3, path.name


def test_checked_in_matrix_is_the_catalogue_s():
    # every mutant in catalogue order, and every survivor listed as equivalent
    rows = json.loads(OUTPUT.read_text(encoding="utf-8"))["mutants"]
    assert [(row["module"], row["old"], row["new"], row["label"], tuple(row["files"]))
            for row in rows] == list(CATALOGUE)
    for row in rows:
        assert row["killed"] == ("killed" in row["files"].values())
        assert row["equivalent"] == (None if row["killed"] else EQUIVALENT[row["label"]])
