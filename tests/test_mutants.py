"""The rows of the mutation table still name code and tests that exist.

`python -m tests.mutants` runs the table; these tests check only that each
row's source text occurs exactly once in `src/alghyp`, in its module, and
that the test a row names is defined where its node id says.
"""

import ast

import pytest

from tests.mutants import MUTANTS, ROOT, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.module}: {m.source}")
def test_source_occurs_exactly_once(mutant):
    counts = {path.stem: path.read_text(encoding="utf-8").count(mutant.source) for path in SRC.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {mutant.module: 1}


@pytest.mark.parametrize("mutant", [m for m in MUTANTS if m.test], ids=lambda m: m.test)
def test_named_test_exists(mutant):
    # a killed row names the test its reason cites; an equivalent row, which
    # no test kills, names none
    assert not mutant.equivalent
    path, *names = mutant.test.split("::")
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    for name in names:
        scope = next(n for n in scope.body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name)
    assert scope.name.startswith(("Test", "test_"))
