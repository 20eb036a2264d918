"""The rows of the mutation table still name code that exists.

`python -m tests.mutants` runs the table; this test checks only that each
row's source text occurs exactly once in `src/alghyp`, in its module.
"""

import pytest

from tests.mutants import MUTANTS, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.module}: {m.source}")
def test_source_occurs_exactly_once(mutant):
    counts = {path.stem: path.read_text(encoding="utf-8").count(mutant.source) for path in SRC.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {mutant.module: 1}
