"""The pins of `tests/coverage.py` still name lines that exist.

`python -m tests.coverage` runs tier-1 under a line hook; these tests
check only that each pinned text is a line of its module, once stripped,
and that no text is pinned twice.
"""

import pytest

from tests.coverage import SRC, UNRUN


@pytest.mark.parametrize("pin", UNRUN, ids=lambda p: f"{p.module}: {p.text}")
def test_pinned_text_is_a_line_of_its_module(pin):
    lines = {line.strip() for line in (SRC / f"{pin.module}.py").read_text(encoding="utf-8").splitlines()}
    assert pin.text in lines
    assert pin.reason


def test_no_text_is_pinned_twice():
    keys = [(pin.module, pin.text) for pin in UNRUN]
    assert len(keys) == len(set(keys))
