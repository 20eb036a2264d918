"""The mutation sweep lists the one-token sites it documents and edits one
site at a time; running the mutants is left to `python -m tests.sweep`."""

import ast

import pytest

from tests import sweep

SNIPPET = """\
def f(a, b):
    if a < b and not a:
        return a + 1
    for x in b:
        break
    return a * b if a is None else b
"""


def test_sites_cover_every_documented_edit():
    sites = [(edit, line) for _, edit, line in sweep._sites(ast.parse(SNIPPET))]
    assert sorted(sites) == sorted([
        ("test_true", 2), ("test_false", 2), ("op", 2), ("op0", 2), ("drop_not", 2),
        ("op", 3), ("plus1", 3), ("pass", 5),
        ("test_true", 6), ("test_false", 6), ("op", 6), ("op0", 6),
    ])


def same_code(a, b):
    return ast.dump(ast.parse(a)) == ast.dump(ast.parse(b))


@pytest.mark.parametrize("edit, at, before, after, old, new", [
    ("op0", 2, "a < b", "a <= b", "a < b and", "a <= b and"),
    ("op", 2, "a < b and not a", "a < b or not a", "and not", "or not"),
    ("drop_not", 2, "not a", "a", "and not a", "and a"),
    ("plus1", 3, "1", "2", "a + 1", "a + 2"),
    ("pass", 5, "break", "pass", "break", "pass"),
    ("test_false", 6, "a is None", "False", "if a is None", "if False"),
    ("op0", 6, "a is None", "a is not None", "a is None", "a is not None"),
])
def test_one_site_is_edited(edit, at, before, after, old, new):
    # compared as syntax trees, since `ast.unparse` places parentheses by
    # Python version
    tree = ast.parse(SNIPPET)
    index = next(i for i, e, line in sweep._sites(tree) if (e, line) == (edit, at))
    text, got_before, got_after = sweep._mutate(tree, index, edit)
    assert same_code(got_before, before) and same_code(got_after, after)
    assert same_code(text, SNIPPET.replace(old, new))
    assert same_code(ast.unparse(tree), SNIPPET)  # the tree itself is not edited


def test_jobs_above_two_are_refused(capsys):
    with pytest.raises(SystemExit) as exit:
        sweep.main(["--jobs", "3"])
    assert exit.value.code == 2
    assert "--jobs must be 1 to 2" in capsys.readouterr().err
