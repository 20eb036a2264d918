"""A one-token mutation sweep of `src/alghyp`, standard library only.

Run it from the repository root:

    python -m tests.sweep [--diff REV] [--module M] [--jobs N]

It walks the syntax tree of each module and makes one mutant per site:

- a comparison swapped: `<` and `<=`, `>` and `>=`, `==` and `!=`, `is`
  and `is not`, `in` and `not in`;
- an operator swapped: `+` and `-`, `*` and `//`, also in augmented
  assignments; `and` and `or`;
- an integer constant plus 1;
- a `not` dropped;
- the test of an `if` statement or of a conditional expression forced to
  True, and to False;
- `break` or `continue` replaced by `pass`.

`--module M` keeps one module (repeat it for more), and `--diff REV` keeps
only the sites on lines that `git diff REV` shows as added or changed.
The mutated module is written back with `ast.unparse`, so a copy that is
only unparsed runs first and must pass; it differs from the source only in
comments and layout.  Each mutant then runs `pytest -x -q tests` with a
copy of `src/` that holds it alone on `PYTHONPATH`, as `python -m
tests.mutants` does, and dies when a test fails or the run passes its time
limit.  `--jobs` runs up to 2 mutants at once.  Progress goes to stderr,
and stdout gets one JSON object: the counts, and each survivor with its
module, line, source line and edit.  A survivor is either killed by a new
test, recorded as an equivalent row of `tests/mutants.py` with its reason,
or shows code that can be removed.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import copy
import json
import re
import resource
import subprocess
import sys
import tempfile
import time

from tests.mutants import PYTEST, ROOT, SRC, _copy, _python

MAX_JOBS = 2
MEMORY = 2 << 30  # address space of one mutant's run, in bytes
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}


def _sites(tree: ast.Module):
    """Every (node index in `ast.walk` order, edit name, line) of `tree`."""
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield index, f"op{i}", node.lineno
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            yield index, "op", node.lineno
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield index, "plus1", node.lineno
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield index, "drop_not", node.lineno
        elif isinstance(node, (ast.If, ast.IfExp)):
            yield index, "test_true", node.test.lineno
            yield index, "test_false", node.test.lineno
        elif isinstance(node, (ast.Break, ast.Continue)):
            yield index, "pass", node.lineno


class _Replace(ast.NodeTransformer):
    def __init__(self, target, replacement):
        self.target, self.replacement = target, replacement

    def visit(self, node):
        return self.replacement if node is self.target else self.generic_visit(node)


def _mutate(tree: ast.Module, index: int, edit: str) -> tuple[str, str, str]:
    """The mutated module's text, with the site's code before and after."""
    tree = copy.deepcopy(tree)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.Compare):
        i = int(edit[2:])
        left = node.comparators[i - 1] if i else node.left
        part = ast.Compare(left, node.ops[i:i + 1], node.comparators[i:i + 1])
        before = ast.unparse(part)
        node.ops[i] = part.ops[0] = SWAPS[type(node.ops[i])]()
        after = ast.unparse(part)
    elif edit in ("test_true", "test_false"):
        before = ast.unparse(node.test)
        node.test = ast.Constant(edit == "test_true")
        after = ast.unparse(node.test)
    else:
        before = ast.unparse(node).splitlines()[0]
        if edit == "op":
            node.op = SWAPS[type(node.op)]()
            new = node
        elif edit == "plus1":
            new = ast.Constant(node.value + 1)
        elif edit == "drop_not":
            new = node.operand
        else:
            new = ast.Pass()
        if new is not node:
            tree = _Replace(node, new).visit(tree)
        after = ast.unparse(new).splitlines()[0]
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n", before, after


def _changed_lines(rev: str, module: str) -> set:
    """The lines of `module` that `git diff rev` adds or changes."""
    run = subprocess.run(
        ["git", "diff", "-U0", rev, "--", f"src/alghyp/{module}.py"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", run.stdout, re.M):
        lines.update(range(int(start), int(start) + int(count or 1)))
    return lines


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def _run(module: str, text: str, limit: float | None) -> str | None:
    """The first test that fails with `text` as `module`, "timeout" if the
    run passes `limit` seconds, or None if every test passes.  A run may
    use at most `MEMORY` bytes of address space."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(tmp)
        (src / "alghyp" / f"{module}.py").write_text(text, encoding="utf-8")
        try:
            run = _python(src, *PYTEST, timeout=limit, preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return "timeout"
    if run.returncode == 0:
        return None
    failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return failed[0].split(" - ")[0] if failed else f"pytest exit {run.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.sweep", description=__doc__.splitlines()[0])
    parser.add_argument("--diff", metavar="REV", help="keep the sites on lines changed since REV")
    parser.add_argument("--module", metavar="M", action="append", help="a module of src/alghyp")
    parser.add_argument("--jobs", metavar="N", type=int, default=1, help=f"mutants at once, 1 to {MAX_JOBS}")
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= MAX_JOBS:
        parser.error(f"--jobs must be 1 to {MAX_JOBS}")
    modules = args.module or sorted(p.stem for p in SRC.glob("*.py"))
    trees, mutants = {}, []
    for module in modules:
        path = SRC / f"{module}.py"
        if not path.is_file():
            parser.error(f"no module {module!r} in {SRC}")
        trees[module] = ast.parse(path.read_text(encoding="utf-8"))
        keep = _changed_lines(args.diff, module) if args.diff else None
        for index, edit, line in _sites(trees[module]):
            if keep is None or line in keep:
                mutants.append((module, index, edit, line))
    start = time.perf_counter()
    for module, tree in trees.items():
        failed = _run(module, ast.unparse(tree) + "\n", limit=None)
        if failed:
            print(f"the unparsed {module} fails: {failed}", file=sys.stderr)
            return 2
    limit = 5 * (time.perf_counter() - start) / len(trees) + 30
    print(f"{len(mutants)} mutants; unparsed copies pass", file=sys.stderr)

    def one(mutant):
        module, index, edit, line = mutant
        text, before, after = _mutate(trees[module], index, edit)
        return mutant, before, after, _run(module, text, limit)

    sources = {m: (SRC / f"{m}.py").read_text(encoding="utf-8").splitlines() for m in trees}
    survivors, killed = [], 0
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        for (module, _, edit, line), before, after, killer in pool.map(one, mutants):
            print(f"{'survived' if killer is None else 'killed'}: {module}:{line}: {before!r} -> {after!r}"
                  + ("" if killer is None else f" by {killer}"), file=sys.stderr)
            if killer is None:
                survivors.append({"module": module, "line": line, "source": sources[module][line - 1].strip(),
                                  "edit": edit, "before": before, "after": after})
            else:
                killed += 1
    json.dump({"diff": args.diff, "modules": modules, "mutants": len(mutants), "killed": killed,
               "survived": len(survivors), "survivors": survivors}, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
