"""The lines of `src/alghyp` that tier-1 never runs, standard library only.

Run it from the repository root:

    python -m tests.coverage

It runs the tier-1 suite (`pytest -q -p no:cacheprovider tests`) in this
process under a `sys.settrace` hook that records the lines run in the
files of `src/alghyp`, and compares them with the lines that the
compiled modules hold (`co_lines` of every code object).  The package is
first imported under the hook, so its module-level lines count.  It
prints each line never run as `path:line: source`, with the reason when
the line is pinned in `UNRUN` below, and exits 1 if an unrun line is not
pinned, if a pinned text matches no unrun line (it now runs, or is
gone), or if the suite fails.  Code run only in a subprocess (`python -m
alghyp`, the mutation tools' copies) counts as unrun; the subprocesses
get the same `src` on `PYTHONPATH`.  Line numbers move with every edit,
so a pin names its module and the line's stripped source text; a pin
matches every unrun line of that text in the module.  The line sets
differ a little between Python versions, so CI runs it on one.
"""

from __future__ import annotations

import os
import pathlib
import sys
import threading
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "alghyp"


class Unrun(NamedTuple):
    module: str
    text: str
    reason: str


SUBPROCESS = "runs only in `python -m alghyp`, which tests/test_cli.py starts as a subprocess"

UNRUN = (
    Unrun("__main__", "import sys", SUBPROCESS),
    Unrun("__main__", "from .cli import main", SUBPROCESS),
    Unrun("__main__", "sys.exit(main())", SUBPROCESS),
    Unrun(
        "cli",
        "sys.exit(main())",
        "the `__main__` guard of cli.py runs only when tests/test_cli.py starts the file as a script",
    ),
    Unrun(
        "chern",
        'raise AssertionError("top Chern coefficients do not sum to d^(d+1)")',
        "the guard of `top_chern_sym`, which a correct expansion never trips (its row in"
        " tests/mutants.py, the test forced to False, is equivalent for that reason)",
    ),
)


def _code_lines(code) -> set[int]:
    """The line numbers of a code object and of the code nested in it;
    line 0, which some versions give a module's first instruction, is no
    source line."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def executable_lines() -> dict[pathlib.Path, set[int]]:
    return {
        path: _code_lines(compile(path.read_text(), str(path), "exec"))
        for path in sorted(SRC.glob("*.py"))
    }


def run_suite() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under the line hook; the exit status and the lines run."""
    import pytest

    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    # the suite's subprocesses import the package from the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC.parent))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        import alghyp.cli  # noqa: F401  (imports every module of the package)

        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main() -> int:
    status, ran = run_suite()
    pinned = {(pin.module, pin.text): pin.reason for pin in UNRUN}
    used, unpinned = set(), 0
    for path, lines in executable_lines().items():
        source = path.read_text().splitlines()
        module = path.stem
        for line in sorted(lines - ran.get(str(path), set())):
            text = source[line - 1].strip()
            reason = pinned.get((module, text))
            if reason is None:
                unpinned += 1
                reason = "NOT PINNED"
            else:
                used.add((module, text))
            print(f"{path.relative_to(ROOT)}:{line}: {text}  [{reason}]")
    stale = [key for key in pinned if key not in used]
    for module, text in stale:
        print(f"pinned but run or gone: {module}: {text}")
    print(f"{unpinned} unrun lines not pinned, {len(stale)} stale pins, suite exit {status}")
    return 1 if unpinned or stale or status else 0


if __name__ == "__main__":
    sys.exit(main())
