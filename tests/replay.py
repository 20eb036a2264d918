"""Replay the CLI goldens and the published schemas with the standard library only.

    PYTHONPATH=src python -m tests.replay

Run from the repository root, under any supported interpreter: it needs
no pytest.  It replays every argv of `tests/golden/cli.json` through
`alghyp.cli.main` in process, comparing stdout, stderr and exit code byte
for byte; compares the `json.dumps` text of every published `*_SCHEMA`
with `tests/golden/schemas.json`; and compares the Python calls that each
golden argv makes with `tests/golden/work.json`.  It prints one line, the
interpreter version, the entries replayed and the entries that differ,
and exits 1 if any differ.  `tests/test_cli_golden.py` runs the same
comparisons under pytest.
"""

import contextlib
import io
import json
import os
import pathlib
import platform
import sys

import alghyp
from alghyp import schemas
from alghyp.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"
SCHEMAS_GOLDEN = GOLDEN.with_name("schemas.json")
WORK_GOLDEN = GOLDEN.with_name("work.json")
PACKAGE = os.path.dirname(alghyp.__file__) + os.sep


def transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def work_counts(argv):
    """The Python calls that `main(argv)` makes to functions defined under
    the package, as {"module.name": count} sorted by key.

    A `sys.setprofile` hook counts each "call" event whose code object lies
    in the package directory, keyed by the module without its `alghyp.`
    prefix and the code's `co_name`.  Names that contain '<' (the
    comprehensions and generator expressions, which Python 3.12 inlines)
    are skipped.  Only Python calls count: work moved into a builtin, or
    inlined into its caller, reads as fewer calls, so the ring kernels
    keep their partial-filling pins as well.
    """
    counts, keys = {}, {}

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code not in keys:
            keys[code] = None
            if code.co_filename.startswith(PACKAGE) and "<" not in code.co_name:
                module = frame.f_globals["__name__"].partition(".")[2]
                keys[code] = f"{module}.{code.co_name}"
        key = keys[code]
        if key is not None:
            counts[key] = counts.get(key, 0) + 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        transcript(argv)
    finally:
        sys.setprofile(outer)
    return dict(sorted(counts.items()))


def published_schemas():
    return {name: json.dumps(value) for name, value in vars(schemas).items() if name.endswith("_SCHEMA")}


def replay():
    """(entries, differing) over the CLI transcripts, the schema texts and
    the call counts."""
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differing = sum(transcript(e["argv"]) != e for e in entries)
    want = json.loads(SCHEMAS_GOLDEN.read_text(encoding="utf-8"))
    got = published_schemas()
    differing += sum(got.get(name) != text for name, text in want.items()) + len(got.keys() - want.keys())
    work = json.loads(WORK_GOLDEN.read_text(encoding="utf-8"))
    differing += sum(work_counts(e["argv"]) != e["calls"] for e in work)
    differing += [e["argv"] for e in work] != [e["argv"] for e in entries]
    return len(entries) + len(want) + len(work), differing


if __name__ == "__main__":
    entries, differing = replay()
    print(f"python {platform.python_version()}: {entries} entries, {differing} differing")
    sys.exit(1 if differing else 0)
