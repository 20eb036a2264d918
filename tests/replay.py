"""Replay the CLI goldens and the published schemas with the standard library only.

    PYTHONPATH=src python -m tests.replay

Run from the repository root, under any supported interpreter: it needs
no pytest.  It replays every argv of `tests/golden/cli.json` through
`alghyp.cli.main` in process, comparing stdout, stderr and exit code byte
for byte, and compares the `json.dumps` text of every published
`*_SCHEMA` with `tests/golden/schemas.json`.  It prints one line, the
interpreter version, the entries replayed and the entries that differ,
and exits 1 if any differ.  `tests/test_cli_golden.py` runs the same
comparisons under pytest.
"""

import contextlib
import io
import json
import pathlib
import platform
import sys

from alghyp import schemas
from alghyp.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"
SCHEMAS_GOLDEN = GOLDEN.with_name("schemas.json")


def transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def published_schemas():
    return {name: json.dumps(value) for name, value in vars(schemas).items() if name.endswith("_SCHEMA")}


def replay():
    """(entries, differing) over the CLI transcripts and the schema texts."""
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differing = sum(transcript(e["argv"]) != e for e in entries)
    want = json.loads(SCHEMAS_GOLDEN.read_text(encoding="utf-8"))
    got = published_schemas()
    differing += sum(got.get(name) != text for name, text in want.items()) + len(got.keys() - want.keys())
    return len(entries) + len(want), differing


if __name__ == "__main__":
    entries, differing = replay()
    print(f"python {platform.python_version()}: {entries} entries, {differing} differing")
    sys.exit(1 if differing else 0)
