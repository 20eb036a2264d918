"""Golden CLI transcripts: stdout, stderr and exit code, byte for byte.

`tests/golden/cli.json` pins the 16 acceptance commands, one text-mode
command for each epsilon and classification rendering path, one
refusal (exit 1) per command that checks a library precondition, one
`info` refusal per catalog gate (argument range, D >= 1, a <= -2), the
`section-dom` refusal of a missing flag, and the text renders of
`fano-class` and `section-dom --grid`.
`tests/golden/schemas.json` pins the `json.dumps` text of every published
`*_SCHEMA` in `alghyp.schemas`, key order included.
`tests/golden/work.json` pins, for each golden argv, its Python calls to
functions of the package (`tests.replay.work_counts`); a change that moves
work regenerates it and lists the counts that changed.
Regenerating any of them changes pinned behaviour; to do it on purpose, run
`PYTHONPATH=src python -m tests.test_cli_golden` from the repository root.
`PYTHONPATH=src python -m tests.replay` replays all three without pytest.
"""

import argparse
import json

import pytest

from tests.replay import (
    GOLDEN,
    SCHEMAS_GOLDEN,
    WORK_GOLDEN,
    published_schemas,
    transcript,
    work_counts,
)
from tests.test_acceptance import ACCEPTANCE_COMMANDS

EXTRA_COMMANDS = (
    ("classify", "Gr(2,4)", "--deg", "9"),
    ("classify", "P(2)xP(2)", "--deg", "4,9"),
    ("classify", "P(2)xP(2)", "--deg", "1,9"),
    ("classify", "P(2)xP(2)", "--deg", "1,9", "--json"),
    ("certify", "P(4)", "--deg", "7"),
    ("certify", "P(4)", "--deg", "6"),
    ("certify", "P(4)", "--deg", "6", "--json"),
    ("genus-bound", "P(4)", "--deg", "7"),
    ("genus-bound", "P(2)xP(2)", "--deg", "1,9"),
    ("genus-bound", "P(4)", "--deg", "6", "--json"),
    ("sweep", "P(3)", "--range", "3..6"),
)

REFUSALS = (
    ("classify", "P(3)", "--deg", "0"),
    ("fano-class", "--d", "1", "--N", "5"),
    ("line-count", "--n", "2"),
    ("schubert", "dual", "--k", "2", "--n", "4", "s[3]"),
    ("genus-bound", "P(2)", "--deg", "4,5"),
    ("certify", "P(3)", "--deg", "4,5"),
    ("section-dom", "--n", "0", "--d", "2"),
    ("sweep", "P(3)", "--range", "0..2"),
    ("info", "OG(2,6)"),
    ("info", "SG(3,8)"),
    ("info", "OG(3,5)"),
    ("info", "Gr(3,3)"),
    ("info", "P(0)"),
    ("info", "Fl(2,2;5)"),
    ("info", "Fl(1,5;5)"),
    ("section-dom", "--n", "2"),
)

# text renders that no other golden argv runs, last so that the earlier
# entries keep their places in the goldens
TEXT_RENDERS = (
    ("fano-class", "--d", "4", "--N", "7"),
    ("section-dom", "--grid"),
)


ALL_COMMANDS = ACCEPTANCE_COMMANDS + EXTRA_COMMANDS + REFUSALS + TEXT_RENDERS


@pytest.fixture(scope="module")
def golden():
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [tuple(e["argv"]) for e in entries] == list(ALL_COMMANDS)
    return dict(zip(ALL_COMMANDS, entries))


@pytest.fixture(scope="module")
def work():
    entries = json.loads(WORK_GOLDEN.read_text(encoding="utf-8"))
    assert [tuple(e["argv"]) for e in entries] == list(ALL_COMMANDS)
    return {tuple(e["argv"]): e["calls"] for e in entries}


def test_refusals_exit_1(golden):
    assert [golden[argv]["exit"] for argv in REFUSALS] == [1] * len(REFUSALS)


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=" ".join)
def test_transcript_is_byte_identical(golden, argv):
    got, want = transcript(argv), golden[argv]
    assert got["exit"] == want["exit"]
    assert got["stdout"].encode() == want["stdout"].encode()
    assert got["stderr"].encode() == want["stderr"].encode()


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=" ".join)
def test_python_calls_are_pinned(work, argv):
    assert work_counts(argv) == work[argv]


# argv that argparse itself refuses: a missing required flag, a missing
# subcommand and an unknown command
REJECTED = (("classify", "P(4)"), ("schubert",), ("frobnicate",))


def test_shared_parser_keeps_no_state_between_calls(golden):
    """Every golden argv, in reverse order and each after an argv that
    argparse rejects mid-parse, gives its pinned transcript in one process."""
    for i, argv in enumerate(reversed(ALL_COMMANDS)):
        assert transcript(REJECTED[i % len(REJECTED)])["exit"] == 1
        assert transcript(argv) == golden[argv], argv


HELP = (("--help",), ("info", "-h"), ("schubert", "mul", "-h"))


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_returns_0_in_process(golden, argv):
    """-h/--help prints to stdout and returns 0 rather than raising
    SystemExit, and leaves the shared parser fit for the next call."""
    got = transcript(argv)
    assert (got["exit"], got["stderr"]) == (0, "")
    assert got["stdout"].startswith("usage: alghyp")
    if len(argv) > 1:  # every command, schubert leaves included, documents the shared flags
        assert "--json      emit JSON" in got["stdout"]
    assert transcript(ALL_COMMANDS[0]) == golden[ALL_COMMANDS[0]]


def test_parser_is_built_once_per_process(monkeypatch):
    """After a first call that reaches argparse, the golden argv, which are
    plain, and the argv that argparse refuses or answers with help construct
    no ArgumentParser."""
    transcript(REJECTED[0])
    built = 0
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in ALL_COMMANDS + REJECTED + HELP:
        transcript(argv)
    assert built == 0


def test_published_schemas_are_byte_identical():
    assert published_schemas() == json.loads(SCHEMAS_GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([transcript(a) for a in ALL_COMMANDS], indent=1) + "\n", encoding="utf-8")
    SCHEMAS_GOLDEN.write_text(json.dumps(published_schemas(), indent=1) + "\n", encoding="utf-8")
    work = [{"argv": list(a), "calls": work_counts(a)} for a in ALL_COMMANDS]
    WORK_GOLDEN.write_text(json.dumps(work, indent=1) + "\n", encoding="utf-8")
