"""The mutation table: small edits of `src/alghyp` that the suite must fail.

Each row names a module of `src/alghyp`, a source text that occurs in it
exactly once, its replacement, and why the suite must fail on the mutant,
or why the mutant is equivalent (behaves like the code in every case).  A
row that the suite must fail may name, as `test`, the pytest node id of
the test its reason cites.
Run it from the repository root:

    python -m tests.mutants

It first runs `pytest -x -q tests` on an unedited copy of `src/`, which
must pass and must be the copy that the tests import.  Then, for each row,
it copies `src/` to a temporary directory, applies the replacement, and
runs the same command with that copy alone on `PYTHONPATH`; for a row that
names a test, it also runs that node alone on the mutant.  It prints each
row's outcome, with the first test that failed, and exits 1 if a row not
marked equivalent survives, if the test a killed row names does not fail
on its mutant, or if an equivalent row is killed (a reason is then
wrong); it exits 2 if the unedited copy fails.  Tier-1 tests check only
that each source text occurs exactly once and that each named test
exists, so the table fails fast when the code moves.  Add a row here for
each mutation check a change runs; `python -m tests.sweep` finds the
candidates.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "alghyp"
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests")


class Mutant(NamedTuple):
    module: str
    source: str
    replacement: str
    why: str
    equivalent: bool = False
    test: str | None = None  # the node id of the test that `why` cites


MUTANTS = (
    Mutant(
        "grassmann",
        "m - cum if cum < m else 0",
        "0",
        "with no lattice cut a later letter may outrun the one before, so"
        " products gain coefficients that the Schur oracle does not have",
    ),
    Mutant(
        "grassmann",
        "hi = left - cut",
        "hi = left",
        "dropping the cut from the row's upper bound admits the same"
        " fillings that break the lattice word; products differ from the oracle",
    ),
    Mutant(
        "grassmann",
        "range(left - after if left > after else 0, hi + 1)",
        "range(0, hi + 1)",
        "without the floor a row may leave more boxes than the rows below"
        " can take; every product stays the same, but the pinned partial"
        " fillings and dead ends of `_lr_stage` grow",
    ),
    Mutant(
        "grassmann",
        "key = mu if final else (mu, nu)",
        "key = mu",
        "a stage that is not the last must key its states by (shape,"
        " shape before); a bare shape cannot be read as a state by the next stage",
    ),
    Mutant(
        "grassmann",
        "key = shape if final else (shape, nu)",
        "key = shape",
        "the bottom row of a stage that is not the last must key its"
        " states by (shape, shape before), as the rows above it do; a bare"
        " shape cannot be read as a state by the next stage",
    ),
    Mutant(
        "grassmann",
        "if cum >= m:",
        "if True:",
        "without its cut test the bottom row takes boxes of a letter that"
        " the lattice word forbids there; products gain coefficients that"
        " the Schur oracle does not have",
    ),
    Mutant(
        "grassmann",
        "c *= scale",
        "c *= 1",
        "a column term 1^p, p >= 2, of the content must scale every strip"
        " it adds by its coefficient (sigma_1 scales its walks where it"
        " lists them); products with a multiple of 1^p differ from the"
        " oracle",
    ),
    Mutant(
        "grassmann",
        "if left < rows - i:",
        "if left <= rows - i:",
        "skipping a row with as many boxes left as the rows from it down"
        " keeps a filling that can never place its boxes: each later row"
        " must then take one, and it still has three left at the last loop"
        " row, where it dies; every product stays the same, but the pinned"
        " partial fillings grow",
        test="tests/test_partial_fillings.py::test_partial_fillings_are_pinned",
    ),
    Mutant(
        "grassmann",
        "walks.append((head + lam[j:], j + 1, low, c))",
        "walks.append((head + lam[j:], j, low, c))",
        "a walk that starts at the row right under the last box reads it"
        " again, where it is no corner (it equals the row above); every"
        " product stays the same, but the pinned dead ends grow",
        test="tests/test_partial_fillings.py::test_partial_fillings_are_pinned",
    ),
    Mutant(
        "grassmann",
        "floor = hi - sum(room[j + 1:])",
        "floor = lo",
        "without the floor the letters before the new one may leave it more"
        " boxes than the letter before it has, which breaks the lattice word;"
        " the skew route then fills a different dict from the stages",
        test="tests/test_grassmann.py::TestSkewRoute::test_both_routes_fill_the_same_dict",
    ),
    Mutant(
        "grassmann",
        "min(hi, above[j], e + room[j])",
        "min(hi, e + room[j])",
        "without the column test a letter may sit under an equal or larger"
        " letter of the row above; the skew route then fills a different"
        " dict from the stages",
        test="tests/test_grassmann.py::TestSkewRoute::test_both_routes_fill_the_same_dict",
    ),
    Mutant(
        "grassmann",
        "cut = ctx.dim - 2 * sum(mu)",
        "cut = ctx.dim - 2 * sum(mu) - 1",
        "the pairs with e = |mu| then take the skew route too; every product"
        " stays the same, but the route no longer follows the box count",
        test="tests/test_grassmann.py::TestSkewRoute::test_route_is_chosen_by_box_count",
    ),
    Mutant(
        "grassmann",
        "if lo == hi:\n            continue",
        "if lo == hi:\n            pass",
        "an empty row then runs every letter once per state; every product"
        " stays the same, but the pinned fillings of `_skew_fillings` grow",
        test="tests/test_partial_fillings.py::test_partial_fillings_are_pinned",
    ),
    Mutant(
        "chern",
        "c[a] - c[a + 1]",
        "c[a] - c[a - 1]",
        "the bialternant read-off must difference adjacent coefficients"
        " upwards; the paired route and the line counts disagree with it",
    ),
    Mutant(
        "chern",
        "i * i + (d - i) * (d - i)",
        "2 * i * (d - i)",
        "B = 2A turns each pair into A (alpha + beta)^2; the coefficients"
        " then sum to less than d^(d+1), and the guard raises",
    ),
    Mutant(
        "chern",
        "half[deg - len(half)]",
        "half[deg - len(half) - 1]",
        "reading the entry past the half one place off its mirror breaks"
        " every product of three or more pairs; the guard and the"
        " linear-factor oracle disagree with it",
    ),
    Mutant(
        "chern",
        "half[: d - len(half)][::-1]",
        "half[: d - len(half) - 1][::-1]",
        "mirroring one entry short leaves the list without its top"
        " coefficient, so the read-off shifts and the sum falls short",
    ),
    Mutant(
        "chern",
        "[d * d * (d // 2)]",
        "[d * d]",
        "dropping the even-d middle factor (d/2)(alpha + beta) scales every"
        " coefficient of an even d by 2/d, and the mirror then reads a"
        " degree that is one too high",
    ),
    Mutant(
        "chern",
        "d ** (d + 1)",
        "d ** d",
        "the coefficients of the root product sum to d^(d+1), its value at"
        " alpha = beta = 1; any other exponent makes the guard raise on"
        " correct lists",
    ),
    Mutant(
        "chern",
        "get((d + 1,), 0) == 0",
        "get((d + 1,), 1) == 0",
        "the single-row class s[d+1] is never stored, so its default must"
        " read 0; a default of 1 fails every certificate",
    ),
    Mutant(
        "grassmann",
        "len(lam) <= start or max(",
        "True or max(",
        "without the zero test a zero pair runs its LR stages: the G(8,18)"
        " pair makes stage calls, and the pinned partial fillings grow",
    ),
    Mutant(
        "grassmann",
        "max(map(operator.add, lam[start:], flipped)) <= width",
        "max(map(operator.add, lam[start:], flipped)) < width",
        "a row that exactly fills the room left by mu is a nonzero pair;"
        " dropping it loses terms that the Schur oracle keeps",
    ),
    Mutant(
        "grassmann",
        "start, flipped, states = k - len(mu),",
        "start, flipped, states = k - len(mu) + 1,",
        "row i of the other factor pairs with row k+1-i of mu; pairing row"
        " i+1 instead is a weaker test, which sends pairs with mu outside"
        " lam^vee, whose skew shape does not exist, to the skew route near"
        " the top; the route test sees the calls, and products gain terms",
        test="tests/test_grassmann.py::TestSkewRoute::test_route_is_chosen_by_box_count",
    ),
    Mutant(
        "grassmann",
        "elif len(mu) == 1:",
        "elif False:",
        "a single row then runs the zero test lam_k + mu_1 <= n-k, which"
        " the first check of its stage makes anyway, and near the top the"
        " skew route; every product stays the same, but the route test sees"
        " single rows reach `_skew_fillings`",
        test="tests/test_grassmann.py::TestSkewRoute::test_route_is_chosen_by_box_count",
    ),
    Mutant(
        "varieties",
        "variety.D - ai - 4 for ai in variety.a",
        "variety.D - ai - 3 for ai in variety.a",
        "the lines threshold D - a - 4 is pinned by the goldens and the"
        " family regression of the acceptance suite",
    ),
    Mutant(
        "cli",
        "rows * m**2 > _MAX_SWEEP_WORK",
        "rows * m**2 >= _MAX_SWEEP_WORK",
        "a sweep or a certificate exactly at the degrees x factors^2 limit"
        " must be evaluated, not refused",
    ),
    Mutant(
        "cli",
        "start += len(piece) + 1",
        "start += len(piece) + 2",
        "a later factor's refusal names its position in the whole spec;"
        " skipping one character too many per 'x' shifts it",
    ),
    Mutant(
        "cli",
        "start + match.start(1)",
        "start - match.start(1)",
        "an unknown name in a later factor is found past the factor's"
        " start, not before it; the pinned position moves",
    ),
    Mutant(
        "cli",
        "len(flag) > 2",
        "len(flag) > 3",
        "a three-character abbreviation such as --r or --d must take a"
        " signed value too; argparse otherwise reads -5..3 as a flag",
    ),
    Mutant(
        "grassmann",
        "other.__class__ is self.__class__",
        "other.__class__ is not self.__class__",
        "a record equals another record of its own class with the same"
        " fields; with the class test inverted two equal contexts differ,"
        " and the record table fails",
    ),
    Mutant(
        "grassmann",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        "a record's fields are read-only; a mutant that assigns them lets"
        " the record table change a field in place",
    ),
    Mutant(
        "grassmann",
        '", ".join(map("{}={!r}".format',
        '",".join(map("{}={!r}".format',
        "a record's repr separates its fields by a comma and a space, as"
        " the refusal texts and the record table read it",
    ),
    Mutant(
        "grassmann",
        "return type(self), self._values(self)",
        "return type(self), self._values(self)[::-1]",
        "copy, deepcopy and pickle rebuild a record from its fields in"
        " field order; reversed, a copy is refused or differs from the original",
    ),
    Mutant(
        "grassmann",
        "class ChowElement(_Record):",
        "class ChowElement:",
        "an element takes read-only fields, equality and copies from the"
        " record base; without it two equal elements differ, and a field"
        " can be assigned or deleted",
        test="tests/test_records.py::test_chow_element_fields_cannot_be_assigned_or_deleted",
    ),
    Mutant(
        "grassmann",
        "if min(lam) < 0:",
        "if min(lam) <= 0:",
        "a part 0 before a larger part is out of order, not negative; the"
        " pinned refusal of (0, 1) names the order",
    ),
    Mutant(
        "grassmann",
        "if not isinstance(scalar, int):",
        "if False:",
        "a Fraction or float scalar must raise TypeError; without the"
        " test the constructor refuses its coefficients with ValueError",
    ),
    Mutant(
        "grassmann",
        "scalar * c",
        "scalar // c",
        "scaling multiplies every coefficient; 2 * (3 * s[1]) must have"
        " coefficient 6, where the quotient gives 0",
    ),
    Mutant(
        "grassmann",
        "if not isinstance(other, ChowElement):",
        "if False:",
        "x + 1 must raise TypeError naming the operand's type; without"
        " the test it raises AttributeError",
    ),
    Mutant(
        "chern",
        "raise N to at least {d + 3}",
        "raise N to at least {d + 4}",
        "the refusal of a box too narrow for degree d + 1 names the"
        " smallest N that holds it, d + 3; the pinned text of fano_class(2, 4)"
        " reads 5",
    ),
    Mutant(
        "chern",
        "== 0 and all(",
        "== 0 or all(",
        "the certificate needs both clauses; an expansion stubbed with a"
        " zero two-row class must report missing_class_ok False",
    ),
    Mutant(
        "chern",
        'if N < 4:\n        raise ValueError("N must be >= 4")\n    ctx',
        'if N <= 4:\n        raise ValueError("N must be >= 4")\n    ctx',
        "the paired route runs in G(2, 4), the smallest box, and agrees"
        " with top_chern_sym(2, 4) there",
    ),
    Mutant(
        "cli",
        "text[:8]",
        "text[:9]",
        "the refusal of an integer too long to convert quotes its first"
        " eight digits, as the pinned text reads",
    ),
    Mutant(
        "cli",
        'if name == "Fl" else',
        'if name != "Fl" else',
        "an Fl spec without its ';n' is refused with the Fl grammar, and"
        " any other name with its arity; both texts are pinned",
    ),
    Mutant(
        "cli",
        'if pos else "a term"',
        'if True else "a term"',
        "a term missing at position 0 is refused as 'expected a term';"
        " only a later one needs its sign, and both texts are pinned",
    ),
    Mutant(
        "cli",
        "_MAX_SWEEP_ROWS = 10_000",
        "_MAX_SWEEP_ROWS = 10_001",
        "the README states a sweep of at most 10^4 degrees; the work"
        " budget test pins the literal limit",
    ),
    Mutant(
        "cli",
        "_MAX_SWEEP_WORK = 1_000_000",
        "_MAX_SWEEP_WORK = 1_000_001",
        "the README states rows x factors^2 at most 10^6; the work budget"
        " test pins the literal limit",
    ),
    Mutant(
        "cli",
        "if hi < lo:",
        "if hi <= lo:",
        "a range of one degree, 3..3, is a sweep of one row, not an empty"
        " range",
    ),
    Mutant(
        "cli",
        "if isinstance(obj, (list, tuple)):",
        "if True:",
        "any other leaf of a report raises json's own TypeError text; an"
        " iterable such as a frozenset must not be written as a list",
    ),
    Mutant(
        "cli",
        "'pass' if r.ok else 'FAIL'",
        "'pass' if True else 'FAIL'",
        "the section-dom text marks a failed check FAIL; a stubbed failing"
        " result must print it",
    ),
    Mutant(
        "cli",
        '({"help": help_text} if help_text else {})',
        '({"help": help_text} if True else {})',
        "a leaf without help text stays out of its group's command list;"
        " schubert --help must give mul, integrate and dual no line of their own",
    ),
    Mutant(
        "cli",
        "(flag) > 2",
        "(flag) >= 2",
        "the separator '--' abbreviates no flag, so a signed value after"
        " it stays apart; joined, argparse would read '--=-5..3'",
    ),
    Mutant(
        "cli",
        'if __name__ == "__main__":',
        "if False:",
        "python -m alghyp.cli runs main through this guard; without it the"
        " module prints nothing and exits 0",
    ),
    Mutant(
        "varieties",
        "if not ks:",
        "if False:",
        "Fl with no subspace dimension is refused by name; without the"
        " check it raises IndexError",
    ),
    Mutant(
        "varieties",
        "if not varieties:",
        "if False:",
        "a product of no factors is refused by name; without the check the"
        " descriptor refuses dimension 0 with another text",
    ),
    Mutant(
        "varieties",
        "(stated=stated, used=D)",
        "(stated=D, used=D)",
        "every flag's note quotes the stated sum, which exceeds D by the sum"
        " of the squared steps of 0 < k_1 < ... < k_m < n; the goldens and"
        " the note check over every flag with n <= 8 read it",
        test="tests/test_varieties.py::TestConstructors::test_flag_dimension_discrepancy_flagged",
    ),
    Mutant(
        "chern",
        "if sum(c) != d ** (d + 1):",
        "if False:",
        "equivalent: the root product's coefficients sum to its value at"
        " alpha = beta = 1, which is d^(d+1) for every d, so the guard never"
        " fires on this code; the killed row d ** (d + 1) -> d ** d shows"
        " that it can",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "if isinstance(parts, Partition):",
        "if False:",
        "equivalent: `_checked` builds every Partition, so checking one"
        " again gives an equal Partition; the shortcut saves the scan",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "(lam and lam[-1] < 0)",
        "(lam and lam[-1] <= 0)",
        "equivalent: the trim above leaves no last part 0",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "lam[-1] < 0)",
        "lam[-1] < 1)",
        "equivalent: the trim above leaves no last part 0, so < 1 reads"
        " as < 0",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "range(lam[0] if lam else 0)",
        "range(lam[0] if lam else 1)",
        "equivalent: the empty partition's conjugate becomes [0], which"
        " `_checked` trims to ()",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "elif c >= 0:",
        "elif c > 0:",
        "equivalent: a stored coefficient is never 0, because the"
        " constructor drops zeros",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "elif c >= 0",
        "elif c >= 1",
        "equivalent: a stored coefficient is never 0, so >= 1 reads as"
        " >= 0",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "len(lam) + p > k",
        "len(lam) + p >= k",
        "equivalent: at len(lam) + p = k both branches give k rows",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "range(full, rows - 1)",
        "range(full, rows)",
        "equivalent: a filling in the loop has two or more boxes left and"
        " at most as many as the rows from its own down, so none reaches"
        " the bottom row; the extra pass there runs over no filling",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "rows = k if len(nu) >= k else",
        "rows = k if True else",
        "equivalent: a horizontal strip adds no box below a row that was"
        " empty, so the rows past the first empty row of nu take none, and"
        " every shape emitted stays trimmed; they add loop work only",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "else len(nu) + 1",
        "else len(nu) + 2",
        "equivalent: the extra row lies below the first empty row of nu and"
        " takes no box, even where it is row k + 1 of G(k, n)",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "(rows - len(before))",
        "(rows + len(before))",
        "equivalent: `prev` is read only at the first rows - 1 rows, so"
        " extra padding zeros are never read",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "if cum < m else",
        "if cum <= m else",
        "equivalent: at cum = m the cut m - cum is 0 either way",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "if top < hi:",
        "if top <= hi:",
        "equivalent: at top = hi both set hi to top",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "if left > after else 0",
        "if left >= after else 0",
        "equivalent: at left = after the floor left - after is 0 either way",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "if not partial:",
        "if False:",
        "equivalent: once no partial filling is left, every later row and"
        " the bottom row loop over none; the exit, which runs, saves those"
        " rows after a dead end",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "if not partial:\n                break",
        "if not partial:\n                pass",
        "equivalent: the same early exit as the row above, spelled as the"
        " loop's break; the bottom row then emits nothing",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "max(map(len, x._terms), default=0)",
        "max(map(len, x._terms), default=1)",
        "equivalent: with x zero, either order multiplies over an empty"
        " term list, so the product is zero whichever factor is the content",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "max(map(len, y._terms), default=0)",
        "max(map(len, y._terms), default=1)",
        "equivalent: with y zero, either order multiplies over an empty"
        " term list, so the product is zero whichever factor is the content",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "base = lam + (0,) * (rows - len(lam))",
        "base = lam + (0,) * (rows + len(lam))",
        "equivalent: the strip reads `base` only at rows below `rows`, and"
        " the extra zeros change no count of full rows",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "if j == rows - 1:",
        "if False:",
        "equivalent: at the bottom row the tail lam[j + 1:] is empty, so the"
        " shape is the same, and a walk kept there starts at row k = n,"
        " where it reads no row and k leaves no empty row; the branch only"
        " spares the paired route's k = 2 strips a slice, a concatenation"
        " and a walk (their strips took 1.37 times as long without it)",
        equivalent=True,
    ),
    Mutant(
        "grassmann",
        "elif rows_x < rows_y:",
        "elif rows_x <= rows_y:",
        "two sums that tie in rows must keep the second factor as the"
        " content; with <= the first one is, and the row and column"
        " factor of the paired route's chain would run as four stages",
        test="tests/test_grassmann.py::TestProductWork::test_two_sums_that_tie_keep_the_second_factor",
    ),
    Mutant(
        "varieties",
        "(3 + e) // 2",
        "(4 + e) // 2",
        "equivalent: e is -1 or 1, so 3 + e is even and 4 + e is the odd"
        " number above it, with the same half",
        equivalent=True,
    ),
    Mutant(
        "sections",
        "if 3 * bits >= 10 * limit:",
        "if 3 * bits > 10 * limit:",
        "equivalent: 10 * limit is a multiple of 3 only when the limit is,"
        " and the default 4300 is not; at any limit both forms are sound,"
        " because 10/3 > log2(10)",
        equivalent=True,
    ),
)


def _python(src: pathlib.Path, *args: str, **run) -> subprocess.CompletedProcess:
    """Run Python with `src` alone on `PYTHONPATH`; `run` goes to `subprocess.run`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, **run
    )


def _copy(tmp: str) -> pathlib.Path:
    src = pathlib.Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _killer(mutant: Mutant) -> tuple[str | None, str | None]:
    """The first test that fails on `mutant`, or None if it survives; and,
    for a killed row that names a test, a note if that test alone does
    not fail on the mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(tmp)
        path = src / "alghyp" / f"{mutant.module}.py"
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.source) != 1:
            raise SystemExit(f"{mutant.module}: {mutant.source!r} does not occur exactly once")
        path.write_text(text.replace(mutant.source, mutant.replacement), encoding="utf-8")
        run = _python(src, *PYTEST)
        if run.returncode == 0:
            return None, None
        failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
        killer = failed[0].split(" - ")[0] if failed else f"pytest exit {run.returncode}"
        if mutant.test is None:
            return killer, None
        # pytest exits 1 when a collected test fails; 0 means that it
        # passed, and 4 or 5 that the node id names no test
        cited = _python(src, *PYTEST[:-1], mutant.test).returncode
        return killer, None if cited == 1 else f"{mutant.test} alone exits {cited}, not 1"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(tmp)
        where = _python(src, "-c", "import alghyp; print(alghyp.__file__)").stdout.strip()
        if not where.startswith(str(src)):
            print(f"the tests import alghyp from {where!r}, not from the copy", file=sys.stderr)
            return 2
        if _python(src, *PYTEST).returncode:
            print("the suite fails on the unedited copy", file=sys.stderr)
            return 2
    wrong = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        killer, cited = _killer(mutant)
        verdict = "survived" if killer is None else "killed"
        if (killer is None) != mutant.equivalent or cited:
            wrong += 1
            verdict += " (UNEXPECTED)"
        took = time.perf_counter() - start
        print(f"{verdict} in {took:.1f} s: {mutant.module}: {mutant.source!r} -> {mutant.replacement!r}")
        if killer is not None:
            print(f"    by {killer}")
        if cited:
            print(f"    but {cited}")
    print(f"{len(MUTANTS)} mutants, {wrong} unexpected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
