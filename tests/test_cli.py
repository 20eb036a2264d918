import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from alghyp import cli, schemas
from alghyp.cli import (
    CLIError,
    _attach_signed_values,
    _build_parser,
    _fast_parse,
    _parse_degrees,
    _parse_range,
    integer,
    main,
    parse_chow,
    parse_partition,
    parse_variety,
)
from alghyp.grassmann import ChowElement, Partition, RingContext
from alghyp.sections import SectionDominationResult
from alghyp.varieties import grassmannian, product, projective_space
from tests.instances import catalog_instances
from tests.test_cli_golden import ALL_COMMANDS, GOLDEN, HELP, REJECTED
from tests.test_sections import first_refused_diagonal


# products of m copies of P(1), for the work budgets
_M100, _M1000, _M1001 = ("x".join(["P(1)"] * m) for m in (100, 1000, 1001))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseVariety:
    def test_atoms(self):
        assert parse_variety("Gr(2,5)").name == "Gr(2,5)"
        assert parse_variety("P(2)").a == (-3,)
        assert parse_variety("OG(2,7)").D == 7
        assert parse_variety("SG(2,6)").D == 7
        assert parse_variety("Fl(1,2;4)").a == (-2, -3)

    def test_products_and_whitespace(self):
        v = parse_variety(" P(2) x P(2) ")
        assert v.name == "P(2)xP(2)" and v.D == 4
        v = parse_variety("Gr(2,4)xP(2)xP(1)")
        assert v.m == 3 and v.D == 7

    def test_round_trip(self):
        for v in catalog_instances():
            assert parse_variety(v.name) == v

    def test_syntax_errors_carry_position(self):
        with pytest.raises(CLIError, match="position 0"):
            parse_variety("Zr(2,3)")
        with pytest.raises(CLIError, match="position"):
            parse_variety("Gr(2,3")
        with pytest.raises(CLIError, match="position"):
            parse_variety("Gr(2,3)yP(2)")
        # a later factor counts from the start of the whole spec
        with pytest.raises(CLIError, match="position 6 "):
            parse_variety("P(2)x Q(3)")
        with pytest.raises(CLIError, match="position 11 "):
            parse_variety("P(2)x P(2) y")
        with pytest.raises(CLIError):
            parse_variety("Fl(1,2,4)")
        with pytest.raises(CLIError):
            parse_variety("P(2,3)")

    def test_semantic_errors_name_the_constraint(self):
        with pytest.raises(CLIError, match="a <= -2"):
            parse_variety("OG(2,6)")
        for spec in ("Fl(3,2;4)", "P(2)xFl(1;1)", "Gr(0,3)"):
            with pytest.raises(CLIError, match="need"):
                parse_variety(spec)


class TestParseChow:
    def test_simple(self):
        x = parse_chow(2, 4, "s[1]")
        assert x.terms == {Partition([1]): 1}

    def test_combination(self):
        x = parse_chow(3, 7, "3*s[2,1] + 5*s[1,1,1]")
        assert x.terms == {Partition([2, 1]): 3, Partition([1, 1, 1]): 5}

    def test_signs_and_unit(self):
        x = parse_chow(2, 4, "2*s[] - s[1]")
        assert x.terms == {Partition([]): 2, Partition([1]): -1}
        assert parse_chow(2, 4, "3").terms == {Partition([]): 3}

    def test_round_trip(self):
        text = "7*s[3,1] + 2*s[2] - 4*s[1,1]"
        x = parse_chow(2, 5, text)
        assert parse_chow(2, 5, x.to_text()) == x

    def test_errors(self):
        with pytest.raises(CLIError):
            parse_chow(2, 4, "s[3]")  # out of box
        with pytest.raises(CLIError):
            parse_chow(2, 4, "s[1,2]")  # not a partition
        with pytest.raises(CLIError):
            parse_chow(2, 4, "")
        with pytest.raises(CLIError):
            parse_chow(2, 4, "s[1] s[1]")
        assert parse_partition("s[3,1]") == Partition([3, 1])
        with pytest.raises(CLIError):
            parse_partition("2*s[3,1]")


class TestCommands:
    def test_classify_text(self, capsys):
        code, out, err = run_cli(capsys, "classify", "Gr(2,4)", "--deg", "9")
        assert code == 0 and err == ""
        assert out == "Gr(2,4) deg=(9): Hyperbolic, threshold=(6), epsilon=28/9\n"

    def test_sweep_matches_trichotomy(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "P(4)", "--range", "5..8")
        assert code == 0
        kinds = [line.split()[1] for line in out.strip().splitlines()]
        assert kinds == ["ContainsLines", "OpenGap", "Hyperbolic", "Hyperbolic"]

    # The work budgets that the README states, one row each: an argv one
    # past the limit, its exact refusal, and the argv at the limit.  The
    # refused argv compute no verdict or certificate; the argv at the limit
    # reach the first one.  The limits are literals, so that a changed
    # constant fails here.
    @pytest.mark.parametrize(
        "refused, refusal, at_limit",
        [
            pytest.param(
                ["sweep", "P(4)", "--range", "1..10001"],
                "bad range '1..10001': more than 10000 degrees",
                ["sweep", "P(4)", "--range", "7..10006"],
                id="sweep-width",
            ),
            pytest.param(
                ["sweep", "P(4)", "--range=-5..9995", "--json"],
                "bad range '-5..9995': more than 10000 degrees",
                ["sweep", "P(4)", "--range=-5..9994", "--json"],
                id="sweep-width-signed",
            ),
            # m = 100 factors admit rows = 100 degrees
            pytest.param(
                ["sweep", _M100, "--range", "3..103"],
                "bad range '3..103': 101 degrees on 100 factors is more than 1000000 degrees x factors^2",
                ["sweep", _M100, "--range", "3..102"],
                id="sweep-work",
            ),
            # one certificate is one sweep row, so m = 1000 factors is the limit
            *(
                pytest.param(
                    [command, _M1001, "--deg", ",".join(["3"] * 1001)],
                    "one degree list on 1001 factors is more than 1000000 degrees x factors^2",
                    [command, _M1000, "--deg", ",".join(["3"] * 1000)],
                    id=f"{command}-factors",
                )
                for command in ("classify", "certify", "genus-bound")
            ),
        ],
    )
    def test_work_budget(self, capsys, monkeypatch, refused, refusal, at_limit):
        reached = []

        def stub(*args):
            reached.append(args)
            raise RuntimeError("stop at the first verdict")

        monkeypatch.setattr("alghyp.cli.classify", stub)
        monkeypatch.setattr("alghyp.genus.hyperbolicity_certificate", stub)
        assert run_cli(capsys, *refused) == (1, "", f"error: {refusal}\n")
        assert reached == []
        assert run_cli(capsys, *at_limit)[:2] == (2, "")
        assert len(reached) == 1

    def test_certify_runs_at_the_factor_limit(self, capsys):
        code, out, _ = run_cli(capsys, "certify", _M1000, "--deg", ",".join(["3"] * 1000))
        assert code == 0 and out.endswith("no certificate; ContainsLines witness=d1\n")

    def test_negative_value_reaches_its_check(self, capsys):
        """A --range or --deg value that starts with '-' is read as the
        value in every spelling, abbreviated flags included, not as a flag;
        a real flag still is one."""
        for spelled in (["--range", "-5..3"], ["--range=-5..3"], ["--ran", "-5..3"], ["--r", "-5..3"]):
            assert run_cli(capsys, "sweep", "P(4)", *spelled) == (
                1, "", "error: degrees must be >= 1, got (-5,)\n")
        for spelled in (["--deg", "-5,3"], ["--deg=-5,3"], ["--de", "-5,3"], ["--d", "-5,3"]):
            assert run_cli(capsys, "classify", "P(4)", *spelled) == (
                1, "", "error: P(4) has 1 degree slots, got 2\n")
        assert run_cli(capsys, "fano-class", "--d", "-5", "--N", "7") == (
            1, "", "error: d must be >= 2\n")
        assert run_cli(capsys, "sweep", "P(4)", "--range", "--json") == (
            1, "", "error: argument --range: expected one argument\n")

    def test_line_count(self, capsys):
        code, out, _ = run_cli(capsys, "line-count", "--n", "3")
        assert code == 0 and out == "27\n"

    def test_schubert_mul(self, capsys):
        code, out, _ = run_cli(
            capsys, "schubert", "mul", "--k", "2", "--n", "4", "s[1]", "s[1]"
        )
        assert code == 0 and out == "1*s[2] + 1*s[1,1]\n"

    def test_schubert_integrate(self, capsys):
        code, out, _ = run_cli(
            capsys, "schubert", "integrate", "--k", "2", "--n", "4", "2*s[2,2]"
        )
        assert code == 0 and out == "2\n"

    def test_schubert_dual(self, capsys):
        code, out, _ = run_cli(
            capsys, "schubert", "dual", "--k", "2", "--n", "5", "s[3,1]"
        )
        assert code == 0
        assert "complement in G(2,5): s[2]" in out
        assert "transpose dual in G(3,5): s[2,1,1]" in out

    def test_certify(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "P(4)", "--deg", "7")
        assert code == 0
        assert "certified epsilon=1/7 (case C)" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "info", "Gr(2,5)", "--json", "--out", str(target)
        )
        assert code == 0 and out == ""
        data = json.loads(target.read_text())
        assert data["name"] == "Gr(2,5)"

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_out_path(self, capsys, tmp_path, where):
        target = tmp_path if where == "directory" else tmp_path / "absent" / "report.json"
        code, out, err = run_cli(capsys, "info", "Gr(2,5)", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_section_dom_text_marks_a_failed_check(self, capsys, monkeypatch):
        failed = SectionDominationResult(n=2, d=2, ok=False, rank=4, target_dim=5)
        monkeypatch.setattr("alghyp.sections.check_projective_space", lambda n, d: failed)
        assert run_cli(capsys, "section-dom", "--n", "2", "--d", "2") == (
            0, "n  d  rank  target  ok\n2  2  4  5  FAIL\n", "")
        code, out, _ = run_cli(capsys, "section-dom", "--n", "2", "--d", "2", "--json")
        assert code == 0 and json.loads(out)["all_ok"] is False

    def test_grid_refuses_n_and_d(self, capsys):
        for extra in (("--n", "2"), ("--d", "3"), ("--n", "2", "--d", "3")):
            code, out, err = run_cli(capsys, "section-dom", "--grid", *extra)
            assert code == 1 and out == ""
            assert "--n" in err and "--d" in err

    def test_section_dom_past_the_old_monomial_budget(self, capsys):
        # C(24, 12) = 2.7 million degree-12 monomials on P^12
        code, out, err = run_cli(capsys, "section-dom", "--n", "12", "--d", "12")
        assert code == 0 and err == ""
        assert out == "n  d  rank  target  ok\n12  12  2704155  2704155  pass\n"

    def test_section_dom_refuses_past_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        first = str(first_refused_diagonal(limit))
        code, out, err = run_cli(capsys, "section-dom", "--n", first, "--d", first)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and f"more than {limit} digits" in err

    def test_exit_code_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "info", "OG(2,6)")
        assert code == 1 and out == "" and "a <= -2" in err

    def test_exit_code_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "P(4)")
        assert code == 1 and "--deg" in err

    def test_exit_code_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1


class TestStrictIntegers:
    """Integers are ASCII -?[0-9]+ only: no padding, underscores, '+' or other digits."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("info", "P(\u0663)"),  # Arabic-Indic three
            ("info", "P(\u00b2)"),  # superscript two
            ("schubert", "mul", "--k", "2", "--n", "4", "\u0663*s[1]"),
            ("classify", "P(4)", "--deg", "1_0"),
            ("classify", "P(4)", "--deg", " 7"),
            ("certify", "P(4)", "--deg", "+7"),
            ("sweep", "P(4)", "--range", " 5.. 0_6"),
            ("line-count", "--n", " 3"),
            ("line-count", "--n", "1_0"),
            ("fano-class", "--d", "4", "--N", "\u0667"),
            ("schubert", "mul", "--k", "+2", "--n", "4", "s[1]"),
            ("section-dom", "--n", "2", "--d", "2.0"),
        ],
    )
    def test_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_negative_degree_reaches_library_check(self, capsys):
        code, out, err = run_cli(capsys, "classify", "P(4)", "--deg", "-1")
        assert code == 1 and out == ""
        assert err == "error: degrees must be >= 1, got (-1,)\n"


class TestResultDigitLimit:
    """A sum of coefficients that each parse can pass the interpreter's
    limit for printing an integer; the render then exits 1 naming the limit."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("schubert", "mul", "--k", "2", "--n", "4", "{c}*s[1] + {c}*s[1]"),
            ("schubert", "mul", "--k", "2", "--n", "4", "{c}*s[1] + {c}*s[1]", "--json"),
            ("schubert", "integrate", "--k", "2", "--n", "4", "{c}*s[2,2] + {c}*s[2,2]"),
            ("schubert", "integrate", "--k", "2", "--n", "4", "{c}*s[2,2] + {c}*s[2,2]", "--json"),
        ],
    )
    def test_refused_naming_the_limit(self, capsys, argv):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter prints integers of any length")
        code, out, err = run_cli(capsys, *(arg.format(c="9" * limit) for arg in argv))
        assert code == 1 and out == ""
        assert err == (
            f"error: a result has more than {limit} digits,"
            " the interpreter's limit for printing an integer\n"
        )


JSON_COMMANDS = [
    (("info", "Gr(2,5)"), schemas.DESCRIPTOR_SCHEMA),
    (("info", "SG(2,6)"), schemas.DESCRIPTOR_SCHEMA),
    (("threshold", "OG(2,7)xP(2)"), schemas.THRESHOLD_SCHEMA),
    (("classify", "P(4)", "--deg", "6"), schemas.CLASSIFY_SCHEMA),
    (("classify", "P(2)xP(2)", "--deg", "4,9"), schemas.CLASSIFY_SCHEMA),
    (("fano-class", "--d", "4", "--N", "7"), schemas.FANO_REPORT_SCHEMA),
    (("line-count", "--n", "4"), schemas.LINE_COUNT_SCHEMA),
    (
        ("schubert", "mul", "--k", "2", "--n", "4", "s[1]", "s[1]", "s[1]"),
        schemas.CHOW_ELEMENT_SCHEMA,
    ),
    (
        ("schubert", "integrate", "--k", "2", "--n", "5", "s[3,3]"),
        schemas.INTEGRATE_SCHEMA,
    ),
    (("schubert", "dual", "--k", "2", "--n", "5", "s[3,1]"), schemas.DUAL_SCHEMA),
    (("genus-bound", "Gr(2,4)xP(2)", "--deg", "9,9"), schemas.GENUS_REPORT_SCHEMA),
    (("genus-bound", "P(4)", "--deg", "6"), schemas.GENUS_REPORT_SCHEMA),
    (("certify", "P(4)", "--deg", "7"), schemas.CERTIFY_SCHEMA),
    (("section-dom", "--n", "2", "--d", "2"), schemas.SECTION_REPORT_SCHEMA),
    (("sweep", "P(4)", "--range", "5..8"), schemas.SWEEP_SCHEMA),
]


class TestJsonOutputs:
    @pytest.mark.parametrize("argv,schema", JSON_COMMANDS)
    def test_validates_against_schema(self, capsys, argv, schema):
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 0, err
        jsonschema.validate(json.loads(out), schema)


class TestDeterminism:
    COMMANDS = [argv + ("--json",) for argv, _ in JSON_COMMANDS] + [
        ("info", "Fl(1,2;4)"),
        ("threshold", "SG(2,6)"),
        ("classify", "Gr(2,4)", "--deg", "9"),
        ("genus-bound", "Gr(2,4)xP(2)", "--deg", "9,9"),
        ("sweep", "P(4)", "--range", "5..8"),
        ("section-dom", "--n", "3", "--d", "3"),
        ("schubert", "mul", "--k", "3", "--n", "6", "s[2,1]", "s[2,1]"),
    ]

    def test_byte_identical_reruns(self, capsys):
        first = []
        for argv in self.COMMANDS:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            first.append(out)
        for argv, before in zip(self.COMMANDS, first):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out.encode() == before.encode(), argv

    def test_subprocess_matches_inprocess(self, capsys):
        argv = ["sweep", "Gr(2,4)", "--range", "4..7"]
        _, out, _ = run_cli(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "alghyp", *argv],
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout == out

    def test_cli_module_runs_as_a_script(self, capsys):
        """`python -m alghyp.cli` runs `main` through the module's own
        `__main__` guard, and prints what `python -m alghyp` prints."""
        argv = ["info", "Gr(2,4)"]
        _, out, _ = run_cli(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "alghyp.cli", *argv],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out and proc.stdout == out


class TestJsonWriter:
    """`_json_text` writes the text of `json.dumps(obj, indent=2)`."""

    def test_golden_reports(self):
        entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
        reports = [json.loads(e["stdout"]) for e in entries if "--json" in e["argv"] and e["exit"] == 0]
        assert len(reports) >= 15
        for report in reports:
            assert cli._json_text(report) == json.dumps(report, indent=2)

    def test_nested_values(self):
        """Nested dicts, lists and tuples, empty ones included, with
        non-ASCII and control-character strings, bools, None and ints
        past 2**53."""
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        texts = st.text(st.one_of(st.characters(), st.sampled_from('\x00\x1f\x7f"\\/\u2028\U0001f600')), max_size=5)
        leaves = st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), texts)
        values = st.recursive(
            leaves,
            lambda inner: st.one_of(
                st.lists(inner, max_size=3),
                st.lists(inner, max_size=3).map(tuple),
                st.dictionaries(texts, inner, max_size=3),
            ),
            max_leaves=12,
        )

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(values)
        @example({"": [(), {}, [[]]], "\u00e9": (2**53 + 1, -(2**64), True, None)})
        def check(obj):
            assert cli._json_text(obj) == json.dumps(obj, indent=2)

        check()

    # a frozenset is iterable, yet not a list or tuple
    @pytest.mark.parametrize("leaf", [Fraction(1, 2), 0.5, frozenset({1})])
    def test_other_leaves_exit_2(self, capsys, monkeypatch, leaf):
        monkeypatch.setattr(cli.chern, "line_count", lambda n: leaf)
        code, out, err = run_cli(capsys, "line-count", "--n", "4", "--json")
        assert (code, out) == (2, "")
        assert err == f"internal error: TypeError('Object of type {type(leaf).__name__} is not JSON serializable')\n"


# argv at the edges of the root parse: no command, '--', an extra
# positional, abbreviated flags, an unknown subcommand, and help before a
# bad flag
PARSE_EDGES = (
    (),
    ("info", "--", "P(2)"),
    ("info", "P(2)", "extra"),
    ("info", "--js", "P(2)"),
    ("info", "--h"),
    ("schubert", "frob"),
    ("info", "P(2)", "-h", "--bogus"),
)


def parse_outcome(parse, argv):
    """What parsing argv gives: the namespace, a CLIError's text, or a
    SystemExit's code and the stdout printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            namespace = parse(list(argv))
    except CLIError as err:
        return "error", str(err)
    except SystemExit as stop:
        return "exit", stop.code, out.getvalue()
    return "namespace", vars(namespace)


def the_root_parse(argv):
    return _build_parser().parse_args(_attach_signed_values(argv))


def two_route_parse(argv):
    """main's parse: the grammar table for a plain argv, else the root parse."""
    return _fast_parse(argv) or the_root_parse(argv)


@pytest.mark.parametrize("argv", ALL_COMMANDS + REJECTED + HELP + PARSE_EDGES, ids=" ".join)
def test_one_pass_parse_matches_the_root_parse(argv):
    assert parse_outcome(two_route_parse, argv) == parse_outcome(the_root_parse, argv)


# argv that are not plain, so that the fast parser leaves them to argparse:
# help, '--', a joined or abbreviated flag, a repeated flag or switch, values
# that start with '-' (a signed value is joined to its flag), a bad integer,
# a missing required flag or value, a wrong positional count, factors that
# are not one run, and a command name that is one string
NOT_PLAIN = (
    ("info", "P(2)", "-h"),
    ("schubert", "mul", "--help"),
    ("info", "--", "P(2)"),
    ("classify", "P(4)", "--deg=6"),
    ("classify", "P(4)", "--de", "6"),
    ("classify", "P(4)", "--deg", "6", "--deg", "7"),
    ("info", "P(2)", "--json", "--json"),
    ("fano-class", "--d", "-5", "--N", "7"),
    ("sweep", "P(4)", "--range", "-5..3"),
    ("info", "-", "P(2)"),
    ("info", "P(2)", "--out", "-x"),
    ("line-count", "--n", "1_0"),
    ("line-count", "--n", "\u0663"),
    ("classify", "P(4)", "--deg"),
    ("fano-class", "--d", "4"),
    ("info",),
    ("info", "P(2)", "P(3)"),
    ("schubert", "mul", "--k", "2", "--n", "4"),
    ("schubert", "mul", "--k", "2", "s[1]", "--n", "4", "s[1]"),
    ("schubert", "frob"),
    ("schubert mul", "--k", "2", "--n", "4", "s[1]"),
)


def fast_matches_argparse(argv):
    """`_fast_parse` gives None or the namespace of the root parse, which
    then must not refuse argv; returns whether it took the fast path."""
    namespace = _fast_parse(list(argv))
    if namespace is not None:
        assert namespace == _build_parser().parse_args(_attach_signed_values(list(argv))), argv
    return namespace is not None


@pytest.mark.parametrize("argv", ALL_COMMANDS + REJECTED + HELP + PARSE_EDGES + NOT_PLAIN, ids=" ".join)
def test_fast_parse_matches_argparse(argv):
    assert fast_matches_argparse(argv) == (argv in ALL_COMMANDS)


def test_fast_parse_matches_argparse_on_mutated_argv():
    """One-token mutations of the golden argv: a deletion, an inserted or
    appended token ('-h', '--', '=', signed values, flags, positionals), a
    swap of two tokens, or two tokens joined by '='."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    tokens = st.sampled_from(
        ["-h", "--", "=", "-5", "-5..3", "-1,2", "--json", "--out", "--deg", "--de", "--deg=6", "--range",
         "--n", "--N", "--k", "--d", "--grid", "s[1]", "P(2)", "6", "5..8", "x", "", "schubert", "mul"]
    )

    @st.composite
    def mutated(draw):
        argv = list(draw(st.sampled_from(ALL_COMMANDS)))
        i = draw(st.integers(0, len(argv) - 1))
        j = draw(st.integers(0, len(argv) - 1))
        how = draw(st.sampled_from(["delete", "insert", "append", "swap", "join"]))
        if how == "delete":
            del argv[i]
        elif how == "insert":
            argv.insert(i, draw(tokens))
        elif how == "append":
            argv.append(draw(tokens))
        elif how == "swap":
            argv[i], argv[j] = argv[j], argv[i]
        elif i + 1 < len(argv):
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
        return tuple(argv)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(mutated())
    def check(argv):
        fast_matches_argparse(argv)

    check()


def counted(monkeypatch, owner, name):
    """Wrap `owner.name` to count its calls; returns the one-item counter."""
    calls = [0]
    wrapped = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def calls_made(counter, call, *args):
    """How many calls to the counted function `call(*args)` makes."""
    before = counter[0]
    call(*args)
    return counter[0] - before


def root_parse(argv):
    """main's fallback, called directly, with its refusal or help caught."""
    with contextlib.suppress(CLIError, SystemExit):
        the_root_parse(list(argv))


def test_one_parse_per_call(monkeypatch, capsys):
    """A plain golden argv is parsed without argparse.  Any other argv takes
    as many parse_known_args calls as the root parse takes on its own, so
    main adds no parse of its own."""
    parses = counted(monkeypatch, cli._ArgumentParser, "parse_known_args")
    for argv in ALL_COMMANDS:
        assert calls_made(parses, main, list(argv)) == 0, argv
    for argv in NOT_PLAIN + REJECTED + HELP + PARSE_EDGES:
        assert calls_made(parses, main, list(argv)) == calls_made(parses, root_parse, argv) > 0, argv
    capsys.readouterr()


def test_tuple_argv_takes_the_fast_path(monkeypatch, capsys):
    """main(tuple(argv)) prints what main(list(argv)) prints, and a plain
    tuple is read from the grammar table, not by argparse."""
    parses = counted(monkeypatch, cli._ArgumentParser, "parse_known_args")
    for argv in ALL_COMMANDS:
        want = run_cli(capsys, *argv)
        assert (main(tuple(argv)), *capsys.readouterr()) == want, argv
    assert parses == [0]


def test_only_the_fallback_joins_signed_values(monkeypatch, capsys):
    """A plain argv reaches _fast_parse unjoined; an argv that falls back
    to argparse has its signed values joined once."""
    joins = counted(monkeypatch, cli, "_attach_signed_values")
    for argv in ALL_COMMANDS:
        assert calls_made(joins, main, list(argv)) == 0, argv
    for argv in NOT_PLAIN:
        assert calls_made(joins, main, list(argv)) == 1, argv
    capsys.readouterr()


def test_a_bare_double_dash_takes_no_value():
    """Only a flag longer than '--' abbreviates --range or --deg, so the
    separator '--' leaves a signed value apart."""
    assert _attach_signed_values(["--", "-5..3"]) == ["--", "-5..3"]
    assert _attach_signed_values(["--r", "-5..3"]) == ["--r=-5..3"]


def test_help_lists_a_command_only_with_its_help_text(capsys):
    """The root help gives each command a line with its help text; the
    schubert leaves have none, so the group's help lists them inside
    {mul,integrate,dual} and gives none a line of its own."""
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert [line.split() for line in out.splitlines() if line.startswith("    info ")] == [
        ["info", "describe", "a", "variety"]]
    code, out, err = run_cli(capsys, "schubert", "--help")
    assert (code, err) == (0, "")
    words = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert "{mul,integrate,dual}" in words
    assert not {"mul", "integrate", "dual"} & set(words)


# Refusal texts of the parsers, each compared whole.
REFUSALS = [
    pytest.param(lambda: parse_variety("Fl(1,2)"), "Fl takes k1,...,km;n, got '1,2' in 'Fl(1,2)'", id="Fl-without-n"),
    pytest.param(lambda: parse_variety("Gr(2)"), "Gr takes 2 argument(s), got '2' in 'Gr(2)'", id="Gr-arity"),
    pytest.param(
        lambda: parse_chow(2, 4, "s[1] s[1]"),
        "expected '+' or '-' and a term at position 5 in 's[1] s[1]'",
        id="chow-missing-sign",
    ),
    pytest.param(lambda: parse_chow(2, 4, "+s[1]"), "expected a term at position 0 in '+s[1]'", id="chow-leading-plus"),
    pytest.param(lambda: _parse_range("3..1"), "bad range '3..1': empty", id="range-empty"),
    pytest.param(lambda: _parse_range("5"), "bad range '5': expected lo..hi", id="range-one-number"),
    pytest.param(lambda: _parse_range(""), "bad range '': expected lo..hi", id="range-blank"),
    pytest.param(lambda: _parse_range(".."), "bad range '..': expected lo..hi", id="range-dots"),
    pytest.param(lambda: integer("9" * 5000), "integer 99999999... of 5000 digits is too long", id="integer-too-long"),
]


@pytest.mark.parametrize("call, text", REFUSALS)
def test_refusal_texts(call, text):
    with pytest.raises(CLIError) as err:
        call()
    assert str(err.value) == text


# Each entry point takes (box, text); only parse_chow reads the box.
PARSERS = {
    "parse_variety": lambda box, text: parse_variety(text),
    "parse_chow": lambda box, text: parse_chow(*box, text),
    "parse_partition": lambda box, text: parse_partition(text),
    "_parse_degrees": lambda box, text: _parse_degrees(text),
    "_parse_range": lambda box, text: _parse_range(text),
}


# The edges of the variety, class and range grammars: blanks around
# tokens, unsigned integers inside, a sign only before a term, '+' never
# first, and a range may hold one degree.
GRAMMAR_EDGES = [
    ("parse_variety", "Fl(4,0)", None),  # Fl needs its ';'
    ("parse_variety", "P(-1)", None),
    ("parse_variety", "Gr(2,5)x", None),
    ("parse_chow", "s[-0]", None),
    ("parse_chow", "+s[1]", None),
    ("parse_chow", "s[1] s[1]", None),
    ("parse_chow", "t[1]", None),
    ("parse_variety", "Gr ( 2 , 5 )", grassmannian(2, 5)),
    ("parse_chow", "s [ 2 , 1 ]", ChowElement(RingContext(2, 4), {Partition([2, 1]): 1})),
    ("parse_chow", "- s[1] + 2*s[]", ChowElement(RingContext(2, 4), {Partition([1]): -1, Partition(): 2})),
    ("parse_partition", "1*s[3,1]", Partition([3, 1])),
    ("parse_partition", "1", Partition()),  # a bare 1 is the unit class
    ("_parse_range", "3..3", (3, 3)),  # a range of one degree
    ("_parse_range", "-2..-2", (-2, -2)),
]


@pytest.mark.parametrize("entry,text,want", GRAMMAR_EDGES)
def test_grammar_edges(entry, text, want):
    """None marks a refused string; parse_chow reads in G(2,4)."""
    if want is None:
        with pytest.raises(CLIError):
            PARSERS[entry]((2, 4), text)
    else:
        assert PARSERS[entry]((2, 4), text) == want


@pytest.mark.parametrize("entry", PARSERS)
def test_only_cli_error_escapes_the_parser(entry):
    """Grammar-aware fuzzing: each entry point gets text of its own grammar
    (variety specs, class expressions, one class, degree lists, ranges) with
    small integers, zero, negatives and non-ASCII digits, and up to two
    stray tokens spliced in.  parse_chow runs in a valid box, because k and
    n are the caller's, not part of the parsed text.
    """
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    ints = st.one_of(
        st.integers(0, 6).map(str),
        st.integers(-3, 12).map(str),
        st.sampled_from(["\u0663", "\u00b2", "\uff17", "00", "1_0"]),
    )
    int_lists = st.lists(ints, min_size=1, max_size=4).map(",".join)
    factors = st.one_of(
        st.tuples(st.sampled_from(["P", "Gr", "OG", "SG", "Zr"]), int_lists).map("{0[0]}({0[1]})".format),
        st.tuples(int_lists, ints).map("Fl({0[0]};{0[1]})".format),
    )
    coefficients = st.one_of(st.just(""), ints.map("{}*".format), ints)
    terms = st.tuples(coefficients, int_lists | st.just("")).map("{0[0]}s[{0[1]}]".format)
    grammars = {
        "parse_variety": st.lists(factors, min_size=1, max_size=3).map("x".join),
        "parse_chow": st.lists(terms, min_size=1, max_size=3).map(" + ".join),
        "parse_partition": terms,
        "_parse_degrees": int_lists,
        "_parse_range": st.tuples(ints, ints).map("..".join),
    }
    stray = st.sampled_from(list("x(),;[]*+-. ") + ["..", "Fl", "s", "P"])

    @st.composite
    def texts(draw):
        text = draw(grammars[entry])
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(stray) + text[i + draw(st.integers(0, 1)):]
        return text

    boxes = st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(k + 1, 8)))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(boxes, texts())
    @example((2, 4), "Fl(3,2;4)")  # once escaped parse_variety as a plain ValueError
    @example((2, 4), "Fl(4,0)")  # a flag without its ';'
    # more digits than int() converts, where the interpreter has that limit
    @example((2, 4), "P(" + "9" * 5000 + ")")
    @example((2, 4), "9" * 5000 + "*s[1]")
    @example((2, 4), "9" * 5000)
    def check(box, text):
        try:
            PARSERS[entry](box, text)
        except CLIError:
            pass

    check()
