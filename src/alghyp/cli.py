"""Command-line front end.

Parses the variety mini-language (Gr(k,n), P(n), OG(k,n), SG(k,n),
Fl(k1,...,km;n), products joined with 'x'), dispatches to the library,
and renders text tables or JSON reports.  Output is deterministic:
identical invocations produce byte-identical bytes, and fractions are
printed exactly, never as decimals.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import chern, genus, sections
from .grassmann import ChowElement, Partition, RingContext, complement, integrate, multiply, transpose_dual
from .varieties import (
    VarietyDescriptor,
    classify,
    fano_lines_dimension,
    flag,
    grassmannian,
    hyperbolicity_threshold,
    known_counterexamples,
    lines_threshold,
    orthogonal,
    product,
    projective_space,
    symplectic,
)


class CLIError(ValueError):
    """User-input problem caught by the CLI itself: bad syntax or bad flags.

    Library preconditions raise plain `ValueError`; `main` maps both to exit 1.
    """


_INTEGER = re.compile(r"-?[0-9]+")
# a value that argparse would read as a flag: '-' then a digit
_SIGNED = re.compile(r"-[0-9]")


def integer(text: str) -> int:
    """The CLI's one integer reader: ASCII digits with an optional leading
    '-', and nothing else (no padding, underscores, '+' or other digits).

    Also the argparse type of the integer flags, which name it in their
    messages ("invalid integer value").
    """
    if _INTEGER.fullmatch(text) is None:
        raise CLIError(f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise CLIError(f"integer {text[:8]}... of {len(text)} digits is too long") from None


# One factor Name(args): blanks around each token, and no '(', ')' or '-'
# inside the parentheses, so that a sign is refused rather than read
_FACTOR = re.compile(r"\s*(\w+)\s*\(([^()-]*)\)\s*")
# One class term: an optional sign, then [c*]s[parts] or a bare c.  The
# blanks after the sign sit in its optional group: a run of blanks that
# two adjacent \s* could share would backtrack quadratically.
_TERM = re.compile(
    r"\s*(?:(?P<sign>[+-])\s*)?"
    r"(?:(?:(?P<coeff>[0-9]+)\s*\*\s*)?s\s*\[(?P<parts>[^\]-]*)\]|(?P<unit>[0-9]+))\s*"
)


def parse_variety(spec: str) -> VarietyDescriptor:
    """Parse 'Gr(2,4)xP(2)'-style variety specifications."""
    factors, start = [], 0
    for piece in spec.split("x"):
        match = _FACTOR.match(piece)
        if match is None or match.end() < len(piece):
            at, want = (start + match.end(), "'x'") if match else (start, "Name(args)")
            raise CLIError(f"expected {want} at position {at} in {spec!r}")
        factors.append(_parse_factor(match, start, spec))
        start += len(piece) + 1
    return product(*factors)


def _parse_factor(match: re.Match, start: int, spec: str) -> VarietyDescriptor:
    name, body = match.groups()
    makers = {
        "P": (1, projective_space),
        "Gr": (2, grassmannian),
        "OG": (2, orthogonal),
        "SG": (2, symplectic),
        "Fl": (2, flag),  # Fl(k1,...,km;n) is read as the two arguments ks, n
    }
    if name not in makers:
        raise CLIError(
            f"unknown variety name {name!r} at position {start + match.start(1)} in {spec!r}"
        )
    arity, maker = makers[name]
    head, semicolon, tail = body.partition(";")
    args = [integer(a.strip()) for a in head.split(",")]
    if semicolon:
        args = [args, integer(tail.strip())]
    if len(args) != arity or bool(semicolon) != (name == "Fl"):
        usage = "k1,...,km;n" if name == "Fl" else f"{arity} argument(s)"
        raise CLIError(f"{name} takes {usage}, got {body!r} in {spec!r}")
    try:
        return maker(*args)
    except ValueError as err:
        raise CLIError(str(err)) from err


def parse_chow(k: int, n: int, text: str) -> ChowElement:
    """Parse '3*s[2,1] + 5*s[1,1,1]'-style class expressions."""
    ctx = RingContext(k, n)
    terms = {}
    pos = 0
    while pos == 0 or pos < len(text):
        match = _TERM.match(text, pos)
        # the first term may not carry '+', and every later one needs a sign
        if match is None or match["sign"] == ("+" if pos == 0 else None):
            want = "'+' or '-' and a term" if pos else "a term"
            raise CLIError(f"expected {want} at position {pos} in {text!r}")
        coeff, lam = _parse_chow_term(match)
        if not ctx.fits(lam):
            raise CLIError(f"{list(lam)} does not fit the G({k},{n}) box")
        terms[lam] = terms.get(lam, 0) + (-coeff if match["sign"] == "-" else coeff)
        pos = match.end()
    return ChowElement(ctx, terms)


def _parse_chow_term(match: re.Match):
    """The coefficient and partition of one `_TERM` match, sign left out."""
    if match["unit"] is not None:
        return integer(match["unit"]), Partition()  # bare integer: multiple of the unit
    coeff = 1 if match["coeff"] is None else integer(match["coeff"])
    body = match["parts"].strip()
    parts = [integer(p.strip()) for p in body.split(",")] if body else []
    try:
        return coeff, Partition(parts)
    except ValueError as err:
        raise CLIError(str(err)) from err


def parse_partition(text: str) -> Partition:
    match = _TERM.fullmatch(text)
    if match is not None and match["sign"] is None:
        coeff, lam = _parse_chow_term(match)
        if coeff == 1:
            return lam
    raise CLIError(f"expected a single partition expression, got {text!r}")


def _parse_degrees(raw: str):
    try:
        return tuple(integer(p) for p in raw.split(","))
    except CLIError as err:
        raise CLIError(f"bad degree list {raw!r}: expected d1,d2,...") from err


# The most degrees one `sweep` evaluates, and the most degrees x m^2 for a
# spec of m factors: each row builds 2m+1 case vectors of length m.  In
# process on products of m copies of P(1), text render (Python 3.11.7,
# Intel Xeon, 2 CPUs), 10^4 rows take 0.19 s at m = 1 and 1.5 s at m = 10,
# the widest sweep the two limits admit; at the work limit, 2,500 rows take
# 0.67 s at m = 20, 100 rows 0.29 s at m = 100, and one row 0.1 s at m = 1000.
# One certificate is one row, so `classify`, `certify` and `genus-bound`
# refuse m^2 past the work limit before they read the degrees.
_MAX_SWEEP_ROWS = 10_000
_MAX_SWEEP_WORK = 1_000_000


def _check_work(rows: int, m: int, raw_range: str | None = None) -> None:
    """Refuse `rows` degree lists on a spec of m factors past the work
    limit; a sweep passes its --range text, one degree list none."""
    if rows * m**2 > _MAX_SWEEP_WORK:
        head = "one degree list" if raw_range is None else f"bad range {raw_range!r}: {rows} degrees"
        raise CLIError(f"{head} on {m} factors is more than {_MAX_SWEEP_WORK} degrees x factors^2")


def _read_degree_list(args):
    """The variety and degrees of `classify`, `certify` and `genus-bound`,
    refused in this order: the spec, the work limit, the degree list."""
    v = parse_variety(args.variety)
    _check_work(1, len(v.a))
    return v, _parse_degrees(args.deg)


def _parse_range(raw: str):
    lo, _, hi = raw.partition("..")
    try:  # without '..' hi is '', which `integer` refuses
        lo, hi = integer(lo), integer(hi)
    except CLIError as err:
        raise CLIError(f"bad range {raw!r}: expected lo..hi") from err
    if hi < lo:
        raise CLIError(f"bad range {raw!r}: empty")
    if hi - lo >= _MAX_SWEEP_ROWS:
        raise CLIError(f"bad range {raw!r}: more than {_MAX_SWEEP_ROWS} degrees")
    return lo, hi


_quote = json.encoder.encode_basestring_ascii


def _json_text(obj, indent="\n") -> str:
    """The text of `json.dumps(obj, indent=2)`, written directly, because
    with an indent that call takes the pure-Python encoder.  A report holds
    dicts with string keys, lists, tuples, strings, ints, bools and None;
    any other value or key raises TypeError."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [inner + _quote(key) + ": " + _json_text(value, inner) for key, value in obj.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [inner + _json_text(value, inner) for value in obj]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _eps_str(eps) -> str:
    return str(eps) if eps is not None else "-"


def _fmt_ints(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _classification_text(c) -> str:
    extra = ""
    if c.witness is not None:
        extra = f" witness=d{c.witness + 1}"
    if c.boundary:
        extra = " boundary=" + ",".join(f"d{i + 1}" for i in c.boundary)
    return c.kind + extra


def _cmd_info(args):
    v = parse_variety(args.variety)
    if args.json:
        return _json_text(v.to_json_dict())
    lines = [
        f"variety: {v.name}",
        f"picard rank: {v.m}",
        f"dimension: {v.D}",
        f"canonical coefficients: {_fmt_ints(v.a)}",
        f"hyperbolicity threshold: {_fmt_ints(hyperbolicity_threshold(v))}",
        f"lines threshold: {_fmt_ints(lines_threshold(v))}",
        f"line-space dimensions: {_fmt_ints(fano_lines_dimension(v, i) for i in range(v.m))}",
    ]
    for note in v.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _cmd_threshold(args):
    v = parse_variety(args.variety)
    if args.json:
        return _json_text(
            {
                "variety": v.name,
                "hyperbolicity_threshold": hyperbolicity_threshold(v),
                "lines_threshold": lines_threshold(v),
                "paper_discrepancies": list(v.notes),
            }
        )
    return "\n".join(
        [
            f"{v.name}: hyperbolic for d_i >= {_fmt_ints(hyperbolicity_threshold(v))},"
            f" lines for some d_i <= {_fmt_ints(lines_threshold(v))}",
        ]
        + [f"note: {note}" for note in v.notes]
    )


def _verdict(v, degrees):
    """Classification and certificate of one multidegree."""
    return classify(v, degrees), genus.hyperbolicity_certificate(v, degrees)


def _verdict_json(c, report) -> dict:
    """The classification and epsilon fields shared by classify, certify and sweep."""
    return {
        "classification": c.to_json_dict(),
        "epsilon": str(report.epsilon) if report.epsilon is not None else None,
    }


def _cmd_classify(args):
    v, degrees = _read_degree_list(args)
    c, report = _verdict(v, degrees)
    counterexamples = known_counterexamples(v, degrees)
    if args.json:
        return _json_text(
            {
                "variety": v.name,
                "degrees": list(degrees),
                **_verdict_json(c, report),
                "counterexamples": [e.to_json_dict() for e in counterexamples],
                "paper_discrepancies": list(v.notes),
            }
        )
    lines = [
        f"{v.name} deg={_fmt_ints(degrees)}: {_classification_text(c)},"
        f" threshold={_fmt_ints(hyperbolicity_threshold(v))},"
        f" epsilon={_eps_str(report.epsilon)}"
    ]
    for e in counterexamples:
        lines.append(f"counterexample [{e.citation}] ({e.condition}): {e.note}")
    return "\n".join(lines)


def _cmd_fano_class(args):
    report = chern.fano_class(args.d, args.N)
    if args.json:
        return _json_text(report.to_json_dict())
    return (
        f"class of the line scheme, d={report.d}, N={report.N}:\n"
        f"  {report.expansion.to_text()}\n"
        f"missing_class_ok: {report.missing_class_ok}"
    )


def _cmd_line_count(args):
    count = chern.line_count(args.n)
    if args.json:
        return _json_text(
            {"n": args.n, "d": 2 * args.n - 3, "N": args.n + 1, "count": count}
        )
    return str(count)


def _cmd_schubert_mul(args):
    x = parse_chow(args.k, args.n, args.factors[0])
    for raw in args.factors[1:]:
        x = multiply(x, parse_chow(args.k, args.n, raw))
    if args.json:
        return _json_text(x.to_json_dict())
    return x.to_text()


def _cmd_schubert_integrate(args):
    x = parse_chow(args.k, args.n, args.expr)
    value = integrate(x)
    if args.json:
        return _json_text({"k": args.k, "n": args.n, "value": str(value)})
    return str(value)


def _cmd_schubert_dual(args):
    ctx = RingContext(args.k, args.n)
    lam = parse_partition(args.partition)
    comp = complement(ctx, lam)
    dual_ctx, conj = transpose_dual(ctx, lam)
    if args.json:
        return _json_text(
            {
                "k": args.k,
                "n": args.n,
                "partition": list(lam),
                "complement": list(comp),
                "dual_k": dual_ctx.k,
                "dual_partition": list(conj),
            }
        )
    return "\n".join(
        [
            f"complement in G({args.k},{args.n}): s[{','.join(map(str, comp))}]",
            f"transpose dual in G({dual_ctx.k},{dual_ctx.n}): s[{','.join(map(str, conj))}]",
        ]
    )


def _cmd_genus_bound(args):
    v, degrees = _read_degree_list(args)
    report = genus.hyperbolicity_certificate(v, degrees)
    if args.json:
        return _json_text(report.to_json_dict())
    lines = [f"{v.name} deg={_fmt_ints(degrees)}"]
    for case in report.cases:
        where = "uniform" if case.j is None else f"j={case.j + 1}"
        coeffs = ", ".join(case.coefficient_texts())
        lines.append(f"case {case.case} ({where}): 2g-2 >= [{coeffs}] . e")
    lines.append(f"epsilon: {_eps_str(report.epsilon)} (binding case {report.binding.case})")
    for flag_text in report.ledger_flags:
        lines.append(f"flag: {flag_text}")
    return "\n".join(lines)


def _cmd_certify(args):
    v, degrees = _read_degree_list(args)
    c, report = _verdict(v, degrees)
    if args.json:
        return _json_text(
            {
                "variety": v.name,
                "degrees": list(degrees),
                **_verdict_json(c, report),
                "binding_case": report.binding.case,
            }
        )
    verdict = (
        f"certified epsilon={report.epsilon} (case {report.binding.case})"
        if report.epsilon is not None
        else "no certificate"
    )
    return f"{v.name} deg={_fmt_ints(degrees)}: {verdict}; {_classification_text(c)}"


def _cmd_section_dom(args):
    if args.grid:
        if args.n is not None or args.d is not None:
            raise CLIError("section-dom --grid takes neither --n nor --d")
        results = sections.grid_report()
    else:
        if args.n is None or args.d is None:
            raise CLIError("section-dom needs --n and --d (or --grid)")
        results = [sections.check_projective_space(args.n, args.d)]
    if args.json:
        return _json_text(
            {
                "entries": [r.to_json_dict() for r in results],
                "all_ok": all(r.ok for r in results),
            }
        )
    lines = ["n  d  rank  target  ok"]
    for r in results:
        lines.append(f"{r.n}  {r.d}  {r.rank}  {r.target_dim}  {'pass' if r.ok else 'FAIL'}")
    return "\n".join(lines)


def _cmd_sweep(args):
    v = parse_variety(args.variety)
    lo, hi = _parse_range(args.range)
    _check_work(hi - lo + 1, v.m, args.range)
    rows = [(t, *_verdict(v, (t,) * v.m)) for t in range(lo, hi + 1)]
    if args.json:
        return _json_text(
            {
                "variety": v.name,
                "rows": [{"degree": t, **_verdict_json(c, report)} for t, c, report in rows],
            }
        )
    return "\n".join(
        f"d={t}  {_classification_text(c)}  epsilon={_eps_str(report.epsilon)}"
        for t, c, report in rows
    )


def _arg(kind=str, help=None, required=True):
    return kind, required, help


# The grammar, each command once: its name (a schubert leaf is the pair
# "schubert", leaf), function, help, and its arguments in order, each as
# (type, required, help) under its name.  A name that starts with "--" is
# a flag, and a flag of type bool a switch; a positional of type list takes
# one or more strings.  Every command also takes the shared flags.
_SHARED = {
    "--json": _arg(bool, "emit JSON", False),
    "--out": _arg(help="write output to FILE instead of stdout", required=False),
}
_VARIETY = {"variety": _arg()}
_BOX = {"--k": _arg(integer), "--n": _arg(integer)}
_GROUPS = {"schubert": "Schubert calculus in G(k,n)"}
_COMMANDS = {
    ("info",): (_cmd_info, "describe a variety", _VARIETY),
    ("threshold",): (_cmd_threshold, "hyperbolicity and line thresholds", _VARIETY),
    ("classify",): (_cmd_classify, "classify a multidegree", {**_VARIETY, "--deg": _arg(help="d1,d2,...")}),
    ("fano-class",): (
        _cmd_fano_class, "expansion of the line-scheme class", {"--d": _arg(integer), "--N": _arg(integer)}
    ),
    ("line-count",): (_cmd_line_count, "finite line count on a hypersurface", {"--n": _arg(integer)}),
    ("schubert", "mul"): (
        _cmd_schubert_mul, None, {**_BOX, "factors": _arg(list, "class expressions, e.g. 's[2,1]'")}
    ),
    ("schubert", "integrate"): (_cmd_schubert_integrate, None, {**_BOX, "expr": _arg()}),
    ("schubert", "dual"): (
        _cmd_schubert_dual, None, {**_BOX, "partition": _arg(help="single class, e.g. 's[3,1]'")}
    ),
    ("genus-bound",): (_cmd_genus_bound, "per-case genus lower bounds", {**_VARIETY, "--deg": _arg()}),
    ("certify",): (_cmd_certify, "hyperbolicity certificate", {**_VARIETY, "--deg": _arg()}),
    ("section-dom",): (
        _cmd_section_dom,
        "section-domination rank checks",
        {
            "--n": _arg(integer, required=False),
            "--d": _arg(integer, required=False),
            "--grid": _arg(bool, "run the full desk-scale grid", False),
        },
    ),
    ("sweep",): (
        _cmd_sweep,
        "classification and epsilon over a degree range",
        {**_VARIETY, "--range": _arg(help="lo..hi")},
    ),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises `CLIError` instead of exiting."""

    def error(self, message):
        raise CLIError(message)


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The argparse tree of `_COMMANDS`, built on the first call that needs
    it and shared by every later call in the process.  `parse_args` keeps
    no state on it between calls, and the parser is never mutated after it
    is built.
    """
    parser = _ArgumentParser(
        prog="alghyp",
        description="Exact thresholds and certificates for algebraic "
        "hyperbolicity of hypersurfaces in homogeneous varieties.",
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (func, help_text, arguments) in _COMMANDS.items():
        group = path[:-1]
        if group not in subparsers:
            subparsers[group] = (
                subparsers[()]
                .add_parser(group[0], help=_GROUPS[group[0]])
                .add_subparsers(dest="subcommand", required=True)
            )
        # a leaf without help text stays out of its group's command list
        p = subparsers[group].add_parser(path[-1], **({"help": help_text} if help_text else {}))
        p.set_defaults(func=func)
        for name, (kind, required, help_arg) in {**_SHARED, **arguments}.items():
            if kind is bool:
                p.add_argument(name, action="store_true", help=help_arg)
            elif name.startswith("-"):
                p.add_argument(name, type=kind, required=required, help=help_arg)
            else:
                p.add_argument(name, nargs="+" if kind is list else None, help=help_arg)
    return parser


def _input_error_text(err: Exception) -> str:
    """The one-line message of an exit-1 error.

    An input that parsed can still sum or multiply to an integer with more
    digits than the interpreter converts to text.  Rendering it raises a
    `ValueError` whose message begins "Exceeds the limit (" on every Python
    that has the limit; that message is replaced by one naming the limit.
    """
    if str(err).startswith("Exceeds the limit ("):
        return (
            f"a result has more than {sys.get_int_max_str_digits()} digits,"
            " the interpreter's limit for printing an integer"
        )
    return str(err)


def _fast_parse(argv: list) -> argparse.Namespace | None:
    """The namespace `_build_parser().parse_args(argv)` gives, read from
    `_COMMANDS` without argparse when argv is plain; None otherwise.

    Plain means: the command's name (two for a schubert leaf), then exact
    flag names, each at most once and each value flag followed by a value
    that does not start with '-'; no other string that starts with '-'
    ('-h', '--', '--flag=value' and abbreviations included); every required
    flag; integer values that `integer` reads; and the positionals in one
    run, as many as the command takes.  On None the caller parses with
    argparse, which words every error and help text.
    """
    head = 2 if argv[:1] == ["schubert"] else 1
    command = _COMMANDS.get(tuple(argv[:head]))
    if command is None:
        return None
    func, _, arguments = command
    fields = {"command": argv[0], "func": func}
    if head == 2:
        fields["subcommand"] = argv[1]
    run, i = [], head  # the indices of the positionals
    while i < len(argv):
        arg = argv[i]
        if arg[:1] != "-":
            if run and run[-1] != i - 1:
                return None  # a second run of positionals
            run.append(i)
            i += 1
            continue
        spec = arguments.get(arg) or _SHARED.get(arg)
        if spec is None or arg[2:] in fields:
            return None
        kind, i = spec[0], i + 1
        if kind is bool:
            fields[arg[2:]] = True
            continue
        if i == len(argv) or argv[i][:1] == "-":
            return None
        try:
            fields[arg[2:]] = integer(argv[i]) if kind is integer else argv[i]
        except CLIError:
            return None
        i += 1
    given = [argv[i] for i in run]
    for name, (kind, required, _) in {**_SHARED, **arguments}.items():
        if name[:1] != "-":
            if not given:
                return None
            fields[name], given = (given, []) if kind is list else (given[0], given[1:])
        elif name[2:] not in fields:
            if required:
                return None
            fields[name[2:]] = False if kind is bool else None
    return None if given else argparse.Namespace(**fields)


def _attach_signed_values(argv: list) -> list:
    """Join `--range -5..3` into `--range=-5..3`, and `--deg -5,3` or an
    abbreviation (`--ran`, `--de`) alike: argparse reads a value that starts
    with '-' and is not a plain number as a flag, but not a joined value.
    Runs only before the argparse fallback: a plain argv has no value that
    starts with '-', so `_fast_parse` reads it unjoined."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (
            len(flag) > 2
            and ("--range".startswith(flag) or "--deg".startswith(flag))
            and _SIGNED.match(arg)
        ):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _fast_parse(argv) or _build_parser().parse_args(_attach_signed_values(argv))
        payload = args.func(args) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload)
    except SystemExit as stop:  # -h/--help has printed its text
        return stop.code
    except (ValueError, OSError) as err:  # bad input, or an --out path that cannot be written
        print(f"error: {_input_error_text(err)}", file=sys.stderr)
        return 1
    except Exception as err:  # internal invariant violation
        print(f"internal error: {err!r}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(payload)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
