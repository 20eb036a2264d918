"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import json
import random
from fractions import Fraction

import jsonschema

from alghyp import schemas
from alghyp.chern import fano_class, line_count, paired_rearrangement, top_chern_sym
from alghyp.cli import main, parse_variety
from alghyp.genus import hyperbolicity_certificate
from alghyp.grassmann import (
    ChowElement,
    Partition,
    RingContext,
    complement,
    integrate,
    make_class,
    multiply,
    transpose_dual,
)
from alghyp.sections import check_projective_space
from alghyp.varieties import (
    OPEN_GAP,
    classify,
    flag,
    grassmannian,
    hyperbolicity_threshold,
    lines_threshold,
    orthogonal,
    product,
    projective_space,
    symplectic,
)
from tests.instances import catalog_instances
from tests.schur_oracle import schur_oracle_multiply
from tests.sections_oracle import section_rank_oracle
from tests.test_grassmann import all_box_partitions, element_from_json


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_schubert_oracle_equivalence():
    pairs = 0
    for k in range(1, 4):
        for n in range(k + 1, 8):
            ctx = RingContext(k, n)
            pool = all_box_partitions(k, n - k, 8)
            for lam in pool:
                for mu in pool:
                    x = make_class(ctx, lam)
                    y = make_class(ctx, mu)
                    if multiply(x, y) != schur_oracle_multiply(x, y):
                        report(1, False, f"disagreement at G({k},{n}) {lam} {mu}")
                    pairs += 1
    report(1, True, f"Littlewood-Richardson agrees with the Schur oracle on {pairs} pairs")


def test_criterion_2_classical_line_counts():
    got = (line_count(3), line_count(4))
    report(2, got == (27, 2875), f"line counts (27, 2875), got {got}")
    assert line_count(5) == 698005  # frozen from the pre-build oracle run


def test_criterion_3_missing_class_positivity():
    for d in range(2, 31):
        r = fano_class(d, d + 3)
        if not r.missing_class_ok:
            report(3, False, f"positivity certificate failed at d={d}")
    report(3, True, "single-row class absent and two-row classes positive, d=2..30")


def dual_class_vanishes(d, N):
    """Whether sigma_2 annihilates the transpose-dual of the two-row class
    (N-2, N-2-(d+1)) of G(2, N), for d >= 2 and N >= d + 3.

    This is the computational witness that lines in a family of that class
    pass through finitely many points; for d = 1 the geometric argument
    behind the check does not apply.
    """
    dual_ctx, conj = transpose_dual(RingContext(2, N), Partition((N - 2, N - 2 - (d + 1))))
    assert conj == Partition((2,) * (N - 2 - (d + 1)) + (1,) * (d + 1))
    return not multiply(make_class(dual_ctx, (2,)), make_class(dual_ctx, conj)).terms


def test_criterion_4_dual_class_vanishing():
    checked = 0
    for d in range(2, 11):
        for N in range(d + 3, 15):
            if not dual_class_vanishes(d, N):
                report(4, False, f"nonzero product at d={d}, N={N}")
            checked += 1
    report(4, True, f"dual-class Pieri vanishing holds at {checked} (d, N) points")


def test_criterion_5_family_threshold_regression():
    for k in range(1, 5):
        for n in range(k + 1, 11):
            v = grassmannian(k, n)
            assert hyperbolicity_threshold(v) == [k * (n - k) + n - 2]
            assert lines_threshold(v) == [k * (n - k) + n - 4]
    data = [(2, 4), (2, 5), (1, 3)]
    v = product(*(grassmannian(k, n) for k, n in data))
    total = sum(k * (n - k) for k, n in data)
    assert hyperbolicity_threshold(v) == [n + total - 2 for _, n in data]
    assert lines_threshold(v) == [n + total - 4 for _, n in data]
    for k, n in ((1, 6), (1, 8), (2, 7), (2, 8), (2, 9), (3, 10)):
        v = orthogonal(k, n)
        d = k * (2 * n - 3 * k - 1) // 2
        assert hyperbolicity_threshold(v) == [n - 3 * k - 1 + d]
        assert lines_threshold(v) == [n - 3 * k - 3 + d]
    for ks, n in (((1, 2), 4), ((1, 3), 5), ((2, 3), 5), ((1, 2, 3), 5)):
        v = flag(ks, n)
        ext = (0,) + tuple(ks) + (n,)
        for i in range(len(ks)):
            gap = ext[i + 2] - ext[i]
            assert hyperbolicity_threshold(v)[i] == gap + v.D - 2
            assert lines_threshold(v)[i] == gap + v.D - 4
    for k, n in ((1, 5), (2, 6), (2, 7), (1, 9)):
        v = symplectic(k, n)
        d = k * (2 * n - 3 * k + 1) // 2
        assert hyperbolicity_threshold(v) == [d + n - 3 * k]
        assert v.notes and any("n+3k" in note for note in v.notes)
        assert any("n+3k" in s for s in v.to_json_dict()["paper_discrepancies"])
    report(5, True, "family thresholds reproduce; symplectic discrepancy flagged")


def test_criterion_6_projective_space_consistency():
    for n in range(4, 41):
        v = projective_space(n)
        if hyperbolicity_threshold(v) != [2 * n - 1] or lines_threshold(v) != [2 * n - 3]:
            report(6, False, f"threshold mismatch at n={n}")
    gap = classify(projective_space(4), (6,))
    report(
        6,
        gap.kind == OPEN_GAP,
        "projective thresholds are 2n-1 / 2n-3 and the sextic threefold is the open gap",
    )


def test_criterion_7_certificate_sweep():
    instances = catalog_instances(4, 12)
    assert len(instances) >= 30
    for v in instances:
        d = hyperbolicity_threshold(v)
        cert = hyperbolicity_certificate(v, d)
        if cert.epsilon is None or cert.epsilon <= 0:
            report(7, False, f"no certificate at threshold for {v.name}")
        assert isinstance(cert.epsilon, Fraction)
        for i in range(v.m):
            lowered = list(d)
            lowered[i] -= 1
            if hyperbolicity_certificate(v, lowered).epsilon is not None:
                report(7, False, f"certificate survives lowering d_{i + 1} for {v.name}")
    report(
        7,
        True,
        f"certificate present at threshold and lost one below on {len(instances)} instances",
    )


def test_criterion_8_section_domination():
    for n in range(1, 5):
        for d in range(1, 7):
            r = check_projective_space(n, d)
            rank, target_dim = section_rank_oracle(n, d)
            if not (r.ok and r.rank == rank == target_dim == r.target_dim):
                report(8, False, f"rank defect at (n, d) = ({n}, {d})")
    report(8, True, "section domination verified with full rank on the 4x6 grid")


def test_criterion_9_property_suites():
    # duality pairing, exhaustively over complementary pairs in many boxes
    duality_cases = 0
    for k, n in ((2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (3, 6), (3, 7), (3, 8), (4, 8)):
        ctx = RingContext(k, n)
        pool = all_box_partitions(k, n - k)
        for lam in pool:
            comp = complement(ctx, lam)
            for mu in pool:
                if sum(mu.parts) != ctx.dim - sum(lam.parts):
                    continue
                pairing = integrate(multiply(make_class(ctx, lam), make_class(ctx, mu)))
                assert pairing == (1 if mu == comp else 0)
                duality_cases += 1
    assert duality_cases >= 1000

    # grading and nonnegative structure constants on random products
    rng = random.Random(987654321)
    graded_cases = 0
    while graded_cases < 1000:
        k, n = rng.choice([(2, 5), (2, 6), (3, 6), (3, 7), (4, 8)])
        ctx = RingContext(k, n)
        pool = all_box_partitions(k, n - k, 6)
        lam, mu = rng.choice(pool), rng.choice(pool)
        prod = multiply(make_class(ctx, lam), make_class(ctx, mu))
        assert {sum(nu.parts) for nu in prod.terms} <= {sum(lam.parts) + sum(mu.parts)}
        assert all(c > 0 for c in prod.terms.values())
        graded_cases += 1

    for d in range(2, 21, 2):
        assert paired_rearrangement(d) == top_chern_sym(d, d + 3)
    report(
        9,
        True,
        f"duality ({duality_cases} cases), grading/positivity ({graded_cases} cases), "
        "paired route d<=20",
    )


ACCEPTANCE_COMMANDS = (
    ("info", "Gr(2,5)", "--json"),
    ("info", "SG(2,6)", "--json"),
    ("info", "Fl(1,2;4)"),
    ("threshold", "OG(2,7)"),
    ("classify", "P(4)", "--deg", "6", "--json"),
    ("classify", "P(2)xP(2)", "--deg", "4,9", "--json"),
    ("fano-class", "--d", "4", "--N", "7", "--json"),
    ("line-count", "--n", "4", "--json"),
    ("schubert", "mul", "--k", "2", "--n", "4", "s[1]", "s[1]", "--json"),
    ("schubert", "integrate", "--k", "2", "--n", "5", "s[3,3]", "--json"),
    ("schubert", "dual", "--k", "2", "--n", "5", "s[3,1]", "--json"),
    ("genus-bound", "Gr(2,4)xP(2)", "--deg", "9,9", "--json"),
    ("certify", "P(4)", "--deg", "7", "--json"),
    ("section-dom", "--n", "2", "--d", "2", "--json"),
    ("sweep", "P(4)", "--range", "5..8", "--json"),
    ("sweep", "Gr(2,4)", "--range", "4..8"),
)

ACCEPTANCE_SCHEMAS = {
    "info": schemas.DESCRIPTOR_SCHEMA,
    "classify": schemas.CLASSIFY_SCHEMA,
    "fano-class": schemas.FANO_REPORT_SCHEMA,
    "line-count": schemas.LINE_COUNT_SCHEMA,
    "genus-bound": schemas.GENUS_REPORT_SCHEMA,
    "certify": schemas.CERTIFY_SCHEMA,
    "section-dom": schemas.SECTION_REPORT_SCHEMA,
    "sweep": schemas.SWEEP_SCHEMA,
    ("schubert", "mul"): schemas.CHOW_ELEMENT_SCHEMA,
    ("schubert", "integrate"): schemas.INTEGRATE_SCHEMA,
    ("schubert", "dual"): schemas.DUAL_SCHEMA,
}


def test_criterion_10_cli_determinism(capsys):
    def run_all():
        outputs = []
        for argv in ACCEPTANCE_COMMANDS:
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            outputs.append(captured.out)
        return outputs

    first, second = run_all(), run_all()
    for argv, a, b in zip(ACCEPTANCE_COMMANDS, first, second):
        if a.encode() != b.encode():
            report(10, False, f"output drift for {' '.join(argv)}")
    for argv, out in zip(ACCEPTANCE_COMMANDS, first):
        if "--json" not in argv:
            continue
        key = (argv[0], argv[1]) if argv[0] == "schubert" else argv[0]
        jsonschema.validate(json.loads(out), ACCEPTANCE_SCHEMAS[key])
    # the sweep rows exercise the documented trichotomy
    sweep_json = json.loads(first[-2])
    kinds = [row["classification"]["kind"] for row in sweep_json["rows"]]
    ok = kinds == ["ContainsLines", "OpenGap", "Hyperbolic", "Hyperbolic"]
    report(10, ok, "byte-identical reruns and schema-valid JSON for the command set")


def test_round_trip_parse_render():
    for v in catalog_instances(4, 12):
        assert parse_variety(v.name) == v
    # serialization round trip for a chunky element
    ctx = RingContext(3, 7)
    elem = ChowElement(
        ctx, {Partition([4, 2, 1]): 10**30, Partition([2, 2, 2]): -7}
    )
    assert element_from_json(json.loads(json.dumps(elem.to_json_dict()))) == elem
