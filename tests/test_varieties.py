import itertools
from fractions import Fraction

import pytest

from alghyp.genus import hyperbolicity_certificate
from alghyp.varieties import (
    CONTAINS_LINES,
    HYPERBOLIC,
    LOW_DIMENSION,
    OPEN_GAP,
    _COUNTEREXAMPLE_TABLE,
    _FLAG_DIM_NOTE,
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
from tests.instances import catalog_instances


def flag_dimension_oracle(ks, n):
    """Independent count: sum of step-size products over all step pairs."""
    ext = (0,) + tuple(ks) + (n,)
    deltas = [ext[i + 1] - ext[i] for i in range(len(ext) - 1)]
    return sum(
        deltas[i] * deltas[j]
        for i in range(len(deltas))
        for j in range(i + 1, len(deltas))
    )


class TestConstructors:
    def test_grassmannian(self):
        v = grassmannian(2, 4)
        assert (v.D, v.a) == (4, (-4,))
        v = grassmannian(2, 5)
        assert (v.D, v.a) == (6, (-5,))
        with pytest.raises(ValueError):
            grassmannian(3, 3)

    def test_projective_space_is_rank_one_grassmannian(self):
        """P, Gr and one-step Fl spell the same type-A data: Gr(k,n),
        its dual Gr(n-k,n) and Fl(k;n) agree, and P(n) is Fl(1;n+1)."""
        def data(v):
            return (v.m, v.D, v.a)

        for n in range(2, 10):
            for k in range(1, n):
                g = data(grassmannian(k, n))
                assert data(grassmannian(n - k, n)) == g == data(flag((k,), n)), (k, n)
        for n in range(1, 9):
            p = data(projective_space(n))
            assert p == data(flag((1,), n + 1)) == data(grassmannian(1, n + 1)) == (1, n, (-(n + 1),))

    def test_orthogonal(self):
        v = orthogonal(2, 7)
        assert (v.D, v.a) == (7, (-2,))
        for n in range(4, 12):
            v = orthogonal(1, n)
            assert (v.D, v.a) == (n - 2, (-n + 2,))
        with pytest.raises(ValueError):
            orthogonal(2, 6)  # a = -1 fails the validity gate

    def test_symplectic(self):
        v = symplectic(2, 6)
        assert (v.D, v.a) == (7, (-2,))
        assert v.notes  # printed-bound discrepancy is flagged
        for n in range(3, 10):
            v = symplectic(1, n)
            assert (v.D, v.a) == (n - 1, (-n + 1,))
        with pytest.raises(ValueError):
            symplectic(3, 8)  # a = -1 fails the validity gate

    def test_flag(self):
        v = flag((1, 2), 4)
        assert (v.D, v.a) == (5, (-2, -3))
        v = flag((1,), 4)
        assert (v.D, v.a) == (3, (-4,))
        v = flag((1, 2, 3), 4)
        assert (v.D, v.a) == (6, (-2, -2, -2))
        with pytest.raises(ValueError):
            flag((2, 2), 5)
        with pytest.raises(ValueError):
            flag((1, 5), 5)
        with pytest.raises(ValueError, match="^Fl: need at least one subspace dimension$"):
            flag((), 5)

    def test_flag_rejects_non_integers(self):
        for ks in ((1.7, 2.2), (1, Fraction(5, 2)), ("1", 2)):
            with pytest.raises(ValueError, match="must be integers"):
                flag(ks, 4)

    @pytest.mark.parametrize(
        "build, args",
        [(grassmannian, (2, 8)), (projective_space, (8,)), (orthogonal, (1, 8)),
         (symplectic, (1, 8)), (flag, ((1, 2), 8))],
        ids=["Gr", "P", "OG", "SG", "Fl"],
    )
    def test_rejects_non_integer_arguments(self, build, args):
        build(*args)
        for i, arg in enumerate(args):
            if isinstance(arg, tuple):
                continue  # flag's subspace dimensions: test_flag_rejects_non_integers
            for bad in (float(arg), Fraction(arg), str(arg)):
                with pytest.raises(ValueError, match="must be integers"):
                    build(*args[:i], bad, *args[i + 1:])

    def test_flag_dimension_oracle(self):
        import itertools

        for n in range(2, 8):
            for m in range(1, n):
                for ks in itertools.combinations(range(1, n), m):
                    assert flag(ks, n).D == flag_dimension_oracle(ks, n), (ks, n)

    def test_flag_dimension_discrepancy_flagged(self):
        # every flag: the stated sum exceeds D by the sum of (k_(i+1) - k_i)^2
        # over 0 = k_0 < k_1 < ... < k_(m+1) = n, which is positive
        for n in range(2, 9):
            for m in range(1, n):
                for ks in itertools.combinations(range(1, n), m):
                    v, ext = flag(ks, n), (0, *ks, n)
                    gap = sum((b - a) ** 2 for a, b in zip(ext, ext[1:]))
                    assert v.notes[0] == _FLAG_DIM_NOTE.format(stated=v.D + gap, used=v.D), (ks, n)

    def test_product(self):
        v = product(grassmannian(2, 4), grassmannian(1, 3))
        assert (v.D, v.a) == (6, (-4, -3))
        pp = product(projective_space(2), projective_space(2))
        assert (pp.D, pp.a, pp.name) == (4, (-3, -3), "P(2)xP(2)")
        assert [f.name for f in pp.factors] == ["P(2)", "P(2)"]
        single = grassmannian(2, 5)
        assert product(single) is single
        nested = product(pp, projective_space(1))
        assert [f.name for f in nested.factors] == ["P(2)", "P(2)", "P(1)"]
        with pytest.raises(ValueError, match="^product needs at least one factor$"):
            product()

    def test_descriptor_invariants(self):
        with pytest.raises(ValueError):
            VarietyDescriptor(name="bad", D=3, a=(-1,))
        with pytest.raises(ValueError):
            VarietyDescriptor(name="bad", D=0, a=(-3,))
        with pytest.raises(ValueError):
            VarietyDescriptor(name="bad", D=3, a=())
        assert VarietyDescriptor(name="ok", D=3, a=(-3, -4)).m == 2


class TestThresholds:
    def test_grassmannian_closed_forms(self):
        for k in range(1, 5):
            for n in range(k + 1, 10):
                v = grassmannian(k, n)
                assert hyperbolicity_threshold(v) == [k * (n - k) + n - 2]
                assert lines_threshold(v) == [k * (n - k) + n - 4]

    def test_projective_space_closed_forms(self):
        for n in range(1, 12):
            v = projective_space(n)
            assert hyperbolicity_threshold(v) == [2 * n - 1]
            assert lines_threshold(v) == [2 * n - 3]

    def test_product_of_grassmannians_closed_forms(self):
        data = [(2, 4), (1, 3), (2, 5)]
        v = product(*(grassmannian(k, n) for k, n in data))
        total = sum(k * (n - k) for k, n in data)
        assert hyperbolicity_threshold(v) == [n + total - 2 for _, n in data]
        assert lines_threshold(v) == [n + total - 4 for _, n in data]

    def test_orthogonal_closed_forms(self):
        for k, n in ((1, 6), (1, 8), (2, 7), (2, 8), (2, 9)):
            v = orthogonal(k, n)
            d = k * (2 * n - 3 * k - 1) // 2
            assert hyperbolicity_threshold(v) == [n - 3 * k - 1 + d]
            assert lines_threshold(v) == [n - 3 * k - 3 + d]

    def test_symplectic_from_canonical_data(self):
        for k, n in ((1, 5), (2, 6), (2, 7)):
            v = symplectic(k, n)
            d = k * (2 * n - 3 * k + 1) // 2
            # uniform thresholds from (D, a); the printed n+3k+... bound differs
            assert hyperbolicity_threshold(v) == [d + n - 3 * k]
            assert lines_threshold(v) == [d + n - 3 * k - 2]
            assert hyperbolicity_threshold(v) != [n + 3 * k + d]

    def test_flag_closed_forms(self):
        for ks, n in (((1, 2), 4), ((1, 3), 5), ((1, 2, 3), 5)):
            v = flag(ks, n)
            ext = (0,) + tuple(ks) + (n,)
            for i in range(len(ks)):
                gap = ext[i + 2] - ext[i]
                assert hyperbolicity_threshold(v)[i] == gap + v.D - 2
                assert lines_threshold(v)[i] == gap + v.D - 4

    def test_fano_lines_dimension(self):
        for v in catalog_instances():
            for i in range(v.m):
                assert fano_lines_dimension(v, i) == v.D - v.a[i] - 3
                assert fano_lines_dimension(v, i) >= v.D - 1  # lines cover


class TestClassify:
    def test_quartic_fourfold_cases(self):
        p4 = projective_space(4)
        assert classify(p4, (7,)).kind == HYPERBOLIC
        gap = classify(p4, (6,))
        assert gap.kind == OPEN_GAP and gap.boundary == (0,)
        lines = classify(p4, (5,))
        assert lines.kind == CONTAINS_LINES and lines.witness == 0

    def test_low_dimension(self):
        assert classify(projective_space(3), (9,)).kind == LOW_DIMENSION

    def test_thresholds_are_consistent(self):
        for v in catalog_instances():
            hyper = hyperbolicity_threshold(v)
            lin = lines_threshold(v)
            assert classify(v, hyper).kind == HYPERBOLIC
            if all(t >= 1 for t in lin):
                assert classify(v, lin).kind == CONTAINS_LINES

    def test_exhaustive_trichotomy(self):
        v = product(projective_space(2), projective_space(2))
        for d1 in range(1, 8):
            for d2 in range(1, 8):
                c = classify(v, (d1, d2))
                assert c.kind in (HYPERBOLIC, CONTAINS_LINES, OPEN_GAP)
                if c.kind == OPEN_GAP:
                    assert c.boundary

    def test_monotonicity(self):
        for v in catalog_instances(4, 8):
            base = hyperbolicity_threshold(v)
            assert classify(v, base).kind == HYPERBOLIC
            for i in range(v.m):
                raised = list(base)
                raised[i] += 3
                assert classify(v, raised).kind == HYPERBOLIC

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classify(projective_space(4), (5, 5))
        with pytest.raises(ValueError):
            classify(projective_space(4), (0,))

    def test_rejects_non_integer_degrees(self):
        v = projective_space(4)
        for degrees in ((6.9,), (7.0,), (Fraction(15, 2),)):
            with pytest.raises(ValueError, match="must be integers"):
                classify(v, degrees)
            with pytest.raises(ValueError, match="must be integers"):
                hyperbolicity_certificate(v, degrees)
            with pytest.raises(ValueError, match="must be integers"):
                known_counterexamples(v, degrees)


class TestCounterexamples:
    def test_p2xp2(self):
        v = product(projective_space(2), projective_space(2))
        assert known_counterexamples(v, (4, 9))
        assert known_counterexamples(v, (9, 4))
        assert not known_counterexamples(v, (5, 9))

    def test_p2xp1xp1(self):
        v = product(projective_space(2), projective_space(1), projective_space(1))
        assert known_counterexamples(v, (4, 2, 7))
        assert not known_counterexamples(v, (5, 2, 7))

    def test_boundary_families(self):
        v = product(*(projective_space(1) for _ in range(3)))
        boundary = [v.D - ai - 3 for ai in v.a]
        assert known_counterexamples(v, boundary)
        v = product(projective_space(2), projective_space(1))
        assert known_counterexamples(v, (v.D - v.a[0] - 3, 9))

    def test_no_entry(self):
        assert known_counterexamples(grassmannian(2, 5), (9,)) == []

    @pytest.mark.parametrize("entry", _COUNTEREXAMPLE_TABLE, ids=lambda e: e.variety)
    def test_isomorphic_spellings_match(self, entry):
        """Each factor P(n) respelled Gr(1,n+1), Gr(n,n+1) or Fl(1;n+1),
        and the factors taken in any order with the degrees permuted
        alike, is the same variety and finds the same entries."""
        spellings = [
            (projective_space(n), grassmannian(1, n + 1), grassmannian(n, n + 1), flag((1,), n + 1))
            for n in entry.spaces
        ]
        grid = list(itertools.product(range(1, 6), repeat=len(entry.spaces)))
        canonical = product(*(s[0] for s in spellings))
        assert canonical.name == entry.variety
        want = [known_counterexamples(canonical, d) for d in grid]
        assert any(entry in found for found in want)
        # one order per distinct arrangement: swapping two equal factors
        # gives the same spellings and the same grid of degrees
        perms = itertools.permutations(range(len(entry.spaces)))
        orders = {tuple(entry.spaces[i] for i in o): o for o in perms}
        for order in orders.values():
            for factors in itertools.product(*(spellings[i] for i in order)):
                v = product(*factors)
                got = [known_counterexamples(v, [d[i] for i in order]) for d in grid]
                assert got == want, (v.name, order)

    def test_annotations_carry_citations(self):
        v = product(projective_space(2), projective_space(2))
        entry = known_counterexamples(v, (4, 4))[0]
        assert entry.citation and entry.note and entry.condition


class TestDescriptorJson:
    def test_shape(self):
        data = symplectic(2, 6).to_json_dict()
        assert data["name"] == "SG(2,6)"
        assert data["hyperbolicity_threshold"] == [7]
        assert data["lines_threshold"] == [5]
        assert data["line_space_dimensions"] == [6]
        assert data["paper_discrepancies"]

    def test_catalog_validates(self):
        import jsonschema

        from alghyp.schemas import DESCRIPTOR_SCHEMA

        for v in catalog_instances():
            jsonschema.validate(v.to_json_dict(), DESCRIPTOR_SCHEMA)
