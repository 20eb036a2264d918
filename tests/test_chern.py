from fractions import Fraction

import pytest

from alghyp.chern import (
    RootPoly,
    chern_factors,
    fano_class,
    line_count,
    paired_rearrangement,
    schur_coefficients,
    to_chow,
    top_chern_sym,
)
from alghyp.grassmann import Partition, RingContext, make_class, multiply, unit

# golden values computed with the standalone monomial-expansion oracle
# (expand the root product, divide the alternant) before the main build
LINE_COUNT_GOLDEN = {3: 27, 4: 2875, 5: 698005, 6: 305093061}
TOP_CHERN_GOLDEN = {
    1: {(1, 1): 1},
    2: {(2, 1): 4},
    3: {(3, 1): 18, (2, 2): 27},
    4: {(4, 1): 96, (3, 2): 320},
    5: {(5, 1): 600, (4, 2): 3250, (3, 3): 2875},
}


class TestRootPoly:
    def test_arithmetic(self):
        a = RootPoly({(1, 0): 1})
        b = RootPoly({(0, 1): 1})
        assert (a + b) * (a + b) == RootPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert 3 * a == RootPoly({(1, 0): 3})

    def test_symmetry(self):
        assert RootPoly({(2, 1): 5, (1, 2): 5}).is_symmetric()
        assert not RootPoly({(2, 1): 5, (1, 2): 4}).is_symmetric()

    def test_rejects_non_integers(self):
        for terms in ({(1, 0): 2.9}, {(1, 0): Fraction(1, 2)}, {(1.5, 0): 1}):
            with pytest.raises(ValueError):
                RootPoly(terms)

    def test_schur_coefficients_reject_asymmetric(self):
        with pytest.raises(ValueError):
            schur_coefficients(RootPoly({(2, 0): 1}))

    def test_schur_coefficients_known(self):
        # a^3 b + a^2 b^2 + a b^3 = s_(3,1)
        poly = RootPoly({(3, 1): 1, (2, 2): 1, (1, 3): 1})
        assert schur_coefficients(poly) == {(3, 1): 1}

    def test_to_chow_truncates(self):
        poly = RootPoly({(3, 1): 1, (2, 2): 1, (1, 3): 1})
        assert to_chow(poly, 4).is_zero()
        assert to_chow(poly, 5).terms == {Partition([3, 1]): 1}


class TestChernFactors:
    def test_counts_and_roots(self):
        for d in (1, 2, 3, 7):
            factors = chern_factors(d)
            assert len(factors) == d + 1
            for i, f in enumerate(factors):
                assert f.terms.get((0, 0)) == 1
                assert f.terms.get((1, 0), 0) == i
                assert f.terms.get((0, 1), 0) == d - i

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            chern_factors(0)


class TestTopChern:
    def test_golden_expansions(self):
        for d, want in TOP_CHERN_GOLDEN.items():
            x = top_chern_sym(d, d + 3)
            assert x.terms == {Partition(p): c for p, c in want.items()}

    def test_degree_one_is_point_of_s_dual(self):
        assert top_chern_sym(1, 4).terms == {Partition([1, 1]): 1}

    def test_homogeneous(self):
        for d in range(1, 12):
            assert top_chern_sym(d, d + 3).degrees() == {d + 1}

    def test_box_stability(self):
        # widening the box never changes coefficients of classes it keeps
        for d in range(1, 11):
            small = top_chern_sym(d, d + 3)
            for extra in (1, 2):
                large = top_chern_sym(d, d + 3 + extra)
                for lam, c in small.terms.items():
                    assert large.coefficient(lam) == c
                for lam, c in large.terms.items():
                    if lam.parts[0] <= d + 1:
                        assert small.coefficient(lam) == c

    def test_sigma1_power_positivity(self):
        # every two-row class of degree d-1 appears positively in s1^(d-1)
        for d in range(2, 31):
            ctx = RingContext(2, d + 3)
            x = unit(ctx)
            for _ in range(d - 1):
                x = multiply(x, make_class(ctx, Partition([1])))
            for j in range(0, (d - 1) // 2 + 1):
                assert x.coefficient(Partition([d - 1 - j, j])) > 0, (d, j)


class TestFanoClass:
    def test_small_case(self):
        report = fano_class(2, 5)
        assert report.missing_class_ok
        assert report.expansion.terms == {Partition([2, 1]): 4}
        assert report.line_count is None

    def test_positivity_sweep(self):
        for d in range(2, 31):
            report = fano_class(d, d + 3)
            assert report.missing_class_ok, d
            assert report.expansion.coefficient(Partition([d + 1])) == 0
            for (i, j), c in report.positive_coefficients:
                assert i + j == d + 1 and i >= j >= 1 and c > 0

    def test_box_too_small(self):
        with pytest.raises(ValueError):
            fano_class(3, 4)
        with pytest.raises(ValueError):
            fano_class(1, 6)

    def test_json_shape(self):
        data = fano_class(4, 7).to_json_dict()
        assert set(data) == {"d", "N", "expansion", "missing_class_ok", "line_count"}
        assert data["missing_class_ok"] is True
        assert data["line_count"] is None


class TestPairedRearrangement:
    def test_small_even(self):
        assert paired_rearrangement(2, 5).terms == {Partition([2, 1]): 4}

    def test_route_equality(self):
        for d in range(2, 21, 2):
            assert paired_rearrangement(d) == top_chern_sym(d, d + 3), d

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            paired_rearrangement(3)
        with pytest.raises(ValueError):
            paired_rearrangement(0)


class TestLineCount:
    def test_golden(self):
        for n, want in LINE_COUNT_GOLDEN.items():
            assert line_count(n) == want

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            line_count(2)
