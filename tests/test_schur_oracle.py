from itertools import product as iproduct

import pytest

from alghyp.grassmann import Partition, RingContext, make_class, multiply
from tests.schur_oracle import (
    element_to_polynomial,
    poly_multiply,
    schur_expand,
    schur_oracle_multiply,
    schur_polynomial,
)
from tests.test_grassmann import all_box_partitions


class TestSchurPolynomial:
    def test_single_box(self):
        assert schur_polynomial((1,), 2) == {(1, 0): 1, (0, 1): 1}

    def test_hook_two_variables(self):
        # s_(2,1)(x, y) = x^2 y + x y^2
        assert schur_polynomial((2, 1), 2) == {(2, 1): 1, (1, 2): 1}

    def test_too_many_rows_vanishes(self):
        assert schur_polynomial((1, 1, 1), 2) == {}

    def test_elementary_and_complete(self):
        # s_(1,1) = e_2 and s_(2) = h_2 in three variables
        e2 = {
            tuple(1 if i in pair else 0 for i in range(3)): 1
            for pair in ((0, 1), (0, 2), (1, 2))
        }
        assert schur_polynomial((1, 1), 3) == e2
        h2 = {}
        for i, j in iproduct(range(3), range(3)):
            if i <= j:
                key = tuple((i == t) + (j == t) for t in range(3))
                h2[key] = 1
        assert schur_polynomial((2,), 3) == h2

    def test_dimension_count(self):
        # number of semistandard tableaux of shape (2,1) with entries <= 3
        assert sum(schur_polynomial((2, 1), 3).values()) == 8


class TestSchurExpand:
    def test_round_trip(self):
        poly = {}
        for lam, c in (((3, 1), 4), ((2, 2), 7), ((2, 1, 1), 1)):
            for e, sc in schur_polynomial(lam, 3).items():
                poly[e] = poly.get(e, 0) + c * sc
        assert schur_expand(poly, 3) == {
            Partition([3, 1]): 4,
            Partition([2, 2]): 7,
            Partition([2, 1, 1]): 1,
        }

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            schur_expand({(2, 0): 1}, 2)

    def test_poly_multiply(self):
        p = {(1, 0): 1, (0, 1): 1}
        assert poly_multiply(p, p) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


class TestOracle:
    def test_pieri_rule_instance(self):
        ctx = RingContext(2, 4)
        s1 = make_class(ctx, Partition([1]))
        assert schur_oracle_multiply(s1, s1).terms == {
            Partition([2]): 1,
            Partition([1, 1]): 1,
        }

    def test_fourth_power(self):
        ctx = RingContext(2, 4)
        s1 = make_class(ctx, Partition([1]))
        sq = schur_oracle_multiply(s1, s1)
        assert schur_oracle_multiply(sq, sq).terms == {Partition([2, 2]): 2}

    def test_unit(self):
        ctx = RingContext(3, 6)
        x = 3 * make_class(ctx, Partition([2, 1])) + make_class(ctx, Partition([1]))
        assert schur_oracle_multiply(make_class(ctx, ()), x) == x

    def test_box_truncation(self):
        # s2 * s2 = s4 + s31 + s22; only s22 survives the 2x2 box
        ctx = RingContext(2, 4)
        s2 = make_class(ctx, Partition([2]))
        assert schur_oracle_multiply(s2, s2).terms == {Partition([2, 2]): 1}

    def test_element_to_polynomial_linearity(self):
        ctx = RingContext(2, 5)
        x = 2 * make_class(ctx, Partition([2])) + make_class(ctx, Partition([1, 1]))
        poly = element_to_polynomial(x)
        assert poly[(2, 0)] == 2 and poly[(1, 1)] == 3

    def test_agreement_grid(self):
        # the two multiplication routes agree on every pair in small boxes
        for k in range(1, 4):
            for n in range(k + 1, 7):
                ctx = RingContext(k, n)
                pool = all_box_partitions(k, n - k, 8)
                for lam in pool:
                    for mu in pool:
                        x = make_class(ctx, lam)
                        y = make_class(ctx, mu)
                        assert multiply(x, y) == schur_oracle_multiply(x, y)
