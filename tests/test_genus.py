import itertools
import random
from fractions import Fraction

import pytest

from alghyp.genus import CaseBound, hyperbolicity_certificate
from alghyp.varieties import (
    grassmannian,
    hyperbolicity_threshold,
    product,
    projective_space,
)
from tests.instances import catalog_instances


def scroll_cases(v, degrees, j):
    """(A, B, C) coefficient vectors of the certificate with factor j
    distinguished; C is None when the certificate has no case C at j."""
    by_key = {(c.case, c.j): c.coefficients for c in hyperbolicity_certificate(v, degrees).cases}
    return by_key[("A", None)], by_key[("B", j)], by_key.get(("C", j))


def profile_bound(v, degrees, s):
    """Oracle: the profile bound c_i = a_i + d_i - s_i, for a surjection
    profile s whose sum is capped by the normal bundle rank D - 2."""
    if len(s) != v.m or min(s) < 0 or sum(s) > v.D - 2:
        raise ValueError(f"profile {s} is not admissible on {v.name}")
    return tuple(Fraction(ai + di - si) for ai, di, si in zip(v.a, degrees, s))


def summed_cases(v, degrees):
    """Oracle: every case vector by (case, j), each entry of cases B and C
    a sum of Fractions as the proof states it."""
    d, a, D = degrees, v.a, v.D
    cases = {("A", None): tuple(Fraction(a[i] + d[i] - D + 3) for i in range(v.m))}
    for j in range(v.m):
        cases[("B", j)] = tuple(
            Fraction(a[i] + d[i] - D + 2) + Fraction(1, 2) if i == j else Fraction(a[i] + d[i] - 1)
            for i in range(v.m)
        )
        if d[j] >= 2:
            cases[("C", j)] = tuple(
                Fraction(a[i] + d[i] - D + 2) + Fraction(1, d[j])
                if i == j
                else Fraction(a[i] + d[i]) - Fraction(d[i], d[j])
                for i in range(v.m)
            )
    return cases


def method1(v, degrees):
    """Oracle: the rank-capped profile constant min_i (d_i + a_i - D + 2)."""
    return min(Fraction(di + ai - v.D + 2) for di, ai in zip(degrees, v.a))


class TestElementaryBounds:
    def test_basic_bound(self):
        p4 = projective_space(4)
        assert profile_bound(p4, (7,), (2,)) == (Fraction(0),)
        g24 = grassmannian(2, 4)
        assert profile_bound(g24, (9,), (2,)) == (Fraction(3),)
        pp = product(projective_space(2), projective_space(2))
        assert profile_bound(pp, (5, 6), (0, 0)) == (Fraction(2), Fraction(3))
        with pytest.raises(ValueError):
            profile_bound(p4, (7,), (5,))  # exceeds rank D-2


class TestMethodOne:
    def test_projective_space(self):
        for n in range(4, 9):
            pn = projective_space(n)
            assert method1(pn, (2 * n,)) == 1
            assert hyperbolicity_certificate(pn, (2 * n,)).epsilon >= 1
            assert method1(pn, (2 * n - 1,)) == 0

    def test_grassmannian(self):
        g24 = grassmannian(2, 4)
        assert method1(g24, (10,)) == 4
        assert hyperbolicity_certificate(g24, (10,)).epsilon >= 4

    def test_certificate_dominates_method_one_on_grid(self):
        checked = 0
        for v in catalog_instances():
            t = hyperbolicity_threshold(v)
            for offsets in itertools.product(range(-2, 12, 3), repeat=v.m):
                d = tuple(max(1, ti + o) for ti, o in zip(t, offsets))
                eps1 = method1(v, d)
                if eps1 <= 0:
                    continue
                eps = hyperbolicity_certificate(v, d).epsilon
                assert eps is not None and eps >= eps1, (v.name, d)
                checked += 1
        assert checked > 1000


class TestScrollCases:
    def test_quartic_fourfold_vectors(self):
        p4 = projective_space(4)
        a, b, c = scroll_cases(p4, (7,), 0)
        assert a == (Fraction(1),)
        assert b == (Fraction(1, 2),)
        assert c == (Fraction(1, 7),)

    def test_single_factor_reduction(self):
        g = grassmannian(2, 5)
        a, b, c = scroll_cases(g, (9,), 0)
        assert len(a) == len(b) == len(c) == 1

    def test_product_denominators(self):
        v = product(grassmannian(2, 4), projective_space(2))
        a, b, c = scroll_cases(v, (9, 9), 0)
        d1 = 9
        for vec in (a, b, c):
            for entry in vec:
                assert (2 * d1) % entry.denominator == 0

    def test_case_c_absent_for_degree_one(self):
        v = product(projective_space(2), projective_space(2))
        a, b, c = scroll_cases(v, (1, 9), 0)
        assert c is None
        a, b, c = scroll_cases(v, (1, 9), 1)
        assert c is not None
        cases = hyperbolicity_certificate(v, (1, 9)).cases
        assert [(cb.case, cb.j) for cb in cases] == [("A", None), ("B", 0), ("B", 1), ("C", 1)]

    def test_index_validation(self):
        p4 = projective_space(4)
        with pytest.raises(ValueError):
            hyperbolicity_certificate(p4, (7, 7))
        with pytest.raises(ValueError):
            hyperbolicity_certificate(p4, (0,))


class TestCaseOracle:
    def certificate_matches_oracle(self, v, degrees):
        """The report's cases, epsilon and binding (case, j) against the
        summed oracle; the lowest (minimum, case, j) binds, case A first."""
        report = hyperbolicity_certificate(v, degrees)
        cases = summed_cases(v, degrees)
        assert {(c.case, c.j): c.coefficients for c in report.cases} == cases
        assert [(c.case, c.j) for c in report.cases] == list(cases)
        assert all(type(x) is Fraction for c in report.cases for x in c.coefficients)
        eps, case, j = min((min(vec), case, -1 if j is None else j) for (case, j), vec in cases.items())
        assert (report.binding.case, -1 if report.binding.j is None else report.binding.j) == (case, j)
        complete = len(cases) == 1 + 2 * v.m
        want = eps if eps > 0 and complete else None
        assert report.epsilon == want and type(report.epsilon) is type(want)
        return report

    def test_seeded_grid(self):
        rng = random.Random(15)
        instances = catalog_instances(d_min=1, d_max=14)
        assert {v.name.split("(")[0] for v in instances} >= {"P", "Gr", "OG", "SG", "Fl"}
        assert any(v.m > 1 for v in instances)
        for v in instances:
            for t in range(1, 26):
                self.certificate_matches_oracle(v, (t,) * v.m)
            for _ in range(12):
                self.certificate_matches_oracle(v, tuple(rng.randint(1, 25) for _ in range(v.m)))

    def test_ties_go_to_the_lowest_case_and_index(self):
        v = product(projective_space(2), projective_space(2))
        # at (2, 2) both B and both C cases reach -5/2; at (5, 5) the C cases tie
        for degrees, binding in (((2, 2), ("B", 0)), ((5, 5), ("C", 0)), ((9, 9), ("C", 0))):
            report = self.certificate_matches_oracle(v, degrees)
            low = min(c.minimum() for c in report.cases)
            tied = [c for c in report.cases if c.minimum() == low]
            assert len(tied) >= 2
            assert (report.binding.case, report.binding.j) == binding


def test_case_bound_reads_its_numerators_over_one_denominator():
    c = CaseBound("C", 0, (3, -4), 6)
    assert c.coefficients == (Fraction(1, 2), Fraction(-2, 3))
    assert c.minimum() == Fraction(-2, 3)
    assert c.to_json_dict() == {"case": "C", "j": 0, "coefficients": ["1/2", "-2/3"]}


def test_coefficient_texts_are_the_fraction_texts():
    """Each text built from the integers is `str(Fraction(n, d))`, over
    seeded numerators, zero and multiples of d included, and the case
    denominators 1, 2 and d_j."""
    rng = random.Random(32)
    for d in (1, 2, *sorted(rng.sample(range(3, 200), 12))):
        numerators = (0, d, -d, 3 * d, *(rng.randint(-(10**6), 10**6) for _ in range(300)))
        case = CaseBound("C", 0, numerators, d)
        want = [str(Fraction(n, d)) for n in numerators]
        assert case.coefficient_texts() == want == [str(c) for c in case.coefficients]
    for v in catalog_instances(d_min=1, d_max=9):
        for case in hyperbolicity_certificate(v, (rng.randint(1, 30),) * v.m).cases:
            assert case.coefficient_texts() == [str(c) for c in case.coefficients]


class TestCertificate:
    def test_quartic_fourfold(self):
        report = hyperbolicity_certificate(projective_space(4), (7,))
        assert report.epsilon == Fraction(1, 7)
        assert report.binding.case == "C"

    def test_sextic_threefold_open(self):
        report = hyperbolicity_certificate(projective_space(4), (6,))
        assert report.epsilon is None

    def test_p2xp2_at_threshold(self):
        v = product(projective_space(2), projective_space(2))
        assert hyperbolicity_threshold(v) == [5, 5]
        report = hyperbolicity_certificate(v, (5, 5))
        assert report.epsilon is not None and report.epsilon > 0

    def test_degree_one_blocks_certificate(self):
        v = product(projective_space(2), projective_space(2))
        report = hyperbolicity_certificate(v, (1, 9))
        assert report.epsilon is None
        assert any("degree is 1" in f for f in report.ledger_flags)

    def test_json_shape(self):
        import jsonschema

        from alghyp.schemas import GENUS_REPORT_SCHEMA

        for degrees in ((7,), (6,)):
            report = hyperbolicity_certificate(projective_space(4), degrees)
            jsonschema.validate(report.to_json_dict(), GENUS_REPORT_SCHEMA)


class TestThresholdCertificateSweep:
    def test_certificate_at_threshold_and_failure_below(self):
        for v in catalog_instances():
            thresholds = hyperbolicity_threshold(v)
            report = hyperbolicity_certificate(v, thresholds)
            assert report.epsilon is not None and report.epsilon > 0, v.name
            # the side condition d_i >= 4 holds on every swept instance
            assert all(d >= 4 for d in thresholds), v.name
            for i in range(v.m):
                lowered = list(thresholds)
                lowered[i] -= 1
                weakened = hyperbolicity_certificate(v, lowered)
                assert weakened.epsilon is None, (v.name, i)

    def test_scroll_improves_concentrated_profile_on_grid(self):
        # case C dominates the profile bound with s concentrated at j
        for v in catalog_instances():
            d = hyperbolicity_threshold(v)
            for j in range(v.m):
                s = [0] * v.m
                s[j] = v.D - 2
                profile_vec = profile_bound(v, d, s)
                _, _, case_c = scroll_cases(v, d, j)
                assert case_c is not None
                assert min(profile_vec) <= min(case_c), (v.name, j)
