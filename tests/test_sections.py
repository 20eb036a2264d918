import itertools
from fractions import Fraction
from math import comb

import pytest

from alghyp import sections
from alghyp.sections import check_projective_space, grid_report


def dense_rank(columns, nrows):
    """Rank over the rationals by Gauss-Jordan elimination (oracle)."""
    rows = [[Fraction(col[r]) for col in columns] for r in range(nrows)]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def section_matrix(n, d):
    """Dense columns x_j * m (j >= 1, m of degree d-1) over the degree-d
    monomials other than x_0^d."""
    def monomials(degree):
        return [e for e in itertools.product(range(degree + 1), repeat=n + 1) if sum(e) == degree]

    x0_power = (d,) + (0,) * n
    target = [m for m in monomials(d) if m != x0_power]
    columns = []
    for j in range(1, n + 1):
        for mono in monomials(d - 1):
            prod = tuple(e + (i == j) for i, e in enumerate(mono))
            columns.append([int(m == prod) for m in target])
    return columns, len(target)


class TestProjectiveSpaceCheck:
    def test_conic_case(self):
        r = check_projective_space(2, 2)
        assert r.ok and r.rank == 5 and r.target_dim == 5

    def test_linear_forms(self):
        for n in range(1, 5):
            r = check_projective_space(n, 1)
            assert r.ok and r.rank == n

    def test_quintic_on_p3(self):
        r = check_projective_space(3, 5)
        assert r.ok and r.rank == comb(8, 5) - 1

    def test_rank_certificate_formula(self):
        # covers every (n, d) of the benchmark, and the x_n^d corner, whose
        # base-(d+1) code d (d+1)^n is the largest one
        for n in range(1, 7):
            for d in range(1, 9):
                r = check_projective_space(n, d)
                assert r.ok, (n, d)
                assert r.rank == comb(n + d, d) - 1

    def test_rank_matches_dense_elimination(self):
        for n in range(1, 5):
            for d in range(1, 7):
                assert check_projective_space(n, d).rank == dense_rank(*section_matrix(n, d)), (n, d)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            check_projective_space(0, 2)
        with pytest.raises(ValueError):
            check_projective_space(2, 0)

    def test_refuses_over_the_monomial_limit_before_enumerating(self, monkeypatch):
        def enumerate_nothing(*args):
            raise AssertionError("enumerated monomials of a refused check")

        # C(5+39, 5) is the first count past the limit along n = 5
        limit = sections._MAX_MONOMIALS
        assert comb(5 + 38, 5) <= limit < comb(5 + 39, 5)
        monkeypatch.setattr(sections, "combinations_with_replacement", enumerate_nothing)
        for n, d in ((5, 39), (39, 5), (limit, 1), (10**6, 10**6)):
            with pytest.raises(ValueError, match=f"limit of {limit} "):
                check_projective_space(n, d)

    def test_monomial_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(sections, "_MAX_MONOMIALS", comb(2 + 2, 2))
        assert check_projective_space(2, 2).ok
        assert check_projective_space(1, 5).ok  # also C(6, 5) = 6 monomials
        with pytest.raises(ValueError, match="limit of 6 "):
            check_projective_space(2, 3)

    def test_json_shape(self):
        data = check_projective_space(2, 3).to_json_dict()
        assert data == {"n": 2, "d": 3, "ok": True, "rank": 9, "target_dim": 9}


class TestProductCheck:
    def test_grid_report(self):
        results = grid_report()
        assert [(r.n, r.d) for r in results] == list(itertools.product(range(1, 5), range(1, 7)))
        assert all(r.ok for r in results)
