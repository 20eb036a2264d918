import itertools
import random
import sys
from fractions import Fraction
from math import comb

import pytest

from alghyp import sections
from alghyp.sections import check_projective_space, grid_report
from tests.sections_oracle import section_rank_oracle


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


class CombCalled(Exception):
    pass


@pytest.fixture
def no_comb(monkeypatch):
    """Make any call of `sections.comb` raise `CombCalled`."""
    def comb_called(*args):
        raise CombCalled

    monkeypatch.setattr(sections, "comb", comb_called)


def first_refused_diagonal(limit):
    """The least k for which check_projective_space(k, k) is refused."""
    return -(-10 * limit // 3)


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
        # base-(d+1) code d (d+1)^n is the oracle's largest one
        for n in range(1, 7):
            for d in range(1, 9):
                r = check_projective_space(n, d)
                assert r.ok and (r.rank, r.target_dim) == section_rank_oracle(n, d), (n, d)

    def test_seeded_pairs_match_the_code_set_oracle(self):
        pairs = [(n, d) for n in range(1, 40) for d in range(1, 40) if comb(n + d, d) <= 10**5]
        for n, d in random.Random(16).sample(pairs, 12):
            r = check_projective_space(n, d)
            assert r.ok and (r.rank, r.target_dim) == section_rank_oracle(n, d), (n, d)

    def test_rank_matches_dense_elimination(self):
        for n in range(1, 5):
            for d in range(1, 7):
                columns, nrows = section_matrix(n, d)
                r = check_projective_space(n, d)
                assert (r.rank, r.target_dim) == (dense_rank(columns, nrows), nrows), (n, d)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            check_projective_space(0, 2)
        with pytest.raises(ValueError):
            check_projective_space(2, 0)

    def test_refuses_past_the_digit_limit_before_comb(self, no_comb):
        # at n = d = k the guard reads C(2k, k) >= 2^k, so it refuses from
        # 3k >= 10 limit on; C(2k, k) passes the limit near k = 1.66 limit
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        first = first_refused_diagonal(limit)
        for n, d in ((first, first), (1, 2 ** (4 * limit)), (10**6, 10**6)):
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
                check_projective_space(n, d)
        with pytest.raises(CombCalled):
            check_projective_space(first - 1, first - 1)

    def test_digit_limit_follows_the_interpreter(self, no_comb, monkeypatch):
        for setting, limit in ((640, 640), (0, sys.int_info.default_max_str_digits)):
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: setting)
            first = first_refused_diagonal(limit)
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
                check_projective_space(first, first)
            with pytest.raises(CombCalled):
                check_projective_space(first - 1, first - 1)

    def test_huge_n_small_d_passes_the_guard(self):
        # C(10^18 + 3, 3) has 54 digits
        n = 10**18
        r = check_projective_space(n, 3)
        assert r.ok and r.rank == (n + 3) * (n + 2) * (n + 1) // 6 - 1
        assert len(str(r.rank)) == 54

    def test_json_shape(self):
        data = check_projective_space(2, 3).to_json_dict()
        assert data == {"n": 2, "d": 3, "ok": True, "rank": 9, "target_dim": 9}


class TestProductCheck:
    def test_grid_report(self):
        results = grid_report()
        assert [(r.n, r.d) for r in results] == list(itertools.product(range(1, 5), range(1, 7)))
        assert all(r.ok for r in results)
        assert all((r.rank, r.target_dim) == section_rank_oracle(r.n, r.d) for r in results)
