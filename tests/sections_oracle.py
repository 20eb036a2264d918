"""Independent section-domination oracle for the tests.

Enumerates the degree-d monomials of P^n and the products x_j * m
(j >= 1, m of degree d-1), and counts the distinct products, instead of
reading the rank off C(n+d, d) - 1 as `alghyp.sections` does.  Intended
for small n and d; exists to cross-check `check_projective_space` by a
code path that can disagree with it.

A monomial x_0^e_0 ... x_n^e_n of degree at most d is held as the
integer code e_0 + e_1 (d+1) + ... + e_n (d+1)^n.  Every exponent is at
most d, so the code is the number whose base-(d+1) digits are the
exponents, and distinct monomials get distinct codes.  Multiplying by
x_j adds (d+1)^j to the code.
"""

from __future__ import annotations

from itertools import combinations_with_replacement


def section_rank_oracle(n: int, d: int) -> tuple:
    """(rank, target_dim) of the map (x_j, m) -> x_j * m into the
    point-vanishing degree-d monomials, by enumeration.

    A degree-d monomial is a multiset of d variables, whose code is the
    sum of their weights (d+1)^j, and x_0^d has code d.  Raises
    `AssertionError` if a product falls outside the target basis.
    """
    weights = [(d + 1) ** j for j in range(n + 1)]
    target = set(map(sum, combinations_with_replacement(weights, d)))
    target.discard(d)  # the code of x_0^d
    lower = list(map(sum, combinations_with_replacement(weights, d - 1)))
    hit = {code + weight for weight in weights[1:] for code in lower}
    assert hit <= target, "a product x_j * m is not a point-vanishing degree-d monomial"
    return len(hit), len(target)
