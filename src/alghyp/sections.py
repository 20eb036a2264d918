"""Section-domination checks for hyperplane classes on projective spaces.

Verifies, by an exact rank computation, that degree-d forms vanishing at
a point are generated by (point-vanishing linear form) x (degree d-1
form).  By homogeneity one point suffices, fixed at (1:0:...:0).

A monomial x_0^e_0 ... x_n^e_n of degree at most d is held as the
integer code e_0 + e_1 (d+1) + ... + e_n (d+1)^n.  Every exponent is at
most d, so the code is the number whose base-(d+1) digits are the
exponents, and distinct monomials get distinct codes.  Multiplying by
x_j adds (d+1)^j to the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb

from .varieties import _integers

# The most degree-d monomials, C(n+d, d), that one check enumerates.
# (12, 12) has 2.7 million and takes seconds.
_MAX_MONOMIALS = 10**6


@dataclass(frozen=True)
class SectionDominationResult:
    """Outcome of one projective-space check, with the rank certificate."""

    n: int
    d: int
    ok: bool
    rank: int
    target_dim: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "ok": self.ok,
            "rank": self.rank,
            "target_dim": self.target_dim,
        }


def check_projective_space(n: int, d: int) -> SectionDominationResult:
    """Check that point-vanishing degree-d forms on P^n are spanned by
    products x_j * (degree d-1 monomial), j >= 1.

    The matrix has rows indexed by the target basis (all degree-d
    monomials except x_0^d) and one column per product.  Each product is a
    single monomial, so every column is a unit vector and the exact rank
    is the number of distinct target rows the columns hit.  Monomials are
    base-(d+1) integer codes (see the module docstring): a degree-d
    monomial is a multiset of d variables, whose code is the sum of their
    weights (d+1)^j, and x_0^d has code d.

    Refuses with `ValueError` when P^n has more than `_MAX_MONOMIALS`
    degree-d monomials, before enumerating any.
    """
    n, d = _integers((n, d), "check_projective_space: n and d")
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    # C(n+d, d) >= n+d, so the first test spares comb a huge argument
    if n + d > _MAX_MONOMIALS or comb(n + d, d) > _MAX_MONOMIALS:
        raise ValueError(
            f"check_projective_space: the C(n+d, d) degree-d monomials exceed"
            f" the limit of {_MAX_MONOMIALS} for one check"
        )
    weights = [(d + 1) ** j for j in range(n + 1)]
    target = set(map(sum, combinations_with_replacement(weights, d)))
    target.discard(d)  # the code of x_0^d
    lower = list(map(sum, combinations_with_replacement(weights, d - 1)))
    hit = {code + weight for weight in weights[1:] for code in lower}
    if not hit <= target:
        raise AssertionError("a product x_j * m is not a point-vanishing degree-d monomial")
    rank = len(hit)
    return SectionDominationResult(
        n=n, d=d, ok=rank == len(target), rank=rank, target_dim=len(target)
    )


def grid_report() -> list:
    """Results for the full desk-scale grid 1 <= n <= 4, 1 <= d <= 6."""
    return [
        check_projective_space(n, d)
        for n, d in product(range(1, 5), range(1, 7))
    ]
