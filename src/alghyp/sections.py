"""Section-domination checks for hyperplane classes on projective spaces.

Verifies, by an exact rank computation, that degree-d forms vanishing at
a point are generated by (point-vanishing linear form) x (degree d-1
form).  By homogeneity one point suffices, fixed at (1:0:...:0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class MonomialSpace:
    """Degree-d monomials in n+1 variables, graded-lex ordered."""

    n: int
    d: int
    basis: tuple

    @classmethod
    def build(cls, n: int, d: int) -> "MonomialSpace":
        basis = tuple(
            sorted(_exponent_tuples(n + 1, d), reverse=True)
        )
        assert len(basis) == comb(n + d, d)
        return cls(n=n, d=d, basis=basis)


def _exponent_tuples(nvars: int, total: int):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _exponent_tuples(nvars - 1, total - head):
            yield (head,) + tail


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
    is the number of distinct target rows the columns hit.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    space_d = MonomialSpace.build(n, d)
    space_prev = MonomialSpace.build(n, d - 1)
    x0_power = (d,) + (0,) * n
    target = [mono for mono in space_d.basis if mono != x0_power]
    index = {mono: r for r, mono in enumerate(target)}
    hit = set()
    for j in range(1, n + 1):
        for mono in space_prev.basis:
            prod = tuple(e + (1 if i == j else 0) for i, e in enumerate(mono))
            hit.add(index[prod])
    rank = len(hit)
    return SectionDominationResult(
        n=n, d=d, ok=rank == len(target), rank=rank, target_dim=len(target)
    )


def check_product(factors) -> bool:
    """Product criterion: every factor (n_i, d_i) must pass on its own."""
    return all(check_projective_space(n, d).ok for n, d in factors)


def grid_report(n_max: int = 4, d_max: int = 6) -> list:
    """Results for the full desk-scale grid 1 <= n <= n_max, 1 <= d <= d_max."""
    return [
        check_projective_space(n, d)
        for n, d in itertools.product(range(1, n_max + 1), range(1, d_max + 1))
    ]
