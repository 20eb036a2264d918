"""Section-domination checks for hyperplane classes on projective spaces.

Verifies, by an exact rank computation, that degree-d forms vanishing at
a point are generated by (point-vanishing linear form) x (degree d-1
form).  By homogeneity one point suffices, fixed at (1:0:...:0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .varieties import _integers


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
    n, d = _integers((n, d), "check_projective_space: n and d")
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    x0_power = (d,) + (0,) * n
    target = set(_exponent_tuples(n + 1, d)) - {x0_power}
    hit = {
        mono[:j] + (mono[j] + 1,) + mono[j + 1:]
        for mono in _exponent_tuples(n + 1, d - 1)
        for j in range(1, n + 1)
    }
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
        for n, d in itertools.product(range(1, 5), range(1, 7))
    ]
