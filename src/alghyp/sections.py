"""Section-domination checks for hyperplane classes on projective spaces.

Certifies that degree-d forms vanishing at a point are generated by
(point-vanishing linear form) x (degree d-1 form).  By homogeneity one
point suffices, fixed at (1:0:...:0).
"""

from __future__ import annotations

import sys
from itertools import product
from math import comb

from .grassmann import _Record
from .varieties import _integers


class SectionDominationResult(_Record):
    """Outcome of one projective-space check, with the rank certificate."""

    __slots__ = ("n", "d", "ok", "rank", "target_dim")

    def __init__(self, n: int, d: int, ok: bool, rank: int, target_dim: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "target_dim", target_dim)

    def to_json_dict(self) -> dict:
        return dict(zip(self.__slots__, self._values(self)))


def check_projective_space(n: int, d: int) -> SectionDominationResult:
    """Check that point-vanishing degree-d forms on P^n are spanned by
    products x_j * (degree d-1 monomial), j >= 1.

    The target basis is the C(n+d, d) - 1 degree-d monomials other than
    x_0^d, and each product is one of them.  Every such monomial has an
    exponent e_j > 0 with j >= 1, so it is x_j times a degree-(d-1)
    monomial: the products hit the whole basis, and the rank is
    C(n+d, d) - 1.

    Refuses with `ValueError`, before computing C(n+d, d), when that
    number must have more digits than the interpreter prints
    (`sys.get_int_max_str_digits()`, or its default when that is 0).
    """
    n, d = _integers((n, d), "check_projective_space: n and d")
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    k = min(n, d)
    # C(n+d, d) >= q^k >= 2^bits with q = (n+d) // k >= 2, and
    # 2^bits >= 10^limit once 3 bits >= 10 limit, as log2(10) < 10/3
    bits = k * (((n + d) // k).bit_length() - 1)
    if 3 * bits >= 10 * limit:
        raise ValueError(
            f"check_projective_space: C(n+d, d) has more than {limit} digits,"
            " the interpreter's limit for printing an integer"
        )
    rank = comb(n + d, d) - 1
    return SectionDominationResult(n=n, d=d, ok=True, rank=rank, target_dim=rank)


def grid_report() -> list:
    """Results for the full desk-scale grid 1 <= n <= 4, 1 <= d <= 6."""
    return [
        check_projective_space(n, d)
        for n, d in product(range(1, 5), range(1, 7))
    ]
