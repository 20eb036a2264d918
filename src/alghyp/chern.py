"""Splitting-principle Chern class computations on the Grassmannian of lines.

Works with integer polynomials in the two formal Chern roots of the dual
tautological bundle on G(2, N).  The top Chern class of the d-th symmetric
power is the class of the scheme of lines on a degree-d hypersurface; its
Schubert expansion, the positivity certificate for that expansion, and the
classical finite line counts all live here.

Conversion to the Schubert basis uses the bialternant quotient (multiply
by the root difference, then divide exactly), which is an algorithm
independent of the Pieri/Giambelli route in `alghyp.grassmann` and
doubles as a test oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .grassmann import ChowElement, Partition, RingContext, integrate, make_class, multiply


class RootPoly:
    """Integer polynomial in the two formal Chern roots.

    Terms map exponent pairs (a, b) to coefficients; immutable.  Exponents
    and coefficients must be integers (non-integers raise ValueError).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (a, b), c in (terms or {}).items():
            try:
                c = operator.index(c)
                if c:
                    clean[(operator.index(a), operator.index(b))] = c
            except TypeError:
                raise ValueError(f"root polynomial term {(a, b)}: {c!r} is not integral") from None
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RootPoly is immutable")

    def __eq__(self, other):
        return isinstance(other, RootPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return RootPoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return RootPoly({e: other * c for e, c in self.terms.items()})
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                out[e] = out.get(e, 0) + c1 * c2
        return RootPoly(out)

    __rmul__ = __mul__

    def is_symmetric(self) -> bool:
        return all(self.terms.get((b, a), 0) == c for (a, b), c in self.terms.items())

    def is_homogeneous(self, degree: int) -> bool:
        return all(a + b == degree for a, b in self.terms)

    def __repr__(self):
        body = " + ".join(
            f"{c}*a^{a}b^{b}" for (a, b), c in sorted(self.terms.items())
        )
        return f"RootPoly({body or '0'})"


ONE = RootPoly({(0, 0): 1})


def schur_coefficients(poly: RootPoly) -> dict:
    """Schur-basis coefficients of a symmetric root polynomial.

    Multiplies by (alpha - beta) and matches the resulting alternant
    against the bialternant numerators; asserts the division is exact.
    """
    if not poly.is_symmetric():
        raise ValueError("root polynomial is not symmetric")
    alternant = poly * RootPoly({(1, 0): 1, (0, 1): -1})
    out = {}
    for (a, b), c in alternant.terms.items():
        if a == b:
            raise AssertionError("alternant has a diagonal term")
        if a > b:
            out[(a - 1, b)] = c
    # exact-division assertion: the pairs rebuild the alternant
    rebuilt = {}
    for (x, y), c in out.items():
        rebuilt[(x + 1, y)] = rebuilt.get((x + 1, y), 0) + c
        rebuilt[(y, x + 1)] = rebuilt.get((y, x + 1), 0) - c
    if RootPoly(rebuilt) != alternant:
        raise AssertionError("inexact bialternant division")
    return out


def to_chow(poly: RootPoly, N: int) -> ChowElement:
    """Schubert expansion of a symmetric root polynomial in G(2, N)."""
    ctx = RingContext(2, N)
    terms = {}
    for (a, b), c in schur_coefficients(poly).items():
        if a <= ctx.width:
            terms[Partition((a, b))] = c
    return ChowElement(ctx, terms)


def chern_factors(d: int) -> list:
    """The d+1 linear factors 1 + i*alpha + (d-i)*beta of the total Chern
    class of the d-th symmetric power of the dual tautological bundle."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return [RootPoly({(0, 0): 1, (1, 0): i, (0, 1): d - i}) for i in range(d + 1)]


def top_chern_sym(d: int, N: int) -> ChowElement:
    """Top Chern class of the d-th symmetric power on G(2, N).

    Expands the product of the root-linear factors i*alpha + (d-i)*beta,
    i = 0..d, and converts to the Schubert basis; homogeneous of degree
    d+1 (box truncation may drop wide classes).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < 4:
        raise ValueError("N must be >= 4")
    prod = ONE
    for i in range(d + 1):
        prod = prod * RootPoly({(1, 0): i, (0, 1): d - i})
    if not prod.is_symmetric():
        raise AssertionError("top Chern product is not symmetric")
    if not prod.is_homogeneous(d + 1):
        raise AssertionError("top Chern product is not homogeneous")
    return to_chow(prod, N)


@dataclass(frozen=True)
class FanoClassReport:
    """Schubert expansion of the class of the scheme of lines on a very
    general degree-d hypersurface, with the positivity certificate."""

    d: int
    N: int
    expansion: ChowElement
    missing_class_ok: bool
    positive_coefficients: tuple  # ((parts, coeff), ...) for i >= j >= 1
    line_count: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "N": self.N,
            "expansion": self.expansion.to_json_dict(),
            "missing_class_ok": self.missing_class_ok,
            "line_count": self.line_count,
        }


def fano_class(d: int, N: int) -> FanoClassReport:
    """Expansion report for the class of the scheme of lines.

    Certifies that the coefficient of the single-row class of degree d+1
    vanishes while every two-row class of that degree is strictly positive.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if N - 2 < d + 1:
        raise ValueError(
            f"box width {N - 2} hides classes of degree {d + 1}; raise N to at least {d + 3}"
        )
    expansion = top_chern_sym(d, N)
    single_row = expansion.coefficient(Partition((d + 1,)))
    positives = []
    all_positive = True
    for j in range(1, (d + 1) // 2 + 1):
        i = d + 1 - j
        c = expansion.coefficient(Partition((i, j)))
        positives.append(((i, j), c))
        if c <= 0:
            all_positive = False
    ok = single_row == 0 and all_positive
    count = integrate(expansion) if d + 1 == 2 * (N - 2) else None
    return FanoClassReport(
        d=d,
        N=N,
        expansion=expansion,
        missing_class_ok=ok,
        positive_coefficients=tuple(positives),
        line_count=count,
    )


def paired_rearrangement(d: int, N: int | None = None) -> ChowElement:
    """Top Chern class for even d by pairing the root-linear factors.

    Pairs factor i with factor d-i, turning the product into
    d^2 * s11 * prod_i [i(d-i) s1^2 + (d-2i)^2 s11] * (d/2) s1, evaluated
    entirely in the Chow ring; must agree with `top_chern_sym`.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError("the paired route needs even d >= 2")
    if N is None:
        N = d + 3
    ctx = RingContext(2, N)
    s1 = make_class(ctx, Partition((1,)))
    s11 = make_class(ctx, Partition((1, 1)))
    acc = (d * d) * s11
    for i in range(1, d // 2):
        factor = (i * (d - i)) * multiply(s1, s1) + ((d - 2 * i) ** 2) * s11
        acc = multiply(acc, factor)
    return multiply(acc, (d // 2) * s1)


def line_count(n: int) -> int:
    """Number of lines on a very general degree 2n-3 hypersurface in
    projective n-space (the finite case)."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return integrate(top_chern_sym(2 * n - 3, n + 1))
