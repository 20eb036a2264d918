"""Splitting-principle Chern class computations on the Grassmannian of lines.

The top Chern class of the d-th symmetric power of the dual tautological
bundle on G(2, N) is the class of the scheme of lines on a degree-d
hypersurface.  In the two formal Chern roots alpha, beta it is the binary
form prod_(i=0..d) (i*alpha + (d-i)*beta), held here as its list of d+2
integer coefficients.  Factor i times factor d-i is a palindromic
quadratic, so the list is a palindrome, built from the pairs half a list
at a time and mirrored once.  Its Schubert expansion, the positivity
certificate for that expansion, and the classical finite line counts all
live here.

Conversion to the Schubert basis reads the bialternant quotient off the
coefficient list, an algorithm independent of the Littlewood-Richardson
products in `alghyp.grassmann`; `paired_rearrangement`, which multiplies
in the ring, is the cross-check.
"""

from __future__ import annotations

from .grassmann import ChowElement, RingContext, _Record, integrate, make_class, multiply
from .varieties import _integers


def top_chern_sym(d: int, N: int) -> ChowElement:
    """Top Chern class of the d-th symmetric power on G(2, N).

    Expands prod_(i=0..d) (i*alpha + (d-i)*beta) as the coefficient list
    c, with c[j] the coefficient of alpha^j beta^(d+1-j).  Factors 0 and
    d give d^2 alpha beta, so c[0] = c[d+1] = 0, and c[1..d] is the list
    of d^2 times the product of the pairs: factor i times factor d-i is
    A alpha^2 + B alpha beta + A beta^2 with A = i(d-i) and
    B = i^2 + (d-i)^2, and an even d leaves the middle factor
    (d/2)(alpha + beta).  Each factor is a palindrome, and so is their
    product, so only the lower half of its list is kept while
    multiplying; the entry past the half is read from its mirror, and
    the whole list is mirrored once at the end.  The coefficients sum to
    the product at alpha = beta = 1, which is d^(d+1).

    A symmetric binary form of degree d+1 is sum_a s[a, d+1-a] times the
    complete form from alpha^(d+1-a) to alpha^a, so s[a, d+1-a] has
    coefficient c[a] - c[a+1] for a >= (d+1)/2.  Classes wider than the
    box (a > N-2) are dropped.
    """
    d, N = _integers((d, N), "top_chern_sym: d and N")
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < 4:
        raise ValueError("N must be >= 4")
    # q is d^2, times (d/2)(1 + x) for even d, times the pairs so far: a
    # palindrome of degree deg, of which half holds q[0..deg//2]; each step
    # reads q[deg//2 + 1] from its mirror q[deg - deg//2 - 1]
    half = [d * d] if d % 2 else [d * d * (d // 2)]
    deg = 1 - d % 2
    for i in range(1, (d + 1) // 2):
        A, B = i * (d - i), i * i + (d - i) * (d - i)
        q = half + [half[deg - len(half)] if deg else 0]
        half = [A * q[0], B * q[0] + A * q[1]]
        for j in range(2, len(q)):
            half.append(A * (q[j] + q[j - 2]) + B * q[j - 1])
        deg += 2
    c = [0] + half + half[: d - len(half)][::-1] + [0]
    if sum(c) != d ** (d + 1):
        raise AssertionError("top Chern coefficients do not sum to d^(d+1)")
    c.append(0)  # c[d+2] = 0, so the single-row class s[d+1] gets c[d+1]
    terms = {
        (a, d + 1 - a): c[a] - c[a + 1]
        for a in range((d + 2) // 2, min(d + 1, N - 2) + 1)
    }
    return ChowElement(RingContext(2, N), terms)


class FanoClassReport(_Record):
    """Schubert expansion of the class of the scheme of lines on a very
    general degree-d hypersurface, with the positivity certificate."""

    __slots__ = ("d", "N", "expansion", "missing_class_ok", "line_count")

    # line_count is always None: the finite case d + 1 = 2(N - 2) has
    # N - 2 < d + 1, which `fano_class` refuses; the field keeps the JSON key
    def __init__(self, d: int, N: int, expansion: ChowElement, missing_class_ok: bool,
                 line_count: int | None = None):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "expansion", expansion)
        object.__setattr__(self, "missing_class_ok", missing_class_ok)
        object.__setattr__(self, "line_count", line_count)

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
    d, N = _integers((d, N), "fano_class: d and N")
    if d < 2:
        raise ValueError("d must be >= 2")
    if N - 2 < d + 1:
        raise ValueError(
            f"box width {N - 2} hides classes of degree {d + 1}; raise N to at least {d + 3}"
        )
    expansion = top_chern_sym(d, N)
    # the keys below are trimmed partitions already, so they skip the
    # check that `coefficient` runs on its argument
    get = expansion.terms.get
    ok = get((d + 1,), 0) == 0 and all(
        get((d + 1 - j, j), 0) > 0 for j in range(1, (d + 1) // 2 + 1)
    )
    return FanoClassReport(d=d, N=N, expansion=expansion, missing_class_ok=ok)


def paired_rearrangement(d: int, N: int | None = None) -> ChowElement:
    """Top Chern class for even d by pairing the root-linear factors.

    Pairs factor i with factor d-i, turning the product into
    d^2 * s11 * prod_i [i(d-i) s1^2 + (d-2i)^2 s11] * (d/2) s1, evaluated
    entirely in the Chow ring; must agree with `top_chern_sym`.
    """
    (d,) = _integers((d,), "paired_rearrangement: d")
    if d < 2 or d % 2 != 0:
        raise ValueError("the paired route needs even d >= 2")
    (N,) = _integers((d + 3 if N is None else N,), "paired_rearrangement: N")
    if N < 4:
        raise ValueError("N must be >= 4")
    ctx = RingContext(2, N)
    s1 = make_class(ctx, (1,))
    s11 = make_class(ctx, (1, 1))
    s1_squared = multiply(s1, s1)
    acc = (d * d) * s11
    for i in range(1, d // 2):
        factor = (i * (d - i)) * s1_squared + ((d - 2 * i) ** 2) * s11
        acc = multiply(acc, factor)
    return multiply(acc, (d // 2) * s1)


def line_count(n: int) -> int:
    """Number of lines on a very general degree 2n-3 hypersurface in
    projective n-space (the finite case)."""
    (n,) = _integers((n,), "line_count: n")
    if n < 3:
        raise ValueError("n must be >= 3")
    return integrate(top_chern_sym(2 * n - 3, n + 1))
