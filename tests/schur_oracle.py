"""Independent Schur-polynomial multiplication oracle for the tests.

Represents a Schubert class sigma_lam of G(k, n) as the Schur polynomial
s_lam in k variables (built by semistandard-tableau enumeration, not by
any strip or Littlewood-Richardson machinery), multiplies honest
polynomials, re-expands the product in the Schur basis by leading-term
subtraction, and truncates parts exceeding n-k.  Intended for small k
and small degree; exists to cross-check `alghyp.grassmann.multiply` by a
disjoint code path.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from alghyp.grassmann import ChowElement, Partition, RingContext


def _ssyt_fillings(shape, k):
    """Yield semistandard tableaux of the given shape with entries in 1..k,
    encoded as content vectors (count of each entry)."""
    rows = len(shape)
    if rows == 0:
        yield (0,) * k
        return

    def rec(r, row_above, content):
        if r == rows:
            yield tuple(content)
            return
        width = shape[r]

        def fill(c, prev_entry, content):
            if c == width:
                yield from rec(r + 1, current_row, content)
                return
            lo = prev_entry  # weakly increasing along the row
            if r > 0:
                lo = max(lo, row_above[c] + 1)  # strictly increasing down columns
            for v in range(max(lo, 1), k + 1):
                current_row[c] = v
                content[v - 1] += 1
                yield from fill(c + 1, v, content)
                content[v - 1] -= 1

        current_row = [0] * width
        yield from fill(0, 1, content)

    yield from rec(0, (), [0] * k)


@lru_cache(maxsize=None)
def schur_polynomial(lam_parts: tuple, k: int):
    """s_lam(x_1..x_k) as a read-only map {exponent tuple: coeff}; zero if
    lam has more than k rows.  Cached, so the result must not be mutated."""
    lam = Partition(lam_parts)
    poly = {}
    if len(lam) <= k:
        for content in _ssyt_fillings(lam.parts, k):
            poly[content] = poly.get(content, 0) + 1
    return MappingProxyType(poly)


def poly_multiply(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def is_symmetric(poly, k: int) -> bool:
    for e, c in poly.items():
        if poly.get(tuple(sorted(e, reverse=True)), 0) != c:
            return False
    return True


def schur_expand(poly, k: int):
    """Expand a symmetric polynomial in k variables in the Schur basis.

    Repeatedly subtracts the Schur polynomial of the lex-leading exponent;
    for symmetric input the leading exponent is always a partition.
    """
    work = dict(poly)
    out = {}
    while work:
        lead = max(work)
        if any(lead[i] < lead[i + 1] for i in range(k - 1)):
            raise ValueError("polynomial is not symmetric")
        c = work[lead]
        nu = Partition(lead)
        out[nu] = c
        for e, sc in schur_polynomial(nu.parts, k).items():
            v = work.get(e, 0) - c * sc
            if v:
                work[e] = v
            else:
                work.pop(e, None)
    return out


def element_to_polynomial(x: ChowElement):
    k = x.context.k
    poly = {}
    for lam, c in x.terms.items():
        for e, sc in schur_polynomial(lam.parts, k).items():
            v = poly.get(e, 0) + c * sc
            if v:
                poly[e] = v
            else:
                poly.pop(e, None)
    return poly


def schur_oracle_multiply(x: ChowElement, y: ChowElement) -> ChowElement:
    """Product of two elements via honest polynomial arithmetic.

    Agrees with `grassmann.multiply` on the nose; parts exceeding the box
    width are truncated to zero (the quotient-ring convention).
    """
    x._check_context(y)
    ctx = x.context
    prod = poly_multiply(element_to_polynomial(x), element_to_polynomial(y))
    terms = {}
    for nu, c in schur_expand(prod, ctx.k).items():
        if ctx.fits(nu):
            terms[nu] = c
    return ChowElement(ctx, terms)
