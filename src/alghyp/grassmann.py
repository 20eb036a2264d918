"""Exact Schubert calculus in the Chow ring of the Grassmannian G(k, n).

Classes are indexed by partitions inside the k x (n-k) box.  Multiplying
by a special class sigma_p (one row) or sigma_{1^p} (one column) is one
Pieri step: a single strip kernel adds every horizontal or vertical strip
of p boxes to each term.  A product of two other basis classes expands
the shorter partition by the Jacobi-Trudi determinant, row by row, and
sums the partial products that used the same set of determinant columns,
so an l-row factor costs at most l * 2^(l-1) Pieri steps; a bounded cache
keeps recent basis products.  An independent Schur-polynomial oracle lives
in `alghyp.schur`.  All coefficients are Python ints (arbitrary precision);
inputs that are not integers are rejected, not truncated.  All values are
immutable after construction, and every operation is a pure function.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache

_DECIMAL = re.compile(r"-?[0-9]+")  # the coefficient pattern of CHOW_ELEMENT_SCHEMA


class Partition:
    """Weakly decreasing tuple of nonnegative integers, trailing zeros trimmed.

    >>> Partition([3, 1, 0]).parts
    (3, 1)
    >>> Partition([3, 1]).conjugate().parts
    (2, 1, 1)
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            parts = parts.parts
        try:
            parts = tuple(map(operator.index, parts))
        except TypeError:
            raise ValueError(f"partition parts must be integers, got {parts!r}") from None
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def part(self, i: int) -> int:
        """i-th part (0-based), 0 beyond the last row."""
        return self.parts[i] if i < len(self.parts) else 0

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition()
        return Partition(
            tuple(sum(1 for p in self.parts if p > i) for i in range(self.parts[0]))
        )

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= other.part(i) for i in range(len(other)))

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"


def _as_partition(lam) -> Partition:
    return lam if isinstance(lam, Partition) else Partition(lam)


@dataclass(frozen=True)
class RingContext:
    """The Grassmannian G(k, n) of k-planes in n-space; fixes the box."""

    k: int
    n: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "k", operator.index(self.k))
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"k and n must be integers, got k={self.k!r}, n={self.n!r}") from None
        if self.k < 1 or self.n <= self.k:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")

    @property
    def width(self) -> int:
        """Box width n - k (maximal part of a valid partition)."""
        return self.n - self.k

    @property
    def dim(self) -> int:
        """Dimension k(n-k) of the Grassmannian; the top grading degree."""
        return self.k * (self.n - self.k)

    @property
    def top(self) -> Partition:
        """The full-box partition indexing the point class."""
        return Partition((self.width,) * self.k)

    def fits(self, lam) -> bool:
        lam = _as_partition(lam)
        return len(lam) <= self.k and (not lam.parts or lam.parts[0] <= self.width)


def _term_key(lam: Partition):
    # canonical ordering: lexicographically descending partition tuples
    return lam.parts


class ChowElement:
    """Formal integer combination of Schubert classes of a fixed G(k, n).

    Stored terms never include zero coefficients or out-of-box partitions;
    instances are immutable.  Use `make_class` to build basis classes with
    the box-truncation convention.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: RingContext, terms=None):
        clean = {}
        for lam, c in (terms or {}).items():
            lam = _as_partition(lam)
            try:
                c = operator.index(c)
            except TypeError:
                raise ValueError(f"coefficient of {lam!r} must be an integer, got {c!r}") from None
            if c == 0:
                continue
            if not context.fits(lam):
                raise ValueError(f"{lam!r} does not fit the {context} box")
            clean[lam] = c
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ChowElement is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam) -> int:
        return self.terms.get(_as_partition(lam), 0)

    def degrees(self) -> set:
        """Set of grading degrees |lambda| occurring in the element."""
        return {lam.size for lam in self.terms}

    def sorted_terms(self):
        """Terms in canonical order (partitions lex descending)."""
        return sorted(self.terms.items(), key=lambda t: _term_key(t[0]), reverse=True)

    def __eq__(self, other):
        return (
            isinstance(other, ChowElement)
            and self.context == other.context
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check_context(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c
        return ChowElement(self.context, out)

    def __neg__(self):
        return ChowElement(self.context, {lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return ChowElement(
            self.context, {lam: scalar * c for lam, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        return multiply(self, other)

    def _check_context(self, other):
        if not isinstance(other, ChowElement):
            raise TypeError(f"expected ChowElement, got {type(other).__name__}")
        if self.context != other.context:
            raise ValueError(
                f"incompatible ring contexts {self.context} and {other.context}"
            )

    def to_text(self) -> str:
        """Render as e.g. '3*s[2,1] + 5*s[1,1,1]' in canonical term order."""
        if not self.terms:
            return "0"
        pieces = []
        for lam, c in self.sorted_terms():
            body = f"s[{','.join(str(p) for p in lam.parts)}]"
            if not pieces:
                pieces.append(f"{c}*{body}")
            elif c >= 0:
                pieces.append(f"+ {c}*{body}")
            else:
                pieces.append(f"- {-c}*{body}")
        return " ".join(pieces)

    def to_json_dict(self) -> dict:
        """JSON form with coefficients as decimal strings."""
        return {
            "k": self.context.k,
            "n": self.context.n,
            "terms": [
                {"partition": list(lam.parts), "coeff": str(c)}
                for lam, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChowElement":
        """Inverse of `to_json_dict`; a coefficient may also be a JSON integer."""
        ctx = RingContext(data["k"], data["n"])
        terms = {}
        for t in data["terms"]:
            lam = Partition(t["partition"])
            c = t["coeff"]
            if isinstance(c, str):
                if _DECIMAL.fullmatch(c) is None:
                    raise ValueError(f"coefficient of {lam!r} must match -?[0-9]+, got {c!r}")
                c = int(c)
            terms[lam] = terms.get(lam, 0) + c
        return cls(ctx, terms)

    def __repr__(self):
        return f"<{self.to_text()} in G({self.context.k},{self.context.n})>"


def zero(ctx: RingContext) -> ChowElement:
    return ChowElement(ctx, {})


def unit(ctx: RingContext) -> ChowElement:
    return ChowElement(ctx, {Partition(): 1})


def make_class(ctx: RingContext, lam) -> ChowElement:
    """Schubert class for `lam`, or zero if it does not fit the box."""
    lam = _as_partition(lam)
    if not ctx.fits(lam):
        return zero(ctx)
    return ChowElement(ctx, {lam: 1})


def _strips(terms, p: int, k: int, width: int, vertical: bool) -> dict:
    """Sum over `terms` of every strip of p boxes added to each partition.

    `terms` yields (parts, coeff) with trimmed int tuples; the result maps
    trimmed tuples mu to summed coefficients.  A horizontal strip puts at
    most one box in each column (lam_i <= mu_i <= lam_{i-1}), a vertical
    strip at most one in each row (mu_i <= lam_i + 1, mu weakly
    decreasing).  mu stays inside the k x width box.  Rows are filled top
    down; `room[i]` bounds what rows i.. can still take (exactly for
    horizontal strips), so hardly any prefix is a dead end.
    """
    out = {}
    for lam, c in terms:
        rows = min(k, len(lam) + (p if vertical else 1))
        base = lam + (0,) * (rows - len(lam))
        room = [0] * (rows + 1)
        for i in range(rows - 1, -1, -1):
            if vertical:
                room[i] = room[i + 1] + (base[i] < width)
            else:
                room[i] = room[i + 1] + (base[i - 1] if i else width) - base[i]
        if room[0] < p:
            continue
        partial = [((), p)]
        for i in range(rows):
            b = base[i]
            nxt = []
            for prefix, left in partial:
                if vertical:
                    top = min(b + 1, prefix[-1] if i else width)
                else:
                    top = base[i - 1] if i else width
                for m in range(max(b, b + left - room[i + 1]), min(top, b + left) + 1):
                    rest = left - (m - b)
                    if rest:
                        nxt.append((prefix + (m,), rest))
                    else:
                        mu = prefix + (m,) + lam[i + 1:]
                        out[mu] = out.get(mu, 0) + c
            partial = nxt
            if not partial:
                break
    return out


def _strip_product(ctx: RingContext, p: int, x, vertical: bool) -> ChowElement:
    if p < 0:
        raise ValueError("p must be nonnegative")
    if isinstance(x, ChowElement):
        if x.context != ctx:
            raise ValueError("element does not belong to the given ring context")
    else:
        x = make_class(ctx, x)
    if p == 0:
        return x
    if p > (ctx.k if vertical else ctx.width):
        return zero(ctx)
    terms = ((lam.parts, c) for lam, c in x.terms.items())
    out = _strips(terms, p, ctx.k, ctx.width, vertical)
    return ChowElement(ctx, {Partition(mu): c for mu, c in out.items()})


def pieri(ctx: RingContext, p: int, x: ChowElement) -> ChowElement:
    """Multiply by the special class sigma_p via the horizontal-strip rule."""
    return _strip_product(ctx, p, x, vertical=False)


def pieri_vertical(ctx: RingContext, p: int, x: ChowElement) -> ChowElement:
    """Multiply by sigma_{1^p} via the vertical-strip rule."""
    return _strip_product(ctx, p, x, vertical=True)


def _completable(used: int, row: int, lo: list, hi: list) -> bool:
    """Whether rows `row`.. can still take the columns missing from `used`.

    Row r may take a column in [lo[r], hi[r]]; both bounds are
    nondecreasing in r, so a matching exists iff the free columns, in
    increasing order, fit the remaining rows in order.
    """
    for col in range(len(lo)):
        if not used >> col & 1:
            if not lo[row] <= col <= hi[row]:
                return False
            row += 1
    return True


@lru_cache(maxsize=256)
def _basis_product(ctx: RingContext, lam_parts: tuple, mu_parts: tuple) -> ChowElement:
    """Product sigma_lam * sigma_mu, expanding the shorter partition mu.

    sigma_mu = det(h_{mu_i - i + j}) (Jacobi-Trudi) is expanded row by row.
    After i rows, every signed partial product sigma_lam * h_.. * h_.. whose
    rows used the same set of columns is summed into one element, keyed by
    that set as a bitmask; the next row applies one Pieri step to each sum
    for each column still free.
    An l-row mu thus costs at most l * 2^(l-1) Pieri steps, not l * l!.
    Entries h_p with p < 0 or p > width vanish, and so do column sets the
    remaining rows cannot complete.
    """
    if len(mu_parts) > len(lam_parts):
        lam_parts, mu_parts = mu_parts, lam_parts
    ell = len(mu_parts)
    lo = [max(0, i - mu_parts[i]) for i in range(ell)]
    hi = [min(ell - 1, ctx.width + i - mu_parts[i]) for i in range(ell)]
    layer = {0: make_class(ctx, lam_parts)}
    for i in range(ell):
        sums = {}
        for used, elem in layer.items():
            for j in range(lo[i], hi[i] + 1):
                if used >> j & 1 or not _completable(used | 1 << j, i + 1, lo, hi):
                    continue
                # sign of the permutation: one inversion per used column right of j
                sign = -1 if bin(used >> j).count("1") % 2 else 1
                p = mu_parts[i] - i + j
                step = pieri(ctx, p, elem) if p else elem
                acc = sums.setdefault(used | 1 << j, {})
                for nu, c in step.terms.items():
                    acc[nu] = acc.get(nu, 0) + sign * c
        layer = {}
        for used, acc in sums.items():
            elem = ChowElement(ctx, acc)
            if not elem.is_zero():
                layer[used] = elem
    return layer.get((1 << ell) - 1, zero(ctx))


def _is_special(lam: Partition) -> bool:
    """sigma_p (one row, or the unit) or sigma_{1^p} (one column)."""
    return len(lam) <= 1 or lam.parts[0] == 1


def _special_product(ctx: RingContext, lam: Partition, x: ChowElement) -> ChowElement:
    if len(lam) <= 1:
        return pieri(ctx, lam.part(0), x)
    return pieri_vertical(ctx, len(lam), x)


def multiply(x: ChowElement, y: ChowElement) -> ChowElement:
    """Chow ring product.

    Each single-row term sigma_p or single-column term sigma_{1^p} of y
    multiplies the whole of x in one Pieri step, and each such term of x
    multiplies the rest of y in one step.  The remaining pairs of basis
    classes go through `_basis_product`: a Jacobi-Trudi expansion of the
    shorter partition, row by row, with partial products summed by the set
    of determinant columns they used.  Basis products are cached.
    """
    x._check_context(y)
    ctx = x.context
    out = {}

    def add(elem, scale):
        for nu, c in elem.terms.items():
            out[nu] = out.get(nu, 0) + scale * c

    rest = {}
    for mu, cy in y.terms.items():
        if _is_special(mu):
            add(_special_product(ctx, mu, x), cy)
        else:
            rest[mu] = cy
    if rest:
        rest_elem = ChowElement(ctx, rest)
        for lam, cx in x.terms.items():
            if _is_special(lam):
                add(_special_product(ctx, lam, rest_elem), cx)
            else:
                for mu, cy in rest.items():
                    add(_basis_product(ctx, lam.parts, mu.parts), cx * cy)
    return ChowElement(ctx, out)


def integrate(x: ChowElement) -> int:
    """Degree pairing: coefficient of the full-box point class."""
    return x.terms.get(x.context.top, 0)


def complement(ctx: RingContext, lam) -> Partition:
    """Partition pairing with lam to the point class under integration."""
    lam = _as_partition(lam)
    if not ctx.fits(lam):
        raise ValueError(f"{lam!r} does not fit the G({ctx.k},{ctx.n}) box")
    return Partition(tuple(ctx.width - lam.part(ctx.k - 1 - j) for j in range(ctx.k)))


def transpose_dual(ctx: RingContext, lam):
    """Conjugate partition in the dual Grassmannian G(n-k, n)."""
    lam = _as_partition(lam)
    if not ctx.fits(lam):
        raise ValueError(f"{lam!r} does not fit the G({ctx.k},{ctx.n}) box")
    return RingContext(ctx.n - ctx.k, ctx.n), lam.conjugate()


def dual_class_vanishes(d: int, N: int) -> bool:
    """Check that sigma_2 annihilates the transpose-dual of the two-row
    class (N-2, N-2-(d+1)) taken in G(2, N).

    This is the computational witness that lines in a family of that class
    pass through finitely many points; it requires d >= 2 (for d = 1 the
    geometric argument behind the check does not apply).
    """
    if d < 2:
        raise ValueError("the vanishing check requires d >= 2")
    if N < d + 3:
        raise ValueError("need N >= d + 3 so the two-row class fits the box")
    line_ctx = RingContext(2, N)
    dual_ctx, conj = transpose_dual(line_ctx, Partition((N - 2, N - 2 - (d + 1))))
    return pieri(dual_ctx, 2, make_class(dual_ctx, conj)).is_zero()
