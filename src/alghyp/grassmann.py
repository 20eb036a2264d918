"""Exact Schubert calculus in the Chow ring of the Grassmannian G(k, n).

Classes are indexed by partitions inside the k x (n-k) box.  `_checked`
is the one partition validator and yields a trimmed `Partition`, an int
tuple; `ChowElement` keys its one term dict by them, and `terms` is a
read-only view of that dict.  The content is the factor whose longest
term has fewer rows.  On a tie with a single class, it is a factor of
single columns, then the one with the larger largest term, so both
orders of a pair of classes run the same kernels; two sums that tie keep
the second factor.  Each pair of a content term mu and a term lam of the
other factor takes one of three routes.  A single column 1^p (sigma_1
included) is one vertical strip: its first p - 1 boxes grow row by row,
and one walk down the rows below the last of them places the last box at
every corner.  Any other mu first drops the terms whose product with it
is zero; then, for mu of two or more rows and lam near the top, with e =
k(n-k) - |lam| - |mu| < |mu|, the product is one Littlewood-Richardson
count over the e boxes of the skew shape lam^vee / mu (the duality
theorem), and otherwise mu is one Littlewood-Richardson stage per row,
kept while the reverse reading word is a lattice word, with partial
fillings merged by their shape and the shape before the last letter.  A
single row is one stage, which is Pieri's rule.  In the stages the
bottom row takes every box left, with no loop over counts, and every
route adds its shapes, scaled by the coefficients, straight into the
product's one dict.  The route changes only the cost, never the product.
There are no signs and no cache, and every product term passes the
partition, coefficient and box checks of `ChowElement`.  An independent
Schur-polynomial oracle lives in the tests.  All coefficients are Python
ints; inputs that are not integers are rejected, not truncated.  All
values are immutable, and every operation is a pure function.
"""

from __future__ import annotations

import operator
from itertools import zip_longest
from types import MappingProxyType


class Partition(tuple):
    """Weakly decreasing tuple of nonnegative integers, trailing zeros trimmed.

    `_checked` builds every instance, so each term key of a `ChowElement`
    is one; it equals and hashes as its plain tuple.

    >>> Partition([3, 1, 0])
    Partition([3, 1])
    >>> Partition([3, 1]) == (3, 1)
    True
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        return _checked(parts)

    @property
    def parts(self) -> tuple:
        return tuple(self)

    def __repr__(self):
        return f"Partition({list(self)})"


def _checked(parts) -> Partition:
    """`parts` as a trimmed `Partition`, or ValueError: the parts must be
    integers, nonnegative and weakly decreasing."""
    if isinstance(parts, Partition):
        return parts
    try:
        lam = tuple.__new__(Partition, map(operator.index, parts))
    except TypeError:
        raise ValueError(f"partition parts must be integers, got {parts!r}") from None
    if lam and lam[-1] == 0:  # trim the zeros with one scan and one slice
        end = len(lam) - 1
        while end and lam[end - 1] == 0:
            end -= 1
        lam = tuple.__new__(Partition, lam[:end])
    # weakly decreasing with a nonnegative last part means no negative part
    if any(map(operator.lt, lam, lam[1:])) or (lam and lam[-1] < 0):
        if min(lam) < 0:
            raise ValueError(f"negative part in {tuple(lam)}")
        raise ValueError(f"parts not weakly decreasing: {tuple(lam)}")
    return lam


def _conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    return _checked([sum(p > i for p in lam) for i in range(lam[0] if lam else 0)])


class _Record:
    """Immutable value record: a subclass lists two or more fields in
    `__slots__`, sets them in its `__init__` with `object.__setattr__`, and
    takes equality within its class, hash, repr and copy/pickle from here."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values(self)))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class RingContext(_Record):
    """The Grassmannian G(k, n) of k-planes in n-space; fixes the box."""

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int):
        try:
            k = operator.index(k)
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"k and n must be integers, got k={k!r}, n={n!r}") from None
        if k < 1 or n <= k:
            raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)

    @property
    def width(self) -> int:
        """Box width n - k (maximal part of a valid partition)."""
        return self.n - self.k

    @property
    def dim(self) -> int:
        """Dimension k(n-k) of the Grassmannian; the top grading degree."""
        return self.k * (self.n - self.k)

    def fits(self, lam) -> bool:
        parts = _checked(lam)
        return len(parts) <= self.k and (not parts or parts[0] <= self.width)


class ChowElement(_Record):
    """Formal integer combination of Schubert classes of a fixed G(k, n).

    Stored terms never include zero coefficients or out-of-box partitions;
    instances are immutable records, and copies rebuild them through the
    constructor, which copies the dict.  Terms are held in one private
    dict keyed by the `Partition`s that `_checked` returns; `terms` is a
    read-only view of it.  Use `make_class` to build basis classes with
    the box-truncation convention.
    """

    __slots__ = ("context", "_terms")

    def __init__(self, context: RingContext, terms=None):
        clean = {}
        k, width = context.k, context.n - context.k
        for lam, c in (terms or {}).items():
            parts = _checked(lam)
            try:
                c = operator.index(c)
            except TypeError:
                raise ValueError(
                    f"coefficient of {parts!r} must be an integer, got {c!r}"
                ) from None
            if c == 0:
                continue
            if len(parts) > k or (parts and parts[0] > width):
                raise ValueError(f"{parts!r} does not fit the {context} box")
            clean[parts] = c
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "_terms", clean)

    @property
    def terms(self) -> MappingProxyType:
        """The terms as a read-only {Partition: coefficient} mapping."""
        return MappingProxyType(self._terms)

    def coefficient(self, lam) -> int:
        return self._terms.get(_checked(lam), 0)

    def sorted_terms(self):
        """Terms in canonical order (partitions lex descending)."""
        return sorted(self._terms.items(), reverse=True)

    def __hash__(self):  # the record hash would hash the dict
        return hash((self.context, frozenset(self._terms.items())))

    def __add__(self, other):
        self._check_context(other)
        out = dict(self._terms)
        for lam, c in other._terms.items():
            out[lam] = out.get(lam, 0) + c
        return ChowElement(self.context, out)

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return ChowElement(
            self.context, {lam: scalar * c for lam, c in self._terms.items()}
        )

    def _check_context(self, other):
        if not isinstance(other, ChowElement):
            raise TypeError(f"expected ChowElement, got {type(other).__name__}")
        if self.context is not other.context and self.context != other.context:
            raise ValueError(
                f"incompatible ring contexts {self.context} and {other.context}"
            )

    def to_text(self) -> str:
        """Render as e.g. '3*s[2,1] + 5*s[1,1,1]' in canonical term order."""
        if not self._terms:
            return "0"
        pieces = []
        for lam, c in self.sorted_terms():
            body = f"s[{','.join(map(str, lam))}]"
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
                {"partition": list(lam), "coeff": str(c)}
                for lam, c in self.sorted_terms()
            ],
        }

    def __repr__(self):
        return f"<{self.to_text()} in G({self.context.k},{self.context.n})>"


def make_class(ctx: RingContext, lam) -> ChowElement:
    """Schubert class for `lam`, or zero if it does not fit the box."""
    parts = _checked(lam)
    if not ctx.fits(parts):
        return ChowElement(ctx)
    return ChowElement(ctx, {parts: 1})


def _vertical_strips(terms, p: int, k: int, width: int, out: dict, scale: int) -> None:
    """Add to `out` every vertical strip of p boxes on each term, times `scale`.

    `terms` yields (parts, coeff) with trimmed int tuples, and `out` maps
    trimmed tuples mu to summed coefficients; it is `multiply`'s one dict,
    shared by every content term.  A vertical strip puts at most one box
    in each row (mu_i <= lam_i + 1, mu weakly decreasing), and mu stays
    inside the k x width box.  The first p - 1 boxes grow row by row as
    partial fillings: the full rows take no box, and each later row has
    two choices, no box while the rows below can take the boxes left, or
    one box while the row stays below the row above.  A strip with one
    box left is finished by one walk down the rows below its last box,
    which places the box at each corner: the row right under the last box
    (always a corner, since the box raised the row above it), every later
    row shorter than the row above it, and the first empty row when it
    lies in the box.  For p = 1 the kernel is just that walk, from the
    top row, with the box's top edge as the row above it.  Every shape
    emitted still passes through the validating constructors.
    """
    get = out.get
    if p == 1:
        walks = [(lam, 0, width, c * scale) for lam, c in terms]
    else:
        walks = []  # (shape with one box left, first row to walk, row above it, coeff)
        for lam, c in terms:
            rows = k if len(lam) + p > k else len(lam) + p
            base = lam + (0,) * (rows - len(lam))
            full = base.count(width)
            if rows - full < p:
                continue
            c *= scale
            partial = [(base[:full], p)]
            # a filling with two or more boxes left fits them only above
            # the bottom row, so the loop stops one row short of it
            for i in range(full, rows - 1):
                b = base[i]
                nxt = []
                for prefix, left in partial:
                    if left < rows - i:
                        nxt.append((prefix + (b,), left))
                    if b < (prefix[-1] if i else width):
                        if left > 2:
                            nxt.append((prefix + (b + 1,), left - 1))
                            continue
                        head, j = prefix + (b + 1,), i + 1
                        low = base[j]
                        if j == rows - 1:  # the bottom row has no tail
                            mu = head + (low + 1,)
                        else:
                            mu = head + (low + 1,) + lam[j + 1:]
                            if low:  # below an empty row j nothing is a corner
                                walks.append((head + lam[j:], j + 1, low, c))
                        out[mu] = get(mu, 0) + c
                partial = nxt
    for lam, i, above, c in walks:
        n = len(lam)
        for j in range(i, n):
            b = lam[j]
            if b < above:
                mu = lam[:j] + (b + 1,) + lam[j + 1:]
                out[mu] = get(mu, 0) + c
            above = b
        if n < k:
            mu = lam + (1,)
            out[mu] = get(mu, 0) + c


def _lr_stage(states: dict, m: int, k: int, width: int, out: dict | None = None) -> dict:
    """Add m boxes of the next letter to every state as a horizontal strip.

    A state (shape, before) holds the summed coefficient of every partial
    filling with that shape, where `before` is the shape before the last
    letter placed (None before the first letter).  The reverse reading
    word must stay a lattice word: the new letter's boxes in rows <= r
    number at most the last letter's boxes in rows < r.  So, with cum the
    last letter's boxes in rows < r, read off the two shapes, at least
    m - cum of the boxes still to place go below row r; the first letter
    has no cut.  The shape stays inside the k x width box: row r takes at
    most the row above minus itself, and rows r+1.. at most row r minus
    the bottom row.  The bottom row takes every box left, so it is no
    loop over counts: it emits only where its cut is 0, and the rows
    above leave it no more boxes than fit below the row above.  A stage
    that is not the last returns its new states, keyed (new shape,
    shape), so fillings that reach the same state are merged.  The last
    stage of a term is given `out`, `multiply`'s one dict, and adds each
    new shape straight into it.  A single row is one last stage with no
    cut, which is Pieri's row rule.
    Every final shape still passes through the validating constructors.
    """
    final = out is not None
    if not final:
        out = {}
    get = out.get
    for (nu, before), c in states.items():
        rows = k if len(nu) >= k else len(nu) + 1
        base = nu + (0,) * (rows - len(nu))
        low = base[-1]
        if width - low < m:
            continue
        prev = base if before is None else before + (0,) * (rows - len(before))
        cum = m if before is None else 0
        partial = [((), m)]  # (grown shape of rows < r, boxes left)
        above = width
        for r in range(rows - 1):
            b, tail = base[r], nu[r + 1:]
            top, after, cut = above - b, b - low, m - cum if cum < m else 0
            above, cum = b, cum + b - prev[r]
            nxt = []
            for shape, left in partial:
                hi = left - cut
                if top < hi:
                    hi = top
                for a in range(left - after if left > after else 0, hi + 1):
                    if a < left:
                        nxt.append((shape + (b + a,), left - a))
                    else:
                        mu = shape + (b + a,) + tail
                        key = mu if final else (mu, nu)
                        out[key] = get(key, 0) + c
            partial = nxt
            if not partial:
                break
        else:
            # the bottom row takes every box left, which the lattice word
            # allows only where its cut is 0.  The boxes left always fit
            # below the row above: the last loop row keeps a filling only
            # when a >= left - after, with after = base[rows - 2] - low, so
            # at most base[rows - 2] - low boxes are left; with a single
            # row the entry check width - low < m gives the same bound.
            if cum >= m:
                for shape, left in partial:
                    shape += (low + left,)
                    key = shape if final else (shape, nu)
                    out[key] = get(key, 0) + c
    return out


def _skew_fillings(outer, inner, k, width, out: dict, scale: int) -> None:
    """Add to `out`, times `scale`, the Littlewood-Richardson fillings of
    the skew shape outer/inner, each keyed by the box complement of its
    content.

    Rows are filled top down, each a weakly increasing run of letters
    written as its end columns: `ends[j]` is where letters < j stop, and
    ends[0] is the row's start.  Letter j >= 1 takes at most
    counts[j-1] - counts[j] boxes (the counts of the rows above), so the
    reverse reading word stays a lattice word, and the letters through j
    end at or before the column where the row above ends its letters
    < j, so every column strictly increases.  A letter leaves at least as
    many boxes as the later letters can take, and the new letter
    len(counts) takes every box left.  An empty row is skipped: the rows
    below it end at or before its start, which is at or before the start
    of every row above, so the column test holds by itself.  Partial
    fillings are merged by their letter counts and the end columns of
    their last row, so the work grows with the boxes of the skew shape,
    not with those of inner.
    """
    states = {((), (width,)): scale}  # (letter counts, row above's end columns)
    for lo, hi in zip_longest(inner, outer, fillvalue=0):
        if lo == hi:
            continue
        merged = {}
        get = merged.get
        for (counts, above), c in states.items():
            room = (hi,) + tuple(map(operator.sub, counts, counts[1:] + (0,)))
            partial = [(lo,)]
            for j in range(len(counts)):
                floor = hi - sum(room[j + 1:])
                nxt = []
                for ends in partial:
                    e = ends[-1]
                    for end in range(max(e, floor), min(hi, above[j], e + room[j]) + 1):
                        nxt.append(ends + (end,))
                partial = nxt
            for ends in partial:
                full = ends + (hi,)  # the new letter takes at most room[-1], by the last floor
                grown = tuple(map(operator.add, counts + (0,), map(operator.sub, full[1:], ends)))
                key = (grown, full) if grown[-1] else (grown[:-1], ends)
                merged[key] = get(key, 0) + c
        states = merged
    get = out.get
    for (counts, _), c in states.items():
        # the box complement of the content; a full letter leaves a zero row
        mu = (width,) * (k - len(counts)) + tuple([width - t for t in reversed(counts) if t < width])
        out[mu] = get(mu, 0) + c


def multiply(x: ChowElement, y: ChowElement) -> ChowElement:
    """Chow ring product by the Littlewood-Richardson rule.

    The content is the factor whose longest term has fewer rows.  On a
    tie where one factor is a single class, it is a factor of single
    columns (its largest term is a column), one strip each, and then the
    one whose largest term is the larger partition, which costs less in
    the stages on tied pairs of classes; the key reads only the factor's
    own terms, so s[lam] s[mu] and s[mu] s[lam] run the same kernels.
    Two sums that tie keep the second factor, with no pass over their
    terms: `chern.paired_rearrangement` multiplies its growing product by
    a two-term factor of a row and a column, which stays the content.
    Each content term mu, scaled by its coefficient, is applied to every
    term lam of the other factor by one of three routes.  A single column 1^p is
    one vertical strip.  Any other mu drops each lam with some
    lam_i + mu_(k+1-i) > n-k, that is, with mu not inside lam^vee, whose
    product with it is zero (the duality theorem; Fulton, Young Tableaux,
    ch. 9); a single row meets the same test in its stage's first check.
    A mu of two or more rows then sends each lam with e < |mu|, where
    e = k(n-k) - |lam| - |mu| is the box count of the skew shape
    lam^vee / mu, through `_skew_fillings`: s[lam] s[mu] is the sum over
    tau of c^(lam^vee)_(mu, tau) s[tau^vee] (Fulton, Young Tableaux,
    section 9.4), one Littlewood-Richardson count over e boxes instead of
    |mu|.  A single row skips the zero test that the skew shape needs, so
    it keeps its stage.  The other terms take one `_lr_stage` per row,
    where row mu_i is a horizontal strip of the letter i kept only while
    the reverse reading word is a lattice word (a single row is Pieri's
    rule).  The route changes only the cost, never the product.  The
    unit class s[] leaves the other factor as it is.  Every route adds
    its shapes, already scaled, into one dict, so the product is built in
    one pass.  The kernels work on int tuples and keep every shape inside
    the box; the sum can cancel, and `ChowElement` checks every term and
    drops zeros.
    """
    x._check_context(y)
    ctx = x.context
    k, width = ctx.k, ctx.width
    rows_x, rows_y = max(map(len, x._terms), default=0), max(map(len, y._terms), default=0)
    if rows_x == rows_y and 1 in (len(x._terms), len(y._terms)):
        # one factor is a single class; the better content has the larger
        # key, and equal keys keep y
        top_x, top_y = max(x._terms, default=()), max(y._terms, default=())
        if (top_x[:1] == (1,), top_x) > (top_y[:1] == (1,), top_y):
            x, y = y, x
    elif rows_x < rows_y:
        x, y = y, x
    base = list(x._terms.items())
    out = {}
    get = out.get
    for mu, cy in y._terms.items():
        if not mu:
            for lam, c in base:
                out[lam] = get(lam, 0) + cy * c
        elif mu[0] == 1:
            _vertical_strips(base, len(mu), k, width, out, cy)
        elif len(mu) == 1:
            # a single row meets the zero test in its stage's first check; it
            # keeps its stage, since the skew shape needs that test first
            _lr_stage({(lam, None): cy * c for lam, c in base}, mu[0], k, width, out)
        else:
            # s[lam] s[mu] = 0 unless lam_i + mu_(k+1-i) <= n-k for every i
            start, flipped, states = k - len(mu), mu[::-1], {}
            # a term of more than `cut` boxes leaves lam^vee / mu fewer boxes
            # than mu has
            cut = ctx.dim - 2 * sum(mu)
            for lam, c in base:
                if len(lam) <= start or max(map(operator.add, lam[start:], flipped)) <= width:
                    if sum(lam) <= cut:
                        states[lam, None] = cy * c
                    else:
                        dual = (width,) * (k - len(lam)) + tuple([width - p for p in reversed(lam)])
                        _skew_fillings(dual, mu, k, width, out, cy * c)
            if not states:
                continue
            for m in mu[:-1]:
                states = _lr_stage(states, m, k, width)
            _lr_stage(states, mu[-1], k, width, out)
    return ChowElement(ctx, out)


def integrate(x: ChowElement) -> int:
    """Degree pairing: coefficient of the full-box point class."""
    ctx = x.context
    return x._terms.get((ctx.width,) * ctx.k, 0)


def complement(ctx: RingContext, lam) -> Partition:
    """Partition pairing with lam to the point class under integration."""
    lam = _checked(lam)
    if not ctx.fits(lam):
        raise ValueError(f"{lam!r} does not fit the G({ctx.k},{ctx.n}) box")
    return _checked([ctx.width - p for p in reversed(lam + (0,) * (ctx.k - len(lam)))])


def transpose_dual(ctx: RingContext, lam):
    """Conjugate partition in the dual Grassmannian G(n-k, n)."""
    lam = _checked(lam)
    if not ctx.fits(lam):
        raise ValueError(f"{lam!r} does not fit the G({ctx.k},{ctx.n}) box")
    return RingContext(ctx.n - ctx.k, ctx.n), _conjugate(lam)
