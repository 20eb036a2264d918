"""Catalog of homogeneous varieties and the degree-threshold classification.

A variety enters the catalog through its numerical data only: dimension D
and the canonical coefficients a_i (K = sum a_i H_i), one per generator of
the Picard group, so the Picard rank m is the length of a.  Every threshold
then derives uniformly from (D, a): hypersurfaces of multidegree d are
algebraically hyperbolic once d_i >= D - a_i - 2 for all i, contain lines
once d_i <= D - a_i - 4 for some i, and the single remaining value
d_i = D - a_i - 3 is the open boundary.

(D, a) is derived in two places: `_type_a` for P, Gr and Fl, and
`_isotropic` for OG and SG.  `VarietyDescriptor` holds the only gates on
the result (D >= 1, every a_i <= -2).

Where a classical family statement disagrees with the uniform thresholds
(the symplectic bound, the flag dimension display), the descriptor carries
a discrepancy note that is surfaced in every JSON report.
"""

from __future__ import annotations

import operator

from .grassmann import _Record


class VarietyDescriptor(_Record):
    """Numerical descriptor: dimension D, canonical coefficients a (all
    <= -2, one per Picard generator), and factor provenance for products."""

    __slots__ = ("name", "D", "a", "factors", "notes")

    def __init__(self, name: str, D: int, a: tuple, factors: tuple = (), notes: tuple = ()):
        if not a:
            raise ValueError(f"{name}: need m >= 1 canonical coefficients")
        if D < 1:
            raise ValueError(f"{name}: dimension {D} violates D >= 1")
        for ai in a:
            if ai > -2:
                raise ValueError(f"{name}: canonical coefficient {ai} violates a <= -2")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "notes", notes)

    @property
    def m(self) -> int:
        """Picard rank: the number of canonical coefficients."""
        return len(self.a)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "m": self.m,
            "D": self.D,
            "a": list(self.a),
            "hyperbolicity_threshold": hyperbolicity_threshold(self),
            "lines_threshold": lines_threshold(self),
            "line_space_dimensions": [
                fano_lines_dimension(self, i) for i in range(self.m)
            ],
            "factors": [f.name for f in self.factors],
            "paper_discrepancies": list(self.notes),
        }


def _type_a(ks: tuple, n: int) -> tuple:
    """(D, a) of the variety of flags of dimensions ks in n-space: with
    k_0 = 0 and k_(m+1) = n, D = sum k_i (k_(i+1) - k_i) and
    a_i = -(k_(i+1) - k_(i-1))."""
    ext = (0, *ks, n)
    D = sum(ext[i] * (ext[i + 1] - ext[i]) for i in range(1, len(ext) - 1))
    return D, tuple(-(ext[i + 2] - ext[i]) for i in range(len(ks)))


def grassmannian(k: int, n: int) -> VarietyDescriptor:
    """G(k, n): dimension k(n-k), canonical coefficient -n."""
    k, n = _integers((k, n), "Gr: k and n")
    if not 1 <= k < n:
        raise ValueError(f"Gr({k},{n}): need 1 <= k < n")
    return VarietyDescriptor(f"Gr({k},{n})", *_type_a((k,), n))


def projective_space(n: int) -> VarietyDescriptor:
    """P^n = G(1, n+1) with its own display name."""
    (n,) = _integers((n,), "P: n")
    if n < 1:
        raise ValueError(f"P({n}): need n >= 1")
    return VarietyDescriptor(f"P({n})", *_type_a((1,), n + 1))


def _isotropic(family: str, k: int, n: int, e: int, notes: tuple = ()) -> VarietyDescriptor:
    """k-planes isotropic for a form of sign e (-1 orthogonal, +1
    symplectic) in n-space: D = k(2n-3k+e)/2 and a = -n+3k-(3+e)/2.

    k(2n-3k+e) is congruent to k(k+1) mod 2, so D is always an integer;
    the descriptor refuses D < 1 and a > -2.
    """
    k, n = _integers((k, n), f"{family}: k and n")
    return VarietyDescriptor(
        f"{family}({k},{n})", k * (2 * n - 3 * k + e) // 2, (-n + 3 * k - (3 + e) // 2,), notes=notes
    )


def orthogonal(k: int, n: int) -> VarietyDescriptor:
    """OG(k, n): dimension k(2n-3k-1)/2, canonical coefficient -n+3k-1."""
    return _isotropic("OG", k, n, -1)


_SYMPLECTIC_NOTE = (
    "stated symplectic hyperbolicity bound d >= n+3k+D disagrees with the "
    "uniform threshold D-a-2 = D+n-3k; thresholds here derive from (D, a)"
)


def symplectic(k: int, n: int) -> VarietyDescriptor:
    """SG(k, n): dimension k(2n-3k+1)/2, canonical coefficient -n+3k-2."""
    return _isotropic("SG", k, n, 1, notes=(_SYMPLECTIC_NOTE,))


_FLAG_DIM_NOTE = (
    "stated flag dimension sum_(i=0..m) k_(i+1)(k_(i+1)-k_i) = {stated}; the "
    "chart-count dimension sum_(i=1..m) k_i(k_(i+1)-k_i) = {used} is used"
)
_FLAG_LINE_NOTE = (
    "stated flag line-containment clause uses >= where the classification "
    "threshold d_i <= D-a_i-4 requires <="
)


def flag(ks, n: int) -> VarietyDescriptor:
    """Flag variety of nested subspaces of dimensions ks inside n-space;
    (D, a) as in `_type_a`."""
    ks = _integers(ks, "Fl: subspace dimensions")
    (n,) = _integers((n,), "Fl: n")
    if not ks:
        raise ValueError("Fl: need at least one subspace dimension")
    name = f"Fl({','.join(map(str, ks))};{n})"
    if any(ks[i] >= ks[i + 1] for i in range(len(ks) - 1)) or ks[0] < 1 or ks[-1] >= n:
        raise ValueError(f"{name}: need 0 < k_1 < ... < k_m < n")
    D, a = _type_a(ks, n)
    ext = (0, *ks, n)
    stated = sum(ext[i + 1] * (ext[i + 1] - ext[i]) for i in range(len(ks) + 1))
    # stated - D = sum_(i=0..m) (k_(i+1) - k_i)^2 > 0, so the note always applies
    dim_note = _FLAG_DIM_NOTE.format(stated=stated, used=D)
    return VarietyDescriptor(name, D, a, notes=(dim_note, _FLAG_LINE_NOTE))


def product(*varieties: VarietyDescriptor) -> VarietyDescriptor:
    """Product variety: dimensions add, coefficient lists concatenate."""
    if not varieties:
        raise ValueError("product needs at least one factor")
    if len(varieties) == 1:
        return varieties[0]
    return VarietyDescriptor(
        name="x".join(v.name for v in varieties),
        D=sum(v.D for v in varieties),
        a=tuple(ai for v in varieties for ai in v.a),
        factors=tuple(f for v in varieties for f in v.factors or (v,)),
        notes=tuple(dict.fromkeys(note for v in varieties for note in v.notes)),
    )


def _integers(values, what: str) -> tuple:
    """`values` as a tuple of ints; a float, Fraction or string raises ValueError."""
    values = tuple(values)
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def check_degrees(variety: VarietyDescriptor, degrees) -> tuple:
    degrees = _integers(degrees, "degrees")
    if len(degrees) != variety.m:
        raise ValueError(
            f"{variety.name} has {variety.m} degree slots, got {len(degrees)}"
        )
    if any(d < 1 for d in degrees):
        raise ValueError(f"degrees must be >= 1, got {degrees}")
    return degrees


def hyperbolicity_threshold(variety: VarietyDescriptor) -> list:
    """Per-factor minimal degree D - a_i - 2 for algebraic hyperbolicity."""
    return [variety.D - ai - 2 for ai in variety.a]


def lines_threshold(variety: VarietyDescriptor) -> list:
    """Per-factor maximal degree D - a_i - 4 forcing lines on the hypersurface."""
    return [variety.D - ai - 4 for ai in variety.a]


def fano_lines_dimension(variety: VarietyDescriptor, i: int) -> int:
    """Dimension D - a_i - 3 of the space of H_i-lines on the variety."""
    return variety.D - variety.a[i] - 3


HYPERBOLIC = "Hyperbolic"
CONTAINS_LINES = "ContainsLines"
OPEN_GAP = "OpenGap"
LOW_DIMENSION = "LowDimension"


class Classification(_Record):
    """Outcome of the degree-threshold dichotomy for one multidegree.

    `witness` is the 0-based index forcing lines (ContainsLines only);
    `boundary` lists the 0-based indices sitting at D - a_i - 3 (OpenGap).
    """

    __slots__ = ("kind", "witness", "boundary")

    def __init__(self, kind: str, witness: int | None = None, boundary: tuple = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "boundary", boundary)

    def to_json_dict(self) -> dict:
        return dict(zip(self.__slots__, self._values(self)), boundary=list(self.boundary))


def classify(variety: VarietyDescriptor, degrees) -> Classification:
    """Place a multidegree in the Hyperbolic / ContainsLines / OpenGap
    trichotomy; dimensions below 4 are reported as LowDimension."""
    degrees = check_degrees(variety, degrees)
    if variety.D < 4:
        return Classification(LOW_DIMENSION)
    lines = lines_threshold(variety)
    for i, (di, li) in enumerate(zip(degrees, lines)):
        if di <= li:
            return Classification(CONTAINS_LINES, witness=i)
    hyper = hyperbolicity_threshold(variety)
    if all(di >= ti for di, ti in zip(degrees, hyper)):
        return Classification(HYPERBOLIC)
    boundary = tuple(
        i for i, (di, ti) in enumerate(zip(degrees, hyper)) if di == ti - 1
    )
    return Classification(OPEN_GAP, boundary=boundary)


class Counterexample(_Record):
    """Known failure of the open boundary on a product of projective
    spaces, keyed by the dimension n of each P^n factor in descending
    order; the rule of its `citation` in `_RULES` reads the degrees."""

    __slots__ = ("spaces", "condition", "note", "citation")

    def __init__(self, spaces: tuple, condition: str, note: str, citation: str):
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "note", note)
        object.__setattr__(self, "citation", citation)

    @property
    def variety(self) -> str:
        return "x".join(f"P({n})" for n in self.spaces)

    def applies_to(self, variety: VarietyDescriptor, degrees: tuple) -> bool:
        """Whether the factors of `variety`, in any order, are these P^n
        and the degrees meet the entry's rule.

        Factors are compared through their numerical data (D, a) alone: by
        Kobayashi-Ochiai a factor of dimension n and index n + 1 is P^n,
        however it is spelled (Gr(1,n+1), Gr(n,n+1), Fl(1;n+1)).
        """
        factors = variety.factors or (variety,)
        return (
            all(f.a == (-(f.D + 1),) for f in factors)
            and tuple(sorted((f.D for f in factors), reverse=True)) == self.spaces
            and _RULES[self.citation](variety, degrees)
        )

    def to_json_dict(self) -> dict:
        return {
            "variety": self.variety,
            "condition": self.condition,
            "note": self.note,
            "citation": self.citation,
        }


# Each rule pairs every degree with the factor it belongs to, so neither
# depends on the order of the factors.
_RULES = {
    # a P^2 factor of degree 4
    "Y22": lambda v, degrees: any(f.D == 2 and d == 4 for f, d in zip(v.factors, degrees)),
    # some degree at the open boundary
    "CR19": lambda v, degrees: any(d == fano_lines_dimension(v, i) for i, d in enumerate(degrees)),
}

_ELLIPTIC = "very general surface of such degrees contains an elliptic curve"
_BOUNDARY = "degrees at the open boundary fail to give algebraic hyperbolicity"
_COUNTEREXAMPLE_TABLE = (
    Counterexample((2, 2), "d_1 = 4 or d_2 = 4", _ELLIPTIC, "Y22"),
    Counterexample((2, 1, 1), "d_1 = 4", _ELLIPTIC, "Y22"),
    Counterexample((1, 1, 1), "some d_i = D - a_i - 3", _BOUNDARY, "CR19"),
    Counterexample((2, 1), "some d_i = D - a_i - 3", _BOUNDARY, "CR19"),
)


def known_counterexamples(variety: VarietyDescriptor, degrees) -> list:
    """Static-table lookup of known boundary failures for this variety."""
    degrees = check_degrees(variety, degrees)
    return [
        entry
        for entry in _COUNTEREXAMPLE_TABLE
        if entry.applies_to(variety, degrees)
    ]
