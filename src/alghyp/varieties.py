"""Catalog of homogeneous varieties and the degree-threshold classification.

A variety enters the catalog through its numerical data only: Picard rank
m, dimension D, and the canonical coefficients a_i (K = sum a_i H_i).
Every threshold then derives uniformly from (D, a): hypersurfaces of
multidegree d are algebraically hyperbolic once d_i >= D - a_i - 2 for
all i, contain lines once d_i <= D - a_i - 4 for some i, and the single
remaining value d_i = D - a_i - 3 is the open boundary.

Where a classical family statement disagrees with the uniform thresholds
(the symplectic bound, the flag dimension display), the descriptor carries
a discrepancy note that is surfaced in every JSON report.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field


@dataclass(frozen=True)
class VarietyDescriptor:
    """Numerical descriptor: Picard rank m, dimension D, canonical
    coefficients a (all <= -2), and factor provenance for products."""

    name: str
    m: int
    D: int
    a: tuple
    factors: tuple = ()
    notes: tuple = ()

    def __post_init__(self):
        if self.m < 1 or len(self.a) != self.m:
            raise ValueError(f"{self.name}: need m >= 1 canonical coefficients")
        if self.D < 1:
            raise ValueError(f"{self.name}: dimension must be >= 1, got {self.D}")
        for i, ai in enumerate(self.a):
            if ai > -2:
                raise ValueError(
                    f"{self.name}: canonical coefficient a_{i + 1} = {ai} violates a_i <= -2"
                )

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


def grassmannian(k: int, n: int) -> VarietyDescriptor:
    """G(k, n): dimension k(n-k), canonical coefficient -n."""
    k, n = _integers((k, n), "Gr: k and n")
    if not 1 <= k < n:
        raise ValueError(f"Gr({k},{n}): need 1 <= k < n")
    return VarietyDescriptor(name=f"Gr({k},{n})", m=1, D=k * (n - k), a=(-n,))


def projective_space(n: int) -> VarietyDescriptor:
    """P^n = G(1, n+1) with its own display name."""
    (n,) = _integers((n,), "P: n")
    if n < 1:
        raise ValueError(f"P({n}): need n >= 1")
    return VarietyDescriptor(name=f"P({n})", m=1, D=n, a=(-(n + 1),))


def orthogonal(k: int, n: int) -> VarietyDescriptor:
    """OG(k, n): dimension k(2n-3k-1)/2, canonical coefficient -n+3k-1.

    Parameters are accepted only when the dimension is a positive integer
    and the canonical coefficient satisfies a <= -2.
    """
    k, n = _integers((k, n), "OG: k and n")
    twice_d = k * (2 * n - 3 * k - 1)
    if twice_d % 2 != 0:
        raise ValueError(f"OG({k},{n}): dimension k(2n-3k-1)/2 is not an integer")
    d = twice_d // 2
    if d < 1:
        raise ValueError(f"OG({k},{n}): dimension {d} violates D >= 1")
    a = -n + 3 * k - 1
    if a > -2:
        raise ValueError(
            f"OG({k},{n}): canonical coefficient {a} violates a <= -2"
        )
    return VarietyDescriptor(name=f"OG({k},{n})", m=1, D=d, a=(a,))


_SYMPLECTIC_NOTE = (
    "stated symplectic hyperbolicity bound d >= n+3k+D disagrees with the "
    "uniform threshold D-a-2 = D+n-3k; thresholds here derive from (D, a)"
)


def symplectic(k: int, n: int) -> VarietyDescriptor:
    """SG(k, n): dimension k(2n-3k+1)/2, canonical coefficient -n+3k-2."""
    k, n = _integers((k, n), "SG: k and n")
    twice_d = k * (2 * n - 3 * k + 1)
    if twice_d % 2 != 0:
        raise ValueError(f"SG({k},{n}): dimension k(2n-3k+1)/2 is not an integer")
    d = twice_d // 2
    if d < 1:
        raise ValueError(f"SG({k},{n}): dimension {d} violates D >= 1")
    a = -n + 3 * k - 2
    if a > -2:
        raise ValueError(
            f"SG({k},{n}): canonical coefficient {a} violates a <= -2"
        )
    return VarietyDescriptor(
        name=f"SG({k},{n})", m=1, D=d, a=(a,), notes=(_SYMPLECTIC_NOTE,)
    )


_FLAG_DIM_NOTE = (
    "stated flag dimension sum_(i=0..m) k_(i+1)(k_(i+1)-k_i) = {stated}; the "
    "chart-count dimension sum_(i=1..m) k_i(k_(i+1)-k_i) = {used} is used"
)
_FLAG_LINE_NOTE = (
    "stated flag line-containment clause uses >= where the classification "
    "threshold d_i <= D-a_i-4 requires <="
)


def flag(ks, n: int) -> VarietyDescriptor:
    """Flag variety of nested subspaces of dimensions ks inside n-space.

    With k_0 = 0 and k_(m+1) = n: a_i = -(k_(i+1) - k_(i-1)) and
    D = sum k_i (k_(i+1) - k_i).
    """
    ks = _integers(ks, "Fl: subspace dimensions")
    (n,) = _integers((n,), "Fl: n")
    if not ks:
        raise ValueError("Fl: need at least one subspace dimension")
    if any(ks[i] >= ks[i + 1] for i in range(len(ks) - 1)) or ks[0] < 1 or ks[-1] >= n:
        raise ValueError(f"Fl({','.join(map(str, ks))};{n}): need 0 < k_1 < ... < k_m < n")
    m = len(ks)
    ext = (0,) + ks + (n,)
    a = tuple(-(ext[i + 2] - ext[i]) for i in range(m))
    d = sum(ext[i] * (ext[i + 1] - ext[i]) for i in range(1, m + 1))
    stated = sum(ext[i + 1] * (ext[i + 1] - ext[i]) for i in range(m + 1))
    notes = [_FLAG_LINE_NOTE]
    if stated != d:
        notes.insert(0, _FLAG_DIM_NOTE.format(stated=stated, used=d))
    return VarietyDescriptor(
        name=f"Fl({','.join(map(str, ks))};{n})", m=m, D=d, a=a, notes=tuple(notes)
    )


def product(*varieties: VarietyDescriptor) -> VarietyDescriptor:
    """Product variety: dimensions add, coefficient lists concatenate."""
    if not varieties:
        raise ValueError("product needs at least one factor")
    if len(varieties) == 1:
        return varieties[0]
    factors = []
    for v in varieties:
        factors.extend(v.factors or (v,))
    notes = []
    for v in varieties:
        for note in v.notes:
            if note not in notes:
                notes.append(note)
    return VarietyDescriptor(
        name="x".join(v.name for v in varieties),
        m=sum(v.m for v in varieties),
        D=sum(v.D for v in varieties),
        a=tuple(ai for v in varieties for ai in v.a),
        factors=tuple(factors),
        notes=tuple(notes),
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


@dataclass(frozen=True)
class Classification:
    """Outcome of the degree-threshold dichotomy for one multidegree.

    `witness` is the 0-based index forcing lines (ContainsLines only);
    `boundary` lists the 0-based indices sitting at D - a_i - 3 (OpenGap).
    """

    kind: str
    witness: int | None = None
    boundary: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "witness": self.witness,
            "boundary": list(self.boundary),
        }


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


@dataclass(frozen=True)
class Counterexample:
    """Known failure of the open boundary on a product of projective
    spaces, keyed by the dimension n of each P^n factor; `matches` reads
    the degrees in the order of `spaces`."""

    spaces: tuple
    condition: str
    note: str
    citation: str
    matches: callable = field(compare=False, repr=False, default=None)

    @property
    def variety(self) -> str:
        return "x".join(f"P({n})" for n in self.spaces)

    def applies_to(self, variety: VarietyDescriptor, degrees: tuple) -> bool:
        """Whether some ordering of the factors of `variety` is these P^n
        and meets `matches`, with the degrees taken in the same order.

        Factors are compared through their numerical data (D, a) alone: by
        Kobayashi-Ochiai a factor of dimension n and index n + 1 is P^n,
        however it is spelled (Gr(1,n+1), Gr(n,n+1), Fl(1;n+1)).
        """
        factors = variety.factors or (variety,)
        want = [(n, (-(n + 1),)) for n in self.spaces]
        # the count comes first: only as many factors as the entry's (at
        # most three) are ever permuted
        return len(factors) == len(want) and any(
            [(factors[i].D, factors[i].a) for i in order] == want
            and self.matches(product(*(factors[i] for i in order)), [degrees[i] for i in order])
            for order in itertools.permutations(range(len(factors)))
        )

    def to_json_dict(self) -> dict:
        return {
            "variety": self.variety,
            "condition": self.condition,
            "note": self.note,
            "citation": self.citation,
        }


def _at_open_boundary(variety: VarietyDescriptor, degrees) -> bool:
    return any(d == fano_lines_dimension(variety, i) for i, d in enumerate(degrees))


_COUNTEREXAMPLE_TABLE = (
    Counterexample(
        spaces=(2, 2),
        condition="d_1 = 4 or d_2 = 4",
        note="very general surface of such degrees contains an elliptic curve",
        citation="Y22",
        matches=lambda v, d: 4 in (d[0], d[1]),
    ),
    Counterexample(
        spaces=(2, 1, 1),
        condition="d_1 = 4",
        note="very general surface of such degrees contains an elliptic curve",
        citation="Y22",
        matches=lambda v, d: d[0] == 4,
    ),
    Counterexample(
        spaces=(1, 1, 1),
        condition="some d_i = D - a_i - 3",
        note="degrees at the open boundary fail to give algebraic hyperbolicity",
        citation="CR19",
        matches=_at_open_boundary,
    ),
    Counterexample(
        spaces=(2, 1),
        condition="some d_i = D - a_i - 3",
        note="degrees at the open boundary fail to give algebraic hyperbolicity",
        citation="CR19",
        matches=_at_open_boundary,
    ),
)


def known_counterexamples(variety: VarietyDescriptor, degrees) -> list:
    """Static-table lookup of known boundary failures for this variety."""
    degrees = check_degrees(variety, degrees)
    return [
        entry
        for entry in _COUNTEREXAMPLE_TABLE
        if entry.applies_to(variety, degrees)
    ]
