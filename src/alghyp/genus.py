"""Exact-rational genus lower bounds and the hyperbolicity certificate.

Every bound here is linear in the curve multidegree e = (H_i . C): it is
reported as a coefficient vector c with 2g - 2 >= sum c_i e_i.  Since e
ranges over nonnegative integer vectors, the certified hyperbolicity
constant of a bound is simply min_i c_i, and the certificate for a
hypersurface is the minimum over all proof cases and all choices of the
distinguished factor.  Arithmetic is exact throughout: every entry of
one vector has the same denominator (1, 2 or d_j), so a vector is kept as
integer numerators over that denominator, and the certificate is chosen
by comparing integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .grassmann import _Record
from .varieties import VarietyDescriptor, check_degrees


def _case_a(variety, degrees) -> tuple:
    d, a = degrees, variety.a
    return tuple(a[i] + d[i] - variety.D + 3 for i in range(variety.m)), 1


def _case_b(variety, degrees, j) -> tuple:
    d, a = degrees, variety.a
    return tuple(
        2 * (a[i] + d[i] - variety.D + 2) + 1 if i == j else 2 * (a[i] + d[i] - 1)
        for i in range(variety.m)
    ), 2


def _case_c(variety, degrees, j) -> tuple:
    """Scroll case C with factor j distinguished; defined only for d_j >= 2."""
    d, a = degrees, variety.a
    return tuple(
        (a[i] + d[i] - variety.D + 2) * d[j] + 1 if i == j else (a[i] + d[i]) * d[j] - d[i]
        for i in range(variety.m)
    ), d[j]


_CASE_C_FLAG = (
    "scroll case C: the quotient-degree inequality is used with the sign "
    "making the distinguished coefficient a_j+d_j-D+2+1/d_j"
)
_SMALL_DEGREE_FLAG = (
    "no certificate: some degree is 1, so scroll case C cannot be evaluated"
)


class CaseBound(_Record):
    """One evaluated proof case: label, distinguished index (None for the
    uniform case), and the exact coefficient vector as integer numerators
    over one positive denominator."""

    __slots__ = ("case", "j", "numerators", "denominator")

    def __init__(self, case: str, j: int | None, numerators: tuple, denominator: int):
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

    @property
    def coefficients(self) -> tuple:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    def coefficient_texts(self) -> list:
        """`str` of each of `coefficients`, built from the integers."""
        d = self.denominator
        return [str(n // g) if (g := gcd(n, d)) == d else f"{n // g}/{d // g}" for n in self.numerators]

    def minimum(self) -> Fraction:
        return Fraction(min(self.numerators), self.denominator)

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "j": self.j,
            "coefficients": self.coefficient_texts(),
        }


class GenusBoundReport(_Record):
    """All proof-case bounds for one hypersurface, with the certified
    constant (present iff every case minimum is positive)."""

    __slots__ = ("variety", "degrees", "cases", "epsilon", "binding", "ledger_flags")

    def __init__(self, variety: str, degrees: tuple, cases: tuple, epsilon: Fraction | None,
                 binding: CaseBound, ledger_flags: tuple):
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "binding", binding)
        object.__setattr__(self, "ledger_flags", ledger_flags)

    def to_json_dict(self) -> dict:
        return {
            "variety": self.variety,
            "degrees": list(self.degrees),
            "epsilon": str(self.epsilon) if self.epsilon is not None else None,
            "binding_case": self.binding.case,
            "cases": [c.to_json_dict() for c in self.cases],
            "ledger_flags": list(self.ledger_flags),
        }


def hyperbolicity_certificate(
    variety: VarietyDescriptor, degrees
) -> GenusBoundReport:
    """Evaluate every proof case over every distinguished index.

    The certified constant is the minimum entry over all case vectors;
    it is reported only when positive and when every case was evaluable.
    """
    degrees = check_degrees(variety, degrees)
    cases = [CaseBound("A", None, *_case_a(variety, degrees))]
    complete = True
    for j in range(variety.m):
        cases.append(CaseBound("B", j, *_case_b(variety, degrees, j)))
        if degrees[j] >= 2:
            cases.append(CaseBound("C", j, *_case_c(variety, degrees, j)))
        else:
            complete = False
    # the lowest (minimum, case, j) binds, each minimum scaled to the common
    # denominator; the one case A ties no other A, and cases B and C are
    # appended in order of j, so their index orders them as j does
    scale = lcm(2, *degrees)
    *_, at = min(
        (min(c.numerators) * (scale // c.denominator), c.case, at)
        for at, c in enumerate(cases)
    )
    binding = cases[at]
    eps = binding.minimum()
    flags = [_CASE_C_FLAG]
    if not complete:
        flags.append(_SMALL_DEGREE_FLAG)
    certified = eps if (eps > 0 and complete) else None
    return GenusBoundReport(
        variety=variety.name,
        degrees=degrees,
        cases=tuple(cases),
        epsilon=certified,
        binding=binding,
        ledger_flags=tuple(flags),
    )
