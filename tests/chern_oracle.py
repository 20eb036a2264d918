"""Independent linear-factor oracle for the Chern classes of the tests.

Multiplies out prod_(i=0..d) (i*alpha + (d-i)*beta) one linear factor at
a time, as the full list of its d+2 coefficients, and reads the Schubert
classes off it by the bialternant, s[a, d+1-a] having coefficient
c[a] - c[a+1].  It shares no code with the paired half-list product of
`alghyp.chern.top_chern_sym` and imports nothing from the package, so the
tests can check that product against it.  Standard library only.
"""


def root_product(d):
    """The coefficient list c of the root product, c[j] the coefficient of
    alpha^j beta^(d+1-j), one linear factor at a time."""
    c = [1]
    for i in range(d + 1):
        c = [(d - i) * x + i * y for x, y in zip(c + [0], [0] + c)]
    return c


def read_off(d, N):
    """The nonzero Schubert coefficients {(a, d+1-a): coefficient} of the
    top Chern class of Sym^d on G(2, N).  The single-row class s[d+1]
    never appears: its coefficient c[d+1] is the product of the factors'
    alpha coefficients 0, 1, ..., d."""
    c = root_product(d) + [0]
    terms = {}
    for a in range((d + 2) // 2, min(d + 1, N - 2) + 1):
        if c[a] != c[a + 1]:
            terms[(a, d + 1 - a)] = c[a] - c[a + 1]
    return terms


def line_count(n):
    """Lines on a very general degree 2n-3 hypersurface in P^n: the
    coefficient of the point class s[n-1, n-1] of G(2, n+1)."""
    return read_off(2 * n - 3, n + 1).get((n - 1, n - 1), 0)
