"""Output checks that share no code with the timed path.

Every routine here works on plain tuples and ints and is written from the
textbook definition, so a bug in the library cannot hide itself by
breaking its own check:

- Schur products from Schur polynomials in k variables (branching rule)
  and the alternant identity s_lam * a_(mu+delta) = sum c a_(nu+delta);
- Pieri products by explicit horizontal-strip enumeration;
- the degree of G(k, n) by the hook-length formula;
- the Schubert expansion of c_top(Sym^d S*) on G(2, N) from the root
  product prod (i*x + (d-i)*y) and the two-variable bialternant;
- published line counts (OEIS A027363) and section ranks C(n+d, d) - 1.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from math import comb, factorial

# Lines on a very general degree 2n-3 hypersurface in P^n, n = 3..11 (OEIS A027363).
A027363 = {
    3: 27,
    4: 2875,
    5: 698005,
    6: 305093061,
    7: 210480374951,
    8: 210776836330775,
    9: 289139638632755625,
    10: 520764738758073845321,
    11: 1192221463356102320754899,
}


class CheckFailed(Exception):
    """An op's output disagrees with its independent check."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------------- ring


def _trim(parts):
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def _conjugate(parts):
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0])) if parts else ()


@lru_cache(maxsize=None)
def _schur_poly(parts, k):
    """s_parts(x_1..x_k) as {exponent tuple: coeff}, by the branching rule
    s_lam(x_1..x_k) = sum over interlacing mu of s_mu(x_1..x_(k-1)) x_k^(|lam|-|mu|)."""
    if len(parts) > k:
        return {}
    if k == 0:
        return {(): 1}
    lam = parts + (0,) * (k - len(parts))
    ranges = [range(lam[i + 1], lam[i] + 1) for i in range(k - 1)]
    out = {}
    for mu in itertools.product(*ranges):
        power = sum(lam) - sum(mu)
        for e, c in _schur_poly(_trim(mu), k - 1).items():
            key = e + (power,)
            out[key] = out.get(key, 0) + c
    return out


def schur_product(lam, mu, k, width):
    """Structure constants of sigma_lam * sigma_mu in G(k, k + width)."""
    delta = tuple(range(k - 1, -1, -1))
    shifted = tuple(m + d for m, d in zip(tuple(mu) + (0,) * (k - len(mu)), delta))
    out = {}
    for perm in itertools.permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        alt = tuple(shifted[perm[i]] for i in range(k))
        for e, c in _schur_poly(tuple(lam), k).items():
            total = tuple(a + b for a, b in zip(e, alt))
            if all(total[i] > total[i + 1] for i in range(k - 1)):
                nu = _trim(t - d for t, d in zip(total, delta))
                if not nu or nu[0] <= width:
                    out[nu] = out.get(nu, 0) + sign * c
    return {nu: c for nu, c in out.items() if c}


def pieri_row(lam, p, k, width):
    """sigma_lam * sigma_p in G(k, k + width): one term per horizontal p-strip."""
    lam = tuple(lam) + (0,) * (k - len(lam))
    out = {}

    def grow(i, left, prefix):
        if i == k:
            if left == 0:
                out[_trim(prefix)] = 1
            return
        cap = width if i == 0 else lam[i - 1]
        for part in range(lam[i], min(cap, lam[i] + left) + 1):
            grow(i + 1, left - (part - lam[i]), prefix + (part,))

    grow(0, p, ())
    return out


def pieri_column(lam, p, k, width):
    """sigma_lam * sigma_(1^p), by conjugating into G(width, width + k)."""
    return {_conjugate(nu): c for nu, c in pieri_row(_conjugate(tuple(lam)), p, width, k).items()}


def grassmannian_degree(k, n):
    """Degree of G(k, n) in the Pluecker embedding, by the hook-length formula."""
    width = n - k
    hooks = 1
    for i in range(k):
        for j in range(width):
            hooks *= (width - j) + (k - i) - 1
    return factorial(k * width) // hooks


def check_product(terms, lam, mu, k, width):
    """Positivity, homogeneity and box containment of an LR expansion."""
    degree = sum(lam) + sum(mu)
    for nu, c in terms.items():
        expect(c > 0, f"non-positive coefficient {c} at {nu}")
        expect(sum(nu) == degree, f"term {nu} not of degree {degree}")
        expect(len(nu) <= k and (not nu or nu[0] <= width), f"term {nu} outside the box")


# ------------------------------------------------------------------ chern


def top_chern_expansion(d, N):
    """{(a, b): coeff} of c_top(Sym^d S*) in G(2, N), parts trimmed."""
    coeffs = [1]  # coefficient of x^j y^(m-j) in the root product
    for i in range(d + 1):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += i * c
            nxt[j] += (d - i) * c
        coeffs = nxt
    coeffs.append(0)
    out = {}
    for a in range((d + 2) // 2, min(d + 1, N - 2) + 1):
        c = coeffs[a] - coeffs[a + 1]
        if c:
            out[_trim((a, d + 1 - a))] = c
    return out


def line_count(n):
    """Lines on a very general degree 2n-3 hypersurface in P^n."""
    return top_chern_expansion(2 * n - 3, n + 1).get((n - 1, n - 1), 0)


# --------------------------------------------------------------- sections


def section_target(n, d):
    return comb(n + d, d) - 1


# -------------------------------------------------------------------- cli

_SCHEMA_NAMES = {
    "info": "DESCRIPTOR_SCHEMA",
    "threshold": "THRESHOLD_SCHEMA",
    "classify": "CLASSIFY_SCHEMA",
    "certify": "CERTIFY_SCHEMA",
    "genus-bound": "GENUS_REPORT_SCHEMA",
    "sweep": "SWEEP_SCHEMA",
    "fano-class": "FANO_REPORT_SCHEMA",
    "line-count": "LINE_COUNT_SCHEMA",
    "section-dom": "SECTION_REPORT_SCHEMA",
    "mul": "CHOW_ELEMENT_SCHEMA",
    "integrate": "INTEGRATE_SCHEMA",
    "dual": "DUAL_SCHEMA",
}


class CliChecker:
    """Checks one CLI invocation: exit code, JSON against the published
    schemas, and the numbers that have an independent source."""

    def __init__(self):
        import jsonschema

        from alghyp import schemas

        self.validators = {
            sub: jsonschema.Draft202012Validator(getattr(schemas, name))
            for sub, name in _SCHEMA_NAMES.items()
        }

    def check(self, argv, expected, code, out, err):
        expect(code == expected, f"exit {code}, expected {expected}: {err.strip()[:200]}")
        if expected != 0:
            expect(out == "" and err.startswith("error:"), "refusal must print only an error line")
            return
        expect(out.endswith("\n") and err == "", "output must end with a newline, stderr stay empty")
        sub = argv[1] if argv[0] == "schubert" else argv[0]
        if "--json" not in argv:
            if sub == "line-count":
                n = int(argv[argv.index("--n") + 1])
                expect(out == f"{line_count(n)}\n", f"line count {out.strip()} for n={n}")
            return
        report = json.loads(out)
        error = next(self.validators[sub].iter_errors(report), None)
        expect(error is None, f"{sub} JSON fails its schema: {error and error.message}")
        if sub == "line-count":
            expect(report["count"] == A027363[report["n"]], f"line count {report['count']}")
        elif sub == "section-dom":
            for e in report["entries"]:
                target = section_target(e["n"], e["d"])
                expect(e["ok"] and e["rank"] == e["target_dim"] == target, f"section rank {e}")
        elif sub == "fano-class":
            expect(report["missing_class_ok"], "missing_class_ok is false")
