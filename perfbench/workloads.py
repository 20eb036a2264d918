"""Seeded inputs for the four desk-session workloads.

A workload is an endless stream of blocks.  Every block holds the same
number of ops of each class, in a seeded order, so that runs with
different seeds do the same kind and amount of work and differ only in
the concrete inputs.  An op is a plain tuple ``(cls, call, args)``: the op
class, the public call it stands for, and plain-data arguments.  Nothing
here imports alghyp; the program sees only what this module generates.
"""

from __future__ import annotations

import random

# 16-command acceptance set of the CLI (acceptance criterion 10).
ACCEPTANCE_COMMANDS = (
    ("info", "Gr(2,5)", "--json"),
    ("info", "SG(2,6)", "--json"),
    ("info", "Fl(1,2;4)"),
    ("threshold", "OG(2,7)"),
    ("classify", "P(4)", "--deg", "6", "--json"),
    ("classify", "P(2)xP(2)", "--deg", "4,9", "--json"),
    ("fano-class", "--d", "4", "--N", "7", "--json"),
    ("line-count", "--n", "4", "--json"),
    ("schubert", "mul", "--k", "2", "--n", "4", "s[1]", "s[1]", "--json"),
    ("schubert", "integrate", "--k", "2", "--n", "5", "s[3,3]", "--json"),
    ("schubert", "dual", "--k", "2", "--n", "5", "s[3,1]", "--json"),
    ("genus-bound", "Gr(2,4)xP(2)", "--deg", "9,9", "--json"),
    ("certify", "P(4)", "--deg", "7", "--json"),
    ("section-dom", "--n", "2", "--d", "2", "--json"),
    ("sweep", "P(4)", "--range", "5..8", "--json"),
    ("sweep", "Gr(2,4)", "--range", "4..8"),
)

# --------------------------------------------------------------- cli-session

_OG = [(k, n) for k in (1, 2, 3) for n in range(3 * k + 1, 13) if k * (2 * n - 3 * k - 1) % 2 == 0]
# A symplectic form needs an even-dimensional space.
_SG = [(k, n) for k in (1, 2, 3) for n in range(3 * k, 13) if n % 2 == 0 and k * (2 * n - 3 * k + 1) % 2 == 0]
_KNOWN_PRODUCTS = ("P(2)xP(2)", "P(2)xP(1)xP(1)", "P(1)xP(1)xP(1)", "P(2)xP(1)")


def _factor(rng, families=("P", "Gr", "OG", "SG", "Fl"), top=8):
    """A catalog factor as (spec, D, a) with a the canonical coefficients."""
    fam = rng.choice(families)
    if fam == "P":
        n = rng.randint(1, top)
        return f"P({n})", n, [-(n + 1)]
    if fam == "Gr":
        n = rng.randint(3, top)
        k = rng.randint(1, n - 1)
        return f"Gr({k},{n})", k * (n - k), [-n]
    if fam == "OG":
        k, n = rng.choice([kn for kn in _OG if kn[1] <= top + 4])
        return f"OG({k},{n})", k * (2 * n - 3 * k - 1) // 2, [-n + 3 * k - 1]
    if fam == "SG":
        k, n = rng.choice([kn for kn in _SG if kn[1] <= top + 4])
        return f"SG({k},{n})", k * (2 * n - 3 * k + 1) // 2, [-n + 3 * k - 2]
    n = rng.randint(3, 6)
    ks = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
    ext = [0] + ks + [n]
    a = [-(ext[i + 2] - ext[i]) for i in range(len(ks))]
    dim = sum(ext[i] * (ext[i + 1] - ext[i]) for i in range(1, len(ks) + 1))
    return f"Fl({','.join(map(str, ks))};{n})", dim, a


def _variety(rng):
    """Spec, dimension and canonical coefficients; a quarter are products."""
    roll = rng.random()
    if roll < 0.05:
        spec = rng.choice(_KNOWN_PRODUCTS)
        parts = [int(p[2:-1]) for p in spec.split("x")]
        return spec, sum(parts), [-(p + 1) for p in parts]
    if roll < 0.25:
        factors = [_factor(rng, ("P", "Gr", "OG", "SG"), 4) for _ in range(rng.choice((2, 2, 3)))]
        return (
            "x".join(f[0] for f in factors),
            sum(f[1] for f in factors),
            [f[2][0] for f in factors],
        )
    return _factor(rng)


def _degrees(rng, dim, a):
    """Multidegree landing on a seeded verdict: hyperbolic, lines or open gap."""
    hyper = [dim - ai - 2 for ai in a]
    degs = [h + rng.randint(0, 2) for h in hyper]
    verdict = rng.randrange(3)
    i = rng.randrange(len(a))
    if verdict == 1:
        degs[i] = rng.randint(1, max(1, hyper[i] - 2))
    elif verdict == 2:
        degs[i] = max(1, hyper[i] - 1)
    return ",".join(map(str, degs))


def _partition(rng, rows, width):
    return tuple(sorted((rng.randint(1, width) for _ in range(rows)), reverse=True))


def _class_text(rng, k, width):
    terms = []
    for _ in range(rng.choice((1, 1, 2))):
        lam = _partition(rng, rng.randint(1, k), width)
        coeff = rng.choice(("", "", "2*", "3*"))
        terms.append(f"{coeff}s[{','.join(map(str, lam))}]")
    return " + ".join(terms)


def _cli_valid(rng, sub):
    if sub in ("info", "threshold"):
        return (sub, _variety(rng)[0])
    if sub in ("classify", "certify", "genus-bound"):
        spec, dim, a = _variety(rng)
        return (sub, spec, "--deg", _degrees(rng, dim, a))
    if sub == "sweep":
        spec, dim, a = _variety(rng)
        lo = max(1, min(dim - ai - 2 for ai in a) - rng.randint(0, 3))
        return (sub, spec, "--range", f"{lo}..{lo + rng.randint(0, 4)}")
    if sub == "fano-class":
        d = rng.randint(2, 8)
        return (sub, "--d", str(d), "--N", str(d + 3 + rng.randint(0, 2)))
    if sub == "line-count":
        return (sub, "--n", str(rng.randint(3, 9)))
    if sub == "section-dom":
        return (sub, "--n", str(rng.randint(1, 3)), "--d", str(rng.randint(1, 4)))
    k = rng.randint(1, 3)
    n = k + rng.randint(1, 4)
    box = ("--k", str(k), "--n", str(n))
    if sub == "mul":
        factors = [_class_text(rng, k, n - k) for _ in range(rng.choice((2, 2, 3)))]
        return ("schubert", "mul", *box, *factors)
    if sub == "integrate":
        return ("schubert", "integrate", *box, _class_text(rng, k, n - k))
    lam = _partition(rng, rng.randint(1, k), n - k)
    return ("schubert", "dual", *box, f"s[{','.join(map(str, lam))}]")


def _cli_malformed(rng):
    """An argv the CLI must refuse with exit code 1."""
    spec = _variety(rng)[0]
    n = rng.randint(3, 8)
    choice = rng.randrange(12)
    if choice == 0:
        return ("info", rng.choice(("Gr(2", "Q(3)", "P(2)x", "P(0)", "Gr(2,4)yP(1)")))
    if choice == 1:
        return ("threshold", f"Gr({n},{rng.randint(1, n)})")
    if choice == 2:
        return ("classify", spec, "--deg", rng.choice(("x", "4,,5", "")))
    if choice == 3:
        return ("certify", "P(3)", "--deg", rng.choice(("0", "4,5")))
    if choice == 4:
        return ("sweep", spec, "--range", rng.choice((f"{n + 3}..{n}", f"{n}-{n + 3}")))
    if choice == 5:
        return ("schubert", "mul", "--k", "2", "--n", "4", rng.choice(("s[1,2]", "s[3]", "s[1,1,1]")), "s[1]")
    if choice == 6:
        return ("fano-class", "--d", rng.choice(("1", "x")), "--N", str(n))
    if choice == 7:
        return ("line-count", "--n", rng.choice(("2", "1", "-3")))
    if choice == 8:
        return ("section-dom", "--n", str(n))
    if choice == 9:
        return (rng.choice(("frobnicate", "schubert")),)
    if choice == 10:
        return ("classify", spec)
    return ("info", f"Fl({n},{n - 1};{n + 2})")


_CLI_SEEDED = (
    ("info", 4), ("threshold", 4), ("classify", 6), ("certify", 4),
    ("genus-bound", 4), ("sweep", 4), ("fano-class", 3), ("line-count", 3),
    ("mul", 3), ("integrate", 2), ("dual", 2), ("section-dom", 1),
)


def _cli_block(rng, history):
    ops = [("acceptance", "cli", (argv, 0)) for argv in ACCEPTANCE_COMMANDS]
    for sub, count in _CLI_SEEDED:
        for _ in range(count):
            argv = _cli_valid(rng, sub)
            if rng.random() < 0.5:
                argv += ("--json",)
            ops.append(("desk", "cli", (argv, 0)))
    ops += [("malformed", "cli", (_cli_malformed(rng), 1)) for _ in range(8)]
    return ops


# --------------------------------------------------------- schubert-products

_CHAINS = ((3, 6), (3, 7), (3, 8), (3, 9), (4, 7), (4, 8), (4, 9), (5, 8), (5, 9), (5, 10))
# Many-row classes: (rows of mu, k, n - k, ops per block).  One box per
# class keeps the cost of a class narrow, so runs of different seeds agree.
_MANY_ROWS = ((3, 4, 7, 6), (4, 5, 6, 4), (5, 6, 6, 3), (6, 6, 6, 3), (7, 7, 6, 1), (8, 8, 6, 1))


def _pair(rng, ell, k, width):
    """sigma_lam * sigma_mu with lam the box complement of a partition nu
    containing mu, and mu of exactly ell rows.

    Both factors have many rows and the product lands a few degrees below
    the point class, so its cost is the ell! expansion of mu, not the size
    of the answer (which is nonzero, since mu lies inside nu).
    """
    mu = _partition(rng, ell, width - 1)
    nu = list(mu) + [0] * (k - ell)
    for _ in range(rng.randint(0, 4)):
        rows = [i for i in range(k) if nu[i] < width - 1 and (i == 0 or nu[i] < nu[i - 1])]
        if rows:
            nu[rng.choice(rows)] += 1
    lam = tuple(width - nu[k - 1 - i] for i in range(k))
    return (k, k + width, lam, mu)


def _special(rng, column):
    """A random class times sigma_p (a row) or sigma_(1^p) (a column of at
    most as many rows as the other factor)."""
    k = rng.randint(3, 8)
    width = rng.randint(2, min(8, 16 - k))
    lam = _partition(rng, rng.randint(2 if column else 1, k), width)
    p = rng.randint(2, min(len(lam), 4)) if column else rng.randint(1, width)
    special = (1,) * p if column else (p,)
    pair = (lam, special) if rng.random() < 0.5 else (special, lam)
    return (k, k + width, *pair)


def _schubert_block(rng, history):
    ops = []
    for ell, k, width, count in _MANY_ROWS:
        ops += [("many-rows", "multiply", _pair(rng, ell, k, width)) for _ in range(count)]
    ops += [("row", "multiply", _special(rng, False)) for _ in range(6)]
    ops += [("column", "multiply", _special(rng, True)) for _ in range(6)]
    ops += [("chain", "chain", rng.choice(_CHAINS)) for _ in range(4)]
    history.extend(op for op in ops if op[1] == "multiply")
    ops += [("repeat",) + rng.choice(history)[1:] for _ in range(6)]
    return ops


# -------------------------------------------------------------- line-classes

def _line_block(rng, history):
    ops = []
    for _ in range(5):
        d = 2 * rng.randint(1, 30)
        ops.append(("paired", "paired_rearrangement", (d, d + 3 + rng.randint(0, 39))))
    for _ in range(8):
        d = rng.randint(2, 60)
        ops.append(("fano", "fano_class", (d, d + 3 + rng.randint(0, 39))))
    ops += [("line-count", "line_count", (rng.randint(3, 31),)) for _ in range(3)]
    history.extend(ops)
    ops += [("repeat",) + rng.choice(history)[1:] for _ in range(4)]
    return ops


# -------------------------------------------------------------- section-rank

_SMALL = tuple((n, d) for n, top in ((1, 6), (2, 6), (3, 4), (4, 3), (5, 2)) for d in range(1, top + 1))
# The (n, d) space is small, so only the cheap class is drawn by the seed;
# the other classes have a fixed composition.  With 12 small, 16 medium,
# 4 large and 8 heavy ops per block of 40, the median falls inside the
# middle group of the medium class and the 90th percentile inside the
# heavy one, not on the edge between two classes of very different cost.
_MEDIUM = ((5, 3),) * 5 + ((3, 5),) * 6 + ((4, 4),) * 5
_LARGE = ((3, 6), (4, 5), (4, 5), (5, 4))
_HEAVY = (("check", (4, 6)),) * 3 + (("check", (5, 5)),) * 2 + (("grid", ()),) * 2 + (("check", (5, 6)),)


def _section_block(rng, history):
    ops = [("small", "check", rng.choice(_SMALL)) for _ in range(12)]
    ops += [("medium", "check", nd) for nd in _MEDIUM]
    ops += [("large", "check", nd) for nd in _LARGE]
    ops += [("heavy", call, args) for call, args in _HEAVY]
    return ops


# Workload name -> (block generator, blocks in the fixed list of a traced run).
WORKLOADS = {
    "cli-session": (_cli_block, 4),
    "schubert-products": (_schubert_block, 3),
    "line-classes": (_line_block, 10),
    "section-rank": (_section_block, 1),
}


def blocks(workload: str, seed: int):
    """Endless seeded stream of shuffled blocks for `workload`."""
    build, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    history = []
    while True:
        block = build(rng, history)
        rng.shuffle(block)
        yield block
