"""The partial fillings of the ring kernels, counted and pinned exactly.

`_vertical_strips`, `_lr_stage` and `_skew_fillings` grow each filling
row by row from a list `partial` of partial fillings: a (grown shape,
boxes left) pair in the first two, and the end columns of a row's
letters so far in `_skew_fillings`.  A state of `_lr_stage` is a shape
with the shape before its last letter, so a row's lattice cut is read
off the state, not the filling; a state of `_skew_fillings` is the
letter counts with the end columns of the last row.  A looser pruning
bound only adds fillings that lead nowhere: every product stays the
same, and only the time grows.  So these tests count the fillings, with
a `sys.settrace` line counter that lives only here: one execution of
the first body line of any of a kernel's `for ... in partial:` loops
(the rows above the bottom one, then the bottom row; the letters below
the new one, then the new letter) is one filling.  A filling is a dead
end when its body neither keeps a longer filling (`nxt.append`), nor
emits a shape (`out[...]`), nor merges a finished row into the next
row's states (`merged[...]`); every loop must have such a line.  The
lines are found by their source text, so the counts do not depend on
line numbers.
"""
import inspect
import random
import sys

import alghyp.grassmann as grassmann
from alghyp.grassmann import ChowElement, RingContext, make_class, multiply

KERNELS = ("_vertical_strips", "_lr_stage", "_skew_fillings")


def _is_code(text):
    return bool(text) and not text.startswith("#")


def _loop_lines(func):
    """The first body lines of every `for ... in partial:` loop of `func`,
    and the body lines that keep or emit a filling; each loop has one."""
    lines, start = inspect.getsourcelines(func)
    text = [line.strip() for line in lines]
    heads = [i for i, t in enumerate(text) if t.startswith("for ") and t.endswith(" in partial:")]
    assert heads, func.__name__
    firsts, productive = set(), set()
    for head in heads:
        indent = len(lines[head]) - len(lines[head].lstrip())
        first = next(i for i in range(head + 1, len(lines)) if _is_code(text[i]))
        body = []
        for i in range(first, len(lines)):
            if _is_code(text[i]) and len(lines[i]) - len(lines[i].lstrip()) <= indent:
                break
            body.append(i)
        kept = {start + i for i in body if text[i].startswith(("nxt.append(", "out[", "merged["))}
        assert kept, (func.__name__, head)
        firsts.add(start + first)
        productive |= kept
    return firsts, productive


class FillingCounter:
    """Counts the partial fillings, and the dead ends among them, of each
    kernel while the `with` block runs."""

    def __init__(self):
        self.lines = {}
        for name in KERNELS:
            func = getattr(grassmann, name)
            self.lines[func.__code__] = (name, *_loop_lines(func))
        self.fillings = dict.fromkeys(KERNELS, 0)
        self.dead_ends = dict.fromkeys(KERNELS, 0)

    def __enter__(self):
        self._outer = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer)

    def _call(self, frame, event, arg):
        entry = self.lines.get(frame.f_code)
        if entry is None:
            return None
        name, firsts, productive = entry
        kept = [True]  # whether the current filling has kept or emitted

        def line(frame, event, arg):
            if event == "line":
                if frame.f_lineno in firsts:
                    self.fillings[name] += 1
                    self.dead_ends[name] += 1
                    kept[0] = False
                elif not kept[0] and frame.f_lineno in productive:
                    self.dead_ends[name] -= 1
                    kept[0] = True
            return line

        return line


def _shape(rng, k, width):
    """A random partition in the k x width box; about half its rows full."""
    rows = rng.randint(0, k)
    parts = sorted((rng.choice((width, rng.randint(1, width))) for _ in range(rows)), reverse=True)
    return tuple(parts)


def _element(rng, ctx):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[_shape(rng, ctx.k, ctx.width)] = rng.choice((-3, -1, 1, 2, 5))
    return ChowElement(ctx, terms)


def grid():
    """The fixed seeded products: in each of 200 random boxes, two random
    pairs, and every row factor (p) and column factor 1^p against one
    random element."""
    rng = random.Random(16)
    for _ in range(200):
        k, width = rng.randint(1, 6), rng.randint(1, 7)
        ctx = RingContext(k, k + width)
        x = _element(rng, ctx)
        yield x, _element(rng, ctx)
        yield _element(rng, ctx), _element(rng, ctx)
        for p in range(1, width + 1):
            yield x, make_class(ctx, (p,))
        for p in range(1, k + 1):
            yield x, make_class(ctx, (1,) * p)


def test_partial_fillings_are_pinned():
    with FillingCounter() as counter:
        for x, y in grid():
            multiply(x, y)
    # each `_lr_stage` pin is the sum of two: the single rows (4614
    # fillings, 0 dead ends) and the other terms (1494 and 4), which meet
    # only the terms of the other factor whose product with them is not
    # zero and that leave the skew shape lam^vee / mu as many boxes as mu
    # has or more; the others take `_skew_fillings` (941 fillings, 0 dead
    # ends).  Before the skew route the other terms took 4744 `_lr_stage`
    # fillings with 24 dead ends (9358 and 24 in all).  A bottom row whose
    # lattice cut is positive tries no filling: it would need boxes below
    # the bottom row, so all 18 such fillings were dead ends (9376 and 42
    # when the bottom row was a loop over counts).  Every kernel has a
    # second `for ... in partial:` loop, the bottom row or the new letter,
    # and the counter counts the fillings of every loop
    assert counter.fillings == {"_vertical_strips": 3684, "_lr_stage": 6108, "_skew_fillings": 941}
    # a tighter bound may lower these
    assert counter.dead_ends == {"_vertical_strips": 298, "_lr_stage": 4, "_skew_fillings": 0}


def test_pieri_row_rule_has_no_dead_end():
    # a single row is one stage with no cut, and row r's bounds admit only
    # fillings that the rows below can complete
    with FillingCounter() as counter:
        for x, y in grid():
            if len(y._terms) == 1 and len(next(iter(y._terms))) == 1:
                multiply(x, y)
    assert counter.fillings["_lr_stage"] > 0
    assert counter.dead_ends["_lr_stage"] == 0


def test_counter_counts_one_filling_per_loop_pass():
    # sigma_1 on s[2,1] in G(3,6): the strip goes into row 1, 2 or 3, and the
    # kernel keeps one prefix per row: (), then (2,), then (2, 1)
    ctx = RingContext(3, 6)
    with FillingCounter() as counter:
        product = multiply(make_class(ctx, (2, 1)), make_class(ctx, (1,)))
    assert set(product._terms) == {(3, 1), (2, 2), (2, 1, 1)}
    assert counter.fillings == {"_vertical_strips": 3, "_lr_stage": 0, "_skew_fillings": 0}
    assert counter.dead_ends == dict.fromkeys(KERNELS, 0)


def test_counter_counts_skew_fillings_by_row_and_letter():
    # s[2,1] s[2,1] in G(2,6) has e = 8 - 3 - 3 = 2 < 3 boxes in
    # lam^vee / mu = (3,2) / (2,1): row 1 takes the letter 1 (one filling
    # of the new-letter loop); in row 2 letter 1 may take 0 or 1 boxes
    # (one filling of the letter loop), and the new letter 2 the rest (two)
    ctx = RingContext(2, 6)
    with FillingCounter() as counter:
        product = multiply(make_class(ctx, (2, 1)), make_class(ctx, (2, 1)))
    assert product._terms == {(4, 2): 1, (3, 3): 1}
    assert counter.fillings == {"_vertical_strips": 0, "_lr_stage": 0, "_skew_fillings": 4}
    assert counter.dead_ends == dict.fromkeys(KERNELS, 0)
