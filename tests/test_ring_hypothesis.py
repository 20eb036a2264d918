"""Property tests of the Chow ring product on boxes up to G(4, 9)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from alghyp.grassmann import ChowElement, Partition, RingContext, multiply  # noqa: E402
from tests.schur_oracle import schur_oracle_multiply  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def partitions(draw, ctx, max_size):
    rows = draw(st.integers(0, ctx.k))
    parts = sorted((draw(st.integers(1, ctx.width)) for _ in range(rows)), reverse=True)
    while sum(parts) > max_size:
        parts.pop()
    return Partition(parts)


@st.composite
def elements(draw, ctx, max_size, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        lam = draw(partitions(ctx, max_size))
        terms[lam] = terms.get(lam, 0) + draw(st.integers(-4, 4))
    return ChowElement(ctx, terms)


boxes = st.integers(1, 4).flatmap(
    lambda k: st.integers(k + 1, 9).map(lambda n: RingContext(k, n))
)


@PROPERTY
@given(st.data())
def test_commutative(data):
    ctx = data.draw(boxes)
    x, y = data.draw(elements(ctx, ctx.dim)), data.draw(elements(ctx, ctx.dim))
    assert multiply(x, y) == multiply(y, x)


@PROPERTY
@given(st.data())
def test_associative(data):
    ctx = data.draw(boxes)
    x, y, z = (data.draw(elements(ctx, ctx.dim)) for _ in range(3))
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@PROPERTY
@given(st.data())
def test_agrees_with_schur_oracle(data):
    # the oracle multiplies polynomials in k variables; a total degree of
    # 12 keeps each example well under a second in G(4, 9)
    ctx = data.draw(boxes)
    x = data.draw(elements(ctx, 6, max_terms=2))
    y = data.draw(elements(ctx, 6, max_terms=2))
    assert multiply(x, y) == schur_oracle_multiply(x, y)
