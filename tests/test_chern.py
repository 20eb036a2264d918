from fractions import Fraction

import pytest

import alghyp.chern as chern
import alghyp.grassmann as grassmann
from alghyp.chern import fano_class, line_count, paired_rearrangement, top_chern_sym
from alghyp.grassmann import ChowElement, Partition, RingContext, make_class, multiply
from alghyp.sections import check_projective_space
from tests import chern_oracle

# golden values computed with the standalone monomial-expansion oracle
# (expand the root product, divide the alternant) before the main build
LINE_COUNT_GOLDEN = {3: 27, 4: 2875, 5: 698005, 6: 305093061}
TOP_CHERN_GOLDEN = {
    1: {(1, 1): 1},
    2: {(2, 1): 4},
    3: {(3, 1): 18, (2, 2): 27},
    4: {(4, 1): 96, (3, 2): 320},
    5: {(5, 1): 600, (4, 2): 3250, (3, 3): 2875},
}


def paired_product(d, N):
    """prod_(i < (d+1)/2) [i(d-i) s1^2 + (d-2i)^2 s11], times (d/2) s1 for even d,
    in the Chow ring of G(2, N): factor i of the root product times factor d-i
    is i(d-i)(alpha+beta)^2 + (d-2i)^2 alpha*beta."""
    ctx = RingContext(2, N)
    s1 = make_class(ctx, Partition([1]))
    s11 = make_class(ctx, Partition([1, 1]))
    acc = make_class(ctx, ())
    for i in range((d + 1) // 2):
        acc = multiply(acc, (i * (d - i)) * multiply(s1, s1) + ((d - 2 * i) ** 2) * s11)
    if d % 2 == 0:
        acc = multiply(acc, (d // 2) * s1)
    return acc


class TestTopChern:
    def test_golden_expansions(self):
        for d, want in TOP_CHERN_GOLDEN.items():
            x = top_chern_sym(d, d + 3)
            assert x.terms == {Partition(p): c for p, c in want.items()}

    def test_matches_paired_product_in_the_ring(self):
        # boxes narrower than d+3 drop the wide classes, as the ring quotient does
        for d in range(2, 41):
            for N in sorted({(d + 2) // 2 + 2, d + 2, d + 3, d + 4, d + 5, d + 6}):
                assert top_chern_sym(d, N) == paired_product(d, N), (d, N)

    def test_matches_the_linear_factor_oracle(self):
        # the paired half-list product against the full list built one
        # linear factor at a time, in the box d+3 that keeps every class
        # and in a narrower one that drops the widest
        for d in range(1, 201):
            for N in (d + 3, max(4, (d + 1) // 2 + 3)):
                assert dict(top_chern_sym(d, N).terms) == chern_oracle.read_off(d, N), (d, N)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            top_chern_sym(0, 5)
        with pytest.raises(ValueError):
            top_chern_sym(2, 3)

    def test_degree_one_is_point_of_s_dual(self):
        assert top_chern_sym(1, 4).terms == {Partition([1, 1]): 1}

    def test_homogeneous(self):
        for d in range(1, 12):
            assert {sum(lam.parts) for lam in top_chern_sym(d, d + 3).terms} == {d + 1}

    def test_box_stability(self):
        # widening the box never changes coefficients of classes it keeps
        for d in range(1, 11):
            small = top_chern_sym(d, d + 3)
            for extra in (1, 2):
                large = top_chern_sym(d, d + 3 + extra)
                for lam, c in small.terms.items():
                    assert large.coefficient(lam) == c
                for lam, c in large.terms.items():
                    if lam.parts[0] <= d + 1:
                        assert small.coefficient(lam) == c

    def test_sigma1_power_positivity(self):
        # every two-row class of degree d-1 appears positively in s1^(d-1)
        for d in range(2, 31):
            ctx = RingContext(2, d + 3)
            x = make_class(ctx, ())
            for _ in range(d - 1):
                x = multiply(x, make_class(ctx, Partition([1])))
            for j in range(0, (d - 1) // 2 + 1):
                assert x.coefficient(Partition([d - 1 - j, j])) > 0, (d, j)


class TestFanoClass:
    def test_small_case(self):
        report = fano_class(2, 5)
        assert report.missing_class_ok
        assert report.expansion.terms == {Partition([2, 1]): 4}
        assert report.line_count is None

    def test_positivity_sweep(self):
        for d in range(2, 31):
            report = fano_class(d, d + 3)
            assert report.missing_class_ok, d
            assert report.expansion.coefficient(Partition([d + 1])) == 0
            for j in range(1, (d + 1) // 2 + 1):
                assert report.expansion.coefficient(Partition([d + 1 - j, j])) > 0, (d, j)

    def test_certificate_checks_no_key_twice(self, monkeypatch):
        # the expansion checks its 31 keys s[a, 61-a], a = 31..61, once
        # each (s[61] then drops out with coefficient 0); the certificate
        # reads s[61] and the 30 two-row classes back as plain tuples
        checks = []
        inner = grassmann._checked

        def counted(parts):
            checks.append(parts)
            return inner(parts)

        monkeypatch.setattr(grassmann, "_checked", counted)
        assert fano_class(60, 100).missing_class_ok
        assert len(checks) == 31

    def test_box_too_small(self):
        with pytest.raises(ValueError):
            fano_class(3, 4)
        with pytest.raises(ValueError):
            fano_class(1, 6)
        with pytest.raises(ValueError) as err:
            fano_class(2, 4)
        assert str(err.value) == "box width 2 hides classes of degree 3; raise N to at least 5"

    @pytest.mark.parametrize(
        "terms, ok",
        [
            ({(3, 1): 1, (2, 2): 1}, True),
            ({(3, 1): 1}, False),  # the last two-row class is zero
            ({(2, 2): 1}, False),  # the first two-row class is zero
            ({(4,): 1, (3, 1): 1, (2, 2): 1}, False),  # the single-row class is not zero
        ],
    )
    def test_certificate_fails_on_a_stubbed_expansion(self, monkeypatch, terms, ok):
        # no true expansion fails the certificate, so a stub lets each clause fail
        monkeypatch.setattr(chern, "top_chern_sym", lambda d, N: ChowElement(RingContext(2, N), terms))
        assert fano_class(3, 6).missing_class_ok is ok

    def test_json_shape(self):
        data = fano_class(4, 7).to_json_dict()
        assert set(data) == {"d", "N", "expansion", "missing_class_ok", "line_count"}
        assert data["missing_class_ok"] is True
        assert data["line_count"] is None


class TestPairedRearrangement:
    def test_small_even(self):
        assert paired_rearrangement(2, 5).terms == {Partition([2, 1]): 4}

    def test_route_equality(self):
        for d in range(2, 21, 2):
            assert paired_rearrangement(d) == top_chern_sym(d, d + 3), d

    def test_work_counts(self, monkeypatch):
        # s1 * s1 is one product before the loop; each factor
        # i(d-i) s1^2 + (d-2i)^2 s11 is one product with one LR stage (its
        # s[2] term, Pieri's row rule) and one vertical strip (its s[1,1]
        # term); the closing (d/2) s1 is one more vertical strip.
        # `chern.multiply` is the binding the paired route calls.
        calls = {}

        def count(module, name):
            inner = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(module, name, wrapper)

        count(chern, "multiply")
        count(grassmann, "_lr_stage")
        count(grassmann, "_vertical_strips")
        for d in range(2, 61, 2):
            calls.update(multiply=0, _lr_stage=0, _vertical_strips=0)
            paired_rearrangement(d)
            assert calls == {
                "multiply": d // 2 + 1,
                "_lr_stage": d // 2 - 1,
                "_vertical_strips": d // 2 + 1,
            }, d

    def test_builds_no_partition_until_terms_is_read(self, monkeypatch):
        # the result's keys are the Partitions its products built; reading
        # its terms back, sorted or rendered, builds none
        result = paired_rearrangement(20)
        checks = []
        inner = grassmann._checked

        def counted(parts):
            checks.append(parts)
            return inner(parts)

        monkeypatch.setattr(grassmann, "_checked", counted)
        assert result.terms and result.sorted_terms() and result.to_text() and result.to_json_dict()
        assert checks == []
        assert all(type(lam) is Partition for lam in result.terms)

    def test_rejects_small_box(self):
        with pytest.raises(ValueError, match="N must be >= 4"):
            paired_rearrangement(4, 3)

    def test_smallest_box(self):
        assert paired_rearrangement(2, 4) == top_chern_sym(2, 4)
        with pytest.raises(ValueError, match="^N must be >= 4$"):
            paired_rearrangement(2, 3)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            paired_rearrangement(3)
        with pytest.raises(ValueError):
            paired_rearrangement(0)


@pytest.mark.parametrize("bad", [4.0, Fraction(4), "4"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: top_chern_sym(x, 7),
        lambda x: top_chern_sym(3, x),
        lambda x: fano_class(x, 7),
        line_count,
        paired_rearrangement,
        lambda x: paired_rearrangement(2, x),
        lambda x: check_projective_space(x, 2),
        lambda x: check_projective_space(2, x),
    ],
)
def test_library_refuses_non_integers(call, bad):
    with pytest.raises(ValueError, match="must be integers"):
        call(bad)


class TestLineCount:
    def test_golden(self):
        for n, want in LINE_COUNT_GOLDEN.items():
            assert line_count(n) == want

    def test_matches_the_linear_factor_oracle(self):
        for n in range(3, 101):
            assert line_count(n) == chern_oracle.line_count(n), n

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            line_count(2)
