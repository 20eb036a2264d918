import inspect
import json
import operator
import random
import sys
from fractions import Fraction

import pytest

import alghyp.grassmann as grassmann
from alghyp.chern import top_chern_sym
from alghyp.grassmann import (
    ChowElement,
    Partition,
    RingContext,
    complement,
    integrate,
    make_class,
    multiply,
    transpose_dual,
)
from tests.schur_oracle import schur_oracle_multiply


def all_box_partitions(rows, width, max_size=None):
    """Every partition in the rows x width box (independent enumeration)."""
    out = []

    def rec(prefix, prev, total):
        out.append(Partition(prefix))
        if len(prefix) == rows:
            return
        for p in range(1, prev + 1):
            if max_size is None or total + p <= max_size:
                rec(prefix + [p], p, total + p)

    rec([], width, 0)
    return out


def element_from_json(data):
    """The element that a `to_json_dict` form describes, read back here:
    the library has no JSON loader."""
    return ChowElement(
        RingContext(data["k"], data["n"]),
        {Partition(t["partition"]): int(t["coeff"]) for t in data["terms"]},
    )


def part(lam, i):
    """i-th part (0-based), 0 beyond the last row."""
    return lam[i] if i < len(lam) else 0


def brute_horizontal_products(ctx, p, lam):
    """sigma_p * sigma_lam by filtering every box partition (oracle)."""
    out = {}
    for mu in all_box_partitions(ctx.k, ctx.width):
        if sum(mu.parts) != sum(lam.parts) + p or any(part(mu, i) < m for i, m in enumerate(lam)):
            continue
        if all(part(lam, i) >= part(mu, i + 1) for i in range(ctx.k)):
            out[mu] = 1
    return out


class TestPartition:
    def test_trailing_zeros_trimmed(self):
        assert Partition([3, 1, 0, 0]).parts == (3, 1)
        assert Partition([]).parts == ()
        assert Partition([0, 0]).parts == ()

    def test_trailing_zeros_cost_one_slice(self):
        """Trimming z trailing zeros builds the parts and one slice, not one
        tuple per zero: a count of the `__new__` calls under a profile hook."""

        def tuples_built(parts):
            built = 0

            def hook(frame, event, arg):
                nonlocal built
                built += event == "c_call" and getattr(arg, "__name__", None) == "__new__"

            sys.setprofile(hook)
            try:
                lam = grassmann._checked(parts)
            finally:
                sys.setprofile(None)
            assert lam == tuple(p for p in parts if p)
            return built

        for z in (0, 1, 10, 100):
            assert tuples_built([3, 1] + [0] * z) <= 2
            assert tuples_built([0] * z) <= 2

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([2, -1])

    def test_rejects_non_integer_parts(self):
        with pytest.raises(ValueError):
            Partition([2.7, 1.2])
        with pytest.raises(ValueError):
            Partition([Fraction(3, 2)])

    def test_refusal_messages(self):
        # the negative check comes before the order check, and each keeps its text
        for parts, message in (
            ([1, -1], "negative part in (1, -1)"),
            ([-1, 2], "negative part in (-1, 2)"),
            ([1, 2], "parts not weakly decreasing: (1, 2)"),
            ([0, 1], "parts not weakly decreasing: (0, 1)"),
            ([2.5], "partition parts must be integers, got [2.5]"),
        ):
            with pytest.raises(ValueError) as err:
                Partition(parts)
            assert str(err.value) == message
        assert Partition([3, 1, 0, 0]).parts == (3, 1)

    def test_conjugate(self):
        assert grassmann._conjugate(Partition([3, 1])).parts == (2, 1, 1)
        assert grassmann._conjugate(Partition([])).parts == ()
        assert grassmann._conjugate(Partition([2, 2])).parts == (2, 2)

    def test_immutable_and_hashable(self):
        lam = Partition([2, 1])
        with pytest.raises(AttributeError):
            lam.parts = (3,)
        assert len({lam, Partition((2, 1)), Partition([2, 1, 0])}) == 1


class TestRingContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            RingContext(0, 3)
        with pytest.raises(ValueError):
            RingContext(3, 3)
        with pytest.raises(ValueError):
            RingContext(2.5, 5)
        with pytest.raises(ValueError):
            RingContext(2, 5.0)
        with pytest.raises(ValueError):
            RingContext(Fraction(2), 5)

    def test_box_data(self):
        ctx = RingContext(2, 5)
        assert ctx.width == 3 and ctx.dim == 6
        assert ctx.fits(Partition([3, 2])) and not ctx.fits(Partition([4]))
        assert not ctx.fits(Partition([1, 1, 1]))


class TestMakeClass:
    def test_in_box(self):
        ctx = RingContext(2, 4)
        assert make_class(ctx, Partition([1])).terms == {Partition([1]): 1}

    def test_out_of_box_is_zero(self):
        ctx = RingContext(2, 4)
        assert not make_class(ctx, Partition([3])).terms
        assert not make_class(ctx, Partition([1, 1, 1])).terms

    def test_top_class(self):
        ctx = RingContext(2, 4)
        assert make_class(ctx, Partition([2, 2])).terms == {Partition([2, 2]): 1}


class TestChowElementInput:
    def test_rejects_fraction_coefficient(self):
        ctx = RingContext(2, 4)
        with pytest.raises(ValueError):
            ChowElement(ctx, {Partition([1]): Fraction(1, 2)})

    def test_rejects_float_coefficient(self):
        ctx = RingContext(2, 4)
        with pytest.raises(ValueError):
            ChowElement(ctx, {Partition([1]): 2.9})

    def test_refusal_messages(self):
        # the coefficient is checked before the box, and a zero term is
        # dropped before either check
        ctx = RingContext(2, 4)
        for terms, message in (
            ({Partition([3]): 1}, "Partition([3]) does not fit the RingContext(k=2, n=4) box"),
            ({(1, 1, 1): 1}, "Partition([1, 1, 1]) does not fit the RingContext(k=2, n=4) box"),
            ({Partition([1]): 2.9}, "coefficient of Partition([1]) must be an integer, got 2.9"),
            ({Partition([3]): "1"}, "coefficient of Partition([3]) must be an integer, got '1'"),
        ):
            with pytest.raises(ValueError) as err:
                ChowElement(ctx, terms)
            assert str(err.value) == message
        assert ChowElement(ctx, {Partition([3]): 0}).terms == {}


class TestScalarsAndSums:
    def test_scaling_multiplies_every_coefficient(self):
        ctx = RingContext(2, 4)
        x = 2 * (3 * make_class(ctx, (1,)) + make_class(ctx, (2,)))
        assert x.terms == {(1,): 6, (2,): 2}
        assert (-1 * x).terms == {(1,): -6, (2,): -2}

    def test_foreign_operands_raise_type_error(self):
        x = make_class(RingContext(2, 4), (1,))
        with pytest.raises(TypeError):
            Fraction(1, 2) * x
        with pytest.raises(TypeError):
            2.0 * x
        with pytest.raises(TypeError, match="^expected ChowElement, got int$"):
            x + 1


class TestTupleStorage:
    """Terms are kept under `Partition` keys, which are checked int tuples;
    `terms` is a read-only view of them."""

    def test_partition_equals_its_tuple(self):
        ctx = RingContext(3, 6)
        assert Partition((2, 1)) == (2, 1)
        assert hash(Partition((2, 1))) == hash((2, 1))
        x = make_class(ctx, [2, 1, 0])
        assert x.terms == {(2, 1): 1}

    def test_terms_view_is_read_only(self):
        ctx = RingContext(3, 6)
        x = make_class(ctx, (2, 1)) + 3 * make_class(ctx, Partition([1]))
        assert x.terms == {Partition([2, 1]): 1, Partition([1]): 3}
        with pytest.raises(TypeError):
            x.terms[Partition([1])] = 5

    def test_partition_and_tuple_keys_agree(self):
        ctx = RingContext(2, 5)
        by_partition = ChowElement(ctx, {Partition([3, 1]): 2, Partition([2]): -1})
        by_tuple = ChowElement(ctx, {(3, 1): 2, (2, 0): -1})
        assert by_partition == by_tuple
        assert hash(by_partition) == hash(by_tuple)
        assert by_partition.to_text() == by_tuple.to_text() == "2*s[3,1] - 1*s[2]"

    def test_coefficient_reads_any_spelling(self):
        ctx = RingContext(2, 5)
        x = 7 * make_class(ctx, (2, 1))
        for lam in (Partition([2, 1]), (2, 1), [2, 1], [2, 1, 0]):
            assert x.coefficient(lam) == 7
        assert x.coefficient((1,)) == 0
        for parts, message in (
            ([1, 2], "parts not weakly decreasing: (1, 2)"),
            ([2.5], "partition parts must be integers, got [2.5]"),
        ):
            with pytest.raises(ValueError) as err:
                x.coefficient(parts)
            assert str(err.value) == message

    def test_products_build_no_partition(self, monkeypatch):
        # the strip kernels work on plain int tuples: each product of the
        # sigma_1 powers up to the point class of G(3,6) builds one
        # Partition per term it keeps, and reading the terms back, sorted
        # or rendered, builds none
        ctx = RingContext(3, 6)
        s1 = make_class(ctx, (1,))
        checks = counting(monkeypatch, "_checked")
        x = s1
        for _ in range(ctx.dim - 1):
            del checks[:]
            x = multiply(x, s1)
            assert sorted(lam for _, lam in checks) == sorted(x.terms)
        del checks[:]
        assert x.terms and x.sorted_terms() and x.to_text() and x.to_json_dict()
        assert checks == []
        assert all(type(lam) is Partition for lam in x.terms)
        assert [(lam.parts, c) for lam, c in x.sorted_terms()] == [((3, 3, 3), 42)]


class TestPieri:
    """Products with sigma_p, checked against a brute-force strip oracle."""

    def test_square_of_hyperplane(self):
        ctx = RingContext(2, 4)
        x = multiply(make_class(ctx, (1,)), make_class(ctx, Partition([1])))
        assert x.terms == {Partition([2]): 1, Partition([1, 1]): 1}

    def test_vanishing_in_tall_box(self):
        ctx = RingContext(4, 6)
        x = multiply(make_class(ctx, (2,)), make_class(ctx, Partition([2, 1, 1, 1])))
        assert not x.terms
        assert brute_horizontal_products(ctx, 2, Partition([2, 1, 1, 1])) == {}

    def test_zero_strip_is_identity(self):
        ctx = RingContext(3, 7)
        x = make_class(ctx, Partition([3, 2])) + 2 * make_class(ctx, Partition([1]))
        assert multiply(make_class(ctx, (0,)), x) == x

    def test_matches_brute_force_enumeration(self):
        for k, n in ((2, 5), (3, 6), (4, 6)):
            ctx = RingContext(k, n)
            for lam in all_box_partitions(k, n - k, 6):
                for p in range(0, n - k + 1):
                    x, s = make_class(ctx, lam), make_class(ctx, (p,))
                    want = brute_horizontal_products(ctx, p, lam) if p else {lam: 1}
                    assert multiply(s, x).terms == want, (k, n, lam, p)
                    assert multiply(x, s).terms == want, (k, n, lam, p)


class TestPieriVertical:
    """Products with sigma_{1^p}, checked against sigma_p on the conjugate."""

    def test_column_squares(self):
        ctx = RingContext(2, 4)
        x = multiply(make_class(ctx, (1, 1)), make_class(ctx, Partition([1, 1])))
        assert x.terms == {Partition([2, 2]): 1}

    def test_mixed(self):
        ctx = RingContext(2, 5)
        x = multiply(make_class(ctx, (1, 1)), make_class(ctx, Partition([2])))
        assert x.terms == {Partition([3, 1]): 1}

    def test_zero_strip_is_identity(self):
        ctx = RingContext(2, 5)
        x = make_class(ctx, Partition([2, 1]))
        assert multiply(make_class(ctx, (1,) * 0), x) == x

    def test_agrees_with_conjugate_pieri(self):
        # vertical strips on lam = horizontal strips on the conjugate
        ctx = RingContext(3, 7)
        dual = RingContext(4, 7)
        for lam in all_box_partitions(3, 4, 6):
            for p in range(0, 4):
                got = multiply(make_class(ctx, (1,) * p), make_class(ctx, lam)).terms
                via = multiply(make_class(dual, (p,)), make_class(dual, grassmann._conjugate(lam))).terms
                assert got == {grassmann._conjugate(mu): c for mu, c in via.items()}


class TestMultiply:
    def test_hyperplane_fourth_power(self):
        ctx = RingContext(2, 4)
        s1 = make_class(ctx, Partition([1]))
        x = multiply(multiply(s1, s1), multiply(s1, s1))
        assert x.terms == {Partition([2, 2]): 2}

    def test_orthogonal_special_classes(self):
        ctx = RingContext(2, 4)
        x = multiply(make_class(ctx, Partition([2])), make_class(ctx, Partition([1, 1])))
        assert not x.terms

    def test_unit_law(self):
        ctx = RingContext(3, 6)
        x = make_class(ctx, Partition([2, 1])) + 3 * make_class(ctx, Partition([1, 1, 1]))
        assert multiply(make_class(ctx, ()), x) == x
        assert multiply(x, make_class(ctx, ())) == x

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            multiply(make_class(RingContext(2, 4), ()), make_class(RingContext(2, 5), ()))
        with pytest.raises(ValueError):
            make_class(RingContext(2, 4), ()) + make_class(RingContext(2, 5), ())


def counting(monkeypatch, name):
    """Replace grassmann.<name> by a wrapper that records (args, result)."""
    calls = []
    inner = getattr(grassmann, name)

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(grassmann, name, wrapper)
    return calls


class SkewStates:
    """Records, while the `with` block runs, the number of merged states
    that each row with boxes leaves in `_skew_fillings`: the size of
    `merged` when the line `states = merged` runs."""

    def __init__(self):
        self.code = grassmann._skew_fillings.__code__
        lines, start = inspect.getsourcelines(self.code)
        self.line = start + [line.strip() for line in lines].index("states = merged")
        self.sizes = []

    def __enter__(self):
        self._outer = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer)

    def _call(self, frame, event, arg):
        if frame.f_code is not self.code:
            return None

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno == self.line:
                self.sizes.append(len(frame.f_locals["merged"]))
            return line

        return line


class TestProductWork:
    """Deterministic work counts of the product algorithm (no timing)."""

    def test_special_factor_is_one_strip(self, monkeypatch):
        # x has a four-row term, so the special class is the content in
        # either order: a single row is one LR stage (Pieri's row rule), a
        # single column (sigma_1 included) one vertical strip, each applied
        # to both terms of x at once
        ctx = RingContext(4, 9)
        x = make_class(ctx, Partition([3, 2, 2, 1])) + 2 * make_class(ctx, Partition([2, 1]))
        for special, rows, columns in (([3], 1, 0), ([1, 1, 1], 0, 1), ([1], 0, 1)):
            s = make_class(ctx, Partition(special))
            for a, b in ((x, s), (s, x)):
                stage_calls = counting(monkeypatch, "_lr_stage")
                column_calls = counting(monkeypatch, "_vertical_strips")
                multiply(a, b)
                monkeypatch.undo()
                counts = (len(stage_calls), len(column_calls))
                assert counts == (rows, columns), (special, a, b)

    def test_row_strip_is_one_lr_stage(self):
        # a product with a single row equals the Schur oracle, on seeded
        # terms that include full rows, rows at the box width and signed
        # coefficients
        rng = random.Random(2029)
        for _ in range(150):
            k, width = rng.randint(1, 4), rng.randint(1, 5)
            ctx = RingContext(k, k + width)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                rows = rng.randint(0, k)
                lam = sorted((rng.choice((width, rng.randint(1, width))) for _ in range(rows)))
                terms[tuple(reversed(lam))] = rng.choice((-3, -1, 1, 2, 5))
            p = rng.randint(1, width)
            x = ChowElement(ctx, terms)
            assert multiply(x, make_class(ctx, (p,))) == schur_oracle_multiply(
                x, make_class(ctx, (p,))
            ), (k, width, terms, p)

    def test_many_row_pair_state_bound(self, monkeypatch):
        # sigma_{nu^c} * sigma_mu with l(mu) = 9 in G(9,18): the Jacobi-Trudi
        # determinant of mu has 9! = 362880 permutation terms, and the LR
        # rule one stage per row of mu (85 merged states).  The skew shape
        # lam^vee / mu = nu / mu has e = |nu| - |mu| = 4 < 15 = |mu| boxes,
        # so the product is one `_skew_fillings` call and no stage; its
        # rows with boxes merge 1, 2, 4 and 4 states
        ctx = RingContext(9, 18)
        lam = complement(ctx, Partition([4, 3, 3, 2, 2, 2, 1, 1, 1]))
        mu = Partition([3, 3, 2, 2, 1, 1, 1, 1, 1])
        merged = SkewStates()
        stages = counting(monkeypatch, "_lr_stage")
        skews = counting(monkeypatch, "_skew_fillings")
        with merged:
            prod = multiply(make_class(ctx, lam), make_class(ctx, mu))
        assert (len(stages), len(skews)) == (0, 1)
        assert merged.sizes == [1, 2, 4, 4]
        assert {sum(nu.parts) for nu in prod.terms} == {sum(lam.parts) + sum(mu.parts)}
        assert all(c > 0 for c in prod.terms.values())

    def test_tall_pair_state_bound(self, monkeypatch):
        # two nine-row factors whose conjugates have two and three rows;
        # the direct product must agree with the conjugate one
        ctx = RingContext(9, 18)
        lam = Partition([3, 3, 3, 2, 2, 2, 1, 1, 1])
        mu = Partition([2, 2, 2, 2, 2, 1, 1, 1, 1])
        stages = counting(monkeypatch, "_lr_stage")
        prod = multiply(make_class(ctx, lam), make_class(ctx, mu))
        monkeypatch.undo()
        assert len(stages) == len(mu)
        assert sum(len(out) for _, out in stages) <= 200  # merged states
        dual, lam_t = transpose_dual(ctx, lam)
        _, mu_t = transpose_dual(ctx, mu)
        via = multiply(make_class(dual, lam_t), make_class(dual, mu_t))
        assert prod.terms == {grassmann._conjugate(nu): c for nu, c in via.terms.items()}
        assert all(c > 0 for c in prod.terms.values())


    def test_zero_pair_runs_no_stage(self, monkeypatch):
        # in G(8,18), row 2 of one factor and row 7 of the other sum to
        # 7 + 4 > 10 = n - k, so the product is zero before any stage runs
        ctx = RingContext(8, 18)
        lam, mu = Partition([9, 7, 4, 4, 3, 2, 2]), Partition([8, 7, 5, 5, 5, 4, 4])
        stages = counting(monkeypatch, "_lr_stage")
        for a, b in ((lam, mu), (mu, lam)):
            assert multiply(make_class(ctx, a), make_class(ctx, b)).terms == {}
        assert stages == []

    def test_zero_terms_dropped_before_the_stages_match_oracle(self):
        # seeded elements times a class of two or more rows, in boxes small
        # enough for the Schur oracle; some terms of x pair with mu to zero
        # and some do not, so both the dropped and the kept terms are checked
        rng = random.Random(2203)
        zero = nonzero = 0
        for _ in range(100):
            k, width = rng.randint(2, 4), rng.randint(2, 3)
            ctx = RingContext(k, k + width)
            rows = rng.randint(2, k)
            mu = Partition(sorted((rng.randint(1, width) for _ in range(rows)), reverse=True))
            if mu[0] == 1:
                continue
            terms = {}
            for _ in range(rng.randint(1, 3)):
                parts = sorted((rng.randint(0, width) for _ in range(k)), reverse=True)
                terms[tuple(parts)] = rng.choice((-2, 1, 3))
            x = ChowElement(ctx, terms)
            for lam in x.terms:
                pair = schur_oracle_multiply(make_class(ctx, lam), make_class(ctx, mu))
                if pair.terms:
                    nonzero += 1
                else:
                    zero += 1
            y = make_class(ctx, mu) + 2 * make_class(ctx, (1,))
            expected = schur_oracle_multiply(x, y)
            assert multiply(x, y) == expected, (k, width, terms, mu)
            assert multiply(y, x) == expected, (k, width, terms, mu)
        assert zero >= 40 and nonzero >= 40, (zero, nonzero)


class TestCancellation:
    """Each content term scales the other factor before the kernel runs,
    so terms of opposite sign must still cancel exactly."""

    def test_difference_times_hyperplane_is_zero(self):
        ctx = RingContext(2, 4)
        diff = make_class(ctx, Partition([2])) + (-1) * make_class(ctx, Partition([1, 1]))
        s1 = make_class(ctx, Partition([1]))
        assert multiply(diff, s1).terms == {}
        assert multiply(s1, diff).terms == {}

    def test_content_terms_cancel_in_one_dict(self):
        # every content term adds its shapes into the product's one dict:
        # in G(3,6), s[2] and s[1,1] both emit s[3,2] once from s[2,1] +
        # s[1,1,1], so (s[2] - s[1,1]) cancels it, in either order
        ctx = RingContext(3, 6)
        x = make_class(ctx, (2, 1)) + make_class(ctx, (1, 1, 1))
        y = make_class(ctx, (2,)) + (-1) * make_class(ctx, (1, 1))
        expected = ChowElement(ctx, {(3, 1, 1): 1, (2, 2, 1): -1})
        assert schur_oracle_multiply(x, y) == expected
        assert multiply(x, y) == expected
        assert multiply(y, x) == expected

    def test_signed_content_grid_matches_oracle(self):
        # seeded products (s[lam] + s[lam']) (s[mu] - s[mu']) in a square
        # box, lam' the conjugate of lam: the coefficient of a shape nu is
        # A(nu) - A(nu'), so every self-conjugate nu that the content terms
        # emit cancels in the one dict; both orders match the Schur oracle
        rng = random.Random(3007)
        cancelled = 0
        for _ in range(100):
            k = rng.randint(2, 3)
            ctx = RingContext(k, 2 * k)
            lam, mu = (
                Partition(sorted((rng.randint(0, k) for _ in range(k)), reverse=True))
                for _ in range(2)
            )
            if mu == grassmann._conjugate(mu):
                continue
            x = make_class(ctx, lam) + make_class(ctx, grassmann._conjugate(lam))
            c = rng.choice((-2, 1, 3))
            y = c * make_class(ctx, mu) + (-c) * make_class(ctx, grassmann._conjugate(mu))
            expected = schur_oracle_multiply(x, y)
            assert multiply(x, y) == expected, (k, lam, mu, c)
            assert multiply(y, x) == expected, (k, lam, mu, c)
            both = set(multiply(x, make_class(ctx, mu)).terms)
            both &= set(multiply(x, make_class(ctx, grassmann._conjugate(mu))).terms)
            cancelled += len(both - set(expected.terms))
        assert cancelled >= 15, cancelled

    def test_signed_line_classes_match_oracle(self):
        # c_top(Sym^d S*) minus one of its own classes s[d+1-j, j], times
        # s[1] + 2 s[1,1], in both orders, in G(2, N) with N <= 9
        rng = random.Random(1307)
        cases = 0
        while cases < 8:
            N = rng.randint(4, 9)
            d = rng.randint(1, 2 * (N - 2) - 3)
            j = rng.randint(0, (d + 1) // 2)
            if d + 1 - j > N - 2:
                continue
            ctx = RingContext(2, N)
            x = top_chern_sym(d, N) + (-1) * make_class(ctx, Partition([d + 1 - j, j]))
            y = make_class(ctx, Partition([1])) + 2 * make_class(ctx, Partition([1, 1]))
            expected = schur_oracle_multiply(x, y)
            assert multiply(x, y) == expected, (d, N, j)
            assert multiply(y, x) == expected, (d, N, j)
            cases += 1


def many_row_pairs(rng, k, count):
    """Seeded pairs (nu^c, mu) in G(k, 2k), mu inside nu with k rows, so the
    product lands |nu| - |mu| degrees below the point class."""
    ctx = RingContext(k, 2 * k)
    pairs = []
    while len(pairs) < count:
        nu = sorted((rng.randint(1, 3) for _ in range(k)), reverse=True)
        mu = sorted((rng.randint(1, p) for p in nu), reverse=True)
        if sum(nu) - sum(mu) <= 4:
            pairs.append((complement(ctx, Partition(nu)), Partition(mu)))
    return ctx, pairs


class TestTransposeSymmetry:
    def test_many_row_pairs_match_conjugates(self):
        # sigma_lam * sigma_mu in G(k, n) equals sigma_lam' * sigma_mu' in
        # G(n-k, n) mapped back by conjugation; the conjugates have at most
        # three rows, so the dual product runs a different expansion
        rng = random.Random(1861)
        checked = 0
        for k in range(6, 10):
            ctx, pairs = many_row_pairs(rng, k, 3)
            for lam, mu in pairs:
                dual, lam_t = transpose_dual(ctx, lam)
                _, mu_t = transpose_dual(ctx, mu)
                prod = multiply(make_class(ctx, lam), make_class(ctx, mu))
                via = multiply(make_class(dual, lam_t), make_class(dual, mu_t))
                assert prod.terms
                assert prod.terms == {grassmann._conjugate(nu): c for nu, c in via.terms.items()}, (k, lam, mu)
                checked += 1
        assert checked == 12


class TestIntegrate:
    def test_reads_top_coefficient(self):
        ctx = RingContext(2, 4)
        assert integrate(2 * make_class(ctx, Partition([2, 2]))) == 2

    def test_wrong_degree(self):
        ctx = RingContext(2, 4)
        assert integrate(make_class(ctx, Partition([1]))) == 0

    def test_degree_of_g25(self):
        ctx = RingContext(2, 5)
        x = make_class(ctx, ())
        for _ in range(6):
            x = multiply(x, make_class(ctx, Partition([1])))
        assert integrate(x) == 5


class TestComplement:
    def test_single_row(self):
        # (d+1, 0) pairs with (N-2, N-2-(d+1)) in the 2 x (N-2) box
        for N in (6, 9, 12):
            for d in range(1, N - 3):
                ctx = RingContext(2, N)
                assert complement(ctx, Partition([d + 1])) == Partition(
                    [N - 2, N - 2 - (d + 1)]
                )

    def test_top_class(self):
        assert complement(RingContext(2, 4), Partition([2, 2])) == Partition([])

    def test_three_rows(self):
        assert complement(RingContext(3, 6), Partition([2, 1])) == Partition([3, 2, 1])

    def test_out_of_box_raises(self):
        with pytest.raises(ValueError):
            complement(RingContext(2, 4), Partition([3]))


class TestTransposeDual:
    def test_hook_shapes(self):
        for N in range(6, 15):
            for d in range(2, N - 3):
                ctx, conj = transpose_dual(
                    RingContext(2, N), Partition([N - 2, N - 2 - (d + 1)])
                )
                assert ctx == RingContext(N - 2, N)
                assert conj == Partition((2,) * (N - 2 - (d + 1)) + (1,) * (d + 1))

    def test_empty(self):
        ctx, conj = transpose_dual(RingContext(2, 5), Partition([]))
        assert ctx == RingContext(3, 5) and conj == Partition([])

    def test_small(self):
        ctx, conj = transpose_dual(RingContext(2, 5), Partition([3, 1]))
        assert ctx == RingContext(3, 5) and conj == Partition([2, 1, 1])

    def test_out_of_box_raises(self):
        with pytest.raises(ValueError):
            transpose_dual(RingContext(2, 4), Partition([1, 1, 1]))


class TestSerialization:
    def test_text_canonical_order(self):
        ctx = RingContext(3, 6)
        x = 5 * make_class(ctx, Partition([1, 1, 1])) + 3 * make_class(ctx, Partition([2, 1]))
        assert x.to_text() == "3*s[2,1] + 5*s[1,1,1]"
        assert ChowElement(ctx).to_text() == "0"
        assert make_class(ctx, ()).to_text() == "1*s[]"
        y = make_class(ctx, Partition([2])) + (-2) * make_class(ctx, Partition([1, 1]))
        assert y.to_text() == "1*s[2] - 2*s[1,1]"

    def test_json_round_trip(self):
        ctx = RingContext(2, 5)
        x = 7 * make_class(ctx, Partition([3, 1])) + (-4) * make_class(ctx, Partition([2]))
        data = x.to_json_dict()
        assert data["k"] == 2 and data["n"] == 5
        assert all(isinstance(t["coeff"], str) for t in data["terms"])
        assert element_from_json(json.loads(json.dumps(data))) == x

    def test_big_coefficients_survive_json(self):
        ctx = RingContext(2, 4)
        x = (10**40) * make_class(ctx, Partition([1]))
        assert element_from_json(json.loads(json.dumps(x.to_json_dict()))) == x


def random_element(rng, ctx, parts_pool, max_terms=3, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        lam = rng.choice(parts_pool)
        terms[lam] = terms.get(lam, 0) + rng.randint(1, max_coeff)
    return ChowElement(ctx, terms)


class TestRingProperties:
    def test_commutativity_and_associativity(self):
        rng = random.Random(20240603)
        cases = 0
        boxes = [(2, 5), (2, 6), (3, 6), (3, 7)]
        pools = {
            (k, n): all_box_partitions(k, n - k, 5) for k, n in boxes
        }
        while cases < 1000:
            k, n = rng.choice(boxes)
            ctx = RingContext(k, n)
            x = random_element(rng, ctx, pools[(k, n)])
            y = random_element(rng, ctx, pools[(k, n)])
            z = random_element(rng, ctx, pools[(k, n)])
            xy = multiply(x, y)
            assert xy == multiply(y, x)
            assert multiply(xy, z) == multiply(x, multiply(y, z))
            cases += 1

    def test_structure_constants_nonnegative(self):
        for k, n in ((2, 5), (2, 6), (3, 6), (3, 7)):
            ctx = RingContext(k, n)
            pool = all_box_partitions(k, n - k, 6)
            for lam in pool:
                for mu in pool:
                    prod = multiply(make_class(ctx, lam), make_class(ctx, mu))
                    assert all(c > 0 for c in prod.terms.values()), (lam, mu)

    def test_grading(self):
        rng = random.Random(7)
        for _ in range(300):
            k, n = rng.choice([(2, 5), (3, 6), (3, 7)])
            ctx = RingContext(k, n)
            pool = all_box_partitions(k, n - k, 4)
            lam, mu = rng.choice(pool), rng.choice(pool)
            prod = multiply(make_class(ctx, lam), make_class(ctx, mu))
            assert {sum(nu.parts) for nu in prod.terms} <= {sum(lam.parts) + sum(mu.parts)}

    def test_duality(self):
        checked = 0
        for k, n in ((2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (3, 6), (3, 7), (3, 8), (4, 8)):
            ctx = RingContext(k, n)
            pool = all_box_partitions(k, n - k)
            for lam in pool:
                comp = complement(ctx, lam)
                for mu in pool:
                    if sum(mu.parts) != ctx.dim - sum(lam.parts):
                        continue
                    pairing = integrate(
                        multiply(make_class(ctx, lam), make_class(ctx, mu))
                    )
                    assert pairing == (1 if mu == comp else 0), (k, n, lam, mu)
                    checked += 1
        assert checked >= 1000


def both_routes(ctx, x, mu, scale):
    """`x` times s[mu], times `scale`, by each route alone, as the dict
    that the route fills: `_skew_fillings` over lam^vee / mu for every term
    lam of x with mu inside lam^vee (the other terms pair with mu to zero),
    and `_lr_stage` once per row of mu on every term of x."""
    k, width = ctx.k, ctx.width
    skew, stages = {}, {}
    for lam, c in x.terms.items():
        dual = complement(ctx, lam)
        if len(mu) <= len(dual) and all(map(operator.le, mu, dual)):
            grassmann._skew_fillings(tuple(dual), tuple(mu), k, width, skew, scale * c)
    states = {(tuple(lam), None): scale * c for lam, c in x.terms.items()}
    if not mu:
        stages = {lam: c for (lam, _), c in states.items()}
    else:
        for m in mu[:-1]:
            states = grassmann._lr_stage(states, m, k, width)
        grassmann._lr_stage(states, mu[-1], k, width, stages)
    return skew, stages


def strip_columns(ctx, lam):
    """lam less its full columns, and their number a: in k variables
    s_(lam + a^k) = e_k^a s_lam."""
    a = lam[-1] if len(lam) == ctx.k else 0
    return Partition([p - a for p in lam]), a


def stripped_oracle(ctx, lam, mu):
    """s[lam] s[mu] by the Schur oracle, run on the pair less its full
    columns: the oracle product in G(k, n - a - b), with every row of each
    shape raised by a + b, where a and b are the full columns of lam and
    mu.  The oracle's cost grows with the degree in k variables, so this
    reaches pairs near the top of G(8, 16)."""
    (lam2, a), (mu2, b) = strip_columns(ctx, lam), strip_columns(ctx, mu)
    small = RingContext(ctx.k, ctx.n - a - b)
    prod = schur_oracle_multiply(make_class(small, lam2), make_class(small, mu2))
    pad = lambda nu: nu.parts + (0,) * (ctx.k - len(nu))  # noqa: E731
    return ChowElement(ctx, {tuple(p + a + b for p in pad(nu)): c for nu, c in prod.terms.items()})


def takes_skew_route(ctx, lam, mu):
    """Whether `multiply` sends the pair to `_skew_fillings`: mu of two or
    more rows and not a column, mu inside lam^vee, and
    e = k(n-k) - |lam| - |mu| < |mu|."""
    dual = complement(ctx, lam)
    inside = len(mu) <= len(dual) and all(map(operator.le, mu, dual))
    return len(mu) > 1 and mu[0] > 1 and inside and ctx.dim - sum(lam) - sum(mu) < sum(mu)


class TestSkewRoute:
    """A pair near the top goes through one Littlewood-Richardson count
    over the skew shape lam^vee / mu; the route changes only the cost."""

    def test_both_routes_fill_the_same_dict(self):
        # every pair of classes in G(k, k+w), k, w <= 4, the unit and the
        # zero pairs included, and seeded inhomogeneous signed elements
        # times every class: each route alone fills the same dict
        rng = random.Random(3401)
        pairs = zero = inhomogeneous = 0
        for k in range(1, 5):
            for w in range(1, 5):
                ctx = RingContext(k, k + w)
                pool = all_box_partitions(k, w)
                elements = [make_class(ctx, lam) for lam in pool]
                for _ in range(4):
                    terms = {rng.choice(pool): rng.choice((-3, -1, 2, 5)) for _ in range(4)}
                    elements.append(ChowElement(ctx, terms))
                for x in elements:
                    for mu in pool:
                        skew, stages = both_routes(ctx, x, mu, -2)
                        assert skew == stages, (k, w, x, mu)
                        pairs += 1
                        zero += not stages
                        inhomogeneous += len({sum(lam) for lam in x.terms}) > 1
        assert pairs == 9508 and zero >= 2000 and inhomogeneous >= 900, (pairs, zero, inhomogeneous)

    def test_route_is_chosen_by_box_count(self, monkeypatch):
        # every pair of classes in G(k, k+w), k, w <= 4: a nonzero pair
        # with mu of two or more rows, not a column, takes `_skew_fillings`
        # exactly when e < |mu|; a column takes one strip, the unit no
        # kernel, and every other pair its stages
        for k in range(1, 5):
            for w in range(1, 5):
                ctx = RingContext(k, k + w)
                pool = all_box_partitions(k, w)
                for lam in pool:
                    for mu in pool:
                        if len(mu) > len(lam) or not lam:
                            continue  # lam is the other factor, not the content
                        skews = counting(monkeypatch, "_skew_fillings")
                        stages = counting(monkeypatch, "_lr_stage")
                        multiply(make_class(ctx, lam), make_class(ctx, mu))
                        monkeypatch.undo()
                        skew = takes_skew_route(ctx, lam, mu)
                        assert len(skews) == skew, (k, w, lam, mu)
                        if skew or not mu or mu[0] == 1:
                            assert stages == [], (k, w, lam, mu)

    def test_near_top_pairs_match_oracle(self, monkeypatch):
        # seeded pairs (nu^c, mu) in G(k, n) up to G(8, 16): mu of two or
        # more rows lies inside nu, which has one to four more boxes, so
        # the skew shape nu / mu has 0 < e < |mu| boxes; kept only where
        # the oracle's stripped degree is small (G(8, 16) reaches l(mu) = 8
        # and |mu| up to 44)
        rng = random.Random(3402)
        checked = 0
        for k in range(2, 9):
            for n in sorted({k + 3, (k + 3 + 16) // 2, 16}):
                ctx, w = RingContext(k, n), n - k
                found = 0
                for _ in range(4000):
                    ell = rng.randint(2, k)
                    low = rng.randint(1, w - 1)
                    mu = sorted((rng.randint(low, low + 1) for _ in range(ell)), reverse=True)
                    nu = mu + [0] * (k - ell)
                    for _ in range(rng.randint(0, 4)):
                        rows = [i for i in range(k) if nu[i] < w and (i == 0 or nu[i] < nu[i - 1])]
                        if rows:
                            nu[rng.choice(rows)] += 1
                    lam, mu = complement(ctx, Partition(nu)), Partition(mu)
                    (lam2, a), (mu2, b) = strip_columns(ctx, lam), strip_columns(ctx, mu)
                    if len(mu) > len(lam) or a + b >= w or sum(lam2) + sum(mu2) > 14 - k:
                        continue  # mu is not the content, or the oracle's degree is high
                    if ctx.dim - sum(lam) - sum(mu) == 0 or not takes_skew_route(ctx, lam, mu):
                        continue  # e = 0 gives the point class or zero
                    skews = counting(monkeypatch, "_skew_fillings")
                    prod = multiply(make_class(ctx, lam), make_class(ctx, mu))
                    monkeypatch.undo()
                    assert len(skews) == 1
                    assert prod.terms and prod == stripped_oracle(ctx, lam, mu), (k, n, lam, mu)
                    found += 1
                    if found == 4:
                        break
                checked += found
        assert checked == 84, checked  # four in each of the 21 boxes
