from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starcayley.poly import (
    Poly, Tally, UnknownVariable, VarSet, lincomb, proportion, ratio, tally, varset,
)
from starcayley.scalars import Scalar
from starcayley.weyl import WeylOperator, _darboux_layout

from conftest import degree_in, unpacked

VS = varset("x", "y")


@st.composite
def polys(draw, vs=VS, max_deg=3):
    p = Poly.zero(vs)
    for _ in range(draw(st.integers(0, 4))):
        mono = Poly.const(vs, draw(st.fractions(min_value=-9, max_value=9, max_denominator=4)))
        for _ in range(draw(st.integers(0, max_deg))):
            mono = mono * Poly.var(vs, draw(st.sampled_from(vs.names)))
        p = p + mono
    return p


class TestRingStructure:
    @given(polys(), polys(), polys())
    @settings(max_examples=50)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)

    @given(polys())
    def test_neg(self, p):
        assert (p + (-p)).is_zero()

    def test_exponent_length_must_match_varset(self):
        with pytest.raises(ValueError):
            Poly(varset("a", "b"), {(1, 2, 0, 3): 1})
        with pytest.raises(ValueError):
            Poly(varset("a", "b"), {(1,): 1})

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            Poly.var(VS, "x") ** -1

    def test_reflected_ops_with_rationals(self):
        x = Poly.var(VS, "x")
        assert Fraction(2) + x == x + Poly.const(VS, 2)
        assert Fraction(1) - x == Poly.const(VS, 1) - x
        assert Fraction(3) * x == x * Fraction(3)

    @given(polys(), st.fractions(min_value=-9, max_value=9, max_denominator=4))
    def test_rational_operands_are_constants_in_either_order(self, p, c):
        assert p + c == c + p == p + Poly.const(VS, c)
        assert p - c == p - Poly.const(VS, c) == -(c - p)
        assert p + 1 == 1 + p and p - 1 == -(1 - p)

    def test_other_operands_raise_type_error(self):
        x = Poly.var(VS, "x")
        for other in (1.5, True, None):
            with pytest.raises(TypeError):
                x + other

    def test_never_equals_a_rational(self):
        # a Poly hashes apart from its rational, so it must not equal it
        one = Poly.const(VS, 1)
        assert one != 1 and 1 != one and Poly.zero(VS) != 0
        assert Poly.var(VS, "x") != Fraction(1, 2)
        assert len({one, 1}) == 2
        assert WeylOperator.identity(VS) != 0 and WeylOperator.identity(VS) != 1


class TestCalculus:
    @given(polys(), polys())
    @settings(max_examples=50)
    def test_diff_leibniz(self, p, q):
        lhs = (p * q).diff("x")
        rhs = p.diff("x") * q + p * q.diff("x")
        assert lhs == rhs

    @given(polys())
    def test_diff_kills_constants(self, p):
        c = Poly.const(VS, Fraction(5, 3))
        assert (p + c).diff("y") == p.diff("y")

    def test_degree_tracking(self):
        x, y = Poly.var(VS, "x"), Poly.var(VS, "y")
        p = x * x * y + y
        assert p.total_degree() == 3
        assert degree_in(p, "x") == 2
        assert degree_in(p, "y") == 1


class TestSubstitution:
    def test_is_ring_homomorphism(self):
        target = varset("u", "v")
        mapping = {
            "x": Poly.var(target, "u") + Poly.var(target, "v"),
            "y": Poly.var(target, "u") * Poly.var(target, "v"),
        }
        x, y = Poly.var(VS, "x"), Poly.var(VS, "y")
        p, q = x * y + Poly.const(VS, 2), x * x - y
        lhs = (p * q).substitute(mapping, target)
        rhs = p.substitute(mapping, target) * q.substitute(mapping, target)
        assert lhs == rhs

    def test_unmapped_variable_raises(self):
        target = varset("u")
        with pytest.raises(UnknownVariable):
            Poly.var(VS, "y").substitute({"x": Poly.var(target, "u")}, target)


@st.composite
def laurent_polys(draw, vs=VS):
    """Sums of monomials with rational coefficients at nu-powers -3..3."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = tuple(draw(st.integers(0, 2)) for _ in vs.names) + (draw(st.integers(-3, 3)),)
        terms[e] = terms.get(e, 0) + draw(st.fractions(min_value=-9, max_value=9, max_denominator=4))
    return Poly(vs, terms)


# a Scalar is the Poly over no variables
scalars = laurent_polys(varset()).map(
    lambda p: Scalar({k: c for (k,), c in unpacked(p, p.rationals()).items()})
)


class TestScalarOperand:
    @given(laurent_polys(), scalars)
    def test_product_scale_and_constant_agree(self, p, s):
        prod = p * s
        assert type(prod) is Poly and prod.vs == p.vs
        assert prod == p.scale(s) == Poly.const(VS, s) * p

    @given(scalars, scalars)
    def test_scalar_product_stays_scalar(self, a, b):
        assert type(a * b) is Scalar and type(a + b) is Scalar and type(-a) is Scalar

    @given(laurent_polys(), scalars)
    def test_sum_embeds_scalar_in_either_order(self, p, s):
        # a Scalar operand is the constant Poly.const(p.vs, s), as under *
        c = Poly.const(VS, s)
        assert type(p + s) is Poly and p + s == s + p == p + c
        assert type(p - s) is Poly and p - s == p - c
        assert s - p == c - p

    def test_scalar_sum_on_one_variable(self):
        x, nu = Poly.var(varset("x"), "x"), Scalar.nu(1)
        assert x + nu == nu + x and x - nu == -(nu - x)
        assert (x + nu).vs == (x - nu).vs == varset("x")

    @given(scalars, st.integers(0, 3))
    def test_scalar_power_stays_scalar(self, s, k):
        power = s**k
        assert type(power) is Scalar
        expected = Scalar.one()
        for _ in range(k):
            expected = expected * s
        assert power == expected
        assert type(Scalar.nu(1) ** 2) is Scalar and Scalar.nu(1) ** 2 == Scalar.nu(2)


class TestScalarRatio:
    """``proportion``: the Scalar c with x = c y on every row, and the Tally
    of |x - c y|."""

    def test_exact_ratio(self):
        x, y = Poly.var(VS, "x"), Poly.var(VS, "y")
        m = Scalar.nu(1, Fraction(3, 2)) + Scalar.nu(-1, 2)
        assert proportion([(0, x * m, x)]) == (m, (0, 0, None))
        rows = [(0, (x * y + y) * m, x * y + y), (1, Poly.zero(VS), Poly.zero(VS)), (2, x * m, x)]
        assert proportion(rows) == (m, (0, 0, None))
        assert proportion([(0, Scalar.of(3), Scalar.of(-2))]) == (Fraction(-3, 2), (0, 0, None))

    def test_no_ratio(self):
        # c is read at x, the first term of the divisor, so the rest of the
        # row is its residual: c = 0 in the first case, 1 in the second
        x, y = Poly.var(VS, "x"), Poly.var(VS, "y")
        assert proportion([(0, x, y)]) == (None, (1, 1, (0, 1)))
        assert proportion([(0, x + y, x)]) == (None, (1, 1, (0, 1)))

    def test_zero_cases(self):
        # rows with x and y both zero are dropped; with no nonzero divisor
        # c is 0 and the residual is that of x against 0
        x, zero = Poly.var(VS, "x") * Fraction(2, 3), Poly.zero(VS)
        assert proportion([]) == (0, (0, 0, None))
        assert proportion([(0, zero, zero)]) == (0, (0, 0, None))
        assert proportion([(0, zero, x)]) == (0, (0, 0, None))
        two_thirds = Fraction(2, 3)
        want = (None, (two_thirds, 1, (1, two_thirds)))
        assert proportion([(0, zero, zero), (1, x, zero)]) == want

    def test_nu_dependent_divisor_raises(self):
        x = Poly.var(VS, "x")
        with pytest.raises(ValueError, match="depends on nu"):
            proportion([(0, Poly.zero(VS), Poly.zero(VS)), (1, x, x + x * Scalar.nu(1))])
        with pytest.raises(ValueError, match="depends on nu"):
            proportion([(0, Scalar.one(), Scalar.nu(-1))])

    def test_first_failing_row_and_its_l1_residual(self, fraction_arithmetic_forbidden):
        # c = 2, read at row 0; rows 2 and 4 miss by 1/3 and 1/2, summed
        # over one denominator, 6, with no Fraction arithmetic
        one, x, y = (0, 0, 0), (1, 0, 0), (0, 1, 0)
        rows = [
            (0, Poly(VS, {x: 2}), Poly(VS, {x: 1})),
            (1, Poly(VS, {y: 4, x: 6}), Poly(VS, {y: 2, x: 3})),
            (2, Poly(VS, {y: 2, one: Fraction(1, 3)}), Poly(VS, {y: 1})),
            (3, Poly(VS, {}), Poly(VS, {})),
            (4, Poly(VS, {x: Fraction(5, 2)}), Poly(VS, {x: 1})),
        ]
        c, t = proportion(iter(rows))
        assert c is None
        assert t == Tally(Fraction(5, 6), 2, (2, Fraction(1, 3)))
        assert t.witness("i") == "first failing i = 2, residual 1/3"

    @given(scalars, st.lists(polys(), max_size=4))
    @settings(max_examples=50)
    def test_multiples_of_the_divisors_give_the_factor(self, c, ys):
        rows = [(i, y * c, y) for i, y in enumerate(ys)]
        want = c if any(not y.is_zero() for y in ys) else 0
        assert proportion(rows) == (want, (0, 0, None))


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
sparse_vectors = st.dictionaries(st.integers(0, 5), small_rationals, max_size=4)


class TestLincomb:
    @given(st.lists(st.tuples(small_rationals, sparse_vectors), max_size=4), sparse_vectors)
    @settings(max_examples=50)
    def test_matches_fraction_sum_in_place(self, pairs, start):
        acc = dict(start)
        assert lincomb(pairs, acc) is acc
        for k in set(start).union(*(t for _, t in pairs)):
            want = start.get(k, Fraction(0)) + sum((c * t.get(k, 0) for c, t in pairs), Fraction(0))
            assert acc[k] == want

    @given(st.lists(st.tuples(small_rationals, sparse_vectors), max_size=4))
    @settings(max_examples=50)
    def test_cancelling_terms_leave_zero_values(self, pairs):
        acc = lincomb(pairs + [(-c, t) for c, t in pairs])
        assert set(acc) == set().union(*(t for _, t in pairs))
        assert not any(acc.values())

    @given(st.lists(st.tuples(laurent_polys(), sparse_vectors), max_size=3))
    @settings(max_examples=50)
    def test_poly_coefficients(self, pairs):
        acc = lincomb(pairs)
        for k in set().union(*(t for _, t in pairs)):
            assert acc[k] == sum((c * t[k] for c, t in pairs if k in t), Poly.zero(VS))

    @given(st.integers(-50, 50), st.integers(1, 12))
    def test_ratio_is_exact_and_int_when_it_divides(self, num, den):
        r = ratio(num, den)
        assert r == Fraction(num, den)
        assert (type(r) is int) == (num % den == 0)


class TestTally:
    def test_sums_counts_and_keeps_the_first_failing_row(self, fraction_arithmetic_forbidden):
        # numerators over one denominator, divided once at the end: 3/4 + 5/4
        # is 2, and no Fraction arithmetic runs on the way
        rows = iter([((0, 1), 0), ((0, 2), 3), ((1, 2), 0), ((1, 3), 5)])
        t = tally(rows, 4)
        assert t == Tally(Fraction(2), 2, ((0, 2), Fraction(3, 4)))
        assert type(t.residual) is Fraction and type(t.first[1]) is Fraction
        assert t.witness("(i, j)") == "first failing (i, j) = (0, 2), residual 3/4"

    def test_passing_rows_have_no_witness(self):
        t = tally((i, 0) for i in range(5))
        assert t == (0, 0, None) and t.witness("i") is None
        assert tally([]) == (0, 0, None)

    @given(st.lists(st.integers(0, 20), max_size=8), st.integers(1, 12))
    def test_matches_fraction_sums(self, residuals, den):
        rows = list(enumerate(residuals))
        bad = [(i, Fraction(r, den)) for i, r in rows if r]
        want = (sum((r for _, r in bad), Fraction(0)), len(bad), bad[0] if bad else None)
        assert tally(rows, den) == want


class TestVarSet:
    def test_equal_varsets_have_one_hash(self):
        a, b = varset("l1", "m1"), varset("l1", "m1")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != varset("m1", "l1") and a != ("l1", "m1")
        # a key of FlatTerms.__hash__ and of the lru_cache of _darboux_layout
        assert hash(Poly.var(a, "l1")) == hash(Poly.var(b, "l1"))
        assert _darboux_layout(a) is _darboux_layout(b)

    @pytest.mark.parametrize("field", ["names", "width", "one"])
    def test_fields_cannot_be_assigned(self, field):
        vs = varset("x")
        with pytest.raises(AttributeError):
            setattr(vs, field, getattr(vs, field))
