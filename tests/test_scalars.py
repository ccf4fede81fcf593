from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from starcayley.scalars import (
    GaussianRational,
    NotDivisible,
    Scalar,
    rational_to_str,
)

from conftest import scalar_from_json

fractions_st = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


@st.composite
def gaussians(draw):
    return GaussianRational(draw(fractions_st), draw(fractions_st))


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(0, 3))
    s = Scalar.zero()
    for _ in range(n_terms):
        k = draw(st.integers(-3, 3))
        s = s + Scalar.nu(k) * Scalar.from_gaussian(draw(gaussians()))
    return s


class TestGaussianRational:
    def test_basic_arithmetic(self):
        i = GaussianRational(Fraction(0), Fraction(1))
        assert i * i == GaussianRational(Fraction(-1), Fraction(0))
        assert (i * i.conjugate()) == GaussianRational.of(1)

    @given(gaussians(), gaussians())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(gaussians())
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == GaussianRational.of(1)


class TestScalarRing:
    @given(scalars(), scalars(), scalars())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    @given(scalars())
    def test_additive_inverse(self, a):
        assert (a - a).is_zero()

    @given(scalars(), scalars())
    def test_div_exact_roundtrip(self, a, b):
        if b.is_zero():
            return
        assert (a * b).div_exact(b) == a

    def test_div_not_exact(self):
        # nu does not divide 1 in the polynomial sense unless Laurent shifts
        # line up; (nu + 1) does not divide nu^2 evenly
        with pytest.raises(NotDivisible):
            (Scalar.nu(2) + Scalar.one()).div_exact(Scalar.nu(1) + Scalar.one())

    @given(scalars())
    def test_flip_nu_involution(self, a):
        assert a.flip_nu().flip_nu() == a

    @given(scalars(), scalars())
    def test_flip_nu_is_homomorphism(self, a, b):
        assert (a * b).flip_nu() == a.flip_nu() * b.flip_nu()
        assert (a + b).flip_nu() == a.flip_nu() + b.flip_nu()

    @given(scalars(), scalars())
    def test_eval_nu_is_homomorphism(self, a, b):
        x = Fraction(3, 2)
        assert (a * b).eval_nu(x) == a.eval_nu(x) * b.eval_nu(x)
        assert (a + b).eval_nu(x) == a.eval_nu(x) + b.eval_nu(x)

    @given(scalars())
    def test_json_roundtrip(self, a):
        assert scalar_from_json(a.to_json()) == a

    @given(fractions_st)
    def test_real_constant_hashes_like_its_fraction(self, x):
        s = Scalar.of(x)
        assert s == x and hash(s) == hash(x)
        assert {x: "x"}[s] == "x"

    def test_str_canonical_form(self):
        s = Scalar.nu(1, Fraction(2)) + Scalar.of(Fraction(1, 2)) + Scalar.i()
        text = str(s)
        assert "nu" in text and "i" in text


def test_rational_str_roundtrip():
    for v in (Fraction(0), Fraction(-7, 3), Fraction(5)):
        assert Fraction(rational_to_str(v)) == v
