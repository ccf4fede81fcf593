import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from starcayley.scalars import Scalar, rational_to_str

SRC = Path(__file__).resolve().parent.parent / "src"

fractions_st = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(0, 3))
    s = Scalar.zero()
    for _ in range(n_terms):
        s = s + Scalar.nu(draw(st.integers(-3, 3)), draw(fractions_st))
    return s


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
    def test_eval_nu_is_homomorphism(self, a, b):
        x = Fraction(3, 2)
        assert (a * b).eval_nu(x) == a.eval_nu(x) * b.eval_nu(x)
        assert (a + b).eval_nu(x) == a.eval_nu(x) + b.eval_nu(x)

    @given(fractions_st)
    def test_real_constant_hashes_like_its_fraction(self, x):
        s = Scalar.of(x)
        assert s == x and hash(s) == hash(x)
        assert {x: "x"}[s] == "x"

    def test_str_canonical_form(self):
        s = Scalar.nu(1, Fraction(2)) + Scalar.of(Fraction(1, 2)) + Scalar.nu(-2, Fraction(-3, 4))
        assert str(s) == "2*nu + 1/2 + -3/4*nu^-2"

    @given(scalars())
    def test_coefficients_are_nonzero_fractions(self, a):
        for s in (a, a * a, -a):
            assert all(type(c) is Fraction and c != 0 for c in s.coeffs.values())


def test_rational_str_roundtrip():
    for v in (Fraction(0), Fraction(-7, 3), Fraction(5)):
        assert Fraction(rational_to_str(v)) == v


@pytest.mark.parametrize("value", [0.5, 1.0])
def test_rejects_float_coefficients(value):
    with pytest.raises(TypeError):
        Scalar({0: value})
    with pytest.raises(TypeError):
        Scalar.nu(1, value)
    with pytest.raises(TypeError):
        Scalar.one() * value


@pytest.mark.parametrize("module", ["starcayley.scalars", "starcayley.poly"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    out = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
