"""Every coefficient of a Poly or a WeylOperator is an exact rational: an
int or a Fraction.  The constructors reject anything else, and the
artifacts the verifier builds hold nothing else."""

from fractions import Fraction

import pytest

from starcayley.poly import Poly, varset
from starcayley.scalars import Scalar
from starcayley.starrep import star_transform_operator
from starcayley.weyl import WeylOperator

VS = varset("x", "y")


@pytest.mark.parametrize("value", [0.5, 1.0, True, Scalar.one(), "1"])
def test_constructors_reject_inexact_values(value):
    with pytest.raises(TypeError):
        Poly(VS, {(1, 0, 0): value})
    with pytest.raises(TypeError):
        WeylOperator(VS, {((1, 0, 0), (0, 1)): value})


@pytest.mark.parametrize("value", [0.5, 2.0])
def test_no_float_enters_through_scaling(value):
    x = Poly.var(VS, "x")
    with pytest.raises(TypeError):
        x * value
    with pytest.raises(TypeError):
        Poly.const(VS, value)
    with pytest.raises(TypeError):
        WeylOperator.from_poly(Poly.var(VS, "x")).scale(value)


def test_integral_values_are_stored_as_int():
    p = Poly(VS, {(1, 0, 0): Fraction(4, 2), (0, 1, -1): Fraction(1, 2)})
    assert {type(c) for c in p.terms.values()} == {int, Fraction}
    half = Poly.var(VS, "x") * Fraction(1, 2)
    assert type((half + half).terms[(1, 0, 0)]) is int
    assert type((half * Fraction(4)).terms[(1, 0, 0)]) is int


def _values(objs):
    for obj in objs:
        yield from obj.terms.values()


@pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2"])
def test_artifacts_hold_only_exact_rationals(selector, instance_cache):
    ch = instance_cache("chart", selector)
    series = instance_cache("series", selector)
    artifacts = {
        "moment maps": ch.moment,
        "left-star operators": ch.left_stars,
        "rho": instance_cache("rho", selector),
        "dpi_1": series.dpi_basis(),
        "D_A": [star_transform_operator(ch, i)[0] for i in range(ch.g.dim)],
    }
    for name, objs in artifacts.items():
        types = {type(c) for c in _values(objs)}
        assert types and types <= {int, Fraction}, (name, types)
        assert all(
            c.denominator != 1 for c in _values(objs) if type(c) is Fraction
        ), f"{name}: integral Fraction"
