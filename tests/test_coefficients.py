"""Every coefficient of a Poly, a Scalar or a WeylOperator is an exact
rational, stored as a nonzero int numerator over the object's one positive
int denominator ``den``, in canonical form: gcd(den, *numerators) = 1.
The constructors reject anything but int and Fraction, every ring
operation returns that form, and the artifacts the verifier builds hold
nothing else."""

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import unpacked
from starcayley import jordan, kkt
from starcayley.hds import NoEquivalence, solve_equivalence
from starcayley.poly import Poly, varset
from starcayley.report import BUILTIN_SELECTORS, _random_poly
from starcayley.scalars import Scalar
from starcayley.starrep import bracket_sign, verify_star_transform
from starcayley.weyl import WeylOperator, star_transform, verify_covariance, verify_property_B

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


def assert_canonical(obj):
    nums = list(obj.terms.values())
    assert type(obj.den) is int and obj.den >= 1
    assert all(type(c) is int and c != 0 for c in nums)
    assert math.gcd(obj.den, *nums) == 1


def test_integral_values_are_stored_as_int():
    p = Poly(VS, {(1, 0, 0): Fraction(4, 2), (0, 1, -1): Fraction(1, 2)})
    assert unpacked(p) == {(1, 0, 0): 4, (0, 1, -1): 1} and p.den == 2
    assert {type(c) for c in p.terms.values()} == {int}
    half = Poly.var(VS, "x") * Fraction(1, 2)
    assert unpacked(half) == {(1, 0, 0): 1} and half.den == 2
    # 1/2 + 1/2 is stored as 1 over 1, and (1/2) 4 as 2 over 1
    assert unpacked(half + half) == {(1, 0, 0): 1} and (half + half).den == 1
    assert type(unpacked(half + half)[(1, 0, 0)]) is int
    assert unpacked(half * Fraction(4)) == {(1, 0, 0): 2} and (half * Fraction(4)).den == 1
    assert (half - half).terms == {} and (half - half).den == 1


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
        "D_A": [star_transform(op) for op in ch.left_stars],
    }
    for name, objs in artifacts.items():
        types = {type(c) for c in _values(objs)}
        assert types == {int}, (name, types)
        for obj in objs:
            assert_canonical(obj)


# -- every ring operation against a plain-Fraction reference -----------------

# denominators up to 4 and negative nu-powers
small = st.fractions(min_value=-9, max_value=9, max_denominator=4)
raw_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), small, max_size=5
)
raw_scalars = st.dictionaries(st.integers(-2, 2), small, max_size=3)


def _nonzero(d):
    return {k: v for k, v in d.items() if v}


def _add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return _nonzero(out)


def _mul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0) + v1 * v2
    return _nonzero(out)


@given(raw_terms, raw_terms, st.integers(-6, 6), small, raw_scalars)
@settings(max_examples=60, deadline=None)
def test_ring_results_are_canonical_and_match_fractions(a, b, k, c, s):
    p, q, sc = Poly(VS, a), Poly(VS, b), Scalar(s)
    nu_s = {(0, 0, e): v for e, v in s.items()}
    v = Fraction(-3, 2)
    evaluated = {}
    for e, x in a.items():
        evaluated[e[:-1] + (0,)] = evaluated.get(e[:-1] + (0,), 0) + x * v ** e[-1]
    cases = [
        (p + q, _add(a, b)),
        (p - q, _add(a, b, -1)),
        (-p, _add({}, a, -1)),
        (p * q, _mul(a, b)),
        (p.scale(k), _nonzero({e: x * k for e, x in a.items()})),
        (p.scale(c), _nonzero({e: x * c for e, x in a.items()})),
        (p.scale(sc), _mul(a, nu_s)),
        (p * sc, _mul(a, nu_s)),
        (p.diff("x"), _nonzero({(e[0] - 1,) + e[1:]: x * e[0] for e, x in a.items() if e[0]})),
        (p.eval_nu(v), _nonzero(evaluated)),
        (sc * sc, {(e,): x for (_, _, e), x in _mul(nu_s, nu_s).items()}),
        (sc + c, {(e,): x for (_, _, e), x in _add(nu_s, {(0, 0, 0): c}).items()}),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert unpacked(got, got.rationals()) == want


# -- the kernels of the checks run on ints --------------------------------------


@pytest.fixture(scope="module")
def sym3(instance_cache):
    """Every sym:3 artifact the kernels read, built before Fraction
    arithmetic is forbidden; sym:3 has denominators of 2 throughout."""
    ch = instance_cache("chart", "sym:3")
    ch.left_stars
    samples = [_random_poly(random.Random(7), ch) for _ in range(3)]
    dpi = instance_cache("series", "sym:3").dpi_basis()
    return ch, instance_cache("srep", "sym:3"), instance_cache("rho", "sym:3"), dpi, samples


def test_check_kernels_use_no_fraction_arithmetic(sym3, instance_cache, fraction_arithmetic_forbidden):
    ch, srep, rho, dpi, samples = sym3
    g = ch.g
    assert bracket_sign(g, rho) == (-1, (0, 0, None))
    assert bracket_sign(g, dpi) == (1, (0, 0, None))
    assert ch.hamiltonicity_residual() == (0, 0, None)
    # the Killing Gram matrix against its closed block formula, kappa = 1
    assert kkt.measure_kappa(g) == (1, (0, 0, None), None)
    assert verify_covariance(ch) == (0, 0, None)
    assert verify_property_B(ch, samples) == (0, 0, None)
    assert max(op.order() for op in ch.left_stars) == 3
    assert verify_star_transform(ch, srep, rho) == (True, (0, 0, None))
    # the measured constants kappa_h and m*, on the passing instance and
    # with h of a g(0) element, and then rho(e_1), perturbed
    assert srep.measure_kappa_h() == (1, (0, 0, None))
    parts = list(srep._basis_parts)
    p, one = parts[7], srep.zvs.one
    parts[7] = p._replace(h=[{**p.h[0], one: p.h[0].get(one, 0) + srep._den}, *p.h[1:]])
    bad = copy.copy(srep)
    bad._basis_parts = parts
    kappa, t = bad.measure_kappa_h()
    assert kappa is None and t.residual == 2
    ds = instance_cache("series", "sym:3")
    eq = solve_equivalence(g, rho, ds)
    assert (eq.alpha, str(eq.m_star)) == ("-id", "1 + 2*nu^-1")
    rho = [rho[0], rho[1] + WeylOperator.identity(srep.zvs), *rho[2:]]
    with pytest.raises(NoEquivalence, match=r"best: -id, residual 1\)"):
        solve_equivalence(g, rho, ds)


@pytest.mark.parametrize("selector, denom", [("sym:3", 2), ("spin:5", 1)])
def test_lie_build_uses_no_fraction_arithmetic(selector, denom, request):
    # g is built on integer numerators: Fractions are only constructed, for
    # E and o = mu E from the numerator and denominator of mu, and K's view
    # is formed from its integer rows on first use
    A, mu = jordan.make_algebra(selector), Fraction(-3, 2)
    want = kkt.GradedLieAlgebra(A, mu)
    request.getfixturevalue("fraction_arithmetic_forbidden")
    g = kkt.GradedLieAlgebra(A, mu)
    assert g.denom == denom
    for name in ("_structure", "_killing", "killing", "spur_vector", "E", "o", "_box_coords",
                 "theta_table"):
        assert getattr(g, name) == getattr(want, name), name


def chain_random_poly(rng, ch, max_deg=3):
    """The construction ``report._random_poly`` replaced, from the same
    draws: each monomial a ``Poly.const`` times ``Poly.var`` factors, and
    the monomials summed with ``+``."""
    p = Poly.zero(ch.vs)
    for _ in range(rng.randint(1, 4)):
        mono = Poly.const(ch.vs, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, max_deg)):
            mono = mono * Poly.var(ch.vs, rng.choice(ch.vs.names))
        p = p + mono
    return p


@pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
def test_random_poly_equals_the_chain_construction(selector, instance_cache):
    # the same samples and the same draws, so a star suite sees what it saw
    ch = instance_cache("chart", selector)
    for seed in range(1, 21):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert _random_poly(rng, ch) == chain_random_poly(ref, ch)
        assert rng.getstate() == ref.getstate()
