"""Packed term keys: every kernel on packed keys against the tuple-key
implementation it replaced (``conftest``), the round trip of keys with
negative nu-powers, the layout of each ``VarSet``, and keys pushed past
their field range, which raise instead of wrapping."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    darboux_names,
    embed_z_operator,
    over,
    term_pair_apply,
    tuple_apply,
    tuple_contractions,
    tuple_diff_terms,
    tuple_mul_add,
    tuple_pairwise_image,
    unpacked,
)
from starcayley.poly import NO_VARS, Poly, VarSet, diff_terms, mul_add, varset
from starcayley.scalars import Scalar
from starcayley.weyl import (
    WeylOperator,
    _fourier_kernel,
    _frame_kernel,
    _pairwise_image,
    _pullback_kernel,
    _frame_target,
    moyal_star,
    star_pullback,
    star_transform,
)

# five variables in no particular order, for the kernels that know no pairs
VS = VarSet(("m2", "t", "l1", "m1", "l2"))
# the Darboux pairs (l1, m1), (l2, m2), at variables a and 2 + a
PAIRED = VarSet(("l1", "l2", "m1", "m2"))

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def polys(draw, vs=VS, max_exp=3):
    """Sums of monomials with rational coefficients at nu-powers -3..3."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in vs.names) + (draw(st.integers(-3, 3)),)
        terms[e] = terms.get(e, 0) + draw(rationals)
    return Poly(vs, terms)


@st.composite
def operators(draw, vs=VS, max_exp=2):
    """Sums of terms c x^a nu^k d^b at nu-powers -3..3, half of them with
    no derivative part."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        a = tuple(draw(st.integers(0, max_exp)) for _ in vs.names) + (draw(st.integers(-3, 3)),)
        b = tuple(draw(st.integers(0, max_exp)) for _ in vs.names)
        key = (a, b if draw(st.booleans()) else (0,) * len(vs))
        terms[key] = terms.get(key, 0) + draw(rationals)
    return WeylOperator(vs, terms)


# -- the packed kernels against the tuple-key oracles ---------------------------


class TestAgainstTupleKernels:
    @given(polys(), polys(), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_mul_add(self, p, q, factor):
        acc = mul_add({}, p.terms, q.terms, VS.one, factor)
        assert unpacked(p, acc) == tuple_mul_add({}, unpacked(p), unpacked(q), factor)

    @given(polys(), st.integers(0, len(VS) - 1))
    @settings(max_examples=60, deadline=None)
    def test_diff_terms(self, p, i):
        assert unpacked(p, diff_terms(p.terms, VS, i)) == tuple_diff_terms(unpacked(p), i)

    @given(operators(), polys())
    @settings(max_examples=60, deadline=None)
    def test_apply(self, op, p):
        assert op.apply(p) == tuple_apply(op, p)
        # a second apply agrees: the first left nothing behind on op
        assert op.apply(p) == tuple_apply(op, p)

    @given(polys(vs=PAIRED, max_exp=2), polys(vs=PAIRED, max_exp=2))
    @settings(max_examples=60, deadline=None)
    def test_moyal_star(self, u, v):
        want = over(Poly, PAIRED, tuple_contractions(u, v, *darboux_names(PAIRED)), u.den * v.den)
        assert moyal_star(u, v) == want

    @given(
        operators(vs=PAIRED),
        st.sampled_from([_fourier_kernel, _frame_kernel, _pullback_kernel]),
    )
    @settings(max_examples=80, deadline=None)
    def test_pairwise_image(self, op, kernel):
        pairs, target = list(zip(*darboux_names(PAIRED))), _frame_target(2)
        assert _pairwise_image(op, kernel, target) == tuple_pairwise_image(op, pairs, kernel, target)

    @given(operators(vs=PAIRED))
    @settings(max_examples=80, deadline=None)
    def test_pull_back_inverts_the_star_transform(self, op):
        image = star_transform(op)
        assert image.vs == _frame_target(2) and star_pullback(image, PAIRED) == op

    @given(operators(vs=_frame_target(2)))
    @settings(max_examples=80, deadline=None)
    def test_star_transform_inverts_the_pull_back(self, op):
        assert star_transform(star_pullback(op, PAIRED)) == op


@st.composite
def z_operators(draw):
    """(op, n): an operator in the n z-variables of ``_frame_target(n)``, n
    = 1 or 3, whose key fields are wider than those of the 2n frame
    variables at n = 1 and at n = 3."""
    n = draw(st.sampled_from([1, 3]))
    return draw(operators(vs=VarSet(_frame_target(n).names[:n]))), n


@given(z_operators())
@settings(max_examples=80, deadline=None)
def test_pull_back_reads_z_operators_as_first_halves(opn):
    # the pull-back of an operator in z alone against the pull-back of its
    # tuple-key embedding in (z, zbar), its zbar exponents zero
    op, n = opn
    frame, chart = _frame_target(n), VarSet(tuple(f"{x}{a + 1}" for x in "lm" for a in range(n)))
    assert star_pullback(op, chart) == star_pullback(embed_z_operator(op, frame), chart)


# -- keys and their layout ----------------------------------------------------------


@given(polys(), operators())
def test_negative_nu_powers_round_trip(p, op):
    assert Poly(VS, unpacked(p, p.rationals())) == p
    assert WeylOperator(VS, unpacked(op, op.rationals())) == op


def test_negative_nu_powers_at_the_ends_of_the_range():
    vs = varset(*(f"x{i}" for i in range(8)))
    low, high = -vs.nu_offset, vs.nu_offset - 1
    for k in (low, -1, 0, high):
        e = (1, 0, 2, 0, 0, 0, 0, 3, k)
        assert unpacked(Poly(vs, {e: 1})) == {e: 1}
        assert unpacked(WeylOperator(vs, {(e, e[:-1]): 1})) == {(e, e[:-1]): 1}
    assert unpacked(Scalar.nu(-5, 2)) == {(-5,): 2}
    assert Scalar.nu(-5, 2).coeffs == {-5: 2}


@pytest.mark.parametrize("n, width", [(0, 64), (1, 32), (2, 16), (3, 16), (4, 8), (7, 8), (12, 8)])
def test_field_width_per_varset(n, width):
    vs = varset(*(f"x{i}" for i in range(n)))
    assert vs.width == width
    # the layout is computed once, when the varset is made, and kept on it
    assert {"width", "one", "mono", "invalid", "fmt"} <= vars(vs).keys()
    assert vs.one == vs.nu_offset << width * n
    if n <= 7:
        # the largest stored Poly key fits in 64 bits
        top = (1 << width - 1) - 1
        assert max(Poly(vs, {(top,) * n + (vs.nu_offset - 1,): 1}).terms) < 1 << 64


@given(polys(), operators())
def test_pickle_and_deepcopy_round_trip(p, op):
    for x in (p, op, Scalar.nu(-2, 3)):
        assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x


def test_key_of_one_is_the_packed_constant():
    vs = varset("x", "y")
    assert Poly.const(vs, 3).terms == {vs.one: 3}
    assert WeylOperator.identity(vs).terms == {vs.one << vs.nu_shift: 1}
    assert Scalar.of(3).terms == {NO_VARS.one: 3}


# -- a key pushed past its field range raises -----------------------------------


def test_poly_exponent_past_its_field_raises():
    vs = varset(*(f"x{i}" for i in range(8)))
    top = (1 << vs.width - 1) - 1
    x3 = Poly.var(vs, "x3")
    big = Poly(vs, {(0, 0, 0, top, 0, 0, 0, 0, 0): 1})
    assert unpacked(big * Poly.var(vs, "x2")) == {(0, 0, 1, top, 0, 0, 0, 0, 0): 1}
    with pytest.raises(OverflowError, match=r"^x3 = "):
        big * x3
    with pytest.raises(OverflowError, match=r"^x3 = "):
        big**2
    with pytest.raises(OverflowError, match=r"^x3 = "):
        x3 ** (top + 1)
    with pytest.raises(OverflowError, match=r"^x3 = "):
        Poly(vs, {(0, 0, 0, top + 1, 0, 0, 0, 0, 0): 1})
    with pytest.raises(OverflowError, match=r"^x1 = "):
        Poly(vs, {(0, -1, 0, 0, 0, 0, 0, 0, 0): 1})


def test_poly_nu_power_past_its_field_raises():
    vs = varset(*(f"x{i}" for i in range(8)))
    half = vs.nu_offset
    p = Poly(vs, {(0,) * 8 + (half - 1,): 1})
    q = Poly(vs, {(0,) * 8 + (-half,): 1})
    assert unpacked(p * q) == {(0,) * 8 + (-1,): 1}
    for bad in (lambda: p * p, lambda: q * q, lambda: p * Scalar.nu(1), lambda: q * Scalar.nu(-1)):
        with pytest.raises(OverflowError, match=r"^nu = "):
            bad()
    with pytest.raises(OverflowError, match=r"^nu = "):
        Poly(vs, {(0,) * 8 + (half,): 1})
    with pytest.raises(OverflowError, match=r"^nu = "):
        Scalar.nu(NO_VARS.nu_offset)


def test_operator_field_past_its_range_raises():
    vs = varset(*(f"x{i}" for i in range(8)))
    top, half = (1 << vs.width - 1) - 1, vs.nu_offset
    zero = (0,) * 8
    x0 = WeylOperator.from_poly(Poly.var(vs, "x0"))
    d0 = WeylOperator.partial(vs, "x0")
    big_x = WeylOperator(vs, {((top,) + zero[1:] + (0,), zero): 1})
    big_d = WeylOperator(vs, {(zero + (0,), (top,) + zero[1:]): 1})
    big_nu = WeylOperator(vs, {(zero + (half - 1,), zero): 1})
    with pytest.raises(OverflowError, match=r"^x0 = "):
        big_x * x0
    with pytest.raises(OverflowError, match=r"^d_x0 = "):
        d0 * big_d
    with pytest.raises(OverflowError, match=r"^nu = "):
        big_nu * big_nu
    with pytest.raises(OverflowError, match=r"^nu = "):
        big_nu.scale(Scalar.nu(1))
    with pytest.raises(OverflowError, match=r"^d_x1 = "):
        WeylOperator(vs, {(zero + (0,), (0, top + 1) + zero[2:]): 1})
    # a move of the normal ordering lowers both fields back into range
    assert (d0 * big_x).terms


# -- apply at the edges of the key fields -------------------------------------------

# 32-, 16-, 8- and 8-bit fields; at eight variables a Poly key is 72 bits wide
EDGE_SIZES = [1, 3, 4, 8]


def _field_edges(top: int, width: int) -> list:
    """(e_i, b_i) in one field: b <= e with both at 0, 1 or top, and b > e
    by one at the bottom and at the top of the range, or by all of it.  A
    32-bit field keeps b small: b = top there is 2^31 - 1 derivatives, and
    b = e = top weighs (2^31 - 1)!."""
    cases = [(0, 0), (1, 1), (top, 0), (top, 1), (0, 1), (1, 2)]
    return cases + [(top - 1, top), (0, top), (top, top)] * (width <= 16)


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_apply_at_the_edges_of_the_key_fields(n):
    # one term against one term: field i takes each edge case, every other
    # field e = b = 1, so b > e in at most field i; a kept term has field i
    # at top, and the nu-powers take both ends of their range in turn
    vs = varset(*(f"x{i}" for i in range(n)))
    top, half = (1 << vs.width - 1) - 1, vs.nu_offset
    nu_ends = [(0, -half), (0, half - 1), (-half, 0), (half - 1, 0), (-half, half - 1)]
    for i in range(n):
        for r, (e_i, b_i) in enumerate(_field_edges(top, vs.width)):
            e, b = ([x if j == i else 1 for j in range(n)] for x in (e_i, b_i))
            a = [top - (e_i - b_i) if j == i and b_i <= e_i else 0 for j in range(n)]
            k_op, k_p = nu_ends[(i + r) % len(nu_ends)]
            op = WeylOperator(vs, {((*a, k_op), tuple(b)): Fraction(3, 2)})
            p = Poly(vs, {(*e, k_p): -2})
            got = op.apply(p)
            assert got == term_pair_apply(op, p)
            assert got.is_zero() == (b_i > e_i)


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_apply_past_the_edges_of_the_key_fields_raises(n):
    vs = varset(*(f"x{i}" for i in range(n)))
    top, half = (1 << vs.width - 1) - 1, vs.nu_offset
    zero, unit = (0,) * n, (1,) + (0,) * (n - 1)
    x0 = Poly.var(vs, "x0")
    # x0^top times x0, and x0^top d_x0 on x0^2
    with pytest.raises(OverflowError, match=r"^x0 = "):
        WeylOperator(vs, {((top, *zero[1:], 0), zero): 1}).apply(x0)
    with pytest.raises(OverflowError, match=r"^x0 = "):
        WeylOperator(vs, {((top, *zero[1:], 0), unit): 1}).apply(x0 * x0)
    # one step past either end of the nu range, after a derivative
    for k_op, k_p in ((half - 1, 1), (-half, -1)):
        op = WeylOperator(vs, {((*zero, k_op), unit): 1})
        with pytest.raises(OverflowError, match=r"^nu = "):
            op.apply(Poly(vs, {(*unit, k_p): 1}))
    # at the ends themselves the result is kept
    assert WeylOperator(vs, {((top - 1, *zero[1:], half - 1), unit): 1}).apply(x0 * x0).terms


def test_star_transform_nu_power_past_its_field_raises():
    # the source, one nu-step down, leaves the range from its bottom, and
    # its range test raises
    zero, low = (0,) * 4, -PAIRED.nu_offset
    with pytest.raises(OverflowError, match=r"^nu = "):
        star_transform(WeylOperator(PAIRED, {(zero + (low,), zero): 1}))
    # one step up, the image sits at the bottom itself, and pulls back
    op = WeylOperator(PAIRED, {(zero + (low + 1,), zero): 3, ((1, 0, 1, 0, low + 1), zero): 1})
    image = star_transform(op)
    assert image.vs == _frame_target(2) and min(k[0][-1] for k in unpacked(image)) == low
    assert star_pullback(image, PAIRED) == op


def test_builtin_left_stars_stay_far_inside_the_range(instance_cache):
    # every field of the sym:3 left-star operators is far from its bound
    ch = instance_cache("chart", "sym:3")
    for op in ch.left_stars:
        for a, b in unpacked(op):
            assert max(a[:-1] + b) < 8 and abs(a[-1]) < 8


# -- Scalar.of and Scalar.nu build the canonical form directly ----------------------


@pytest.mark.parametrize(
    "c", [0, 1, -1, 7, -12, Fraction(0), Fraction(6, 3), Fraction(-4, 6), Fraction(10, -4)]
)
def test_scalar_of_and_nu_match_the_generic_constructor(c):
    for got, want in ((Scalar.of(c), Scalar({0: c})), (Scalar.nu(-2, c), Scalar({-2: c}))):
        assert got == want
        assert got.den == want.den and got.terms == want.terms
        assert hash(got) == hash(want)
        assert all(type(v) is int for v in got.terms.values()) and type(got.den) is int


@pytest.mark.parametrize("value", [0.5, 1.0, True, False])
def test_scalar_of_and_nu_reject_floats_and_bools(value):
    with pytest.raises(TypeError):
        Scalar.of(value)
    with pytest.raises(TypeError):
        Scalar.nu(1, value)
