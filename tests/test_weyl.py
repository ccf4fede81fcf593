import copy
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    contraction_b3,
    contraction_covariance,
    darboux_names,
    multiset_left_star_operator,
    poly_abs,
    term_pair_apply,
    unpacked,
)
from starcayley.poly import Poly, VarSet, varset
from starcayley.report import BUILTIN_SELECTORS, _random_poly
from starcayley.scalars import Scalar
from starcayley.weyl import (
    WeylOperator,
    _cubic_b3,
    _frame_kernel,
    _frame_target,
    _pairwise_image,
    _swapped_cubic,
    first_order,
    first_order_bracket,
    first_order_parts,
    fourier_conjugate,
    holomorphic_frame,
    left_star_operator,
    moyal_star,
    split_first_order,
    star_transform,
    uses_only,
    verify_covariance,
    verify_property_B,
)

VS = varset("l1", "m1")


def mult_var(vs: VarSet, name: str) -> WeylOperator:
    """Multiplication by the variable ``name``."""
    return WeylOperator.from_poly(Poly.var(vs, name))


def reference_moyal_star(u, v, l_names, m_names):
    """u star v = sum_k (nu^k / k!) B^k (u (x) v), merged back to one copy.

    B = sum_a d_{L.l_a} d_{R.m_a} - d_{L.m_a} d_{R.l_a} acts on the product
    of u in the left copy and v in the right copy of a doubled variable set;
    each order is merged back by substitution.  Slow, but shares nothing
    with the direct formula of ``moyal_star``.
    """
    vs = u.vs
    vs2 = VarSet(tuple(f"L.{x}" for x in vs.names) + tuple(f"R.{x}" for x in vs.names))
    uu = u.substitute({x: Poly.var(vs2, f"L.{x}") for x in vs.names}, vs2)
    vv = v.substitute({x: Poly.var(vs2, f"R.{x}") for x in vs.names}, vs2)
    merge = {f"{side}.{x}": Poly.var(vs, x) for side in "LR" for x in vs.names}

    def bidiff(p):
        acc = Poly.zero(vs2)
        for la, ma in zip(l_names, m_names):
            acc = acc + p.diff(f"L.{la}").diff(f"R.{ma}") - p.diff(f"L.{ma}").diff(f"R.{la}")
        return acc

    result = Poly.zero(vs)
    term, k = uu * vv, 0
    while not term.is_zero():
        result = result + term.substitute(merge, vs) * Scalar.nu(k, Fraction(1, factorial(k)))
        term = bidiff(term)
        k += 1
    return result


def map_generators(op, target, x_images, d_images):
    """The algebra homomorphism fixed by generator images, word by word.

    Each normal-ordered word x^a d^b maps to the composition of the
    generator images in the same order (all multiplications, then all
    derivatives), composed with ``*`` so the result is again normal-ordered.
    Slow, but shares nothing with the per-pair kernels of the Fourier step
    and the holomorphic frame."""
    acc = WeylOperator.zero(target)
    for (a, b), c in unpacked(op, op.rationals()).items():
        word = WeylOperator.identity(target)
        for i, name in enumerate(op.vs.names):
            for _ in range(a[i]):
                word = word * x_images[name]
        for i, name in enumerate(op.vs.names):
            for _ in range(b[i]):
                word = word * d_images[name]
        acc = acc + word.scale(Scalar.nu(a[-1], c))
    return acc


def paired_operators(first, second):
    """Operators on 1-2 Darboux pairs named first1.., second1.."""
    return st.sampled_from([1, 2]).flatmap(
        lambda k: operators(
            vs=VarSet(
                tuple(f"{first}{a + 1}" for a in range(k))
                + tuple(f"{second}{a + 1}" for a in range(k))
            )
        )
    )


# five variables in no particular order, for what knows no Darboux pairs
MIXED_VS = VarSet(("m2", "t", "l1", "m1", "l2"))
# two Darboux pairs, (l1, m1) and (l2, m2), at variables a and 2 + a
PAIRED_VS = VarSet(("l1", "l2", "m1", "m2"))


@st.composite
def laurent_polys(draw, vs=MIXED_VS, max_exp=2):
    """Sums of monomials with rational coefficients at nu-powers -2..2."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in vs.names) + (draw(st.integers(-2, 2)),)
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        terms[e] = terms.get(e, 0) + c
    return Poly(vs, terms)


@st.composite
def nu_polys(draw, vs=PAIRED_VS, max_deg=5):
    """Sums of monomials of degree up to max_deg with rational coefficients
    of denominator up to 4 at nu-powers -1..2."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        e = [0] * len(vs)
        for _ in range(draw(st.integers(0, max_deg))):
            e[draw(st.integers(0, len(vs) - 1))] += 1
        key = (*e, draw(st.integers(-1, 2)))
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        terms[key] = terms.get(key, 0) + c
    return Poly(vs, terms)


@st.composite
def laurent_operators(draw, vs=MIXED_VS, max_exp=2):
    """Sums of terms c x^a nu^k d^b with rational c at nu-powers -2..2;
    about half of them have no derivative part, b = 0."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        a = tuple(draw(st.integers(0, max_exp)) for _ in vs.names) + (draw(st.integers(-2, 2)),)
        b = tuple(draw(st.integers(0, max_exp)) for _ in vs.names)
        key = (a, b if draw(st.booleans()) else (0,) * len(vs))
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        terms[key] = terms.get(key, 0) + c
    return WeylOperator(vs, terms)


@st.composite
def polys(draw, vs=VS, max_deg=3):
    p = Poly.zero(vs)
    for _ in range(draw(st.integers(0, 3))):
        mono = Poly.const(vs, draw(st.fractions(min_value=-6, max_value=6, max_denominator=3)))
        for _ in range(draw(st.integers(0, max_deg))):
            mono = mono * Poly.var(vs, draw(st.sampled_from(vs.names)))
        p = p + mono
    return p


@st.composite
def operators(draw, vs=VS):
    op = WeylOperator.zero(vs)
    gens = [mult_var(vs, x) for x in vs.names] + [
        WeylOperator.partial(vs, x) for x in vs.names
    ]
    for _ in range(draw(st.integers(0, 3))):
        word = WeylOperator.identity(vs).scale(
            Scalar.of(draw(st.fractions(min_value=-4, max_value=4, max_denominator=2)))
        )
        for _ in range(draw(st.integers(0, 3))):
            word = word * draw(st.sampled_from(gens))
        op = op + word
    return op


class TestNormalOrdering:
    def test_exponent_length_must_match_varset(self):
        with pytest.raises(ValueError):
            WeylOperator(VS, {((1,), (0, 0)): Scalar.one()})
        with pytest.raises(ValueError):
            WeylOperator(VS, {((1, 0), (0, 0, 1)): Scalar.one()})

    def test_canonical_commutation(self):
        x = mult_var(VS, "l1")
        d = WeylOperator.partial(VS, "l1")
        assert d * x - x * d == WeylOperator.identity(VS)

    def test_euler_operator_square(self):
        x = mult_var(VS, "l1")
        d = WeylOperator.partial(VS, "l1")
        e = x * d
        expected = (x * x) * (d * d) + e
        assert e * e == expected

    @given(operators(), operators(), polys())
    @settings(max_examples=40, deadline=None)
    def test_composition_matches_application(self, p_op, q_op, f):
        assert (p_op * q_op).apply(f) == p_op.apply(q_op.apply(f))

    @given(operators(), operators(), operators())
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    def test_poly_and_rational_operands_raise(self):
        # a Poly's keys are not operator keys: only from_poly makes one an operator
        vs = varset("x", "y")
        op, p = WeylOperator.partial(vs, "x"), Poly.var(vs, "x")
        assert op * WeylOperator.from_poly(p) == WeylOperator.identity(vs) + mult_var(vs, "x") * op
        for bad in (lambda: op * p, lambda: op + p, lambda: p + op, lambda: op - p,
                    lambda: op + 1, lambda: op * 2, lambda: 2 * op):
            with pytest.raises(TypeError):
                bad()


class TestApply:
    @given(laurent_operators(), laurent_polys())
    @settings(max_examples=150, deadline=None)
    def test_matches_term_pair_oracle(self, op, p):
        assert op.apply(p) == term_pair_apply(op, p)

    @pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
    def test_left_stars_match_term_pair_oracle(self, selector, instance_cache):
        ch = instance_cache("chart", selector)
        for seed in (1, 2, 3):
            u = _random_poly(random.Random(seed), ch)
            for op in ch.left_stars:
                assert op.apply(u) == term_pair_apply(op, u)


@st.composite
def split_operator_pairs(draw):
    """Two first-order operators as split parts (f, [a_j]) in 1-3 variables,
    with rational nu-Laurent coefficients."""
    vs = VarSet(tuple(f"x{i + 1}" for i in range(draw(st.integers(1, 3)))))

    def parts():
        return draw(laurent_polys(vs)), [draw(laurent_polys(vs)) for _ in vs.names]

    return parts(), parts()


class TestFirstOrder:
    @given(split_operator_pairs())
    @settings(max_examples=40, deadline=None)
    def test_split_inverts_constructor(self, xy):
        f, a = xy[0]
        assert split_first_order(first_order(f, a)) == (f, a)

    @given(split_operator_pairs())
    @settings(max_examples=40, deadline=None)
    def test_bracket_equals_composed_commutator(self, xy):
        # composition stays the independent cross-check of the bracket
        x, y = xy
        X, Y = first_order(*x), first_order(*y)
        # the parts are numerators over the product of the two denominators
        parts = first_order_bracket(first_order_parts(X), first_order_parts(Y))
        f, *a = (Poly._reduced(X.vs, t, X.den * Y.den) for t in parts)
        assert first_order(f, a) == X * Y - Y * X

    def test_second_order_term_raises(self):
        d = WeylOperator.partial(VS, "l1")
        with pytest.raises(ValueError):
            split_first_order(d + d * d)


class TestMoyalStar:
    def test_darboux_pair(self):
        l = Poly.var(VS, "l1")
        m = Poly.var(VS, "m1")
        nu = Poly.const(VS, 0) + Poly.const(VS, 1) * Scalar.nu(1)
        assert moyal_star(l, m) == l * m + nu
        assert moyal_star(m, l) == l * m - nu

    @given(polys())
    def test_unit(self, p):
        one = Poly.const(VS, 1)
        assert moyal_star(p, one) == p
        assert moyal_star(one, p) == p

    @given(polys(), polys(), polys())
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, p, q, r):
        star = moyal_star
        assert star(star(p, q), r) == star(p, star(q, r))

    @given(polys(), polys())
    @settings(max_examples=30, deadline=None)
    def test_classical_limit(self, p, q):
        d = moyal_star(p, q) - p * q
        # only positive nu-powers survive in the difference
        assert all(e[-1] >= 1 for e in unpacked(d))

    @given(laurent_polys(PAIRED_VS), laurent_polys(PAIRED_VS))
    @settings(max_examples=40, deadline=None)
    def test_matches_doubled_variable_reference(self, u, v):
        assert moyal_star(u, v) == reference_moyal_star(u, v, *darboux_names(PAIRED_VS))


class TestLeftStarOperator:
    def test_linear_symbol(self):
        l = Poly.var(VS, "l1")
        op = left_star_operator(l)
        expected = mult_var(VS, "l1") + WeylOperator.partial(VS, "m1").scale(
            Scalar.nu(1)
        )
        assert op == expected

    def test_constant_symbol(self):
        op = left_star_operator(Poly.const(VS, 1))
        assert op == WeylOperator.identity(VS)

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_moyal(self, lam, u):
        op = left_star_operator(lam)
        assert op.apply(u) == moyal_star(lam, u)

    @given(polys())
    def test_order_bounded_by_degree(self, lam):
        op = left_star_operator(lam)
        assert op.order() <= lam.total_degree()

    @pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
    def test_matches_multiset_oracle_on_builtins(self, selector, instance_cache):
        # the prefix walk against differentiation from scratch per multiset
        ch = instance_cache("chart", selector)
        for i, lam in enumerate(ch.moment):
            want = multiset_left_star_operator(lam, *darboux_names(ch.vs))
            assert left_star_operator(lam) == want, i

    @given(nu_polys())
    @settings(max_examples=60, deadline=None)
    def test_matches_multiset_oracle(self, lam):
        # degree up to 5, coefficients at several nu-powers and with
        # denominators other than 1: the walk may assume none of what the
        # built-ins give
        want = multiset_left_star_operator(lam, *darboux_names(PAIRED_VS))
        assert left_star_operator(lam) == want


class TestFourierConjugation:
    def test_generator_images(self):
        m_mult = mult_var(VS, "m1")
        img = fourier_conjugate(m_mult)
        tvs = img.vs
        # kernel sign -1 in the rotated variable: m -> d/deta, d/dm -> -eta
        assert tvs == VarSet(("l1", "h1")) and img == WeylOperator.partial(tvs, "h1")
        dm = WeylOperator.partial(VS, "m1")
        assert fourier_conjugate(dm) == -mult_var(tvs, "h1")
        for gen in (mult_var(VS, "l1"), WeylOperator.partial(VS, "l1")):
            assert str(fourier_conjugate(gen)) == str(gen)

    @given(operators(), operators())
    @settings(max_examples=25, deadline=None)
    def test_homomorphism(self, a, b):
        assert fourier_conjugate(a * b) == fourier_conjugate(a) * fourier_conjugate(b)

    @given(paired_operators("l", "m"))
    @settings(max_examples=30, deadline=None)
    def test_matches_generator_map(self, op):
        # the per-pair kernels against map_generators, which composes the
        # generator images l -> l, d_l -> d_l, m -> d_eta, d_m -> -eta
        # factor by factor with normal ordering
        l_names, m_names = darboux_names(op.vs)
        img = fourier_conjugate(op)
        tvs = img.vs
        x_images, d_images = {}, {}
        for la, ma, ea in zip(l_names, m_names, darboux_names(tvs)[1]):
            x_images[la] = mult_var(tvs, la)
            d_images[la] = WeylOperator.partial(tvs, la)
            x_images[ma] = WeylOperator.partial(tvs, ea)
            d_images[ma] = -mult_var(tvs, ea)
        assert img == map_generators(op, tvs, x_images, d_images)

    def test_ccr_preserved(self):
        # the image of [d_m, m] = 1 must again be the identity
        m_mult = mult_var(VS, "m1")
        dm = WeylOperator.partial(VS, "m1")
        img = fourier_conjugate(dm * m_mult - m_mult * dm)
        assert img == WeylOperator.identity(img.vs)


class TestHolomorphicFrame:
    def _roundtrip_names(self):
        fvs = VarSet(("l1", "h1"))
        return fvs

    def test_z_multiplication_pulls_back(self):
        fvs = self._roundtrip_names()
        # mult by l + nu eta becomes mult by z, and l - nu eta mult by zbar
        l, eta = mult_var(fvs, "l1"), mult_var(fvs, "h1")
        img = holomorphic_frame(l + eta.scale(Scalar.nu(1)))
        tvs = img.vs
        assert tvs == VarSet(("z1", "w1")) and img == mult_var(tvs, "z1")
        assert holomorphic_frame(l - eta.scale(Scalar.nu(1))) == mult_var(tvs, "w1")

    def test_dz_formula(self):
        fvs = self._roundtrip_names()
        # (1/2nu)(nu d_l + d_eta) = d_z and (1/2nu)(nu d_l - d_eta) = d_zbar
        dl = WeylOperator.partial(fvs, "l1").scale(Scalar.nu(1))
        deta = WeylOperator.partial(fvs, "h1")
        half_nu_inv = Scalar.nu(-1, Fraction(1, 2))
        img = holomorphic_frame((dl + deta).scale(half_nu_inv))
        assert img == WeylOperator.partial(img.vs, "z1")
        assert holomorphic_frame((dl - deta).scale(half_nu_inv)) == WeylOperator.partial(img.vs, "w1")

    def test_ccr_preserved(self):
        fvs = self._roundtrip_names()
        x = mult_var(fvs, "h1")
        d = WeylOperator.partial(fvs, "h1")
        img = holomorphic_frame(d * x - x * d)
        assert img == WeylOperator.identity(img.vs)

    @given(operators(vs=VarSet(("l1", "h1"))), operators(vs=VarSet(("l1", "h1"))))
    @settings(max_examples=20, deadline=None)
    def test_homomorphism(self, a, b):
        assert holomorphic_frame(a * b) == holomorphic_frame(a) * holomorphic_frame(b)

    @given(paired_operators("l", "h"))
    @settings(max_examples=30, deadline=None)
    def test_matches_generator_map(self, op):
        # the per-pair kernels against map_generators, which composes the
        # generator images factor by factor with normal ordering
        l_names, eta_names = darboux_names(op.vs)
        img = holomorphic_frame(op)
        tvs = img.vs
        x_images, d_images = {}, {}
        for a, (la, ea) in enumerate(zip(l_names, eta_names)):
            mz, mw = mult_var(tvs, f"z{a + 1}"), mult_var(tvs, f"w{a + 1}")
            dz, dw = WeylOperator.partial(tvs, f"z{a + 1}"), WeylOperator.partial(tvs, f"w{a + 1}")
            x_images[la] = (mz + mw).scale(Scalar.of(Fraction(1, 2)))
            x_images[ea] = (mz - mw).scale(Scalar.nu(-1, Fraction(1, 2)))
            d_images[la] = dz + dw
            d_images[ea] = (dz - dw).scale(Scalar.nu(1))
        assert img == map_generators(op, tvs, x_images, d_images)

    def test_composite_images(self):
        # Fourier, then the frame: l -> (z+zbar)/2, d_l -> d_z + d_zbar,
        # m -> nu (d_z - d_zbar), d_m -> -(z - zbar)/(2 nu); the same images as
        # the unrotated m -> -i d_xi, d_m -> -i xi followed by z = l + i nu xi
        tvs = VarSet(("z1", "w1"))
        z, w = mult_var(tvs, "z1"), mult_var(tvs, "w1")
        dz, dw = WeylOperator.partial(tvs, "z1"), WeylOperator.partial(tvs, "w1")
        want = {
            mult_var(VS, "l1"): (z + w).scale(Scalar.of(Fraction(1, 2))),
            WeylOperator.partial(VS, "l1"): dz + dw,
            mult_var(VS, "m1"): (dz - dw).scale(Scalar.nu(1)),
            WeylOperator.partial(VS, "m1"): (w - z).scale(Scalar.nu(-1, Fraction(1, 2))),
        }
        for gen, image in want.items():
            img = holomorphic_frame(fourier_conjugate(gen))
            assert img.vs == tvs and img == image

    def test_uses_only(self):
        tvs = VarSet(("z1", "w1"))
        op = mult_var(tvs, "z1") * WeylOperator.partial(tvs, "z1")
        assert uses_only(op, ("z1",))
        assert not uses_only(op * WeylOperator.partial(tvs, "w1"), ("z1",))


class TestDarbouxLayout:
    # pair a of 2n variables is (a, n + a); an odd varset has no such pairs
    ODD_VS = VarSet(("l1", "m1", "x"))

    @pytest.mark.parametrize(
        "transform",
        [
            pytest.param(lambda p: moyal_star(p, p), id="moyal_star"),
            pytest.param(left_star_operator, id="left_star_operator"),
            pytest.param(lambda p: fourier_conjugate(WeylOperator.from_poly(p)), id="fourier_conjugate"),
            pytest.param(lambda p: holomorphic_frame(WeylOperator.from_poly(p)), id="holomorphic_frame"),
            pytest.param(lambda p: star_transform(WeylOperator.from_poly(p)), id="star_transform"),
        ],
    )
    def test_odd_varset_is_refused(self, transform):
        # a variable without a partner would otherwise only multiply, or be
        # dropped from the image
        with pytest.raises(ValueError, match="odd number of variables"):
            transform(Poly.var(self.ODD_VS, "x"))

    @pytest.mark.parametrize("size", [1, 3, 5, 6])
    def test_pairwise_image_refuses_a_source_of_another_size(self, size):
        # the target's 2 pairs take a source of 2 pairs or of their 2 first halves
        op = mult_var(VarSet(tuple(f"x{i}" for i in range(size))), "x0")
        with pytest.raises(ValueError, match="neither 2 Darboux pairs nor their first halves"):
            _pairwise_image(op, _frame_kernel, _frame_target(2))


def test_property_b_fails_on_perturbed_operator(instance_cache):
    ch = copy.copy(instance_cache("chart", "spin:2"))
    stars = list(ch.left_stars)
    assert verify_property_B(ch, ch.moment) == (0, 0, None)
    stars[1] = stars[1] + WeylOperator.identity(ch.vs)
    ch.left_stars = stars
    assert max(op.order() for op in stars) == 3
    tally = verify_property_B(ch, ch.moment)
    # the identity added to the second operator adds u itself to each image,
    # and the first sample is lambda_0 = m1
    assert tally.residual == sum(poly_abs(u) for u in ch.moment)
    assert tally.failures == sum(not u.is_zero() for u in ch.moment) > 0
    assert ch.moment[0] == Poly.var(ch.vs, "m1")
    assert tally.witness("(i, sample)") == "first failing (i, sample) = (1, 0), residual 1"


def full_commutator_covariance(ch):
    """(residual, failing pairs) of covariance from the two star products
    of every pair, the form ``verify_covariance`` reduces to odd orders."""
    two_nu = Scalar.nu(1, Fraction(2))
    res, bad = Fraction(0), 0
    for i in range(ch.g.dim):
        for j in range(i + 1, ch.g.dim):
            u, v = ch.moment[i], ch.moment[j]
            comm = moyal_star(u, v) - moyal_star(v, u)
            r = poly_abs(comm - ch.poisson(u, v) * two_nu)
            if r:
                res, bad = res + r, bad + 1
    return res, bad


def _perturbed_chart(ch, edits):
    """A copy of ch whose moment maps lambda_i gain edits[i](l1, m1)."""
    ch = copy.copy(ch)
    l1, m1 = Poly.var(ch.vs, "l1"), Poly.var(ch.vs, "m1")
    moment = list(ch.moment)
    for i, edit in edits.items():
        moment[i] = moment[i] + edit(l1, m1)
    ch.moment = moment
    return ch


@pytest.mark.parametrize("selector", ["spin:2", "spin:3", "sym:2", "spin:4", "spin:5", "sym:3"])
def test_covariance_matches_full_commutator(selector, instance_cache):
    ch = instance_cache("chart", selector)
    assert verify_covariance(ch)[:2] == full_commutator_covariance(ch) == (0, 0)


@pytest.mark.parametrize(
    "edits",
    [
        pytest.param({0: lambda l, m: l * m * m}, id="cubic"),
        # a nu-dependent coefficient: the odd-order form must not drop it
        pytest.param({0: lambda l, m: (l * m * m).scale(Scalar.nu(1))}, id="nu-cubic"),
        # degree 5 on two moment maps, so that orders 3 and 5 both contract
        pytest.param({0: lambda l, m: l**2 * m**3, 3: lambda l, m: l**3 * m**2}, id="quintic"),
    ],
)
def test_covariance_matches_full_commutator_when_perturbed(edits, instance_cache):
    ch = _perturbed_chart(instance_cache("chart", "spin:2"), edits)
    res, bad, witness = verify_covariance(ch)
    assert (res, bad) == full_commutator_covariance(ch)
    assert (res, bad, witness) == contraction_covariance(ch)
    assert res != 0 and witness is not None


def test_covariance_pinned_on_maps_of_degree_above_three(instance_cache):
    # the pairs that the dot product does not cover, with the values that
    # the order-by-order contractions gave
    ch = instance_cache("chart", "spin:2")
    quintic = _perturbed_chart(ch, {0: lambda l, m: l**2 * m**3, 3: lambda l, m: l**3 * m**2})
    quartic = _perturbed_chart(ch, {4: lambda l, m: l**2 * m**2, 5: lambda l, m: l * l * m})
    assert verify_covariance(quintic) == (156, 3, ((0, 3), 120))
    assert verify_covariance(quartic) == (8, 1, ((4, 5), 8))


def test_covariance_fails_on_perturbed_moment_map(instance_cache):
    # only the nu^3 term of a commutator can differ, so a cubic term in one
    # variable (l1^3 or m1^3) would leave the residual at zero; l1 m1^2 does not
    ch = instance_cache("chart", "spin:2")
    assert verify_covariance(ch) == (0, 0, None)
    ch = _perturbed_chart(ch, {0: lambda l, m: l * m * m})
    assert verify_covariance(ch) == (4, 1, ((0, 4), 4))


def test_covariance_and_property_b(instance_cache):
    from starcayley.weyl import verify_covariance, verify_property_B

    ch = instance_cache("chart", "spin:3")
    assert verify_covariance(ch) == (0, 0, None)
    assert verify_property_B(ch, ch.moment) == (0, 0, None)
    assert max(op.order() for op in ch.left_stars) == 3


@pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
def test_covariance_matches_contraction_oracle(selector, instance_cache):
    ch = instance_cache("chart", selector)
    assert verify_covariance(ch) == contraction_covariance(ch)


@pytest.mark.parametrize(
    "edits",
    [
        pytest.param({0: lambda l, m: l * m * m}, id="cubic-on-linear"),
        # two cubic maps gain terms that pair under the l <-> m swap
        pytest.param({4: lambda l, m: l * m * m, 5: lambda l, m: l * l * m}, id="cubic-pair"),
        pytest.param(
            {4: lambda l, m: (l * m * m).scale(Scalar.nu(-1)), 5: lambda l, m: l**3 + l * l * m},
            id="nu-cubic-pair",
        ),
        # degree 4 against degree 3: _contractions, not the dot product
        pytest.param({4: lambda l, m: l**2 * m**2, 5: lambda l, m: l * l * m}, id="quartic"),
    ],
)
def test_covariance_matches_both_oracles_when_perturbed(edits, instance_cache):
    ch = _perturbed_chart(instance_cache("chart", "spin:2"), edits)
    got = verify_covariance(ch)
    assert got == contraction_covariance(ch)
    assert got[:2] == full_commutator_covariance(ch)
    assert got[0] != 0


CHART_L, CHART_M = ("l1", "l2"), ("m1", "m2")


@st.composite
def cubic_pairs(draw):
    """(u, v, n) with u and v over the chart variables l1..ln, m1..mn,
    n = 1 or 2: up to 6 terms each, most of degree exactly 3, at nu-powers
    -1..2 with denominators up to 4."""
    n = draw(st.sampled_from([1, 2]))
    vs = VarSet(CHART_L[:n] + CHART_M[:n])

    def poly():
        terms = {}
        for _ in range(draw(st.integers(0, 6))):
            e = [0] * (2 * n)
            for _ in range(draw(st.sampled_from([3, 3, 3, 2, 0]))):
                e[draw(st.integers(0, 2 * n - 1))] += 1
            key = (*e, draw(st.integers(-1, 2)))
            terms[key] = terms.get(key, 0) + draw(st.fractions(-3, 3, max_denominator=4))
        return Poly(vs, terms)

    return poly(), poly(), n


class TestCubicDotProduct:
    @given(cubic_pairs())
    @settings(max_examples=200, deadline=None)
    def test_matches_contractions(self, uvn):
        u, v, n = uvn
        got = {k: c for k, c in _cubic_b3(_swapped_cubic(u, n), v).items() if c}
        assert got == contraction_b3(u, v, CHART_L[:n], CHART_M[:n])

    @pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
    def test_matches_contractions_on_every_cubic_pair(self, selector, instance_cache):
        # every pair of cubic moment maps, a map with itself included (rank1
        # has one); B_3 vanishes on a covariant chart, so each pair is also
        # taken with l1 m1^2 + nu l1^2 m1 added to its second map
        ch = instance_cache("chart", selector)
        l1, m1 = Poly.var(ch.vs, "l1"), Poly.var(ch.vs, "m1")
        extra = l1 * m1 * m1 + (l1 * l1 * m1).scale(Scalar.nu(1))
        cubic = [lam for lam in ch.moment if lam.total_degree() == 3]
        nonzero = 0
        for i, u in enumerate(cubic):
            swapped = _swapped_cubic(u, ch.g.n)
            for v in cubic[i:]:
                for w in (v, v + extra):
                    want = contraction_b3(u, w, *darboux_names(ch.vs))
                    assert {k: c for k, c in _cubic_b3(swapped, w).items() if c} == want
                    nonzero += bool(want)
        assert nonzero > 0
