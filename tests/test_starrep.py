import copy
from fractions import Fraction
from math import lcm

import pytest

from hypothesis import given, settings, strategies as st

from conftest import bracket_rho_parts, embed_z_operator, unpacked
from starcayley import jordan, kkt, linalg, starrep
from starcayley.poly import Poly
from starcayley.report import (
    BUILTIN_SELECTORS,
    InstanceContext,
    RunConfig,
    run_fourier_suite,
    run_star_suite,
    run_theorem_suite,
)
from starcayley.scalars import Scalar
from starcayley.starrep import (
    StarRepresentation,
    bracket_sign,
    verify_rho_homomorphism,
    verify_star_transform,
)
from starcayley.weyl import (
    WeylOperator, _frame_target, first_order, first_order_bracket, first_order_parts, star_pullback,
    star_transform, uses_only,
)
from test_kkt import _perturbed_spin2, _perturbed_sym2

PERTURBED = {"perturbed-spin:2": _perturbed_spin2, "perturbed-sym:2": _perturbed_sym2}


def h_poly(srep, a):
    """The matrix-valued polynomial h_A(z), linear in z, from the degree-zero
    coordinates that ``StarRepresentation`` builds."""
    return srep.g.t_from_coords(srep._h_coords(a))


class TestRankOneOracle:
    """rho on the one-dimensional algebra, basis order (u, E, v)."""

    def test_rho_u_is_derivative(self, instance_cache):
        srep = instance_cache("srep", "rank1")
        rho = instance_cache("rho", "rank1")
        assert rho[0] == WeylOperator.partial(srep.zvs, "z1")

    def test_rho_grade_element(self, instance_cache):
        srep = instance_cache("srep", "rank1")
        rho = instance_cache("rho", "rank1")
        z = WeylOperator.from_poly(Poly.var(srep.zvs, "z1"))
        d = WeylOperator.partial(srep.zvs, "z1")
        scalar = WeylOperator.identity(srep.zvs).scale(
            Scalar.nu(-1) + Scalar.of(Fraction(1, 2))
        )
        assert rho[1] == scalar + z * d

    def test_rho_v(self, instance_cache):
        srep = instance_cache("srep", "rank1")
        rho = instance_cache("rho", "rank1")
        z = WeylOperator.from_poly(Poly.var(srep.zvs, "z1"))
        d = WeylOperator.partial(srep.zvs, "z1")
        scalar = z.scale(Scalar.nu(-1, Fraction(2)) + Scalar.one())
        assert rho[2] == scalar + (z * z) * d

    def test_tau_scales_with_mu(self):
        g = kkt.GradedLieAlgebra(jordan.make_rank_one(), Fraction(3))
        srep = StarRepresentation(g)
        tau = srep.tau_scalar(g.E)
        assert tau == Poly.const(srep.zvs, 1) * (
            Scalar.nu(-1, Fraction(3)) + Scalar.of(Fraction(1, 2))
        )


def test_tau_weights_from_integer_killing_and_spur(instance_cache):
    # K and the spur vector hold ints; w_j = (K.o)_j / (2 nu) + spur_j / 2
    # must be built from Fractions, as int / 2 would be a float
    g = instance_cache("lie", "rank1")
    assert all(type(x) is int for row in g.killing for x in row)
    assert all(type(x) is int for x in g.spur_vector)
    (w,) = StarRepresentation(g)._tau_weights
    assert w.coeffs == {-1: Fraction(1), 0: Fraction(1, 2)}
    assert unpacked(w) == {(-1,): 2, (0,): 1} and w.den == 2


def test_theorem_suite_builds_the_per_basis_parts_once(monkeypatch):
    # rho, the field check, the kappa_h check and the report's tau_scalar(E)
    # all read the one list of RhoParts of a StarRepresentation
    prop = StarRepresentation.__dict__["_basis_parts"]
    calls = []
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda self: calls.append(1) or real(self))
    ctx = InstanceContext(RunConfig(algebra="sym:3"))
    assert run_theorem_suite(ctx)["passed"]
    ctx.srep.l_poly(ctx.lie.E)
    assert len(calls) == 1


@pytest.mark.parametrize("selector", [*BUILTIN_SELECTORS, *PERTURBED])
def test_per_basis_parts_equal_the_bracket_oracle(selector, instance_cache):
    # h_A, l_A and tau_A read off the table grade by grade, and rho(A) built
    # from them, against the three-bracket formula on dense Poly vectors,
    # also on the non-Jordan tables of the lie suite's negative controls
    if selector in PERTURBED:
        srep = StarRepresentation(kkt.GradedLieAlgebra(PERTURBED[selector]()))
    else:
        srep = instance_cache("srep", selector)
    poly = lambda t: Poly._reduced(srep.zvs, dict(t), srep._den)
    rho = srep.rho_basis()
    for e, p, op in zip(linalg.identity(srep.g.dim), srep._basis_parts, rho):
        h, l, tau = bracket_rho_parts(srep, e)
        assert [poly(t) for t in p.h] == h
        assert [poly(t) for t in p.l] == l
        assert poly(p.tau) == tau
        assert op == first_order(tau, l)


@pytest.mark.parametrize("selector", ["spin:3", "sym:2"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_linear_forms_equal_the_bracket_oracle(selector, instance_cache, data):
    # l_poly, _h_coords and tau_scalar, linear combinations of the parts,
    # on rational coordinate vectors
    srep = instance_cache("srep", selector)
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    a = data.draw(st.lists(entries, min_size=srep.g.dim, max_size=srep.g.dim))
    h, l, tau = bracket_rho_parts(srep, a)
    assert srep._h_coords(a) == h
    assert srep.l_poly(a) == l
    assert srep.tau_scalar(a) == tau


class TestFieldPolynomials:
    def test_pure_cases(self, instance_cache):
        srep = instance_cache("srep", "spin:3")
        g = srep.g
        u_elt = linalg.identity(g.dim)[1]
        assert srep.l_poly(u_elt) == [
            Poly.const(srep.zvs, c) for c in linalg.identity(g.jordan.dim)[1]
        ]
        assert all(p.is_zero() for row in h_poly(srep, u_elt) for p in row)
        assert srep.tau_scalar(u_elt).is_zero()

    def test_h_is_constant_for_degree_zero_part(self, instance_cache):
        srep = instance_cache("srep", "sym:2")
        g = srep.g
        t_elt = linalg.identity(g.dim)[g.n]
        h = h_poly(srep, t_elt)
        t0 = g.t_from_coords(linalg.identity(g.dim0)[0])
        for i in range(g.n):
            for j in range(g.n):
                assert h[i][j] == Poly.const(srep.zvs, t0[i][j])

    @pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2"])
    def test_tube_field_identity(self, selector, instance_cache):
        srep = instance_cache("srep", selector)
        assert srep.field_residual(instance_cache("series", selector)) == (0, 0, None)

    @pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2"])
    def test_kappa_h_is_one(self, selector, instance_cache):
        srep = instance_cache("srep", selector)
        kappa, t = srep.measure_kappa_h()
        assert t.residual == 0
        assert kappa == Scalar.one()

    def test_degree_bounds(self, instance_cache):
        srep = instance_cache("srep", "sym:2")
        for b in linalg.identity(srep.g.dim):
            assert max(p.total_degree() for p in srep.l_poly(b)) <= 2
            assert max(p.total_degree() for row in h_poly(srep, b) for p in row) <= 1
            assert srep.tau_scalar(b).total_degree() <= 1


@pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2"])
def test_rho_is_anti_homomorphism(selector, instance_cache):
    g = instance_cache("lie", selector)
    rho = instance_cache("rho", selector)
    sign, tally = verify_rho_homomorphism(g, rho)
    assert tally == (0, 0, None)
    assert sign == -1  # measured: bracket reverses under rho
    # [-X_i, -X_j] = [X_i, X_j] while the image changes sign
    assert bracket_sign(g, [-op for op in rho]) == (1, tally)


@pytest.mark.parametrize("selector,residual", [("rank1", 2), ("spin:3", 3), ("sym:2", 2)])
def test_rho_sign_check_fails_on_perturbed_operator(selector, residual, instance_cache):
    # rho plus the constant 1 on one basis element is neither a homomorphism
    # nor an anti-homomorphism
    g = instance_cache("lie", selector)
    srep = instance_cache("srep", selector)
    rho = list(instance_cache("rho", selector))
    rho[1] = rho[1] + WeylOperator.identity(srep.zvs)
    sign, (res, failures, _) = verify_rho_homomorphism(g, rho)
    assert (sign, res) == (0, residual) and failures > 0


@pytest.mark.parametrize(
    "selector, index, shift, witness",
    [
        ("rank1", 1, 1, "first failing (i, j) = (0, 2), residual 2"),
        ("spin:3", 1, 1, "first failing (i, j) = (0, 4), residual 1"),
        ("sym:2", 1, 1, "first failing (i, j) = (1, 5), residual 1"),
        # c_06^2 = 1/2 on sym:2, times the shift 1/3
        ("sym:2", 2, Fraction(1, 3), "first failing (i, j) = (0, 6), residual 1/6"),
    ],
)
def test_theorem_suite_names_the_first_failing_rho_pair(selector, index, shift, witness):
    # rho plus a constant on one basis element fails under both signs; the
    # witness is taken under the sign of the smaller total (-1 here)
    ctx = InstanceContext(RunConfig(algebra=selector))
    rho = list(ctx.rho)
    rho[index] = rho[index] + WeylOperator.identity(ctx.srep.zvs).scale(shift)
    ctx._cache["rho"] = rho
    out = run_theorem_suite(ctx)
    assert out["rho_bracket_sign"] == 0 and not out["passed"]
    assert out["rho_hom_witness"] == witness
    assert "dpi_hom_witness" not in out


def test_theorem_suite_names_the_first_failing_field_element():
    # z1 d/dz1 added to dpi_1(e_2) of sym:2 moves its vector part, and so
    # the Jordan-data field read from it, by -z1 at e_2 only
    ctx = InstanceContext(RunConfig(algebra="sym:2"))
    zvs = ctx.series.zvs
    ops = ctx.series.dpi_basis()
    ops[2] = ops[2] + WeylOperator.from_poly(Poly.var(zvs, "z1")) * WeylOperator.partial(zvs, "z1")
    ctx.series._dpi_basis = tuple(ops)
    out = run_theorem_suite(ctx)
    assert out["tube_field_residual"] == "1" and not out["passed"]
    assert out["tube_field_witness"] == "first failing i = 2, residual 1"


def test_passing_suites_have_no_property_b_or_field_witness():
    ctx = InstanceContext(RunConfig(algebra="sym:2"))
    star, theorem = run_star_suite(ctx), run_theorem_suite(ctx)
    assert star["passed"] and "property_B_witness" not in star
    assert theorem["passed"] and "tube_field_witness" not in theorem
    fourier = run_fourier_suite(ctx)
    assert fourier["passed"] and "star_transform_witness" not in fourier


@pytest.mark.parametrize("selector", ["rank1", "sym:2"])
def test_failing_rho_forms_each_bracket_once(selector, monkeypatch):
    # the theorem suite forms each first-order bracket of rho and of dpi once:
    # the witness of the failing rho comes from the pass that measured it,
    # and the passing dpi forms only the pairs that meet the generating set
    ctx = InstanceContext(RunConfig(algebra=selector))
    rho = list(ctx.rho)
    rho[1] = rho[1] + WeylOperator.identity(ctx.srep.zvs)
    ctx._cache["rho"] = rho
    calls = []
    bracket = starrep.first_order_bracket
    counted = lambda *a: calls.append(1) or bracket(*a)
    monkeypatch.setattr(starrep, "first_order_bracket", counted)
    out = run_theorem_suite(ctx)
    assert out["rho_bracket_sign"] == 0 and "rho_hom_witness" in out
    dim, rest = ctx.lie.dim, ctx.lie.dim - len(ctx.lie.generators)
    assert len(calls) == dim * (dim - 1) - rest * (rest - 1) // 2


@pytest.mark.parametrize(
    "index, shift, witness",
    [
        (2, Fraction(1, 3), "first failing i = 2, residual 1/3"),
        # the last basis element, so the pass reaches every D_A
        (9, 1, "first failing i = 9, residual 1"),
    ],
)
def test_fourier_suite_names_the_first_failing_basis_element(index, shift, witness):
    # rho perturbed as in the theorem suite's control: D_A stays holomorphic
    # and differs from rho(A) by the constant alone
    ctx = InstanceContext(RunConfig(algebra="sym:2"))
    rho = list(ctx.rho)
    rho[index] = rho[index] + WeylOperator.identity(ctx.srep.zvs).scale(shift)
    ctx._cache["rho"] = rho
    out = run_fourier_suite(ctx)
    assert not out["passed"] and out["holomorphic"] and not out["matches_rho"]
    assert out["residual"] == str(shift)
    assert out["star_transform_witness"] == witness


@pytest.mark.parametrize("index", [2, 9])
def test_failing_fourier_check_pulls_back_each_element_once(index, monkeypatch):
    # the differences reuse the pull-backs formed for the comparison, so a
    # mismatch at e_2 or at the last element costs dim g pull-backs alike
    calls, real = [], starrep.star_pullback
    monkeypatch.setattr(starrep, "star_pullback", lambda op, target: calls.append(1) or real(op, target))
    ctx = InstanceContext(RunConfig(algebra="sym:2"))
    rho = list(ctx.rho)
    rho[index] = rho[index] + WeylOperator.identity(ctx.srep.zvs).scale(Fraction(1, 3))
    ctx._cache["rho"] = rho
    assert not run_fourier_suite(ctx)["passed"]
    assert len(calls) == ctx.lie.dim == 10


def test_fourier_witness_names_a_non_holomorphic_transform():
    # l1 added to the fourth left-star operator puts (z1 + w1)/2 over 2 nu
    # into D_3, which is then not holomorphic and so differs from rho(e_3)
    ctx = InstanceContext(RunConfig(algebra="sym:2"))
    ch = copy.copy(ctx.chart)
    stars = list(ch.left_stars)
    stars[3] = stars[3] + WeylOperator.from_poly(Poly.var(ch.vs, "l1"))
    ch.left_stars = stars
    ctx._cache["chart"] = ch
    out = run_fourier_suite(ctx)
    assert not out["passed"] and not out["holomorphic"] and not out["matches_rho"]
    assert out["star_transform_witness"] == "first failing i = 3, residual 1/2"


def test_fourier_suite_fails_on_a_fault_in_the_pull_back(monkeypatch):
    # the pull-back shifted by 1/3, and rho(e_9) by 1, whose pull-back is
    # -2 nu: every difference L_A - P_A is -1/3, and 2 nu - 1/3 at i = 9.
    # The transform c -> c|nu->-nu / (2 nu) makes them -1/(6 nu), residual
    # 1/6, and -1 - 1/(6 nu), residual 7/6: holomorphic, yet the check fails
    real = starrep.star_pullback
    shifted = lambda op, target: real(op, target) + WeylOperator.identity(target).scale(Fraction(1, 3))
    monkeypatch.setattr(starrep, "star_pullback", shifted)
    ctx = InstanceContext(RunConfig(algebra="sym:2"))
    rho = list(ctx.rho)
    rho[9] = rho[9] + WeylOperator.identity(ctx.srep.zvs)
    ctx._cache["rho"] = rho
    out = run_fourier_suite(ctx)
    assert not out["passed"] and out["holomorphic"] and not out["matches_rho"]
    assert out["residual"] == "8/3"  # 9 rows of 1/6 and one of 7/6
    assert out["star_transform_witness"] == "first failing i = 0, residual 1/6"


def test_star_suite_names_the_first_failing_property_b_sample():
    # 1/2 added to the fourth left-star operator adds u/2 to its image of
    # each sample u; the star suite's first sample, 3/2 l2 m1 - m1 m2, then
    # has residual 5/4
    ctx = InstanceContext(RunConfig(algebra="sym:2"))
    ch = copy.copy(ctx.chart)
    stars = list(ch.left_stars)
    stars[3] = stars[3] + WeylOperator.identity(ch.vs).scale(Fraction(1, 2))
    ch.left_stars = stars
    ctx._cache["chart"] = ch
    out = run_star_suite(ctx)
    assert not out["passed"]
    assert out["property_B_witness"] == "first failing (i, sample) = (3, 0), residual 5/4"


def test_passing_theorem_suite_has_no_witness():
    out = run_theorem_suite(InstanceContext(RunConfig(algebra="sym:2")))
    assert out["passed"] and "rho_hom_witness" not in out and "dpi_hom_witness" not in out


@pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2"])
def test_negation_swaps_the_two_tallies(selector, instance_cache):
    # on a rho that fails under both signs, so that both Tallies are nonzero
    g = instance_cache("lie", selector)
    srep = instance_cache("srep", selector)
    rho = list(instance_cache("rho", selector))
    rho[1] = rho[1] + WeylOperator.identity(srep.zvs)

    def tallies(ops):
        L = lcm(*(op.den for op in ops))
        fields = [first_order_parts(op, L) for op in ops]
        bracket = lambda i, j: first_order_bracket(fields[i], fields[j], g.denom)
        return kkt.homomorphism_tallies(g, [f.parts for f in fields], bracket, L, **kw)

    kw = {"minus": True}
    plus, minus = tallies(rho)
    assert plus.failures and minus.failures
    assert tallies([-op for op in rho]) == (minus, plus)
    # without minus only the first Tally is formed, summed in the bracket's dicts
    kw = {}
    assert tallies(rho) == (plus,)


def test_bracket_sign_rejects_second_order_operator(instance_cache):
    # a d^2 term is an error, not a term the first-order bracket drops
    g = instance_cache("lie", "rank1")
    rho = list(instance_cache("rho", "rank1"))
    rho[1] = rho[1] + rho[0] * rho[0]
    with pytest.raises(ValueError):
        bracket_sign(g, rho)


class TestStarTransform:
    @pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2"])
    def test_holomorphic_and_flip_relation(self, selector, instance_cache):
        ch = instance_cache("chart", selector)
        srep = instance_cache("srep", selector)
        rho = instance_cache("rho", selector)
        holomorphic, tally = verify_star_transform(ch, srep, rho)
        assert holomorphic
        # D_A = rho(A), exactly, for every basis element
        assert tally == (0, 0, None)

    @pytest.mark.parametrize("perturbed", ["rho", "left-star", "both"])
    @pytest.mark.parametrize("selector", ["sym:2", "spin:3"])
    def test_failing_check_equals_the_direct_formula(self, selector, perturbed, instance_cache):
        # the transformed differences against D_A formed from the whole
        # left-star operator: sum_A |star_transform(L_A) - rho(A)|, with rho(e_2)
        # shifted by 1/3 and L_3 by l1, and D_A holomorphic on the z-variables
        ch = copy.copy(instance_cache("chart", selector))
        srep = instance_cache("srep", selector)
        rho, stars = list(instance_cache("rho", selector)), list(ch.left_stars)
        if perturbed != "left-star":
            rho[2] = rho[2] + WeylOperator.identity(srep.zvs).scale(Fraction(1, 3))
        if perturbed != "rho":
            stars[3] = stars[3] + WeylOperator.from_poly(Poly.var(ch.vs, "l1"))
        ch.left_stars = stars
        holomorphic, rows = True, []
        for i, (left, r) in enumerate(zip(stars, rho)):
            d = star_transform(left)
            holomorphic &= uses_only(d, d.vs.names[: ch.g.n])
            diff = d - embed_z_operator(r, d.vs)
            rows.append((i, Fraction(sum(map(abs, diff.terms.values())), diff.den)))
        failing = [row for row in rows if row[1]]
        want = (holomorphic, (sum(r for _, r in rows), len(failing), failing[0]))
        assert failing and want[0] == (perturbed == "rho")
        assert verify_star_transform(ch, srep, rho) == want

    @pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
    def test_pull_back_of_rho_is_the_left_star_operator(self, selector, instance_cache):
        # the reduced check of criterion 5, basis element by basis element:
        # rho(A), in z alone, pulls back as it is
        ch, rho = instance_cache("chart", selector), instance_cache("rho", selector)
        for i, left in enumerate(ch.left_stars):
            assert star_pullback(rho[i], ch.vs) == left, i

    def test_rank_one_transform_values(self, instance_cache):
        ch = instance_cache("chart", "rank1")
        op = star_transform(ch.left_stars[0])
        # D_u = d_z = rho(u), embedded in the (z, zbar) variable set
        assert op.vs == _frame_target(1) and op == WeylOperator.partial(op.vs, "z1")

    def test_operator_acts_consistently(self, instance_cache):
        # operator identity implies identity on polynomials; spot-check one
        ch = instance_cache("chart", "rank1")
        rho = instance_cache("rho", "rank1")
        op = star_transform(ch.left_stars[2])
        f = Poly.var(op.vs, "z1") * Poly.var(op.vs, "z1")
        lhs = op.apply(f)
        rhs = embed_z_operator(rho[2], op.vs).apply(f)
        assert lhs == rhs
