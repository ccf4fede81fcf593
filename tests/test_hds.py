from collections import Counter
from fractions import Fraction

import pytest

from starcayley import hds, jordan, kkt, linalg
from starcayley.hds import (
    DiscreteSeries,
    NoEquivalence,
    closed_form_weight,
    compare_with_closed_form,
    solve_equivalence,
    special_nu_value,
    verify_dpi_homomorphism,
)
from starcayley.linalg import trace
from starcayley.poly import Poly, proportion
from starcayley.report import InstanceContext, RunConfig, run, run_theorem_suite
from starcayley.scalars import Scalar
from starcayley.starrep import StarRepresentation
from starcayley.weyl import WeylOperator, split_first_order


def count_candidates(monkeypatch, counts: Counter):
    """Count the automorphisms that ``solve_equivalence`` tries, under
    counts["candidates"], by wrapping the module-level generator as the
    benchmark tracer does."""
    candidates = hds._automorphism_candidates

    def counted(g):
        for item in candidates(g):
            counts["candidates"] += 1
            yield item

    monkeypatch.setattr(hds, "_automorphism_candidates", counted)


def weight_parts(op):
    """(V, S) with dpi_m = V + m*S, read off dpi_1 = S + V: S is its
    multiplier, V its vector field."""
    s_op = WeylOperator.from_poly(split_first_order(op)[0])
    return op - s_op, s_op


def trace_d_field(ds, a):
    """Tr DX(z), by differentiating the components of ``ds.field(a)``."""
    return sum((c.diff(x) for c, x in zip(ds.field(a), ds.zvs.names)), Poly.zero(ds.zvs))


def trace_d_closed(ds, a):
    """Tr DX(z) in closed form, Tr T + 2 tau(z, v): the cross-check of
    ``trace_d_field``, which differentiates the field.  T and v are read
    from the coordinate vector a."""
    n, f = ds.g.n, ds.g.n + ds.g.dim0
    t, v = ds.g.t_from_coords(a[n:f]), a[f:]
    z = [Poly.var(ds.zvs, x) for x in ds.zvs.names]
    tau_zv = ds.g.jordan.tau(z, [Poly.const(ds.zvs, c) for c in v])
    return Poly.const(ds.zvs, trace(t)) + tau_zv * Fraction(2)


class TestFieldOperators:
    def test_translation_part(self, instance_cache):
        ds = instance_cache("series", "spin:3")
        g = ds.g
        x = [Fraction(1), Fraction(0), Fraction(2)] + [Fraction(0)] * (g.dim - 3)
        v, s = weight_parts(ds.dpi(x))
        expected = -(
            WeylOperator.partial(ds.zvs, "z1")
            + WeylOperator.partial(ds.zvs, "z3").scale(Scalar.of(2))
        )
        assert v == expected
        assert s.is_zero()

    def test_rank_one_quadratic_part(self, instance_cache):
        ds = instance_cache("series", "rank1")
        g = ds.g
        x = linalg.identity(g.dim)[2]
        v, s = weight_parts(ds.dpi(x))
        z = WeylOperator.from_poly(Poly.var(ds.zvs, "z1"))
        d = WeylOperator.partial(ds.zvs, "z1")
        assert v == -((z * z) * d)
        assert s == z.scale(Scalar.of(-2))  # -(r/n) Tr DX = -2z

    def test_grade_element_scalar_part(self, instance_cache):
        # X = (0, Id, 0): scalar factor is -(r/n) * n = -r
        for sel in ("rank1", "sym:2", "spin:3"):
            ds = instance_cache("series", sel)
            _, s = weight_parts(ds.dpi(ds.g.E))
            assert s == WeylOperator.identity(ds.zvs).scale(
                Scalar.of(-ds.g.jordan.rank)
            )

    @pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2"])
    def test_trace_of_derivative_closed_form(self, selector, instance_cache):
        ds = instance_cache("series", selector)
        g = ds.g
        for b in linalg.identity(g.dim):
            assert trace_d_field(ds, b) == trace_d_closed(ds, b)


@pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2"])
def test_dpi_homomorphism_in_formal_weight(selector, instance_cache):
    g = instance_cache("lie", selector)
    ds = instance_cache("series", selector)
    sign, tally = verify_dpi_homomorphism(g, ds.dpi_basis())
    assert tally == (0, 0, None)
    assert sign == 1


@pytest.mark.parametrize("selector,residual", [("rank1", 2), ("spin:3", 3), ("sym:2", 2)])
def test_dpi_sign_check_fails_on_perturbed_weight_part(selector, residual, instance_cache):
    # 1 added to the weight part (the multiplier of dpi_1) of one operator
    # breaks the bracket in both signs
    g = instance_cache("lie", selector)
    ds = instance_cache("series", selector)
    ops = ds.dpi_basis()
    ops[1] = ops[1] + WeylOperator.identity(ds.zvs)
    sign, (res, failures, _) = verify_dpi_homomorphism(g, ops)
    assert (sign, res) == (0, residual) and failures > 0


@pytest.mark.parametrize(
    "selector, witness",
    [
        ("rank1", "first failing (i, j) = (0, 2), residual 2"),
        ("spin:3", "first failing (i, j) = (0, 4), residual 1"),
        ("sym:2", "first failing (i, j) = (1, 5), residual 1"),
    ],
)
def test_theorem_suite_names_the_first_failing_dpi_pair(selector, witness):
    # the perturbation of test_dpi_sign_check_fails_on_perturbed_weight_part,
    # through the theorem suite: the witness is under the sign +1
    ctx = InstanceContext(RunConfig(algebra=selector))
    ops = ctx.series.dpi_basis()
    ops[1] = ops[1] + WeylOperator.identity(ctx.series.zvs)
    ctx.series._dpi_basis = tuple(ops)
    out = run_theorem_suite(ctx)
    assert out["dpi_bracket_sign"] == 0 and not out["passed"]
    assert out["dpi_hom_witness"] == witness
    assert "rho_hom_witness" not in out


class TestEquivalence:
    @pytest.mark.parametrize("mu", [Fraction(1), Fraction(2), Fraction(-3)])
    def test_rank_one_weight(self, mu):
        g = kkt.GradedLieAlgebra(jordan.make_rank_one(), mu)
        srep = StarRepresentation(g)
        eq = solve_equivalence(g, srep.rho_basis(), DiscreteSeries(g))
        assert eq.alpha == "-id"
        # measured weight: (2 mu + nu) / (2 nu)
        assert eq.m_star == Scalar.nu(-1, mu) + Scalar.of(Fraction(1, 2))

    @pytest.mark.parametrize("selector", ["spin:3", "sym:2"])
    def test_multidimensional_instances(self, selector, instance_cache):
        g = instance_cache("lie", selector)
        rho = instance_cache("rho", selector)
        ds = instance_cache("series", selector)
        eq = solve_equivalence(g, rho, ds)
        assert eq.alpha == "-id"
        cmp = compare_with_closed_form(g, eq.m_star)
        assert cmp.match == "exact"
        assert cmp.factor == Scalar.one()

    def test_closed_form_weight_value(self, instance_cache):
        g = instance_cache("lie", "rank1")
        # (beta(o,o) + n nu c)/(2 nu r c) with beta(o,o)=2, n=r=c=1
        assert closed_form_weight(g) == Scalar.nu(-1) + Scalar.of(Fraction(1, 2))

    def test_weight_consistent_across_basis(self, instance_cache):
        # the solver cross-checks m* on every basis element; sanity-check
        # two elements directly for the rank-one instance
        g = instance_cache("lie", "rank1")
        srep = instance_cache("srep", "rank1")
        ds = instance_cache("series", "rank1")
        m_from_E = srep.tau_scalar(g.E)
        s_E = trace_d_field(ds, g.E) * Fraction(1)  # = 1
        v_elt = linalg.identity(g.dim)[2]
        m_from_v = srep.tau_scalar(v_elt)
        s_v = trace_d_field(ds, v_elt)
        m, t = proportion([(0, m_from_E, s_E)])
        assert t == (0, 0, None)
        assert proportion([(0, m_from_v, s_v)]) == (m, (0, 0, None))
        assert proportion([(0, m_from_E, s_E), (2, m_from_v, s_v)]) == (m, (0, 0, None))

    def test_perturbed_scalar_part_fails(self, instance_cache, monkeypatch):
        # no candidate matches, so all four are tried, the two theta ones
        # through combinations of dpi_basis; -id misses only at e_1, where
        # m* is read, with s_1 = 1: m* is 1 too large, and e_2, with
        # s_2 = 2 z1, is left with the l1 residual |(m* - (m* + 1)) 2 z1| = 2
        g = instance_cache("lie", "rank1")
        rho = list(instance_cache("rho", "rank1"))
        srep = instance_cache("srep", "rank1")
        rho[1] = rho[1] + WeylOperator.from_poly(Poly.const(srep.zvs, 1))
        counts = Counter()
        count_candidates(monkeypatch, counts)
        with pytest.raises(NoEquivalence) as exc:
            solve_equivalence(g, rho, DiscreteSeries(g))
        assert str(exc.value) == "no candidate automorphism matches (best: -id, residual 2)"
        assert exc.value.residual == 2
        assert counts["candidates"] == 4


def test_best_candidate_comes_from_full_residuals(instance_cache, monkeypatch):
    # 3 d/dz1 added to rho(e_5) of spin:2: -id fails there only, with
    # residual 3, and m* stays consistent; +id stops at e_0 with the partial
    # residual 2 < 3, but its full residual is 31, so -id is the best
    g = instance_cache("lie", "spin:2")
    ds = instance_cache("series", "spin:2")
    rho = list(instance_cache("rho", "spin:2"))
    rho[5] = rho[5] + WeylOperator.partial(ds.zvs, "z1").scale(3)
    counts = Counter()
    count_candidates(monkeypatch, counts)
    with pytest.raises(NoEquivalence) as exc:
        solve_equivalence(g, rho, ds)
    assert str(exc.value) == "no candidate automorphism matches (best: -id, residual 3)"
    assert exc.value.residual == 3
    assert counts["candidates"] == 4


@pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2", "sym:3"])
def test_special_nu_substitution(selector, instance_cache):
    g = instance_cache("lie", selector)
    rho, ds = instance_cache("rho", selector), instance_cache("series", selector)
    nu0, vanishes = special_nu_value(g, solve_equivalence(g, rho, ds).m_star)
    assert vanishes
    assert nu0 == Fraction(-2 * g.mu)  # beta(o,o) = 2 n mu^2, c = mu
    # the closed-form weight numerator therefore kills m at nu0
    m = closed_form_weight(g)
    assert m.eval_nu(nu0) == 0


@pytest.mark.parametrize(
    "selector, m_star",
    [("rank1", "3/2 + 1*nu^-1"), ("spin:3", "7/4 + 3/2*nu^-1"), ("sym:2", "7/4 + 3/2*nu^-1")],
)
def test_shifted_weight_does_not_vanish_at_nu0(selector, m_star):
    # rho(e_i) less the multiplier s_i of dpi_1(e_i) is dpi_{m*+1}(-e_i), as
    # dpi_1(-e_i) has the multiplier -s_i: the solver measures m* + 1, which
    # is not 0 at nu0, where the numerator of the closed form is
    ctx = InstanceContext(RunConfig(algebra=selector))
    ctx._cache["rho"] = [r - weight_parts(d)[1] for r, d in zip(ctx.rho, ctx.series.dpi_basis())]
    out = run_theorem_suite(ctx)
    assert out["m_star"] == m_star == str(closed_form_weight(ctx.lie) + 1)
    assert (out["alpha"], out["match"], out["factor"]) == ("-id", "failed", None)
    assert out["numerator_vanishes_at_nu0"] is False and not out["passed"]


def test_closed_form_factor_is_rational(instance_cache):
    # the factor is read at the top nu-power of m_closed and checked on
    # every power; a nu-dependent ratio is no factor
    g = instance_cache("lie", "sym:2")
    m = closed_form_weight(g)
    assert compare_with_closed_form(g, m).factor == 1
    cmp = compare_with_closed_form(g, m * Fraction(-2, 3))
    assert (cmp.match, cmp.factor) == ("proportional", Fraction(-2, 3))
    for bad in (m * Scalar.nu(1), m + Scalar.nu(-2), Scalar.zero() + 1):
        cmp = compare_with_closed_form(g, bad)
        assert (cmp.match, cmp.factor) == ("failed", None)


def test_theorem_suite_builds_each_dpi_once(monkeypatch):
    # dpi_basis is built once and the solver combines it: one dpi, and one
    # field inside it, per basis element; the field cross-check of l_A reads
    # the field from dpi_basis; the solver stops at its second candidate, -id
    counts = Counter()
    for name in ("dpi", "field"):
        method = getattr(DiscreteSeries, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(DiscreteSeries, name, counted)
    count_candidates(monkeypatch, counts)
    rep = run(RunConfig(algebra="sym:3", suites=("theorem",)))
    assert rep.suites["theorem"]["passed"] and rep.suites["theorem"]["alpha"] == "-id"
    assert counts == {"dpi": 21, "field": 21, "candidates": 2}


def test_dpi_basis_is_a_new_list_each_call(instance_cache):
    # a caller may change its list, as the perturbed sign check does,
    # without changing the operators that the series keeps
    ds = instance_cache("series", "rank1")
    first = ds.dpi_basis()
    first[0] = first[0] + WeylOperator.identity(ds.zvs)
    assert ds.dpi_basis() is not first
    assert ds.dpi_basis()[0] == ds.dpi(linalg.identity(ds.g.dim)[0])
