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
from starcayley.poly import Poly
from starcayley.report import RunConfig, run
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
    sign, res = verify_dpi_homomorphism(g, ds.dpi_basis())
    assert res == 0
    assert sign == 1


@pytest.mark.parametrize("selector,residual", [("rank1", 2), ("spin:3", 3), ("sym:2", 2)])
def test_dpi_sign_check_fails_on_perturbed_weight_part(selector, residual, instance_cache):
    # 1 added to the weight part (the multiplier of dpi_1) of one operator
    # breaks the bracket in both signs
    g = instance_cache("lie", selector)
    ds = instance_cache("series", selector)
    ops = ds.dpi_basis()
    ops[1] = ops[1] + WeylOperator.identity(ds.zvs)
    assert verify_dpi_homomorphism(g, ops) == (0, residual)


class TestEquivalence:
    @pytest.mark.parametrize("mu", [Fraction(1), Fraction(2), Fraction(-3)])
    def test_rank_one_weight(self, mu):
        g = kkt.GradedLieAlgebra(jordan.make_rank_one(), mu)
        srep = StarRepresentation(g)
        eq = solve_equivalence(g, srep.rho_basis())
        assert eq.alpha == "-id"
        # measured weight: (2 mu + nu) / (2 nu)
        assert eq.m_star == Scalar.nu(-1, mu) + Scalar.of(Fraction(1, 2))

    @pytest.mark.parametrize("selector", ["spin:3", "sym:2"])
    def test_multidimensional_instances(self, selector, instance_cache):
        g = instance_cache("lie", selector)
        rho = instance_cache("rho", selector)
        ds = instance_cache("series", selector)
        eq = solve_equivalence(g, rho, ds)
        assert eq.alpha == "-id" and eq.residual == 0
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
        from starcayley.poly import scalar_ratio

        assert scalar_ratio(m_from_E, s_E) == scalar_ratio(m_from_v, s_v)

    def test_perturbed_scalar_part_fails(self, instance_cache, monkeypatch):
        # no candidate matches, so all four are tried, the two theta ones
        # through combinations of dpi_basis; -id misses only at e_1
        g = instance_cache("lie", "rank1")
        rho = list(instance_cache("rho", "rank1"))
        srep = instance_cache("srep", "rank1")
        rho[1] = rho[1] + WeylOperator.from_poly(Poly.const(srep.zvs, 1))
        counts = Counter()
        count_candidates(monkeypatch, counts)
        with pytest.raises(NoEquivalence) as exc:
            solve_equivalence(g, rho)
        assert str(exc.value) == "no candidate automorphism matches (best: -id, residual 1)"
        assert exc.value.residual == 1
        assert counts["candidates"] == 4


@pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2", "sym:3"])
def test_special_nu_substitution(selector, instance_cache):
    g = instance_cache("lie", selector)
    nu0, vanishes = special_nu_value(g)
    assert vanishes
    assert nu0 == Fraction(-2 * g.mu)  # beta(o,o) = 2 n mu^2, c = mu
    # the closed-form weight numerator therefore kills m at nu0
    m = closed_form_weight(g)
    assert m.eval_nu(nu0) == 0


def test_theorem_suite_builds_each_dpi_once(monkeypatch):
    # dpi_basis is built once and the solver combines it: one dpi per basis
    # element, and one field for it plus one for the field cross-check of
    # l_A; the solver stops at its second candidate, -id
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
    assert counts == {"dpi": 21, "field": 42, "candidates": 2}


def test_dpi_basis_is_a_new_list_each_call(instance_cache):
    # a caller may change its list, as the perturbed sign check does,
    # without changing the operators that the series keeps
    ds = instance_cache("series", "rank1")
    first = ds.dpi_basis()
    first[0] = first[0] + WeylOperator.identity(ds.zvs)
    assert ds.dpi_basis() is not first
    assert ds.dpi_basis()[0] == ds.dpi(linalg.identity(ds.g.dim)[0])
