from fractions import Fraction

import pytest

from starcayley import jordan, kkt
from starcayley.chart import SymplecticChart
from starcayley.poly import Poly
from starcayley.report import InstanceContext, RunConfig, run_chart_suite

from conftest import degree_in, perturbed, poly_abs, unpacked


def poly_chain_hamiltonicity(ch):
    """(residual, failing pairs, first failing pair with its residual or
    None) of lambda_[bi,bj] = {lambda_i, lambda_j}, formed pair by pair as
    Poly sums and ``ch.poisson``: the oracle of the cached-gradient
    check."""
    res, bad, first = Fraction(0), 0, None
    for i in range(ch.g.dim):
        for j in range(i + 1, ch.g.dim):
            lhs = Poly.zero(ch.vs)
            for k, c in ch.g.bracket_coords(i, j).items():
                lhs = lhs + ch.moment[k] * c
            r = poly_abs(lhs - ch.poisson(ch.moment[i], ch.moment[j]))
            if r:
                res, bad = res + r, bad + 1
                first = first or ((i, j), r)
    return res, bad, first


class TestRankOneOracle:
    """Hand-expanded moment maps for the one-dimensional algebra
    (basis order: u, E, v; chart coordinates l1, m1)."""

    def test_moment_maps_mu_one(self, instance_cache):
        ch = instance_cache("chart", "rank1")
        l = Poly.var(ch.vs, "l1")
        m = Poly.var(ch.vs, "m1")
        assert ch.moment[0] == m
        assert ch.moment[1] == l * m + Poly.const(ch.vs, 2)
        assert ch.moment[2] == l * l * m + l * Fraction(4)

    def test_moment_maps_general_mu(self):
        mu = Fraction(-3, 2)
        g = kkt.GradedLieAlgebra(jordan.make_rank_one(), mu)
        ch = SymplecticChart(g)
        l = Poly.var(ch.vs, "l1")
        m = Poly.var(ch.vs, "m1")
        assert ch.moment[1] == l * m + Poly.const(ch.vs, 2 * mu)
        assert ch.moment[2] == l * l * m + l * (4 * mu)

    def test_poisson_reproduces_bracket(self, instance_cache):
        # {lambda_E, lambda_u} = lambda_[E,u] = lambda_u
        ch = instance_cache("chart", "rank1")
        assert ch.poisson(ch.moment[1], ch.moment[0]) == ch.moment[0]


class TestPoissonBracket:
    def test_darboux_pairs(self, instance_cache):
        ch = instance_cache("chart", "spin:3")
        n = ch.g.n
        for la, ma in zip(ch.vs.names[:n], ch.vs.names[n:]):
            p = Poly.var(ch.vs, la)
            q = Poly.var(ch.vs, ma)
            assert ch.poisson(p, q) == Poly.const(ch.vs, 1)
            assert ch.poisson(p, p).is_zero()

    def test_antisymmetry_and_leibniz(self, instance_cache):
        ch = instance_cache("chart", "sym:2")
        p, q, r = ch.moment[0], ch.moment[4], ch.moment[8]
        assert (ch.poisson(p, q) + ch.poisson(q, p)).is_zero()
        lhs = ch.poisson(p, q * r)
        rhs = ch.poisson(p, q) * r + q * ch.poisson(p, r)
        assert lhs == rhs


@pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2", "sym:3"])
def test_strong_hamiltonicity(selector, instance_cache):
    ch = instance_cache("chart", selector)
    assert ch.hamiltonicity_residual() == (0, 0, None)


@pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2"])
def test_degree_bounds(selector, instance_cache):
    ch = instance_cache("chart", selector)
    for lam in ch.moment:
        assert lam.total_degree() <= 3
        assert max(degree_in(lam, x) for x in ch.vs.names[ch.g.n:]) <= 1
        assert max(degree_in(lam, x) for x in ch.vs.names[: ch.g.n]) <= 2


def test_moment_of_base_point_at_origin(instance_cache):
    # lambda_o(0, 0) = beta(o, o)
    for sel in ("rank1", "sym:2"):
        g = instance_cache("lie", sel)
        ch = instance_cache("chart", sel)
        # lambda_o = sum_i o_i lambda_i, by linearity
        coords = g.o
        lam_o = sum(
            (lam * c for c, lam in zip(coords, ch.moment) if c != 0), Poly.zero(ch.vs)
        )
        # its coefficient at the monomial 1, {nu-power: rational}, at nu = 0
        terms = unpacked(lam_o, lam_o.rationals())
        constant = {e[-1]: c for e, c in terms.items() if not any(e[:-1])}
        assert min(constant, default=0) >= 0
        assert constant.get(0, 0) == g.beta(g.o, g.o)


def test_perturbed_structure_breaks_hamiltonicity():
    bad = perturbed(jordan.make_spin_factor(2), 0, 1, 1)
    g = kkt.GradedLieAlgebra(bad, Fraction(1))
    ch = SymplecticChart(g)
    res, failing, first = ch.hamiltonicity_residual()
    assert res > 0 and failing > 0
    assert first == ((0, 2), Fraction(1, 2))
    # the chart suite names the first failing pair, and only on failure
    assert "hamiltonicity_witness" not in run_chart_suite(InstanceContext(RunConfig("spin:2")))
    ctx = InstanceContext(RunConfig("spin:2"))
    ctx._cache["algebra"] = bad
    out = run_chart_suite(ctx)
    assert not out["passed"] and out["failing_pairs"] == failing
    assert out["hamiltonicity_witness"] == "first failing (i, j) = (0, 2), residual 1/2"


@pytest.mark.parametrize(
    "perturb",
    [
        pytest.param(lambda: perturbed(jordan.make_spin_factor(2), 0, 1, 1), id="spin:2"),
        pytest.param(lambda: perturbed(jordan.make_sym_matrices(2), 1, 0, 1), id="sym:2"),
    ],
)
def test_hamiltonicity_matches_poly_chain(perturb):
    # the term-dict check on cached gradients against Poly sums per pair
    ch = SymplecticChart(kkt.GradedLieAlgebra(perturb(), Fraction(1)))
    got = tuple(ch.hamiltonicity_residual())
    assert got == poly_chain_hamiltonicity(ch)
    assert got[1] > 0
