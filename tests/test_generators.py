"""The bracket identities proved on a certified generating set S of g: the
certificate itself, the sparse Jacobi rows, and reduced checks that agree
with the checks over every basis pair or triple."""

import copy
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import perturbed
from test_kkt import _perturbed_spin2, _perturbed_sym2

from starcayley import jordan, kkt, linalg, starrep
from starcayley.chart import SymplecticChart
from starcayley.poly import Poly, lincomb
from starcayley.report import BUILTIN_SELECTORS, RunConfig, run
from starcayley.starrep import bracket_sign
from starcayley.weyl import WeylOperator

SIZES = {"rank1": 2, "spin:2": 3, "spin:3": 4, "spin:4": 5, "spin:5": 6, "sym:2": 5, "sym:3": 9}
SMALL = ["rank1", "spin:2", "spin:3", "sym:2"]


def _closure_dim(g: kkt.GradedLieAlgebra, gens) -> int:
    """dim of the smallest subspace that holds the e_s, s in gens, and is
    closed under every ad_s, grown on Fraction coordinate vectors through
    ``coord_bracket`` and ``linalg.in_span``."""
    unit = linalg.identity(g.dim)
    found, todo = [], [unit[s] for s in gens]
    while todo:
        v = todo.pop()
        sparse = {k: x for k, x in enumerate(v) if x}
        if sparse and linalg.in_span(found, [sparse])[0] is None:
            found.append(sparse)
            todo += [g.coord_bracket(unit[s], v) for s in gens]
    return len(found)


def _full(g: kkt.GradedLieAlgebra) -> kkt.GradedLieAlgebra:
    """A copy of g whose generating set is every index, so that each check
    runs over every basis pair or triple."""
    h = copy.copy(g)
    h.generators, h._jacobi = tuple(range(g.dim)), None
    return h


@pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
def test_generators_span_g(selector, instance_cache):
    # all of g(-1), then g(1) in index order; the closure is g
    g = instance_cache("lie", selector)
    S = g.generators
    assert len(S) == SIZES[selector]
    assert S[: g.n] == tuple(range(g.n))
    assert S[g.n:] == tuple(range(g.n + g.dim0, g.n + g.dim0 + len(S) - g.n))
    assert _closure_dim(g, S) == g.dim


def test_dropping_the_last_generator_breaks_the_certificate(instance_cache):
    g = instance_cache("lie", "sym:3")
    assert _closure_dim(g, g.generators[:-1]) < g.dim
    assert _closure_dim(g, g.generators[: g.n]) == g.n


def test_generators_fall_back_to_every_index():
    # the closure of the perturbed spin:2 table appended a g(0) matrix that
    # g(-1) + g(1) does not generate
    g = kkt.GradedLieAlgebra(_perturbed_spin2())
    f = g.n + g.dim0
    assert _closure_dim(g, [*range(g.n), *range(f, g.dim)]) < g.dim
    assert g.generators == tuple(range(g.dim))


def _direct_jacobi(g: kkt.GradedLieAlgebra) -> dict:
    """The nonzero D^2 |J(i, j, k)| over every triple i < j < k, each
    cyclic term summed from the table."""
    S, out = g._structure, {}
    for i, j, k in itertools.combinations(range(g.dim), 3):
        acc: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in S.get((b, c), {}).items():
                lincomb(((x, S.get((a, m), {})),), acc)
        r = sum(map(abs, acc.values()))
        if r:
            out[(i, j, k)] = r
    return out


@pytest.mark.parametrize(
    "make",
    [_perturbed_spin2, _perturbed_sym2, lambda: perturbed(jordan.make_sym_matrices(2), 0, 0, 0),
     lambda: perturbed(jordan.make_spin_factor(3), 1, 2, 0)],
    ids=["perturbed-spin:2", "perturbed-sym:2", "grown-sym:2", "perturbed-spin:3"],
)
def test_sparse_jacobi_rows_match_every_triple(make):
    # the rows reached from the nonzero constants, each triple once over
    # every index, are the nonzero rows of the direct sum over all triples
    g = kkt.GradedLieAlgebra(make())
    rows = list(kkt._jacobi_rows(g, range(g.dim)))
    assert len({t for t, _ in rows}) == len(rows)
    assert {t: r for t, r in rows if r} == _direct_jacobi(g)


@pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
def test_reduced_checks_match_full_ones(selector, instance_cache):
    g, ch = instance_cache("lie", selector), instance_cache("chart", selector)
    rho, dpi = instance_cache("rho", selector), instance_cache("series", selector).dpi_basis()
    full = _full(g)
    full_chart = copy.copy(ch)
    full_chart.g = full
    for check in (kkt.verify_jacobi, kkt.verify_theta, kkt.verify_killing_invariance):
        assert check(g) == check(full)
    assert ch.hamiltonicity_residual() == full_chart.hamiltonicity_residual()
    for ops in (rho, dpi):
        assert bracket_sign(g, ops) == bracket_sign(full, ops)


class _Counted(tuple):
    """A tuple that counts how often it is iterated."""

    reads = 0

    def __iter__(self):
        type(self).reads += 1
        return super().__iter__()


def test_perturbed_spin2_takes_the_full_path():
    # Jacobi fails on its reduced pass, so theta and Killing invariance
    # never read the generating set and keep their pinned values
    g = kkt.GradedLieAlgebra(_perturbed_spin2())
    g.generators, _Counted.reads = _Counted(g.generators), 0
    jacobi = kkt.verify_jacobi(g)
    assert (jacobi.residual, _Counted.reads) == (170, 1)
    assert (jacobi.failures, jacobi.witness("(i, j, k)")) == (13, "first failing (i, j, k) = (0, 1, 6), residual 4")
    theta = kkt.verify_theta(g)
    assert (theta.residual, theta.witness("(i, j)")) == (Fraction(8, 3), "first failing (i, j) = (0, 7), residual 4/3")
    killing = kkt.verify_killing_invariance(g)
    assert (killing.residual, killing.witness("(i, j, k)")) == (708, "first failing (i, j, k) = (0, 2, 6), residual 18")
    assert _Counted.reads == 1


def test_a_full_report_decides_jacobi_once(monkeypatch):
    calls = []
    rows = kkt._jacobi_rows
    monkeypatch.setattr(kkt, "_jacobi_rows", lambda *a: calls.append(a[1]) or rows(*a))
    rep = run(RunConfig(algebra="sym:2"))
    assert rep.passed and len(calls) == 1
    # the certificate is its own build, and each suite that rests on the
    # verdict times its share apart
    assert {"build:generators", "check:lie.jacobi", "check:chart.jacobi", "check:theorem.jacobi"} <= set(rep.timings)


def test_kappa_h_differentiates_only_g1(instance_cache, monkeypatch):
    # h_A and D l_A are zero on g(-1) and read off T_j and the linear l_A on
    # g(0): only the n elements of g(1) take n x n derivatives
    srep = instance_cache("srep", "sym:3")
    srep._basis_parts
    calls = []
    diff = starrep.diff_terms
    monkeypatch.setattr(starrep, "diff_terms", lambda *a: calls.append(1) or diff(*a))
    assert srep.measure_kappa_h() == (1, (0, 0, None))
    assert len(calls) == srep.g.n ** 3


# -- single-term perturbations: reduced and full checks agree --------------------


def _term(zvs, draw_exps, coeff):
    """The monomial coeff * z^exps as a Poly."""
    p = Poly.const(zvs, coeff)
    for name, e in zip(zvs.names, draw_exps):
        p = p * Poly.var(zvs, name) ** e if e else p
    return p


perturbations = st.tuples(
    st.sampled_from(SMALL),
    st.integers(0, 10**6),  # basis index, modulo dim g
    st.lists(st.integers(0, 2), min_size=3, max_size=3),  # exponents, cut to n
    st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool),
    st.integers(-1, 10**6),  # -1: the multiplier, else a d/dz component modulo n
)


@given(case=perturbations)
@settings(max_examples=40, deadline=None)
def test_perturbed_operators_agree(case, instance_cache):
    # one term added to rho(e_i) or to dpi(e_i): the sign and the Tally over
    # the pairs that meet S equal those over every pair
    selector, i, exps, c, comp = case
    g, zvs = instance_cache("lie", selector), instance_cache("srep", selector).zvs
    n, i = g.n, i % g.dim
    term = WeylOperator.from_poly(_term(zvs, exps[:n], c))
    if comp >= 0:
        term = term * WeylOperator.partial(zvs, zvs.names[comp % n])
    for ops in (list(instance_cache("rho", selector)), instance_cache("series", selector).dpi_basis()):
        ops[i] = ops[i] + term
        assert bracket_sign(g, ops) == bracket_sign(_full(g), ops)


@given(perturbations)
@settings(max_examples=40, deadline=None)
def test_perturbed_moment_maps_and_theta_agree(case):
    # one term added to a moment map, or one entry of Theta moved
    selector, i, exps, c, k = case
    g = kkt.GradedLieAlgebra(jordan.make_algebra(selector))
    ch = SymplecticChart(g)
    i = i % g.dim
    ch.moment = list(ch.moment)
    ch.moment[i] = ch.moment[i] + _term(ch.vs, (exps * 2)[: 2 * g.n], c)
    full = copy.copy(ch)
    full.g = _full(g)
    assert ch.hamiltonicity_residual() == full.hamiltonicity_residual()
    # one entry of Theta's row i moved by 6 c
    rows, den = g.theta_table
    rows = [dict(r) for r in rows]
    m = max(k, 0) % g.dim
    rows[i][m] = rows[i].get(m, 0) + int(6 * c)
    g.theta_table = rows, den
    assert kkt.verify_theta(g) == kkt.verify_theta(_full(g))
