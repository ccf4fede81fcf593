import copy
from fractions import Fraction

import pytest

from starcayley import jordan, kkt, linalg
from starcayley.report import BUILTIN_SELECTORS


@pytest.mark.parametrize(
    "selector,dim_g",
    [("rank1", 3), ("spin:3", 10), ("sym:2", 10), ("sym:3", 21)],
)
def test_dimension_table(selector, dim_g, instance_cache):
    g = instance_cache("lie", selector)
    assert g.dim == dim_g


@pytest.mark.parametrize("selector", ["rank1", "spin:3", "sym:2"])
def test_structure_suites(selector, instance_cache):
    g = instance_cache("lie", selector)
    results = kkt.run_structure_suite(g)
    assert [r.name for r in results] == [
        "jacobi", "theta", "identifications", "killing-invariance", "killing-closed-form"
    ]
    # antisymmetry and grading hold by construction and left the suite; they
    # stay asserted for as long as the functions exist
    results += [kkt.verify_antisymmetry(g), kkt.verify_grading(g)]
    for result in results:
        assert result.passed, f"{selector}: {result.name} residual {result.residual}"


def spur(g: kkt.GradedLieAlgebra, h: list) -> Fraction:
    """Trace of ad(h) restricted to g(-1), for h a coordinate vector."""
    return sum((s * c for s, c in zip(g.spur_vector, h)), Fraction(0))


def _perturbed(A: jordan.JordanAlgebra, a: int, b: int, c: int) -> jordan.JordanAlgebra:
    """A with the structure constant of e_c in e_a o e_b raised by 1: not a
    Jordan algebra."""
    S = [[list(row) for row in plane] for plane in A.structure]
    S[a][b][c] += 1
    return jordan.JordanAlgebra(
        name="perturbed",
        dim=A.dim,
        rank=A.rank,
        basis_names=A.basis_names,
        structure=jordan._freeze(S),
        unit=A.unit,
    )


def _perturbed_spin2() -> jordan.JordanAlgebra:
    # its table has D = 1 and its Theta D_theta = 3
    return _perturbed(jordan.make_spin_factor(2), 0, 1, 1)


def _perturbed_sym2() -> jordan.JordanAlgebra:
    # its table has D = 2
    return _perturbed(jordan.make_sym_matrices(2), 1, 0, 1)


def _fraction_residuals(g: kkt.GradedLieAlgebra):
    """Reference residuals in Fraction arithmetic, from ``bracket_coords``
    and the model's theta only: the Jacobi and Killing-invariance residual
    of each failing basis triple, keyed (i, j, k), the theta residual of
    each failing pair i < j of the automorphism identity, keyed (i, j), so
    that the first key is the first in the check's order, and the residual
    of each failing row i of theta^2, keyed i."""
    d = g.dim
    c = [[g.bracket_coords(i, j) for j in range(d)] for i in range(d)]
    jacobi = {}
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = [Fraction(0)] * d
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cm in c[b][e].items():
                        for p, cp in c[a][m].items():
                            acc[p] += cm * cp
                jacobi[(i, j, k)] = sum(abs(x) for x in acc)

    theta = [g.to_coords(g.theta(g.from_coords(e))) for e in linalg.identity(d)]

    def apply(v):
        return [sum((v[k] * theta[k][m] for k in range(d)), Fraction(0)) for m in range(d)]

    def bracket(x, y):
        out = [Fraction(0)] * d
        for i in range(d):
            for j in range(d):
                for k, ck in c[i][j].items():
                    out[k] += x[i] * y[j] * ck
        return out

    theta_res, square = {}, {}
    for i in range(d):
        square[i] = sum(abs(x - (m == i)) for m, x in enumerate(apply(theta[i])))
        for j in range(i + 1, d):
            lhs = apply([c[i][j].get(k, 0) for k in range(d)])
            theta_res[(i, j)] = sum(abs(a - b) for a, b in zip(lhs, bracket(theta[i], theta[j])))

    K = [
        [sum(x * c[j][k].get(l, 0) for l in range(d) for k, x in c[i][l].items()) for j in range(d)]
        for i in range(d)
    ]
    killing = {
        (i, j, k): abs(
            sum(x * K[m][k] for m, x in c[i][j].items())
            + sum(K[j][m] * x for m, x in c[i][k].items())
        )
        for i in range(d)
        for j in range(d)
        for k in range(j, d)
    }
    failing = lambda by_triple: {t: r for t, r in by_triple.items() if r}
    return failing(jacobi), failing(theta_res), failing(killing), failing(square)


@pytest.mark.parametrize("selector", ["rank1", "spin:2", "spin:3", "sym:2", "spin:4", "perturbed"])
def test_block_table_matches_model_bracket(selector, instance_cache):
    # the (u, T, v) model bracket is the independent oracle for the table
    # written from the block formulas
    if selector == "perturbed":
        g = kkt.GradedLieAlgebra(_perturbed_spin2())
    else:
        g = instance_cache("lie", selector)
    basis = [g.from_coords(e) for e in linalg.identity(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            c = g.to_coords(g.bracket(basis[i], basis[j]))
            nz = {k: x for k, x in enumerate(c) if x != 0}
            assert nz == g.bracket_table.get((i, j), {}), (i, j)


@pytest.mark.parametrize("selector", ["rank1", "spin:2", "spin:3", "sym:2", "perturbed"])
def test_killing_blocks_equal_every_trace(selector, instance_cache):
    # K is traced only where the grades sum to zero, for j >= i; every
    # dim^2 trace tr(ad_i ad_j) of the table must agree with it
    if selector == "perturbed":
        g = kkt.GradedLieAlgebra(_perturbed_spin2())
    else:
        g = instance_cache("lie", selector)
    ad = [[g.bracket_coords(i, l) for l in range(g.dim)] for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(g.dim):
            trace = sum(
                c * ad[j][k].get(l, 0) for l, col in enumerate(ad[i]) for k, c in col.items()
            )
            assert g.killing[i][j] == trace, (i, j)


@pytest.mark.parametrize("selector", [*BUILTIN_SELECTORS, "perturbed-spin:2", "perturbed-sym:2"])
def test_sparse_build_matches_model(selector, instance_cache):
    # the build forms each box as sum_c s_ab^c L(e_c) + [L(e_a), L(e_b)]
    # from sparse L(e_c), and tau from Tr L(e_c); the model's box and trace
    # form are their oracle
    if selector.startswith("perturbed"):
        A = {"perturbed-spin:2": _perturbed_spin2, "perturbed-sym:2": _perturbed_sym2}[selector]()
        g = kkt.GradedLieAlgebra(A)
    else:
        A, g = instance_cache("algebra", selector), instance_cache("lie", selector)
    n = A.dim
    e = linalg.identity(n)
    assert g.tau_gram == [[A.tau(x, y) for y in e] for x in e]
    for a in range(n):
        for b in range(n):
            assert linalg.dense(g._boxes[a * n + b]) == A.box(e[a], e[b]), (a, b)


def test_perturbed_closure_grows():
    # its three independent boxes do not span a closed g(0): the closure
    # pass adds a fourth matrix
    g = kkt.GradedLieAlgebra(_perturbed_spin2())
    assert g.dim0 == 4


class TestKillingForm:
    def test_grade_element_pairing(self, instance_cache):
        # beta(E, E) = 2n for every instance
        for sel in ("rank1", "spin:3", "sym:2", "sym:3"):
            g = instance_cache("lie", sel)
            E = g.E
            assert g.beta(E, E) == 2 * g.n

    def test_base_point_pairing_scales_with_mu(self):
        A = jordan.make_spin_factor(3)
        for mu in (Fraction(1), Fraction(2), Fraction(-3, 2)):
            g = kkt.GradedLieAlgebra(A, mu)
            o = g.o
            assert g.beta(o, o) == 2 * g.n * mu * mu

    def test_sl2_cross_pairing(self, instance_cache):
        # beta(u-part, v-part) = -4 tau(1,1) = -4 in the rank-one case
        g = instance_cache("lie", "rank1")
        u, _, v = linalg.identity(g.dim)
        assert g.beta(u, v) == -4

    def test_closed_form_matches_off_the_zero_grade(self, instance_cache):
        # the block formula agrees with the intrinsic form on all pairs
        g = instance_cache("lie", "sym:2")
        closed = kkt.closed_form_killing(g)
        for i in range(g.dim):
            for j in range(g.dim):
                assert g.killing[i][j] == closed[i][j], (i, j)

    def test_closed_form_needs_boxes_spanning_g0(self):
        # the perturbed closure adds a fourth g(0) matrix outside the span
        # of its boxes, so the block formula has no coordinates for it
        with pytest.raises(kkt.GradingClosureFailure):
            kkt.closed_form_killing(kkt.GradedLieAlgebra(_perturbed_spin2()))

    def test_rank_one_closed_form_is_exact(self, instance_cache):
        g = instance_cache("lie", "rank1")
        kappa, res = kkt.measure_kappa(g)
        assert kappa == 1 and res == 0

    @pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
    def test_kappa_is_a_fraction(self, selector, instance_cache):
        # K and the closed form hold ints, and int / int would be a float
        g = instance_cache("lie", selector)
        kappa, res = kkt.measure_kappa(g)
        assert type(kappa) is Fraction and kappa == 1
        assert type(res) is Fraction and res == 0

    def test_invariance_fails_on_perturbed_structure(self):
        # its bracket is not Killing-invariant; the detail names the first
        # failing triple
        result = kkt.verify_killing_invariance(kkt.GradedLieAlgebra(_perturbed_spin2()))
        assert not result.passed
        assert result.residual == 708
        assert result.detail == "first failing (i, j, k) = (0, 2, 6), residual 18"


def test_identifications_fail_on_perturbed_table(instance_cache):
    # one constant of [e_0, theta e_0] changed in the table, not in the model
    g = copy.copy(instance_cache("lie", "spin:2"))
    key = (0, g.n + g.dim0)
    # the table holds numerators over D, so adding D raises the constant by 1
    structure = dict(g._structure)
    structure[key] = {**structure[key], g.n: structure[key].get(g.n, 0) + g.denom}
    g._structure = structure
    result = kkt.verify_identifications(g)
    assert not result.passed
    assert result.residual == Fraction(3, 2)
    assert result.detail == "first failing box (a, b) = (0, 0), residual 1/2"


def test_theta_fails_on_perturbed_structure():
    # theta is not an automorphism of the perturbed bracket
    result = kkt.verify_theta(kkt.GradedLieAlgebra(_perturbed_spin2()))
    assert not result.passed
    assert result.residual == Fraction(8, 3)
    assert result.detail == "first failing (i, j) = (0, 7), residual 4/3"


def test_lie_checks_never_reach_the_model(model_forbidden):
    # Theta's g(0) rows are the build's coordinates of -T_i#, and the
    # closed Killing form learns from the build that the boxes miss the
    # closure's fourth matrix
    g = kkt.GradedLieAlgebra(_perturbed_spin2())
    assert g.theta_table[1] == 3
    result = kkt.verify_theta(g)
    assert result.residual == Fraction(8, 3)
    assert result.detail == "first failing (i, j) = (0, 7), residual 4/3"
    assert kkt.verify_jacobi(g).residual == 170
    assert kkt.verify_identifications(g).passed
    assert kkt.verify_killing_invariance(g).residual == 708
    with pytest.raises(kkt.GradingClosureFailure):
        kkt.closed_form_killing(g)


def test_wrong_sharp_fails_the_lie_suite(monkeypatch):
    # without the transpose the build's sharp G^-1 T G is T itself, as the
    # tau Gram matrix of a spin factor is scalar: an involution, T## = T,
    # but not the tau-adjoint on the so(1, 2) part of g(0)
    monkeypatch.setattr(linalg, "sparse_transpose", lambda t: t)
    g = kkt.GradedLieAlgebra(jordan.make_spin_factor(3))
    monkeypatch.undo()
    n, f = g.n, g.n + g.dim0
    # it reaches both Theta, whose g(0) rows are -T_i, and the [T_i, f_b]
    # block: T_3 = E_12 - E_21 is antisymmetric, and [T_3, f_1] is -T_3 f_1
    # = f_2, where the tau-adjoint would give T_3 f_1 = -f_2
    rows, den = g.theta_table
    assert rows[n:f] == [{n + i: -den} for i in range(g.dim0)]
    assert g.t_basis[3][1][2] == 1 and g.t_basis[3][2][1] == -1
    assert g.bracket_coords(n + 3, f + 1) == {f + 2: 1}
    # the model takes its own sharp, so it disagrees with this Theta
    model = [g.to_coords(g.theta(g.from_coords(e))) for e in linalg.identity(g.dim)]
    assert [[Fraction(row.get(m, 0), den) for m in range(g.dim)] for row in rows] != model
    results = kkt.run_structure_suite(g)
    failing = [r.name for r in results if not r.passed]
    assert failing == ["jacobi", "theta", "killing-invariance", "killing-closed-form"]
    assert results[0].detail == "14 failing triples; first failing (i, j, k) = (0, 6, 8), residual 4"


@pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
def test_theta_table_matches_model(selector, instance_cache):
    # the g(+-1) rows are written by index and the g(0) rows come from the
    # build's sharps; the model's theta is the independent route to every row
    g = instance_cache("lie", selector)
    model = [g.to_coords(g.theta(g.from_coords(e))) for e in linalg.identity(g.dim)]
    rows, den = g.theta_table
    assert den == kkt._common_denominator(x for row in model for x in row)
    assert [[Fraction(row.get(m, 0), den) for m in range(g.dim)] for row in rows] == model


def test_jacobi_fails_on_perturbed_structure():
    # the detail counts the failing triples and names the first
    result = kkt.verify_jacobi(kkt.GradedLieAlgebra(_perturbed_spin2()))
    assert not result.passed
    assert result.residual == 170
    assert result.detail == "13 failing triples; first failing (i, j, k) = (0, 1, 6), residual 4"


@pytest.mark.parametrize(
    "make,denom,theta_denom", [(_perturbed_spin2, 1, 3), (_perturbed_sym2, 2, 1)]
)
def test_integer_checks_match_fraction_reference(make, denom, theta_denom):
    # the checks run on numerators over D and D_theta and divide once at the
    # end; each residual and witness must equal the Fraction computation
    g = kkt.GradedLieAlgebra(make())
    assert (g.denom, g.theta_table[1]) == (denom, theta_denom)
    jacobi, theta, killing, square = _fraction_residuals(g)
    results = kkt.verify_jacobi(g), kkt.verify_theta(g), kkt.verify_killing_invariance(g)
    residuals = [sum(jacobi.values()), sum(theta.values()), sum(killing.values())]
    assert [r.residual for r in results] == residuals
    assert not any(r.passed for r in results)
    for result, by_triple in ((results[0], jacobi), (results[2], killing)):
        first = min(by_triple)
        witness = f"first failing (i, j, k) = {first}, residual {by_triple[first]}"
        assert result.detail.endswith(witness)
    assert results[0].detail.startswith(f"{len(jacobi)} failing triples; ")
    first = min(theta)
    assert results[1].detail == f"first failing (i, j) = {first}, residual {theta[first]}"
    # theta^2 = 1, which the check leaves out, fails only where the tau Gram
    # matrix is not symmetric, as on the non-commutative perturbed sym:2; a
    # validated algebra is commutative
    G = g.tau_gram
    symmetric = all(G[a][b] == G[b][a] for a in range(g.n) for b in range(a))
    assert symmetric == (not square)


class TestSymplecticStructure:
    def test_dual_basis_property(self, instance_cache):
        g = instance_cache("lie", "sym:2")
        L, Lp = g.symplectic_basis()
        for a in range(g.n):
            for b in range(g.n):
                assert g.omega(L[a], Lp[b]) == (1 if a == b else 0)

    def test_omega_vanishes_within_each_grade(self, instance_cache):
        g = instance_cache("lie", "spin:3")
        L, Lp = g.symplectic_basis()
        for a in range(g.n):
            for b in range(g.n):
                assert g.omega(L[a], L[b]) == 0
                assert g.omega(Lp[a], Lp[b]) == 0

    def test_sl2_dual_element(self, instance_cache):
        # with mu = 1 the dual of u is -v/4
        g = instance_cache("lie", "rank1")
        _, Lp = g.symplectic_basis()
        assert Lp[0][g.n + g.dim0 :] == [Fraction(-1, 4)]
        assert all(c == 0 for c in Lp[0][: g.n])

    def test_spur_of_grade_element(self, instance_cache):
        for sel in ("rank1", "spin:3", "sym:3"):
            g = instance_cache("lie", sel)
            assert spur(g, g.E) == g.n


class TestConstructorInvariants:
    def test_zero_mu_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            kkt.GradedLieAlgebra(jordan.make_rank_one(), Fraction(0))

    @pytest.mark.parametrize("mu", [0.5, 1.0, True, "1"])
    def test_inexact_mu_rejected(self, mu):
        # mu must be an int or a Fraction where g is built, not fail later
        # in the chart's coefficient ring
        with pytest.raises(TypeError, match="mu"):
            kkt.GradedLieAlgebra(jordan.make_rank_one(), mu)

    def test_matrix_outside_degree_zero_span_rejected(self, instance_cache):
        # g(0) of spin:3 is R Id + so(1,2); the elementary matrix E_01 is not
        # in it, so it has no coordinates
        g = instance_cache("lie", "spin:3")
        t = [[Fraction(0)] * 3 for _ in range(3)]
        t[0][1] = Fraction(1)
        with pytest.raises(kkt.GradingClosureFailure):
            g.t_coords(t)


class TestBracketOracle:
    def test_sl2_relations(self, instance_cache):
        # basis order (u, E, v); [E,u] = u... expressed through the table:
        # [u-part, E] = -u? check the standard sl2 relations via elements
        g = instance_cache("lie", "rank1")
        u, _, v = (g.from_coords(e) for e in linalg.identity(g.dim))
        E = g.from_coords(g.E)
        assert g.bracket(E, u).u == [Fraction(1)]  # [E, u] = u (lowers grade)
        assert g.bracket(E, v).v == [Fraction(-1)]
        uv = g.bracket(u, v)
        assert uv.t == [[Fraction(-2)]]  # [u, v] = -2 u box v = -2 L(1)

    def test_theta_swaps_grades(self, instance_cache):
        g = instance_cache("lie", "spin:3")
        x = g.from_coords([Fraction(1), Fraction(2)] + [Fraction(0)] * (g.dim - 2))
        tx = g.theta(x)
        assert tx.v == x.u and all(c == 0 for c in tx.u)

    def test_coordinates_roundtrip(self, instance_cache):
        g = instance_cache("lie", "sym:2")
        for i, e in enumerate(linalg.identity(g.dim)):
            b = g.from_coords(e)
            c = g.to_coords(b)
            assert c[i] == 1 and sum(abs(x) for x in c) == 1
