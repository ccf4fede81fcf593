import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starcayley import jordan, linalg
from starcayley.poly import Poly, VarSet, numerators
from starcayley.report import BUILTIN_SELECTORS

from conftest import dense_structure


def basis_vector(A: jordan.JordanAlgebra, a: int) -> list:
    """The coordinate vector of the basis element e_a of A."""
    v = [Fraction(0)] * A.dim
    v[a] = Fraction(1)
    return v


rational_vectors = lambda n: st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=n, max_size=n
)


class TestBuiltins:
    @pytest.mark.parametrize(
        "selector,dim,rank",
        [
            ("rank1", 1, 1),
            ("spin:2", 2, 2),
            ("spin:3", 3, 2),
            ("spin:5", 5, 2),
            ("sym:2", 3, 2),
            ("sym:3", 6, 3),
        ],
    )
    def test_dimensions_and_axioms(self, selector, dim, rank):
        A = jordan.make_algebra(selector)
        assert (A.dim, A.rank) == (dim, rank)
        rep = jordan.validate_jordan(A)
        assert rep.passed, rep.failures

    def test_tau_of_unit_is_dim(self):
        # tau(e, e) = Tr L(e) = Tr Id = n
        for sel in ("rank1", "spin:3", "sym:2"):
            A = jordan.make_algebra(sel)
            assert A.tau(list(A.unit), list(A.unit)) == A.dim

    def test_spin_factor_product(self):
        # (s,u) o (t,v) = (st + <u,v>, sv + tu)
        A = jordan.make_spin_factor(3)
        x = [Fraction(2), Fraction(1), Fraction(0)]
        y = [Fraction(3), Fraction(0), Fraction(5)]
        assert A.mul(x, y) == [Fraction(6), Fraction(3), Fraction(10)]

    @pytest.mark.parametrize("kind", ["spin", "sym"])
    def test_size_above_the_limit_is_rejected_before_building(self, kind):
        # the first size whose dimension exceeds the limit: k = 65, p = 11
        bound = jordan.MAX_BUILTIN_DIM
        size = bound + 1 if kind == "spin" else next(p for p in range(1, bound) if p * (p + 1) > 2 * bound)
        with pytest.raises(jordan.InvalidDimension, match=f"above the limit {bound}"):
            jordan.make_algebra(f"{kind}:{size}")
        assert bound >= 27  # the Albert algebra's dimension

    @pytest.mark.parametrize(
        "selector",
        ["rank1", *(f"sym:{p}" for p in range(1, 7)), *(f"spin:{k}" for k in range(2, 11))],
    )
    def test_table_equals_the_dense_oracle(self, selector):
        # the nonzero products each builder writes, against the dense table
        # of Fractions the builders formed before, brought to one denominator
        A = jordan.make_algebra(selector)
        rows, den = numerators(dict(enumerate(row)) for plane in dense_structure(selector) for row in plane)
        assert (A.table, A.den) == ({divmod(i, A.dim): r for i, r in enumerate(rows) if r}, den)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param({"den": 0}, id="zero-den"),
            pytest.param({"den": -1}, id="negative-den"),
            pytest.param({"den": Fraction(1)}, id="fraction-den"),
            pytest.param({"den": True}, id="bool-den"),
            pytest.param({"table": {(0, 1): {0: 1}}}, id="key-outside-dim"),
            pytest.param({"table": {(0, 0): {-1: 1}}}, id="product-outside-dim"),
            pytest.param({"table": {(0,): {0: 1}}}, id="key-not-a-pair"),
            pytest.param({"table": {(0, 0): {}}}, id="empty-row"),
            pytest.param({"table": {(0, 0): {0: 0}}}, id="zero-numerator"),
        ],
    )
    def test_constructor_rejects_a_bad_table(self, edit):
        fields = {"name": "rank1", "dim": 1, "rank": 1, "basis_names": ("e",),
                  "table": {(0, 0): {0: 1}}, "den": 1, "unit": (Fraction(1),)}
        assert jordan.JordanAlgebra(**fields) == jordan.make_rank_one()
        with pytest.raises(ValueError):
            jordan.JordanAlgebra(**{**fields, **edit})

    @pytest.mark.parametrize(
        "edit, error",
        [
            # an empty table: validation raised IndexError
            pytest.param({"dim": 0, "basis_names": (), "table": {}, "unit": ()}, "rank 2 is not", id="dim-0"),
            # and g was built with dim -2
            pytest.param({"dim": -1, "basis_names": (), "table": {}, "unit": ()}, "unit has 0", id="dim-minus-1"),
            # validation passed on these
            pytest.param({"rank": 0}, "rank 0 is not between 1 and dim 2", id="rank-0"),
            pytest.param({"rank": 5}, "rank 5 is not between 1 and dim 2", id="rank-above-dim"),
            pytest.param({"unit": (Fraction(1),)}, "unit has 1 entries", id="short-unit"),
            pytest.param({"basis_names": ("s", "u1", "u2")}, "basis_names has 3", id="long-names"),
            # blamed on the unit or the rank before dim was checked
            pytest.param({"dim": "1"}, "dim must be an int, got '1'", id="dim-str"),
            pytest.param({"dim": 1.0}, r"dim must be an int, got 1\.0", id="dim-float"),
            pytest.param({"dim": True}, "dim must be an int, got True", id="dim-bool"),
        ],
    )
    def test_constructor_rejects_a_bad_size(self, edit, error):
        A = jordan.make_spin_factor(2)
        fields = {"name": A.name, "dim": 2, "rank": 2, "basis_names": A.basis_names,
                  "table": A.table, "den": 1, "unit": A.unit}
        assert jordan.JordanAlgebra(**fields) == A
        with pytest.raises(jordan.InvalidDimension, match=error):
            jordan.JordanAlgebra(**{**fields, **edit})

    @pytest.mark.parametrize("unit", [(1.0, Fraction(0)), (True, 0)], ids=["float", "bool"])
    def test_constructor_rejects_an_inexact_unit(self, unit):
        with pytest.raises(ValueError, match="unit entries must be int or Fraction"):
            jordan.JordanAlgebra("spin:2", 2, 2, ("s", "u1"), jordan.make_spin_factor(2).table, 1, unit)

    def test_sym_matrices_product_matches_matrices(self):
        A = jordan.make_sym_matrices(2)
        # E11 o F12 = 1/2 (E11 F12 + F12 E11) = 1/2 F12
        e11 = basis_vector(A, 0)
        f12 = basis_vector(A, 2)
        assert A.mul(e11, f12) == [Fraction(0), Fraction(0), Fraction(1, 2)]


def triple(A, x, y, z) -> list:
    """{x, y, z} = (x o y) o z + x o (y o z) - y o (x o z)."""
    t1 = A.mul(A.mul(x, y), z)
    t2 = A.mul(x, A.mul(y, z))
    t3 = A.mul(y, A.mul(x, z))
    return [a + b - c for a, b, c in zip(t1, t2, t3)]


class TestOperators:
    @given(rational_vectors(3), rational_vectors(3), rational_vectors(3))
    @settings(max_examples=30)
    def test_triple_product_matches_box(self, x, y, z):
        A = jordan.make_sym_matrices(2)
        box = A.box(x, y)
        via_box = [sum(row[j] * z[j] for j in range(3)) for row in box]
        assert via_box == triple(A, x, y, z)

    @given(rational_vectors(3), rational_vectors(3))
    @settings(max_examples=30)
    def test_quadratic_rep_is_triple(self, z, v):
        A = jordan.make_spin_factor(3)
        P = A.quadratic_rep(z)
        via_p = [sum(row[j] * v[j] for j in range(3)) for row in P]
        assert via_p == triple(A, z, v, z)

    @pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
    def test_quadratic_rep_equals_the_matrix_product(self, selector):
        # P(z) column by column from mul, against 2 L(z)^2 - L(z^2) from
        # matrix products, on the indeterminates z the discrete series uses
        A = jordan.make_algebra(selector)
        vs = VarSet(tuple(f"z{i + 1}" for i in range(A.dim)))
        z = [Poly.var(vs, name) for name in vs.names]
        lz = A.L(z)
        want = linalg.mat_sub(linalg.mat_scale(linalg.mat_mul(lz, lz), 2), A.L(A.mul(z, z)))
        assert A.quadratic_rep(z) == want

    @given(rational_vectors(3), rational_vectors(3))
    @settings(max_examples=30)
    def test_tau_is_symmetric_and_associative(self, x, y):
        A = jordan.make_sym_matrices(2)
        assert A.tau(x, y) == A.tau(y, x)
        e = list(A.unit)
        # tau(x o y, e) = tau(x, y o e) = tau(x, y)
        assert A.tau(A.mul(x, y), e) == A.tau(x, y)


class TestLoader:
    def test_roundtrip_through_json(self):
        # to_json leaves the basis names out; with them the loader gives
        # back an equal algebra
        for selector in (*BUILTIN_SELECTORS, "sym:4", "spin:6"):
            A = jordan.make_algebra(selector)
            B = jordan.load_from_structure_constants({**A.to_json(), "basis_names": list(A.basis_names)})
            assert B == A, selector

    def test_rejects_non_jordan_table(self):
        A = jordan.make_spin_factor(2)
        data = A.to_json()
        data["structure"][0][1][1] = "2"  # breaks commutativity
        with pytest.raises(jordan.ValidationFailed):
            jordan.load_from_structure_constants(data)

    def test_rejects_indefinite_trace_form(self):
        # e1 o e1 = -e0 makes spin:2 the complex numbers: commutative, Jordan
        # and unital, with Gram matrix diag(2, -2)
        data = jordan.make_spin_factor(2).to_json()
        data["structure"][1][1][0] = "-1"
        with pytest.raises(jordan.ValidationFailed) as info:
            jordan.load_from_structure_constants(data)
        assert info.value.report.failures == ["trace form: Gram matrix not positive definite"]
        assert str(info.value) == "trace form: Gram matrix not positive definite"

    def test_loaded_algebra_keeps_its_validation(self):
        A = jordan.make_spin_factor(2)
        assert A.validation is None
        B = jordan.load_from_structure_constants(A.to_json())
        assert B.validation.passed and B.validation.to_json() == jordan.validate_jordan(A).to_json()

    @pytest.mark.parametrize(
        "selector", ["rank1", "spin:2", "spin:3", "spin:4", "spin:5", "sym:2", "sym:3",
                     "spin:20", "sym:4", "sym:7"],
    )
    def test_minimal_polynomial_degree_is_the_rank(self, selector):
        A = jordan.make_algebra(selector)
        assert jordan.min_poly_degree(A) == A.rank

    def test_accepts_a_rank_declared_too_high(self):
        # the degree bounds the rank from below only
        data = {**jordan.make_spin_factor(3).to_json(), "rank": 3}
        assert jordan.load_from_structure_constants(data).rank == 3

    def test_rejects_bad_shape(self):
        A = jordan.make_rank_one()
        data = A.to_json()
        data["dim"] = 2
        with pytest.raises(jordan.InvalidDimension):
            jordan.load_from_structure_constants(data)

    def test_a_declared_dim_is_checked_against_the_table_before_use(self):
        # the shapes are checked before default basis names are made for
        # dim, so a dim far above the table's size costs no memory
        data = {"dim": 10**6, "rank": 1, "unit": [], "structure": []}
        tracemalloc.start()
        try:
            with pytest.raises(jordan.InvalidDimension, match="shape does not match dim"):
                jordan.load_from_structure_constants(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param({"structure": "1"}, id="string-table"),
            pytest.param({"structure": ["1"]}, id="string-plane"),
            pytest.param({"structure": [["1"]]}, id="string-row"),
            pytest.param({"unit": "1"}, id="string-unit"),
        ],
    )
    def test_rejects_a_string_in_place_of_an_array(self, edit):
        # a string iterates as its characters, each of them a rational
        data = {**jordan.make_rank_one().to_json(), **edit}
        with pytest.raises(jordan.UnknownAlgebra, match="expected a JSON array"):
            jordan.load_from_structure_constants(data)

    @pytest.mark.parametrize("selector", ["spin:03", "spin: 3", "spin:+3", "spin:3 ", "sym:0_2"])
    def test_selector_takes_only_canonical_integers(self, selector):
        with pytest.raises(jordan.UnknownAlgebra, match="canonical"):
            jordan.make_algebra(selector)

    def test_unknown_selector(self):
        with pytest.raises(jordan.UnknownAlgebra):
            jordan.make_algebra("octonion:3")
