from fractions import Fraction

import pytest
from conftest import dense
from hypothesis import given, settings, strategies as st

from starcayley import jordan, linalg
from starcayley.report import BUILTIN_SELECTORS


@pytest.mark.parametrize(
    "matrix,expected",
    [
        pytest.param([[2, 1], [1, 2]], True, id="definite"),
        pytest.param([[Fraction(1, 2)]], True, id="one-by-one"),
        pytest.param([[2, 0], [0, -2]], False, id="negative-pivot"),
        pytest.param([[1, 2], [2, 1]], False, id="positive-diagonal-indefinite"),
        pytest.param([[1, 1], [1, 1]], False, id="zero-second-pivot"),
        pytest.param([[0, 0], [0, 1]], False, id="zero-first-pivot"),
        pytest.param([[4, 2, 2], [2, 5, 3], [2, 3, 6]], True, id="three-by-three"),
        pytest.param([[4, 2, 2], [2, 1, 3], [2, 3, 6]], False, id="zero-pivot-mid"),
    ],
)
def test_positive_definite_from_pivots(matrix, expected):
    assert linalg.positive_definite(matrix) is expected
    # Sylvester's criterion on the leading minors, as an independent oracle
    minors = [_det([row[: k + 1] for row in matrix[: k + 1]]) for k in range(len(matrix))]
    assert all(d > 0 for d in minors) is expected


def _det(m):
    """Cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def vectors(n):
    # about half the entries zero, so that the sparse forms are sparse
    return st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=n, max_size=n)


def square_pairs():
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(*(st.lists(vectors(n), min_size=n, max_size=n) for _ in "ab"))
    )


@given(square_pairs(), rationals)
@settings(max_examples=50)
def test_sparse_products_and_sums_match_dense(ab, c):
    a, b = ab
    sa, sb = linalg.sparse(a), linalg.sparse(b)
    assert dense(linalg.sparse_mul(sa, sb)) == linalg.mat_mul(a, b)
    assert dense(linalg.sparse_commutator(sa, sb)) == linalg.commutator(a, b)
    total = linalg.sparse_sum(iter([(1, sa), (c, sb)]), len(a))
    assert dense(total) == linalg.mat_add(a, linalg.mat_scale(b, c))
    # no zero is stored, and a sum that cancels is empty
    assert all(all(row.values()) for row in total)
    assert linalg.sparse_sum([(c, sb), (-c, sb)], len(b)) == [{} for _ in b]


def _rank(rows):
    """Rank by dense Gaussian elimination, as an oracle for Echelon."""
    m, rank = [list(r) for r in rows], 0
    for col in range(max(map(len, m), default=0)):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def span_cases(draw):
    """Vectors and a target: a combination of them, moved off it half the time."""
    n = draw(st.integers(1, 4))
    vecs = draw(st.lists(vectors(n), min_size=1, max_size=5))
    coeffs = draw(st.lists(rationals, min_size=len(vecs), max_size=len(vecs)))
    target = [sum((c * v[i] for c, v in zip(coeffs, vecs)), Fraction(0)) for i in range(n)]
    if draw(st.booleans()):
        target = [x + y for x, y in zip(target, draw(vectors(n)))]
    return vecs, target


def _combination(coords, kept, n):
    return [sum((c * kept[k][i] for k, c in coords.items()), Fraction(0)) for i in range(n)]


@given(span_cases())
@settings(max_examples=100)
def test_echelon_coordinates_reconstruct(case):
    vecs, target = case
    n = len(target)
    span, kept = linalg.Echelon(), []
    for v in vecs:
        c = span.absorb({i: x for i, x in enumerate(v) if x})
        if c is None:
            kept.append(v)
        else:
            assert all(c.values()) and _combination(c, kept, n) == v
    assert len(kept) == _rank(kept) == _rank(vecs) == span.size
    c = span.coords({i: x for i, x in enumerate(target) if x})
    assert (c is None) == (_rank(vecs + [target]) > _rank(vecs))
    if c is not None:
        assert _combination(c, kept, n) == target


@pytest.mark.parametrize(
    "a",
    [
        pytest.param([[2, 1], [1, 2]], id="two-by-two"),
        pytest.param([[0, 1], [1, 0]], id="zero-diagonal"),
        pytest.param([[1, 2, 3], [0, 1, 4], [5, 6, 0]], id="three-by-three"),
        pytest.param([[3]], id="one-by-one"),
    ],
)
def test_invert_integer_matrices(a):
    assert linalg.mat_mul(a, linalg.invert(a)) == linalg.identity(len(a))


@pytest.mark.parametrize("selector", BUILTIN_SELECTORS)
def test_invert_tau_gram(selector):
    gram = jordan.make_algebra(selector).tau_gram()
    assert linalg.mat_mul(gram, linalg.invert(gram)) == linalg.identity(len(gram))


@pytest.mark.parametrize("a", [[[1, 2], [2, 4]], [[0, 0], [0, 1]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]])
def test_invert_singular_raises(a):
    with pytest.raises(ValueError, match="singular matrix"):
        linalg.invert(a)
