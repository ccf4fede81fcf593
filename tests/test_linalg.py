from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starcayley import jordan, kkt, linalg
from starcayley.poly import numerators
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


integers = st.integers(min_value=-3, max_value=3)


def int_squares():
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(*(st.lists(st.lists(integers, min_size=n, max_size=n),
                                       min_size=n, max_size=n) for _ in "ab"))
    )


@given(int_squares())
@settings(max_examples=50)
def test_integer_products_match_dense(ab):
    # the flat integer products of the g build against dense ones
    a, b = ab
    n = len(a)
    flat = lambda m: {r * n + c: x for r, row in enumerate(m) for c, x in enumerate(row) if x}
    dense = lambda f: [[f.get(r * n + c, 0) for c in range(n)] for r in range(n)]
    ra, rb = kkt._rows(flat(a), n), kkt._rows(flat(b), n)
    assert dense(kkt._product(flat(a), rb)) == linalg.mat_mul(a, b)
    assert dense(kkt._product(flat(b), ra, -1, kkt._product(flat(a), rb))) == linalg.commutator(a, b)
    assert dense(kkt._transposed(flat(a), n)) == linalg.transpose(a)


def _rank(rows):
    """Rank by dense Gaussian elimination, as an oracle for Echelon."""
    m, rank = [list(r) for r in rows], 0
    for col in range(max(map(len, m), default=0)):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = Fraction(m[i][col]) / m[rank][col]
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


def _ints(v):
    """The dense rational vector v as (sparse integer numerators, denominator)."""
    (w,), d = numerators([dict(enumerate(v))])
    return w, d


def _combination(coords, kept, n):
    return [sum((c * kept[k][i] for k, c in coords.items()), Fraction(0)) for i in range(n)]


@given(span_cases())
@settings(max_examples=100)
def test_echelon_coordinates_reconstruct(case):
    vecs, target = case
    n = len(target)
    span, kept = linalg.Echelon(), []
    as_fractions = lambda c: c and {k: Fraction(x, c[1]) for k, x in c[0].items()}
    for v in vecs:
        w, d = _ints(v)
        c = as_fractions(span.coords(w, d))
        # appended, with the bookkeeping key of its index, exactly when off the span
        assert span.absorb({**w, ~len(kept): d}) == (c is None)
        if c is None:
            kept.append(v)
        else:
            assert all(c.values()) and _combination(c, kept, n) == v
    assert len(kept) == _rank(kept) == _rank(vecs) == span.size
    c = as_fractions(span.coords(*_ints(target)))
    assert (c is None) == (_rank(vecs + [target]) > _rank(vecs))
    if c is not None:
        assert _combination(c, kept, n) == target


def _dense_coords(kept, v):
    """The coordinates of v along the independent kept vectors by dense
    Gauss-Jordan elimination of [kept^T | v] over Fractions, or None when
    v is off their span."""
    m = [[Fraction(w[i]) for w in kept] + [Fraction(v[i])] for i in range(len(v))]
    rank = 0
    for col in range(len(kept)):
        pivot = next(i for i in range(rank, len(m)) if m[i][col])
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = [x - m[i][col] * y for x, y in zip(m[i], m[rank])]
        rank += 1
    if any(row[-1] for row in m[rank:]):
        return None
    return [row[-1] for row in m[:rank]]


@st.composite
def vector_lists(draw):
    """Integer or rational vectors, some of them combinations of earlier
    ones, and a target that is one half the time."""
    n = draw(st.integers(1, 5))
    entries = draw(st.sampled_from([integers, rationals]))
    vecs = []
    for _ in range(draw(st.integers(1, 6))):
        if vecs and draw(st.booleans()):
            coeffs = draw(st.lists(entries, min_size=len(vecs), max_size=len(vecs)))
            vecs.append([sum((c * v[i] for c, v in zip(coeffs, vecs)), 0) for i in range(n)])
        else:
            vecs.append(draw(st.lists(st.one_of(st.just(0), entries), min_size=n, max_size=n)))
    target = draw(st.sampled_from(vecs + [draw(st.lists(entries, min_size=n, max_size=n))]))
    return vecs, target


@given(vector_lists())
@settings(max_examples=150, deadline=None)
def test_echelon_matches_dense_elimination(case):
    # the fraction-free reduced echelon form against dense elimination
    vecs, target = case
    span, kept = linalg.Echelon(), []
    for i, v in enumerate(vecs):
        w, d = _ints(v)
        c = span.coords(w, d)
        # kept exactly when the rank grows
        assert (c is None) == (_rank(vecs[: i + 1]) > _rank(vecs[:i]))
        assert span.absorb({**w, ~len(kept): d}) == (c is None)
        if c is None:
            kept.append(v)
        else:
            assert [Fraction(c[0].get(k, 0), c[1]) for k in range(len(kept))] == _dense_coords(kept, v)
        # reduced row echelon form: each row holds den at its pivot, the
        # smallest key >= 0, and each pivot column is zero in every other row
        for p, row in span._rows.items():
            assert p == min(k for k in row if k >= 0)
            assert row[p] == span.den and all(q not in row for q in span._rows if q != p)
    c = span.coords(*_ints(target))
    want = _dense_coords(kept, target)
    assert (c is None) == (want is None)
    if c is not None:
        assert [Fraction(c[0].get(k, 0), c[1]) for k in range(len(kept))] == want


@given(vector_lists())
@settings(max_examples=100, deadline=None)
def test_in_span_coordinates_match_dense_elimination(case):
    # every vector and the target against dense elimination along the
    # independent vectors; each dependent vector gets coordinate 0
    vecs, target = case
    kept = [i for i in range(len(vecs)) if _rank(vecs[: i + 1]) > _rank(vecs[:i])]
    sparse = lambda v: {k: x for k, x in enumerate(v) if x}
    targets = vecs + [target]
    for t, got in zip(targets, linalg.in_span([sparse(v) for v in vecs], [sparse(t) for t in targets])):
        want = _dense_coords([vecs[i] for i in kept], t)
        assert (got is None) == (want is None)
        if got is not None:
            assert all(got[i] == 0 for i in range(len(vecs)) if i not in kept)
            assert [got[i] for i in kept] == want


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
