"""Small exact linear algebra helpers over Fraction.

Matrices are lists of lists of Fractions (or of any commutative ring
element for the generic routines), eliminated by plain Gaussian
elimination.  The g build works on sparse matrices: a list of rows, row r
a dict from column to nonzero entry, with ints where integral, combined
by ``poly.lincomb``; a square one enters ``Echelon`` as the sparse vector
of its flattened entries, {r n + c: entry}.  ``Echelon`` and ``in_span``
reduce sparse vectors in the order of dense Gaussian elimination, so the
kept vectors and the coordinates are those of the dense elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .poly import lincomb, pruned

Matrix = List[List[Fraction]]
# row r maps column c to the nonzero entry (r, c)
Sparse = List[dict]


def identity(n: int) -> Matrix:
    zero, one = Fraction(0), Fraction(1)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    return [[c * x for x in row] for row in a]


def _is_zero(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out: list = [[None] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if _is_zero(c):
                continue
            bt = b[t]
            for j in range(m):
                p = c * bt[j]
                oi[j] = p if oi[j] is None else oi[j] + p
    probe = a[0][0] * b[0][0]
    zero = probe - probe
    return [[zero if x is None else x for x in row] for row in out]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list:
    return [sum((c * x for c, x in zip(row, v) if c != 0), Fraction(0)) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def trace(a: Matrix):
    return sum((a[i][i] for i in range(1, len(a))), a[0][0])


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def invert(a: Matrix) -> Matrix:
    """a^-1 from one ``Echelon``: the rows a_i of a are absorbed, and row j
    of a^-1 is the coordinates of e_j along them, since sum_i c_i a_i = e_j;
    raises ValueError when a row depends on the ones before it."""
    span = Echelon()
    for row in a:
        if span.absorb(dict(enumerate(row))) is not None:
            raise ValueError("singular matrix")
    n = len(a)
    rows = (span.coords({j: 1}) for j in range(n))
    return [[Fraction(c.get(i, 0)) for i in range(n)] for c in rows]


def positive_definite(a: Matrix) -> bool:
    """Whether the symmetric matrix a is positive definite, exactly: Gaussian
    elimination without row exchanges meets only positive pivots.  The k-th
    pivot is the ratio of the k-th to the (k-1)-th leading minor, so this is
    Sylvester's criterion from one elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    for c, pivot_row in enumerate(m):
        pv = pivot_row[c]
        if pv <= 0:
            return False
        for row in m[c + 1 :]:
            f = row[c] / pv
            if f:
                row[c:] = [x - f * y for x, y in zip(row[c:], pivot_row[c:])]
    return True


def sparse(a: Matrix) -> Sparse:
    return [{c: x for c, x in enumerate(row) if x} for row in a]


def flat(a: Sparse) -> dict:
    """The entries of the square sparse matrix a as a sparse vector of
    length n^2, entry (r, c) at index r n + c."""
    n = len(a)
    return {r * n + c: x for r, row in enumerate(a) for c, x in row.items()}


def sparse_transpose(a: Sparse) -> Sparse:
    """The transpose of the square sparse matrix a."""
    return [{r: row[c] for r, row in enumerate(a) if c in row} for c in range(len(a))]


def sparse_sum(terms, rows: int) -> Sparse:
    """sum of c m over the pairs (c, m) of terms, m sparse with ``rows`` rows."""
    terms = list(terms)
    return [pruned(lincomb((c, m[r]) for c, m in terms)) for r in range(rows)]


def sparse_mul(a: Sparse, b: Sparse) -> Sparse:
    return [pruned(lincomb((x, b[t]) for t, x in row.items())) for row in a]


def sparse_commutator(a: Sparse, b: Sparse) -> Sparse:
    return sparse_sum(((1, sparse_mul(a, b)), (-1, sparse_mul(b, a))), len(a))


def in_span(vectors: List[dict], targets: List[dict]) -> list:
    """Coordinates of each sparse target in the span of the sparse
    ``vectors``, as a dense list, or None for a target off the span; the
    vectors are eliminated once.  A vector that depends on the ones before
    it gets coordinate zero, so the coordinates are unique."""
    span = Echelon()
    kept = [i for i, w in enumerate(vectors) if span.absorb(w) is None]
    out = []
    for v in targets:
        c = span.coords(v)
        if c is not None:
            full = [Fraction(0)] * len(vectors)
            for k, x in c.items():
                full[kept[k]] = x
            c = full
        out.append(c)
    return out


class Echelon:
    """A growing list of independent sparse vectors kept in row echelon form.

    Each row is a reduced vector with 1 at its pivot, the lowest index,
    and the combination of the added vectors that it equals, both sparse,
    so reducing v against the rows in order gives both membership and the
    coordinates of v; the vectors ``absorb`` keeps are the pivot columns of
    the matrix they form, in order.
    """

    def __init__(self):
        self.size = 0
        self._rows: list = []  # (pivot, reduced row, combination), both dicts

    def _reduce(self, v: dict) -> Tuple[dict, dict]:
        r = {k: x for k, x in v.items() if x}
        steps = []
        for p, row, comb in self._rows:
            f = r.get(p)
            if f:
                for k, y in row.items():
                    x = r.get(k, 0) - f * y
                    if x:
                        r[k] = x
                    else:
                        del r[k]
                steps.append((f, comb))
        return r, pruned(lincomb(steps))

    def coords(self, v: dict) -> dict | None:
        """Nonzero coordinates of v along the added vectors, keyed by the
        order of addition, or None off their span."""
        r, coords = self._reduce(v)
        return None if r else coords

    def absorb(self, v: dict) -> dict | None:
        """Nonzero coordinates of v when it lies in the span; otherwise add
        v as the next vector and return None."""
        r, coords = self._reduce(v)
        if not r:
            return coords
        p = min(r)
        inv = 1 / Fraction(r[p])
        comb = {k: -c * inv for k, c in coords.items()}
        comb[self.size] = inv
        self._rows.append((p, {k: x * inv for k, x in r.items()}, comb))
        self.size += 1
        return None
