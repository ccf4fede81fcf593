"""Small exact linear algebra helpers.

Matrices are lists of lists of Fractions (or of any commutative ring
element for the generic routines).  Exact elimination runs on integers:
``Echelon`` keeps sparse integer vectors, {index: nonzero int}, in reduced
row echelon form over one common denominator, the layout of FLINT's
``fmpq_mat``.  Its pivots are the keys >= 0; negative keys are bookkeeping
columns, as in Gauss-Jordan elimination on [A | I], so a caller that wants
coordinates appends them and reads them back with ``coords``.  ``invert``
and ``in_span`` bring rational input to integer numerators
(``poly.numerators``) and share it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .poly import lincomb, numerators

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
    """a^-1, as Fractions, from one ``Echelon``: row j of a = A / c is
    appended with the bookkeeping key ~j, and row j of A^-1 is the
    coordinates of e_j along them; raises ValueError when a row depends on
    the ones before it."""
    rows, c = numerators(dict(enumerate(row)) for row in a)
    span, n = Echelon(), len(a)
    if not all(span.absorb({**row, ~j: 1}) for j, row in enumerate(rows)):
        raise ValueError("singular matrix")
    inverse = (span.coords({j: 1})[0] for j in range(n))
    return [[Fraction(c * row.get(i, 0), span.den) for i in range(n)] for row in inverse]


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


def in_span(vectors: List[dict], targets: List[dict]) -> list:
    """Coordinates of each sparse rational target in the span of the sparse
    rational ``vectors``, as a dense list of Fractions, or None for a target
    off the span; the vectors are eliminated once.  A vector that depends
    on the ones before it gets coordinate zero, so the coordinates are
    unique."""
    (vectors, d), span, out = numerators(vectors), Echelon(), []
    for i, w in enumerate(vectors):
        span.absorb({**w, ~i: d})
    for (t,), dt in (numerators([v]) for v in targets):
        c = span.coords(t, dt)
        out.append(c and [Fraction(c[0].get(i, 0), c[1]) for i in range(len(vectors))])
    return out


class Echelon:
    """Sparse integer vectors in reduced row echelon form, kept
    fraction-free as in Bareiss (Math. Comp. 22, 1968): each row has the
    one value ``den`` at its pivot, the smallest key >= 0 it holds, and
    zero at every other pivot.  A negative key is never a pivot: it is a
    bookkeeping column.  A caller that wants coordinates appends
    V_k = w_k / s_k as {**w_k, ~k: s_k}; every row [x | a] then has
    x = sum_k a[~k] V_k, so the remainder r of den v, v with no negative
    key, has no key >= 0 left exactly when v lies in the span, and then
    v = -sum_k r[~k] V_k / den.  Appending a vector brings every row to
    the new pivot value by exact integer division."""

    def __init__(self):
        self.size, self.den = 0, 1
        self._rows: dict = {}  # p_i: R_i, a dict of ints

    def _reduce(self, v: dict) -> dict:
        """den v - sum_i v[p_i] R_i, without zeros."""
        steps = ((-x, self._rows[p]) for p, x in v.items() if x and p in self._rows)
        return {k: x for k, x in lincomb(steps, {k: self.den * x for k, x in v.items()}).items() if x}

    def coords(self, v: dict, den: int = 1) -> Tuple[dict, int] | None:
        """The coordinates of v / den, v sparse of ints with no negative
        key, along the V_k, as (numerators keyed by k, denominator), or
        None off the span."""
        r = self._reduce(v)
        return None if max(r, default=-1) >= 0 else ({~k: -x for k, x in r.items()}, self.den * den)

    def absorb(self, v: dict) -> bool:
        """Append v when its keys >= 0 leave the span, and return whether
        it did."""
        r = self._reduce(v)
        p = min((k for k in r if k >= 0), default=None)
        if p is None:
            return False
        old = self.den
        if r[p] < 0:
            r = {k: -x for k, x in r.items()}
        a = self.den = r[p]

        def eliminate(x: dict) -> dict:
            """(a x - x[p] r) / old, exactly, without zeros."""
            b, x = x.get(p, 0), {k: a * e for k, e in x.items()}
            return {k: e // old for k, e in (lincomb(((-b, r),), x) if b else x).items() if e}

        self._rows = {q: eliminate(row) for q, row in self._rows.items()}
        self._rows[p] = r
        self.size += 1
        return True
