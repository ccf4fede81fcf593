"""Small exact linear algebra helpers.

Matrices are lists of lists of Fractions (or of any commutative ring
element for the generic routines).  Exact elimination runs on integers:
``Echelon`` keeps sparse integer vectors, {index: nonzero int}, in reduced
row echelon form over one common denominator, the layout of FLINT's
``fmpq_mat``, so that membership and coordinates are read at its pivots;
``invert`` and ``in_span`` bring rational input to
integer numerators (``poly.numerators``) and share it.
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
    """a^-1, as Fractions, from one ``Echelon``: the rows of a = A / c are
    absorbed, and row j of A^-1 is the coordinates of e_j along them;
    raises ValueError when a row depends on the ones before it."""
    rows, c = numerators(dict(enumerate(row)) for row in a)
    span, n = Echelon(), len(a)
    if any(span.absorb(row) is not None for row in rows):
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
    kept = [i for i, w in enumerate(vectors) if span.absorb(w, d) is None]
    for (t,), dt in (numerators([v]) for v in targets):
        c = span.coords(t, dt)
        if c is not None:
            full = [Fraction(0)] * len(vectors)
            for k, x in c[0].items():
                full[kept[k]] = Fraction(x, c[1])
            c = full
        out.append(c)
    return out


class Echelon:
    """Independent sparse vectors V_k = w_k / s_k, w_k of ints, in reduced
    row echelon form kept fraction-free as in Bareiss (Math. Comp. 22,
    1968): row i is R_i = sum_k C_ik V_k, of ints, with the one value
    ``den`` at its pivot p_i and zero at every other pivot.  So v lies in
    the span exactly when den v = sum_i v[p_i] R_i, and its coordinates are
    then sum_i v[p_i] C_ik / den, both read at the pivots.  Adding a vector
    brings every row to the new pivot value by exact integer division."""

    def __init__(self):
        self.size, self.den = 0, 1
        self._rows: dict = {}  # p_i: (R_i, C_i), dicts of ints

    def _reduce(self, v: dict) -> Tuple[dict, dict]:
        """den v - sum_i v[p_i] R_i and sum_i v[p_i] C_i, without zeros."""
        steps = [(x, self._rows[p]) for p, x in v.items() if x and p in self._rows]
        r = lincomb(((-f, row) for f, (row, _) in steps), {k: self.den * x for k, x in v.items()})
        c = lincomb((f, comb) for f, (_, comb) in steps)
        return {k: x for k, x in r.items() if x}, {k: x for k, x in c.items() if x}

    def coords(self, v: dict, den: int = 1) -> Tuple[dict, int] | None:
        """The coordinates of v / den, v sparse of ints, as (numerators keyed
        by the order of addition, denominator), or None off the span."""
        r, c = self._reduce(v)
        return None if r else (c, self.den * den)

    def absorb(self, v: dict, den: int = 1) -> Tuple[dict, int] | None:
        """``coords`` of v / den when it lies in the span; otherwise add it
        as the next vector and return None."""
        r, c = self._reduce(v)
        if not r:
            return c, self.den * den
        p, old = min(r), self.den
        sign = 1 if r[p] > 0 else -1
        # r = old den V_new - sum_i v[p_i] R_i, made positive at p
        comb = {k: -sign * x for k, x in c.items()}
        comb[self.size] = sign * old * den
        r = {k: sign * x for k, x in r.items()}
        a = self.den = r[p]

        def eliminate(x: dict, b: int, y: dict) -> dict:
            """(a x - b y) / old, exactly, without zeros."""
            x = {k: a * e for k, e in x.items()}
            return {k: e // old for k, e in (lincomb(((-b, y),), x) if b else x).items() if e}

        self._rows = {q: (eliminate(row, row.get(p, 0), r), eliminate(cq, row.get(p, 0), comb))
                      for q, (row, cq) in self._rows.items()}
        self._rows[p] = r, comb
        self.size += 1
        return None
