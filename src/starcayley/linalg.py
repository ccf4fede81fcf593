"""Small exact linear algebra helpers over Fraction.

Matrices are lists of lists of Fractions (or of any commutative ring
element for the generic routines).  Sizes here are tiny (<= 36), so plain
Gaussian elimination is fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

Matrix = List[List[Fraction]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


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
    t = a[0][0]
    for i in range(1, len(a)):
        t = t + a[i][i]
    return t


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def solve(a: Matrix, rhs: Sequence[Fraction]) -> List[Fraction] | None:
    """Solve a*x = rhs exactly; None when inconsistent.

    For underdetermined consistent systems returns one solution (free
    variables set to zero).
    """
    n = len(a)
    m = len(a[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if aug[i][m] != 0:
            return None
    x = [Fraction(0)] * m
    for i, c in enumerate(pivots):
        x[c] = aug[i][m]
    return x


def invert(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(a)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pr is None:
            raise ValueError("singular matrix")
        aug[c], aug[pr] = aug[pr], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def determinant(a: Matrix) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        pv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def leading_minors_positive(a: Matrix) -> bool:
    """Sylvester criterion for positive definiteness, exactly."""
    return all(determinant([row[: k + 1] for row in a[: k + 1]]) > 0 for k in range(len(a)))


def in_span(vectors: List[List[Fraction]], v: List[Fraction]) -> List[Fraction] | None:
    """Coordinates of v in the span of ``vectors`` (columns), else None."""
    if not vectors:
        return None if any(x != 0 for x in v) else []
    cols = transpose(vectors)
    return solve(cols, v)
