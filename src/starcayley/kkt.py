"""Three-graded Lie algebra built from a Euclidean Jordan algebra.

g = g(-1) + g(0) + g(1), where the outer pieces are two copies of the
Jordan algebra and g(0) is the span of the box operators, closed under
commutators and the tau-adjoint.  In the matrix model an element is a
triple (u, T, v) and the bracket is

    [(u,T,v), (u',T',v')] =
        (Tu' - T'u,  2 u'box v + [T,T'] - 2 u box v',  T'# v - T# v')

with T# the adjoint of T for the trace form.  The involution is
theta(u,T,v) = (v, -T#, u); the grading element is E = (0, Id, 0) and the
base point is o = mu * E.

The build runs on integers, from the Jordan algebra's integer structure
constants and tau Gram matrix G: each box e_a box e_b = sum_c s_ab^c L(e_c)
+ [L(e_a), L(e_b)], each T_j and each T_j# = G^-1 T_j^T G is held as
sparse integer numerators over one denominator, and one ``linalg.Echelon``
closes the span of the boxes under # and commutators, reading the
coordinates of each box, T_i# and [T_i, T_j] at its pivots, so every g(0)
fact has one source.  From them the table is written block by block
(``GradedLieAlgebra._block_table``) as integer numerators D c_ij^k over
one denominator D (D = 2 on sym:p, D = 1 on the spin factors), the layout
of FLINT's fmpq_mat, and Theta the same way over D_theta.  The build forms
Fractions by construction only, for the views (``bracket_coords``,
``coord_bracket``, ``apply_theta``, the build's coordinates); the lie
checks sum integers, compare with Jordan data and divide each residual
once.  The (u, T, v) model is the independent oracle of the table and
Theta; no report path runs on it.  Outside this module an element of g is
its coordinate vector in the basis (g(-1), T_j, g(1)), bracketed through
the table and paired through the Killing Gram matrix K = tr(ad_i ad_j).
``homomorphism_tallies`` checks that a linear map respects the bracket:
Theta here, the moment maps in ``chart``, rho and dpi in ``starrep``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .jordan import JordanAlgebra
from .poly import (
    NO_VARS, Poly, Scalar, Tally, bilinear, exact, lincomb, numerators, proportion, pruned, ratio,
    tally,
)


class GradingClosureFailure(ValueError):
    """The candidate degree-zero subspace is not closed as required."""


@dataclass
class LieElement:
    """(u, T, v) with u, v coordinate vectors and T an n x n matrix."""

    u: list
    t: list  # matrix
    v: list


def _rows(m: dict, n: int) -> linalg.Sparse:
    rows = [{} for _ in range(n)]
    for k, x in m.items():
        rows[k // n][k % n] = x
    return rows


def _transposed(m: dict, n: int) -> dict:
    return {k % n * n + k // n: x for k, x in m.items()}


def _product(a: linalg.Sparse, b: linalg.Sparse, sign: int = 1, acc: dict | None = None) -> dict:
    """acc plus sign a b for sparse rows a and b of ints, flat, {r n + c:
    entry}, the form g(0) matrices are held in; zeros may be left."""
    n, acc = len(a), {} if acc is None else acc
    for r, row in enumerate(a):
        for t, x in row.items():
            if b[t]:
                x *= sign
                for c, y in b[t].items():
                    k = r * n + c
                    acc[k] = acc[k] + x * y if k in acc else x * y
    return acc


@dataclass
class GradedLieAlgebra:
    jordan: JordanAlgebra
    mu: Fraction = Fraction(1)

    n: int = field(init=False)
    dim0: int = field(init=False)
    dim: int = field(init=False)
    # the denominator of the numerators of the boxes e_a box e_b (at a n + b) and T_j
    t_den: int = field(init=False)
    _boxes: List[dict] = field(init=False)
    _t_flat: List[dict] = field(init=False)
    _span: linalg.Echelon = field(init=False)
    tau_gram: linalg.Matrix = field(init=False)
    _tau_gram_inv: linalg.Matrix = field(init=False)
    # the nonzero coordinates of each box and T_i#, and the box appended as T_j
    _box_coords: List[dict] = field(init=False)
    _sharp_coords: List[dict] = field(init=False)
    _t_boxes: List[int] = field(init=False)
    # D and the numerators D c_ij^k, keyed (i, j) in both orders
    denom: int = field(init=False)
    _structure: dict = field(init=False)
    killing: linalg.Matrix = field(init=False)
    spur_vector: list = field(init=False)
    E: list = field(init=False)
    o: list = field(init=False)

    def __post_init__(self):
        if type(self.mu) not in (int, Fraction):
            raise TypeError(f"mu must be int or Fraction, got {type(self.mu).__name__}")
        if self.mu == 0:
            raise ValueError("mu must be nonzero")
        A = self.jordan
        n = self.n = A.dim
        S, ds = A._int_structure
        G, dg = A._int_tau_gram
        # G^-1 = dg N / di, so T# = G^-1 T^T G = N W^T G / (di D0) for T = W / D0
        N, di = numerators(dict(enumerate(row)) for row in linalg.invert(G))
        self.tau_gram = [[Fraction(x, dg) for x in row] for row in G]
        self._tau_gram_inv = [[Fraction(dg * row.get(b, 0), di) for b in range(n)] for row in N]
        G = [pruned(dict(enumerate(row))) for row in G]
        sharp = lambda m: pruned(_product(N, _rows(_product(_rows(_transposed(m, n), n), G), n)))
        # L(e_c) has entry (r, a) s_ca^r, over ds, and the box
        # e_a box e_b = sum_c s_ab^c L(e_c) + [L(e_a), L(e_b)] is over ds^2
        Lf = [{r * n + a: x for a in range(n) for r, x in S.get((c, a), {}).items()} for c in range(n)]
        L = [_rows(m, n) for m in Lf]
        LL = [[_product(la, lb) for lb in L] for la in L]
        self._boxes = boxes = [
            pruned(lincomb([(s, Lf[c]) for c, s in S.get((a, b), {}).items()]
                           + [(1, LL[a][b]), (-1, LL[b][a])]))
            for a in range(n) for b in range(n)
        ]

        # g(0): the independent boxes, then the span grown until it is
        # closed under # and commutators; a round in which nothing grows
        # holds every T_i# and [T_i, T_j], and on a Jordan algebra it is the
        # first.  D0 grows when an appended matrix's denominator needs it.
        span, basis, rows, D0 = linalg.Echelon(), [], [], ds * ds

        def absorb(m: dict, d: int) -> Tuple[dict, int]:
            """The coordinates of m / d, appending it when it is independent."""
            nonlocal D0
            c = span.absorb(m, d)
            if c is not None:
                return c
            grown = math.lcm(D0, d // math.gcd(d, *m.values()))
            if grown != D0:
                for held in (basis, boxes):
                    held[:] = [{k: x * (grown // D0) for k, x in t.items()} for t in held]
                rows[:], D0 = [_rows(t, n) for t in basis], grown
            basis.append({k: x * D0 // d for k, x in m.items()})
            rows.append(_rows(basis[-1], n))
            return {len(basis) - 1: 1}, 1

        view = lambda c: {k: ratio(x, c[1]) for k, x in c[0].items()}
        box_coords = [absorb(m, D0) for m in list(boxes)]
        self._box_coords = [view(c) for c in box_coords]
        # T_j for j below the size here is the first box with coordinates {j: 1}
        self._t_boxes = [self._box_coords.index({j: 1}) for j in range(len(basis))]
        for _ in range(n * n + 1):
            size = len(basis)
            sharps = [(sharp(m), di * D0) for m in basis]
            sharp_coords = [absorb(*s) for s in sharps]
            comm = {}
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    m = pruned(_product(rows[j], rows[i], -1, _product(rows[i], rows[j])))
                    comm[(i, j)] = absorb(m, D0 * D0)
            if len(basis) == size:
                break
        else:
            raise GradingClosureFailure("degree-zero span does not stabilize")

        self._span, self._t_flat, self.t_den = span, basis, D0
        self._sharp_coords = [view(c) for c in sharp_coords]
        d0 = self.dim0 = len(basis)
        self.dim = 2 * n + d0
        table = self._block_table(box_coords, comm, sharps)
        D = self.denom = math.lcm(*(d // math.gcd(d, *nz.values()) for nz, d in table.values()))
        self._structure = {}
        for (i, j), (nz, d) in table.items():
            row = self._structure[(i, j)] = {k: x * D // d for k, x in nz.items()}
            self._structure[(j, i)] = {k: -x for k, x in row.items()}
        self.killing = self._build_killing()
        # trace of ad e_j on g(-1)
        S = self._structure
        self.spur_vector = [
            ratio(sum(S[(j, a)].get(a, 0) for a in range(n) if (j, a) in S), self.denom)
            for j in range(self.dim)
        ]
        # E = (0, Id, 0), whose ad is the grading operator, and o = mu E
        e, zero, (p, q) = self.t_coords(linalg.identity(n)), [0] * n, self.mu.as_integer_ratio()
        self.E = zero + [exact(c) for c in e] + zero
        self.o = zero + [ratio(p * c.numerator, q * c.denominator) for c in e] + zero

    # -- coordinates --------------------------------------------------------
    def t_coords(self, t: Sequence[Sequence]) -> list:
        """Coordinates of the dense rational matrix t along the T_j, as
        Fractions; raises GradingClosureFailure when t is not in their span."""
        (m,), d = numerators([{r * self.n + k: x for r, row in enumerate(t) for k, x in enumerate(row)}])
        c = self._span.coords(m, d)
        if c is None:
            raise GradingClosureFailure("matrix is not in the degree-zero span")
        return [Fraction(c[0].get(k, 0), c[1]) for k in range(self.dim0)]

    def t_entries(self, c: Sequence) -> dict:
        """t_den sum_j c_j T_j as {r n + col: entry}, summed over the
        nonzero c_j and the integer numerators of the T_j; an entry may be
        zero.  The c_j may be rationals or Polys."""
        return lincomb((cj, t) for cj, t in zip(c, self._t_flat) if not linalg._is_zero(cj))

    def t_from_coords(self, c: Sequence) -> list:
        """sum_j c_j T_j as a dense matrix, whose zero is that of c[0]."""
        zero, m, n, d = c[0] - c[0], self.t_entries(c), self.n, Fraction(1, self.t_den)
        return [[m[r * n + col] * d if r * n + col in m else zero for col in range(n)] for r in range(n)]

    def to_coords(self, x: LieElement) -> list:
        return list(x.u) + self.t_coords(x.t) + list(x.v)

    def from_coords(self, c: Sequence) -> LieElement:
        n, d0 = self.n, self.dim0
        return LieElement(list(c[:n]), self.t_from_coords(c[n : n + d0]), list(c[n + d0 :]))

    # -- structure maps -------------------------------------------------------
    def sharp(self, t: Sequence[Sequence]) -> list:
        """Adjoint of t with respect to the trace form: G^-1 t^T G."""
        return linalg.mat_mul(
            self._tau_gram_inv, linalg.mat_mul(linalg.transpose(t), self.tau_gram)
        )

    def bracket(self, x: LieElement, y: LieElement) -> LieElement:
        A = self.jordan
        u = [a - b for a, b in zip(linalg.mat_vec(x.t, y.u), linalg.mat_vec(y.t, x.u))]
        t = linalg.mat_add(
            linalg.mat_sub(
                linalg.mat_scale(A.box(y.u, x.v), 2),
                linalg.mat_scale(A.box(x.u, y.v), 2),
            ),
            linalg.commutator(x.t, y.t),
        )
        v = [
            a - b
            for a, b in zip(
                linalg.mat_vec(self.sharp(y.t), x.v),
                linalg.mat_vec(self.sharp(x.t), y.v),
            )
        ]
        return LieElement(u, t, v)

    def theta(self, x: LieElement) -> LieElement:
        return LieElement(list(x.v), linalg.mat_scale(self.sharp(x.t), Fraction(-1)), list(x.u))

    @cached_property
    def theta_table(self) -> Tuple[List[dict], int]:
        """Theta as (rows, D_theta): row i maps m to the integer numerator
        of the m-th coordinate of theta e_i over D_theta.  As
        theta(u, T, v) = (v, -T#, u) swaps e_a and f_a, the rows of g(-1)
        and g(1) are written by index; row n + i of g(0) is -T_i#, whose
        coordinates the build kept when it closed the span."""
        n, f = self.n, self.n + self.dim0
        sharps, den = numerators(self._sharp_coords)
        return (
            [{f + a: den} for a in range(n)]
            + [{n + k: -x for k, x in nz.items()} for nz in sharps]
            + [{a: den} for a in range(n)]
        ), den

    def apply_theta(self, c: Sequence) -> list:
        """theta on a rational coordinate vector, through Theta."""
        rows, den = self.theta_table
        out = lincomb((ck, rows[k]) for k, ck in enumerate(c) if ck)
        return [Fraction(out.get(m, 0), den) for m in range(self.dim)]

    def _block_table(self, boxes: list, comm: dict, sharps: list) -> dict:
        """The nonzero c_ij^k for i < j, keyed in that order, as (integer
        numerators, denominator), block by block:

            [e_a, T_i] = -T_i e_a,              [e_a, f_b] = -2 e_a box e_b,
            [T_i, T_j] = T_i T_j - T_j T_i,     [T_i, f_b] = -T_i# e_b,

        with e_a, T_i, f_b the basis of g(-1), g(0), g(1); every other pair
        of blocks brackets to zero.  Each argument holds pairs (numerators,
        denominator): the coordinates of e_a box e_b at a n + b and of
        [T_i, T_j] at (i, j), and the flat T_i#."""
        n, d0 = self.n, self.dim0
        f = n + d0
        table = {}

        def put(i, j, nz, den):
            if nz:
                table[(i, j)] = (nz, den)

        def minus_columns(m, shift):
            cols = [{} for _ in range(n)]
            for k, x in m.items():
                cols[k % n][shift + k // n] = -x
            return cols

        t_cols = [minus_columns(t, 0) for t in self._t_flat]
        for a in range(n):
            for i in range(d0):
                put(a, n + i, t_cols[i][a], self.t_den)
            for b in range(n):
                nz, den = boxes[a * n + b]
                put(a, f + b, {n + k: -2 * c for k, c in nz.items()}, den)
        for i, (m, den) in enumerate(sharps):
            for j in range(i + 1, d0):
                nz, cd = comm[(i, j)]
                put(n + i, n + j, {n + k: c for k, c in nz.items()}, cd)
            for b, col in enumerate(minus_columns(m, f)):
                put(n + i, f + b, col, den)
        return table

    def bracket_coords(self, i: int, j: int) -> dict:
        """Nonzero coordinates of [e_i, e_j], ints where integral."""
        D = self.denom
        return {k: ratio(c, D) for k, c in self.bracket_numerators(i, j).items()}

    def bracket_numerators(self, i: int, j: int) -> dict:
        """The nonzero coordinates of [e_i, e_j] times D, as ints; the dict
        is the table's own and must not be changed."""
        return self._structure.get((i, j), {})

    @property
    def bracket_table(self) -> dict:
        """Nonzero c_ij^k for i < j, keyed in that order, as
        ``bracket_coords`` gives them."""
        return {(i, j): self.bracket_coords(i, j) for i, j in self._structure if i < j}

    def coord_bracket(self, x: Sequence, y: Sequence) -> list:
        """[x, y] on coordinate vectors, through the structure constants.

        Each vector holds rationals or Polys throughout; they are
        multiplied by the integer numerators and each sum is divided by D
        once.  The result holds Fractions, or, when x or y holds Polys,
        Polys from ``poly.bilinear``, with D folded into their denominators.
        """
        S = self._structure
        if isinstance(x[0], Poly) or isinstance(y[0], Poly):
            return bilinear(S, self.denom, x, y, self.dim)
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        xs = [(i, xi) for i, xi in enumerate(x) if xi]
        out = lincomb((xi * yj, S[(i, j)]) for i, xi in xs for j, yj in ys if (i, j) in S)
        return [Fraction(out[k]) / self.denom if k in out else 0 for k in range(self.dim)]

    def _build_killing(self) -> linalg.Matrix:
        """K_ij = tr(ad e_i ad e_j) = sum over k, l of c_il^k c_jk^l, summed
        over the integer numerators and divided by D^2.  The table respects
        the grading, so K_ij = 0 unless the grades of i and j sum to zero:
        only g(-1) x g(1) and g(0) x g(0) are traced, for j >= i."""
        d, n, f = self.dim, self.n, self.n + self.dim0
        # ad e_i as {k d + l: c_il^k}, and its transpose
        ads, adt = [{} for _ in range(d)], [{} for _ in range(d)]
        for (i, l), row in self._structure.items():
            for k, c in row.items():
                ads[i][k * d + l] = adt[i][l * d + k] = c
        K, D2 = [[0] * d for _ in range(d)], self.denom**2
        pairs = [(i, j) for i in range(n) for j in range(f, d)]
        pairs += [(i, j) for i in range(n, f) for j in range(i, f)]
        for i, j in pairs:
            t = adt[j]
            K[i][j] = K[j][i] = ratio(sum(c * t[kl] for kl, c in ads[i].items() if kl in t), D2)
        return K

    def beta(self, x: Sequence, y: Sequence) -> Fraction:
        """Killing form of two coordinate vectors, through the Gram matrix."""
        K, ys = self.killing, [(j, yj) for j, yj in enumerate(y) if yj != 0]
        terms = (xi * K[i][j] * yj for i, xi in enumerate(x) if xi != 0 for j, yj in ys)
        return sum(terms, Fraction(0))

    def omega(self, x: Sequence, y: Sequence) -> Fraction:
        """Symplectic pairing beta(o, [x, y])."""
        return self.beta(self.o, self.coord_bracket(x, y))

    @cached_property
    def killing_o(self) -> list:
        """K.o, so that beta(o, y) = sum_k (K.o)_k y_k, as K is symmetric;
        ints where integral."""
        return [exact(sum((x * c for x, c in zip(row, self.o) if c), 0)) for row in self.killing]

    # -- symplectic basis ------------------------------------------------------
    def symplectic_basis(self) -> Tuple[List[list], List[list]]:
        """Coordinates of the basis L_a = e_a of g(-1) and of the dual basis
        L'_b = sum_c (P^-1)_cb f_c of g(1), P_ab = omega(e_a, f_b), so that
        omega(L_a, L'_b) = delta_ab.  P is read off the table,
        P_ab = sum_k (K.o)_k c_{e_a f_b}^k / D."""
        n, f, ko = self.n, self.n + self.dim0, self.killing_o
        P = [
            [Fraction(sum(ko[k] * c for k, c in self.bracket_numerators(a, f + b).items()), self.denom)
             for b in range(n)]
            for a in range(n)
        ]
        Pinv = linalg.invert(P)
        Lp = [[Fraction(0)] * f + [Pinv[c][b] for c in range(n)] for b in range(n)]
        return linalg.identity(self.dim)[:n], Lp


# -- verification suites ----------------------------------------------------


@dataclass
class SuiteResult:
    name: str
    passed: bool
    residual: Fraction
    detail: str = ""
    # the measured constant of a check that measures one (kappa), else None
    value: Optional[Fraction] = None


def _combine(name: str, residual: Fraction, detail: str = "") -> SuiteResult:
    return SuiteResult(name=name, passed=residual == 0, residual=residual, detail=detail)


def verify_antisymmetry(g: GradedLieAlgebra) -> SuiteResult:
    """[e_i, e_i] = 0 in the model.  It cannot fail, as [x, x] cancels term by
    term, so no suite runs it; the benchmark tracer still patches it."""
    res = Fraction(0)
    basis = [g.from_coords(e) for e in linalg.identity(g.dim)]
    for i in range(g.dim):
        d = g.bracket(basis[i], basis[i])
        res += sum(abs(c) for c in g.to_coords(d))
    return _combine("antisymmetry", res)


def verify_jacobi(g: GradedLieAlgebra) -> SuiteResult:
    """Jacobi identity on all basis triples i < j < k, via the integer table:
    each cyclic term c_bc^m c_am^p has its numerator over D^2, and a term
    whose inner bracket [e_b, e_c] is zero is skipped.  On failure the
    detail names the first failing triple and its residual."""
    S, d = g._structure, g.dim

    def rows():
        for i, j, k in itertools.combinations(range(d), 3):
            acc: dict = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                if (b, c) in S:
                    lincomb(((x, S.get((a, m), {})) for m, x in S[(b, c)].items()), acc)
            yield (i, j, k), sum(map(abs, acc.values()))

    t = tally(rows(), g.denom**2)
    detail = f"{t.failures} failing triples; {t.witness('(i, j, k)')}" if t.failures else ""
    return _combine("jacobi", t.residual, detail)


def verify_grading(g: GradedLieAlgebra) -> SuiteResult:
    """[g_i, g_j] lands in g_{i+j} (zero when |i+j| > 1), checked per block.
    It cannot fail, as ``_block_table`` writes each block formula into its
    target block by index, so no suite runs it; the benchmark tracer still
    patches it."""
    n, d0 = g.n, g.dim0
    grade = lambda idx: -1 if idx < n else (0 if idx < n + d0 else 1)
    res = Fraction(0)
    for (i, j), nz in g.bracket_table.items():
        target = grade(i) + grade(j)
        for k, c in nz.items():
            if target < -1 or target > 1 or grade(k) != target:
                res += abs(c)
    return _combine("grading", res)


def homomorphism_tallies(
    g: GradedLieAlgebra, parts: list, bracket, L: int, minus: bool = False
) -> Tuple[Tally, ...]:
    """The Tally of |[X e_i, X e_j] - X[e_i, e_j]| over the basis pairs
    i < j, in that order, for a linear X into a Lie algebra, and with minus
    that of |[X e_i, X e_j] + X[e_i, e_j]| after it: ``parts[k]`` lists the
    component term dicts of X e_k over L, and ``bracket(i, j)`` the
    components of D [X e_i, X e_j] over D L^2, fresh dicts, D the table's
    denominator.  The image X[e_i, e_j] is summed from the table's
    numerators once per component, into the bracket's dict when only the
    first Tally is asked for.  Negating X swaps the two Tallies."""
    rows = []
    for i, j in itertools.combinations(range(g.dim), 2):
        nz, r = g.bracket_numerators(i, j).items(), [0, 0]
        for c, acc in enumerate(bracket(i, j)):
            if minus:
                image = lincomb((ck * L, parts[k][c]) for k, ck in nz)
                for e in acc.keys() | image.keys():
                    a, b = acc.get(e, 0), image.get(e, 0)
                    r[0] += abs(a - b)
                    r[1] += abs(a + b)
            else:
                r[0] += sum(map(abs, lincomb(((-ck * L, parts[k][c]) for k, ck in nz), acc).values()))
        rows.append(((i, j), r))
    den = g.denom * L * L
    return tuple(tally(((ij, r[s]) for ij, r in rows), den) for s in range(1 + minus))


def verify_theta(g: GradedLieAlgebra) -> SuiteResult:
    """theta is an automorphism, Theta [e_i, e_j] = [Theta e_i, Theta e_j],
    by ``homomorphism_tallies`` on the rows of ``theta_table``, L = D_theta.
    Theta^2 = 1 holds whenever the tau Gram matrix is symmetric, as for
    every table the loader accepts, and is not checked.  On failure the
    detail names the first failing pair (i, j) and its residual."""
    theta, dt = g.theta_table

    def bracket(i, j):
        pairs = ((p, q, tp * tq) for p, tp in theta[i].items() for q, tq in theta[j].items())
        return [lincomb((w, g.bracket_numerators(p, q)) for p, q, w in pairs)]

    (t,) = homomorphism_tallies(g, [[row] for row in theta], bracket, dt)
    return _combine("theta", t.residual, t.witness("(i, j)") or "")


def _distance(num: dict, den: int, want: dict):
    """den times the l1 distance between the vector num / den and want,
    both sparse."""
    return sum(abs(num.get(m, 0) - den * want.get(m, 0)) for m in num.keys() | want.keys())


def verify_identifications(g: GradedLieAlgebra) -> SuiteResult:
    """Box and triple product against brackets of the table, over the Jordan
    basis e_a of g(-1):  e_a box e_b = -1/2 [e_a, theta e_b]  and
    {e_a, e_b, e_c} = -1/2 [[e_a, theta e_b], e_c].

    The brackets are taken on the integer numerators of the table and of
    ``theta_table``; the right-hand sides are the matrix of e_a box e_b,
    with the coordinates along the T_j that the build kept for it, and its
    column c, {e_a, e_b, e_c} by the definition of the box.  So the check
    asks whether the table reproduces the box and the triple product.

    It can fail only on a wrong build of the table or of theta, never on a
    wrong structure-constant input: theta e_b = f_b, so identity 1 is the
    [e_a, f_b] block formula of ``_block_table`` itself, and with it and
    [e_a, T] = -T e_a identity 2 reduces to (x box y) z = {x, y, z}, true
    for any table, Jordan or not.

    Both kinds of row are tallied over 2 D^2 D_theta T, T the boxes'
    denominator (the box rows' over 2 D D_theta times D T).  On failure the
    detail names the first failing pair (a, b) of the box identity or triple
    (a, b, c) of the triple product, in the order a, b, then c, and its residual."""
    n = g.n
    theta, dt = g.theta_table
    S, D, T = g._structure, g.denom, g.t_den

    def rows():
        for a, b in itertools.product(range(n), repeat=2):
            inner = lincomb((t, S.get((a, q), {})) for q, t in theta[b].items())
            want = {n + k: y for k, y in g._box_coords[a * n + b].items()}
            yield (a, b), T * D * _distance(inner, -2 * D * dt, want)
            for c, want in enumerate(_rows(_transposed(g._boxes[a * n + b], n), n)):  # columns
                dbl = lincomb((T * x, S.get((m, c), {})) for m, x in inner.items())
                yield (a, b, c), _distance(dbl, -2 * D * D * dt, want)

    t = tally(rows(), 2 * D * D * dt * T)
    names = "box (a, b)" if t.first and len(t.first[0]) == 2 else "triple (a, b, c)"
    detail = t.witness(names) or "box and triple product match the bracket forms"
    return _combine("identifications", t.residual, detail)


def verify_killing_invariance(g: GradedLieAlgebra) -> SuiteResult:
    """beta([x,y],z) + beta(y,[x,z]) = 0 on all basis triples, that is
    ad_i^T K + K ad_i = 0, summed over the entries j <= k.

    On integer numerators, K over its denominator D_K: with
    X_jk = sum_m c_ij^m K_mk the (j, k) entry is X_jk + X_kj, as K is
    symmetric, with numerator over D D_K; X is accumulated sparsely.  On
    failure the detail names the first failing (i, j, k) and its
    residual."""
    K, dk = numerators(dict(enumerate(row)) for row in g.killing)
    S, d = g._structure, g.dim

    def rows():
        for i in range(d):
            X = [lincomb((c, K[m]) for m, c in S.get((i, j), {}).items()) for j in range(d)]
            for j, k in sorted({(min(j, k), max(j, k)) for j, row in enumerate(X) for k in row}):
                yield (i, j, k), abs(X[j].get(k, 0) + X[k].get(j, 0))

    t = tally(rows(), g.denom * dk)
    return _combine("killing-invariance", t.residual, t.witness("(i, j, k)") or "")


def closed_form_killing(g: GradedLieAlgebra) -> linalg.Matrix:
    """Gram matrix of the block formula

        beta_c(X, X') = beta_0(T, T') - 4 tau(u, v') - 4 tau(v, u')

    built from Jordan data only, as a cross-check against the intrinsic
    trace form.  The degree-zero block is fixed on box operators by

        beta_0(T, x box y) = 2 tau(Tx, y)

    and so on the T_j: when the boxes span g(0), the build appended each T_j
    as a box e_a box e_b, and beta_0(T_i, T_j) = 2 tau(T_i e_a, e_b)
    = 2 sum_r (T_i)_ra G_rb, summed on the integer numerators of T_i and
    of G.  It follows from invariance, beta([u, v'], T) = beta(u, [v', T]),
    with [u, v'] = -2 u box v', [v', T] = T# v' and the -4 tau(u, v')
    block.  (The Killing form of gl(V) agrees only when g(0) = gl(V).)
    """
    n, d0 = g.n, g.dim0
    if len(g._t_boxes) < d0:
        raise GradingClosureFailure("g(0) is not spanned by the box operators")
    G, dg = g.jordan._int_tau_gram
    out = [[0] * g.dim for _ in range(g.dim)]
    for i, t in enumerate(g._t_flat):
        for j, (a, b) in enumerate(divmod(ab, n) for ab in g._t_boxes):
            pair = sum(x * G[rc // n][b] for rc, x in t.items() if rc % n == a)
            out[n + i][n + j] = ratio(2 * pair, g.t_den * dg)
    for a in range(n):
        for b in range(n):
            out[a][n + d0 + b] = out[n + d0 + b][a] = ratio(-4 * G[a][b], dg)
    return out


def measure_kappa(g: GradedLieAlgebra) -> Tuple[Optional[Fraction], Fraction, str]:
    """(kappa or None, residual, detail) for K = kappa * closed, the Killing
    Gram matrix and the closed block formula, by ``poly.proportion`` over
    their entries in row-major order.  With no closed form, when the boxes
    miss part of g(0), K is measured against zero and the detail says why."""
    try:
        closed, why = closed_form_killing(g), None
    except GradingClosureFailure as exc:
        closed, why = [[0] * g.dim for _ in range(g.dim)], str(exc)
    c, t = proportion(
        ((i, j), Scalar.of(x), Scalar.of(y))
        for i, (rk, rc) in enumerate(zip(g.killing, closed))
        for j, (x, y) in enumerate(zip(rk, rc))
        if x or y
    )
    kappa = None if c is None or why else Fraction(c.terms.get(NO_VARS.one, 0), c.den)
    detail = why or (f"kappa = {kappa}" if kappa is not None else "no proportionality")
    return kappa, t.residual, detail


def run_structure_suite(g: GradedLieAlgebra) -> List[SuiteResult]:
    kappa, res, detail = measure_kappa(g)
    return [
        verify_jacobi(g),
        verify_theta(g),
        verify_identifications(g),
        verify_killing_invariance(g),
        SuiteResult("killing-closed-form", kappa is not None, res, detail, kappa),
    ]
