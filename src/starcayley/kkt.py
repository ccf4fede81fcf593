"""Three-graded Lie algebra built from a Euclidean Jordan algebra.

g = g(-1) + g(0) + g(1): the outer pieces are two copies of the Jordan
algebra and g(0) is the span of the box operators, closed under
commutators and the tau-adjoint #.  In the matrix model an element is a
triple (u, T, v), with the bracket

    [(u,T,v), (u',T',v')] =
        (Tu' - T'u,  2 u'box v + [T,T'] - 2 u box v',  T'# v - T# v'),

theta(u,T,v) = (v, -T#, u), the grading element E = (0, Id, 0) and the base
point o = mu E.  The build runs on integers: every box and T_j is held as
sparse numerators over its own denominator while one ``linalg.Echelon``
closes their span under # and commutators, reading each coordinate from
its bookkeeping columns as a (numerators, denominator) pair.  The table
is written block by block as numerators D c_ij^k over one D, as in
FLINT's fmpq_mat, Theta over D_theta and the Killing Gram matrix K over
D^2.  Fractions are only constructed, for E, o and the views; each check
sums integers into the ``poly.Tally`` it returns, dividing each residual
once, and ``report`` puts the Tallies into words.  The model is the
independent oracle of the table and Theta; no report path runs on it.
Outside this module an element of g is its coordinate vector in the basis
(g(-1), T_j, g(1)), paired through K.  ``homomorphism_tallies`` checks
that a linear map respects the bracket, on the pairs that meet the
certified generating set ``GradedLieAlgebra.generators``: Theta here, the
moment maps in ``chart``, rho and dpi in ``starrep``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .jordan import JordanAlgebra
from .poly import (
    NO_VARS, Poly, Scalar, Tally, bilinear, canonical, exact, lincomb, numerators, proportion, pruned,
    ratio, tally,
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


def _product(a: dict, b: linalg.Sparse, sign: int = 1, acc: dict | None = None) -> dict:
    """acc plus sign a b for a flat, {r n + c: entry}, the form g(0) matrices
    are held in, and b sparse rows, both of ints, flat; only the nonzero
    entries of a are visited, and zeros may be left."""
    n, acc = len(b), {} if acc is None else acc
    for k, x in a.items():
        row = b[k % n]
        if row:
            k, x = k - k % n, x * sign
            for c, y in row.items():
                acc[k + c] = acc[k + c] + x * y if k + c in acc else x * y
    return acc


def _over_one(pairs) -> Tuple[List[dict], int]:
    """A collection of (numerators, denominator) pairs as numerators over
    one denominator, the lcm of their reduced denominators."""
    D = math.lcm(*(d // math.gcd(d, *nz.values()) for nz, d in pairs))
    return [{k: x * D // d for k, x in nz.items()} for nz, d in pairs], D


@dataclass
class GradedLieAlgebra:
    jordan: JordanAlgebra
    mu: Fraction = Fraction(1)

    n: int = field(init=False)
    dim0: int = field(init=False)
    dim: int = field(init=False)
    # numerators: the boxes e_a box e_b (at a n + b) over den^2, the T_j over t_den
    _boxes: List[dict] = field(init=False)
    t_den: int = field(init=False)
    _t_flat: List[dict] = field(init=False)
    _span: linalg.Echelon = field(init=False)
    # each box's coordinates, reduced (numerators, denominator), and the box appended as T_j
    _box_coords: List[Tuple[dict, int]] = field(init=False)
    _t_boxes: List[int] = field(init=False)
    # D and the numerators D c_ij^k, keyed (i, j) in both orders
    denom: int = field(init=False)
    _structure: dict = field(init=False)
    # Theta as (rows, D_theta), row i {m: D_theta (theta e_i)_m}
    theta_table: Tuple[List[dict], int] = field(init=False)
    # the rows {j: D^2 K_ij} of the Killing Gram matrix, nonzero only
    _killing: List[dict] = field(init=False)
    # the Jacobi Tally, kept by ``verify_jacobi``
    _jacobi: Optional[Tally] = field(init=False, default=None)
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
        S, ds = A.table, A.den
        G, dg = A._int_tau_gram
        # G^-1 = dg N / di, so T# = G^-1 T^T G = N W^T G / (di d) for T = W / d
        N, di = numerators(dict(enumerate(row)) for row in linalg.invert(G))
        G = [pruned(dict(enumerate(row))) for row in G]
        N = {r * n + c: x for r, row in enumerate(N) for c, x in row.items()}
        sharp = lambda m: pruned(_product(N, _rows(_product(_transposed(m, n), G), n)))
        # L(e_c) has entry (r, a) s_ca^r, over ds, and the box
        # e_a box e_b = sum_c s_ab^c L(e_c) + [L(e_a), L(e_b)] is over ds^2
        Lf = [{r * n + a: x for a in range(n) for r, x in S.get((c, a), {}).items()} for c in range(n)]
        L = [_rows(m, n) for m in Lf]
        LL = [[_product(la, lb) for lb in L] for la in Lf]
        self._boxes = [
            pruned(lincomb([(s, Lf[c]) for c, s in S.get((a, b), {}).items()]
                           + [(1, LL[a][b]), (-1, LL[b][a])]))
            for a in range(n) for b in range(n)
        ]

        # g(0): the independent boxes, then the span grown until it is
        # closed under # and commutators; a round in which nothing grows
        # holds every T_i# and [T_i, T_j], and on a Jordan algebra it is the
        # first.  Each T_j is held as reduced (numerators, denominator).
        span, basis, rows = linalg.Echelon(), [], []

        def absorb(m: dict, d: int) -> Tuple[dict, int]:
            """The coordinates of m / d, appending it as {**m, ~j: d}, j its
            index in the basis, when it is independent."""
            c = span.coords(m, d)
            if c is not None:
                return c
            span.absorb({**m, ~len(basis): d})
            basis.append(canonical(m, d))
            rows.append(_rows(basis[-1][0], n))
            return {len(basis) - 1: 1}, 1

        box_coords = self._box_coords = [canonical(*absorb(m, ds * ds)) for m in self._boxes]
        # T_j for j below the size here is the first box with coordinates {j: 1}
        self._t_boxes = [box_coords.index(({j: 1}, 1)) for j in range(len(basis))]
        for _ in range(n * n + 1):
            size = len(basis)
            sharps = [(sharp(m), di * d) for m, d in basis]
            sharp_coords = [absorb(*s) for s in sharps]
            comm = {}
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    m = pruned(_product(basis[j][0], rows[i], -1, _product(basis[i][0], rows[j])))
                    comm[(i, j)] = absorb(m, basis[i][1] * basis[j][1])
            if len(basis) == size:
                break
        else:
            raise GradingClosureFailure("degree-zero span does not stabilize")

        self._span, t_den = span, math.lcm(ds * ds, *(d for _, d in basis))
        self._t_flat, self.t_den = [{k: x * (t_den // d) for k, x in m.items()} for m, d in basis], t_den
        d0 = self.dim0 = len(basis)
        self.dim = 2 * n + d0
        table = self._block_table(box_coords, comm, sharps)
        numer, self.denom = _over_one(table.values())
        self._structure = {}
        for (i, j), row in zip(table, numer):
            self._structure[(i, j)], self._structure[(j, i)] = row, {k: -x for k, x in row.items()}
        # theta swaps e_a and f_a, and its g(0) rows are the coordinates of -T_i#
        minus, dt = _over_one(sharp_coords)
        minus = [{n + k: -x for k, x in nz.items()} for nz in minus]
        self.theta_table = [{n + d0 + a: dt} for a in range(n)] + minus + [{a: dt} for a in range(n)], dt
        self._killing = self._build_killing()
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
        G = self.jordan.tau_gram()
        return linalg.mat_mul(linalg.invert(G), linalg.mat_mul(linalg.transpose(t), G))

    def bracket(self, x: LieElement, y: LieElement) -> LieElement:
        A, mv = self.jordan, linalg.mat_vec
        u = [a - b for a, b in zip(mv(x.t, y.u), mv(y.t, x.u))]
        boxes = linalg.mat_scale(linalg.mat_sub(A.box(y.u, x.v), A.box(x.u, y.v)), 2)
        v = [a - b for a, b in zip(mv(self.sharp(y.t), x.v), mv(self.sharp(x.t), y.v))]
        return LieElement(u, linalg.mat_add(boxes, linalg.commutator(x.t, y.t)), v)

    def theta(self, x: LieElement) -> LieElement:
        return LieElement(list(x.v), linalg.mat_scale(self.sharp(x.t), Fraction(-1)), list(x.u))

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

    def _build_killing(self) -> List[dict]:
        """The rows {j: D^2 K_ij}, nonzero only, of K_ij = tr(ad e_i ad e_j)
        = sum over k, l of c_il^k c_jk^l, as one sparse product (Gustavson,
        ACM TOMS 4, 1978): the numerators of the c_jk^l are indexed by
        (k, l) once, and each c_il^k meets only those at its transposed key."""
        at = defaultdict(list)  # at[(k, l)]: the (j, c_jk^l)
        for (j, k), row in self._structure.items():
            for l, c in row.items():
                at[(k, l)].append((j, c))
        K = [{} for _ in range(self.dim)]
        for (l, k), left in at.items():
            for j, x in at.get((k, l), ()):
                for i, c in left:
                    K[i][j] = K[i][j] + c * x if j in K[i] else c * x
        return [{j: x for j, x in sorted(row.items()) if x} for row in K]

    @cached_property
    def killing(self) -> linalg.Matrix:
        """K as a dense matrix, ints where integral, formed on first use."""
        D2 = self.denom**2
        return [[ratio(row.get(j, 0), D2) for j in range(self.dim)] for row in self._killing]

    def beta(self, x: Sequence, y: Sequence) -> Fraction:
        """Killing form of two coordinate vectors, through K's rows."""
        K = self._killing
        terms = (xi * c * y[j] for i, xi in enumerate(x) if xi for j, c in K[i].items() if y[j])
        return Fraction(sum(terms, Fraction(0)), self.denom**2)

    def omega(self, x: Sequence, y: Sequence) -> Fraction:
        """Symplectic pairing beta(o, [x, y])."""
        return self.beta(self.o, self.coord_bracket(x, y))

    @cached_property
    def killing_o(self) -> list:
        """K.o, so that beta(o, y) = sum_k (K.o)_k y_k, as K is symmetric;
        ints where integral."""
        o, D2 = self.o, self.denom**2
        return [exact(Fraction(sum(x * o[j] for j, x in row.items()), D2)) for row in self._killing]

    @cached_property
    def generators(self) -> Tuple[int, ...]:
        """A certified generating set S: all of g(-1), then the f_b of g(1)
        in index order until the smallest subspace W that holds S and is
        closed under every ad_s, s in S, grown in one ``linalg.Echelon``, is
        g (g(-1) + g(1) generates g: Koecher, Amer. J. Math. 89, 1967); every
        index when W falls short.  W lies in each subalgebra that holds S,
        so by these lemmas the pairs or triples that meet S prove an
        identity on g.  (1) Given Jacobi, the x with [Xx, Xy] = X[x, y] for
        all y, X linear into a Lie algebra, form a subalgebra:
        X[[a,b],y] = X[a,[b,y]] - X[b,[a,y]] = [[Xa,Xb],Xy] = [X[a,b],Xy];
        -X covers an anti-homomorphism.  (2) The x whose ad_x is a derivation
        form a subalgebra, as then ad_[a,b] = [ad_a, ad_b] (this needs only
        antisymmetry), and so do those whose ad_x is also skew for K."""
        span, found, gens, T = linalg.Echelon(), [], [], self._structure
        ad = lambda s, v: lincomb((x, T[(s, j)]) for j, x in v.items() if (s, j) in T)
        for s in [*range(self.n), *range(self.n + self.dim0, self.dim)]:
            gens.append(s)
            todo = [{s: 1}] + [ad(s, v) for v in found]
            while todo and span.size < self.dim:
                v = todo.pop()
                d = math.gcd(*v.values())  # 0 when v is zero
                if d and span.absorb(v := {k: x // d for k, x in v.items() if x}):
                    found.append(v)
                    todo += [ad(t, v) for t in gens]
            if span.size == self.dim:
                return tuple(gens)
        return tuple(range(self.dim))

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
        Pinv, zero, one = linalg.invert(P), Fraction(0), Fraction(1)
        Lp = [[zero] * f + [Pinv[c][b] for c in range(n)] for b in range(n)]
        return [[zero] * a + [one] + [zero] * (self.dim - a - 1) for a in range(n)], Lp


# -- verification suites ----------------------------------------------------


def verify_antisymmetry(g: GradedLieAlgebra) -> Tally:
    """[e_i, e_i] = 0 in the model.  It cannot fail, as [x, x] cancels term by
    term, so no suite runs it; the benchmark tracer still patches it."""
    basis = enumerate(g.from_coords(e) for e in linalg.identity(g.dim))
    return tally((i, sum(abs(c) for c in g.to_coords(g.bracket(x, x)))) for i, x in basis)


def verify_jacobi(g: GradedLieAlgebra) -> Tally:
    """The Jacobi identity on the basis triples, first on those that meet
    ``g.generators`` (lemma 2 there) and, when one fails, on every triple
    i < j < k, for the residual, the number of failing triples and the
    first; each residual has its numerator over D^2.  The Tally is kept
    on g, so a report decides it once."""
    if g._jacobi is None:
        t = tally(_jacobi_rows(g, g.generators), g.denom**2)
        g._jacobi = tally(sorted(_jacobi_rows(g, range(g.dim))), g.denom**2) if t.failures else t
    return g._jacobi


def _jacobi_rows(g: GradedLieAlgebra, gens):
    """(i < j < k, D^2 |J(s, y, z)|), J(s, y, z) = [s, [y, z]] + [z, [s, y]]
    - [y, [s, z]], once per triple of s in gens and y < z that misses the
    gens before s, reached from the nonzero constants: the y < z whose
    bracket has a component u with [s, e_u] nonzero, and the pairs of such
    a u and a v that brackets with a component of [s, e_u]."""
    T, into, at, done = g._structure, defaultdict(list), defaultdict(list), set()
    for (y, z), row in T.items():
        at[z].append((y, row))  # at[m]: the v and [e_v, e_m]
        if y < z:
            for m, x in row.items():
                into[m].append(((y, z), x))  # into[u]: the y < z and c_yz^u
    for s in gens:
        acc: dict = {}
        for u in (u for u in range(g.dim) if (s, u) in T):
            su = T[(s, u)]
            terms = [(yz, x, su) for yz, x in into[u] if s not in yz]
            terms += [((u, v), x, vm) if u < v else ((v, u), -x, vm)
                      for m, x in su.items() for v, vm in at[m] if v != s and v != u]
            for yz, x, row in terms:
                r = acc.setdefault(yz, {})
                for k, c in row.items():
                    r[k] = r.get(k, 0) + x * c
        done.add(s)
        for (y, z), r in acc.items():
            if y not in done and z not in done and any(r.values()):
                yield tuple(sorted((s, y, z))), sum(map(abs, r.values()))


def verify_grading(g: GradedLieAlgebra) -> Tally:
    """[g_i, g_j] lands in g_{i+j} (zero when |i+j| > 1), checked per block.
    It cannot fail, as ``_block_table`` writes each block formula into its
    target block by index, so no suite runs it; the benchmark tracer still
    patches it."""
    grade = lambda idx: -1 if idx < g.n else (0 if idx < g.n + g.dim0 else 1)
    rows = (((i, j, k), abs(c)) for (i, j), nz in g._structure.items() if i < j
            for k, c in nz.items() if grade(k) != grade(i) + grade(j))
    return tally(rows, g.denom)


def homomorphism_tallies(
    g: GradedLieAlgebra, parts: list, bracket, L: int, minus: bool = False
) -> Tuple[Optional[Tally], ...]:
    """The Tally of |[X e_i, X e_j] - X[e_i, e_j]| over the basis pairs
    i < j, in that order, for a linear X into a Lie algebra, and with minus
    that of |[X e_i, X e_j] + X[e_i, e_j]| after it: ``parts[k]`` lists the
    component term dicts of X e_k over L, and ``bracket(i, j)`` the
    components of D [X e_i, X e_j] over D L^2, fresh dicts.  Negating X
    swaps the two Tallies.  Once g passes Jacobi only the pairs that meet
    ``g.generators`` are formed (lemma 1 there), and with minus one side s
    is tallied, read off the first pair whose image is nonzero; when it
    passes, the other side's Tally is None.  When a pair fails, both sides
    are tallied over every pair from the residuals kept, so each bracket
    is formed once."""
    nz, every = g.bracket_numerators, lambda: itertools.combinations(range(g.dim), 2)
    # the pairs i < j that meet S, in order: j runs over S alone when i is not in it
    meet = lambda S, ins: ((i, j) for i in range(g.dim)
                           for j in (range(i + 1, g.dim) if i in ins else S[bisect.bisect_right(S, i):]))
    nonzero = [[(c, t) for c, t in enumerate(p) if t] for p in parts]

    def minus_image(i, j, t, accs):
        """The components of accs - t X[e_i, e_j], summed into accs, without zeros."""
        for k, x in nz(i, j).items():
            for c, part in nonzero[k]:
                lincomb(((-t * x * L, part),), accs[c])
        return [{e: v for e, v in acc.items() if v} for acc in accs]

    l1 = lambda rs: sum(abs(x) for r in rs for x in r.values())
    s, seen, kept = 0 if minus else 1, set(), {}  # kept: (i, j) -> (t, residuals of side t)
    for ij in every() if verify_jacobi(g).failures else meet(g.generators, set(g.generators)):
        accs, sides = bracket(*ij), {}
        if not s:
            sides = {t: minus_image(*ij, t, [dict(a) for a in accs]) for t in (1, -1)}
            s = min((1, -1), key=lambda t: l1(sides[t])) if sides[1] != sides[-1] else 0
        rs = sides.get(s or 1) or minus_image(*ij, s, accs)
        seen.add(ij)
        if any(rs):
            kept[ij] = s or 1, rs
    if not kept:
        return tuple(Tally(Fraction(0), 0, None) if t != -s else None for t in (1, -1)[: 1 + minus])
    # a pair seen and passed has no residual on side s; its other side is -(u - s) X[e_i, e_j]
    zero = [{} for _ in parts[0]]
    rows = {ij: kept.get(ij) or (s or 1, zero) if ij in seen else (1, minus_image(*ij, 1, bracket(*ij)))
            for ij in every()}
    side = lambda u: ((ij, l1(rs if t == u else minus_image(*ij, u - t, [dict(r) for r in rs])))
                      for ij, (t, rs) in rows.items())
    return tuple(tally(side(u), g.denom * L * L) for u in (1, -1)[: 1 + minus])


def verify_theta(g: GradedLieAlgebra) -> Tally:
    """theta is an automorphism, Theta [e_i, e_j] = [Theta e_i, Theta e_j],
    by ``homomorphism_tallies`` on the rows of ``theta_table``, L = D_theta.
    Theta^2 = 1 holds whenever the tau Gram matrix is symmetric, as for
    every table the loader accepts, and is not checked."""
    theta, dt = g.theta_table

    def bracket(i, j):
        pairs = ((p, q, tp * tq) for p, tp in theta[i].items() for q, tq in theta[j].items())
        return [lincomb((w, g.bracket_numerators(p, q)) for p, q, w in pairs)]

    return homomorphism_tallies(g, [[row] for row in theta], bracket, dt)[0]


def _distance(num: dict, a: int, want: dict, b: int):
    """The l1 norm of a num - b want, both sparse."""
    return sum(abs(a * num.get(m, 0) - b * want.get(m, 0)) for m in num.keys() | want.keys())


def verify_identifications(g: GradedLieAlgebra) -> Tally:
    """Box and triple product against brackets of the table, over the Jordan
    basis e_a of g(-1): e_a box e_b = -1/2 [e_a, theta e_b] and
    {e_a, e_b, e_c} = -1/2 [[e_a, theta e_b], e_c], on the numerators of the
    table and of ``theta_table``, against the box's coordinates that the
    build kept and its column c.  It can fail only on a wrong build of the
    table or of theta, never on a wrong structure-constant input:
    theta e_b = f_b makes identity 1 the [e_a, f_b] block formula itself,
    and with [e_a, T] = -T e_a identity 2 reduces to (x box y) z = {x, y, z}.
    The rows, indexed by the pair (a, b) of a box and then its triples
    (a, b, c), are over 2 D^2 D_theta B C, B and C the denominators of the
    boxes and their coordinates."""
    n = g.n
    theta, dt = g.theta_table
    S, D, B = g._structure, g.denom, g.jordan.den**2
    coords, C = _over_one(g._box_coords)

    def rows():
        for a, b in itertools.product(range(n), repeat=2):
            inner = lincomb((t, S.get((a, q), {})) for q, t in theta[b].items())
            want = {n + k: y for k, y in coords[a * n + b].items()}
            yield (a, b), B * D * _distance(inner, C, want, -2 * D * dt)
            for c, want in enumerate(_rows(_transposed(g._boxes[a * n + b], n), n)):  # columns
                dbl = lincomb((x, S.get((m, c), {})) for m, x in inner.items())
                yield (a, b, c), C * _distance(dbl, B, want, -2 * D * D * dt)

    return tally(rows(), 2 * D * D * dt * B * C)


def verify_killing_invariance(g: GradedLieAlgebra) -> Tally:
    """beta([x,y],z) + beta(y,[x,z]) = 0 on the basis triples, that is
    ad_i^T K + K ad_i = 0 over the entries j <= k, for the i in
    ``g.generators`` once g passes Jacobi (lemma 2 there), and for every i
    when a row fails, each row indexed (i, j, k).  With
    X_jk = sum_m c_ij^m K_mk, summed sparsely on numerators, the (j, k)
    entry is X_jk + X_kj over D^3, as K is symmetric, over D^2."""
    K, S, d = g._killing, g._structure, g.dim

    def rows(indices):
        for i in indices:
            X = [lincomb((c, K[m]) for m, c in S.get((i, j), {}).items()) for j in range(d)]
            for j, k in sorted({(min(j, k), max(j, k)) for j, row in enumerate(X) for k in row}):
                yield (i, j, k), abs(X[j].get(k, 0) + X[k].get(j, 0))

    some = range(d) if verify_jacobi(g).failures else g.generators
    t = tally(rows(some), g.denom**3)
    return tally(rows(range(d)), g.denom**3) if t.failures and len(some) < d else t


def closed_form_killing(g: GradedLieAlgebra) -> linalg.Matrix:
    """Gram matrix of the block formula beta_c(X, X') = beta_0(T, T')
    - 4 tau(u, v') - 4 tau(v, u'), from Jordan data only, as a cross-check
    against the intrinsic trace form.  beta_0(T, x box y) = 2 tau(Tx, y),
    from invariance, beta([u, v'], T) = beta(u, [v', T]), with [u, v'] =
    -2 u box v' and [v', T] = T# v'; when the boxes span g(0) the build
    appended each T_j as a box e_a box e_b, so beta_0(T_i, T_j) =
    2 sum_r (T_i)_ra G_rb over the entries of column a of T_i, on numerators.
    (The Killing form of gl(V) agrees only when g(0) = gl(V).)"""
    n, d0 = g.n, g.dim0
    if len(g._t_boxes) < d0:
        raise GradingClosureFailure("g(0) is not spanned by the box operators")
    G, dg = g.jordan._int_tau_gram
    out = [[0] * g.dim for _ in range(g.dim)]
    for i, t in enumerate(g._t_flat):
        cols: dict = {}  # column a of T_i: its entries (r, x)
        for rc, x in t.items():
            cols.setdefault(rc % n, []).append((rc // n, x))
        for j, (a, b) in enumerate(divmod(ab, n) for ab in g._t_boxes):
            if a in cols:
                out[n + i][n + j] = ratio(2 * sum(x * G[r][b] for r, x in cols[a]), g.t_den * dg)
    for a in range(n):
        for b in range(n):
            out[a][n + d0 + b] = out[n + d0 + b][a] = ratio(-4 * G[a][b], dg)
    return out


def measure_kappa(g: GradedLieAlgebra) -> Tuple[Optional[Fraction], Tally, Optional[str]]:
    """(kappa or None, Tally, reason or None) for K = kappa * closed, K's
    rows and the closed block formula, by ``poly.proportion`` over their
    entries in row-major order.  With no closed form, when the boxes miss
    part of g(0), K is measured against zero, kappa is None and the reason
    says why.  K(E, E) = 2n, so K is never zero: the Tally fails exactly
    when kappa is None."""
    try:
        closed, why = closed_form_killing(g), None
    except GradingClosureFailure as exc:
        closed, why = [[0] * g.dim for _ in range(g.dim)], str(exc)
    c, t = proportion(
        ((i, j), Scalar._reduced(NO_VARS, {NO_VARS.one: rk.get(j, 0)}, g.denom**2), Scalar.of(y))
        for i, (rk, rc) in enumerate(zip(g._killing, closed))
        for j, y in enumerate(rc)
        if y or j in rk
    )
    return None if c is None or why else Fraction(c.terms.get(NO_VARS.one, 0), c.den), t, why

