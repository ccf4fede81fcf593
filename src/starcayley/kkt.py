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

The sparse table of structure constants c_ij^k is written block by block
from this formula (``GradedLieAlgebra._block_table``): every basis element
lies in one grading block, so each pair needs one of four block formulas,
and the g(0) pieces come from the pass that closes the span of the boxes.
That pass runs on sparse matrices (``linalg.Sparse``): L(e_c) is formed
once per basis vector, each box as

    e_a box e_b = sum_c s_ab^c L(e_c) + L(e_a) L(e_b) - L(e_b) L(e_a)

from the n^2 products L(e_a) L(e_b), and the sharps T# = G^-1 T^T G and
the commutators of the closure as sparse products, with G the tau Gram
matrix sum_c s_ab^c Tr L(e_c).  One ``linalg.Echelon`` reduces the
flattened matrices in the order of the dense elimination, so t_basis,
which is stored dense, and every coordinate are those of a dense build.
The build keeps the coordinates of each box and of each T_i#, and which
box it appended as each T_j; Theta, the identifications and the closed
Killing form read them, so every g(0) fact has one source.  The (u, T, v)
model, with rational entries, is the construction's model: it is the
independent oracle that the table and Theta are tested against, and the
benchmark tracer names its bracket, but no report path runs on it.
Outside this module an element of g is its coordinate vector in the
basis (g(-1), t_basis, g(1)): E, o and the symplectic basis are held as
such vectors, ``coord_bracket`` brackets them, with rational or Poly
entries, through the table, and beta pairs them through the Killing Gram
matrix K = tr(ad_i ad_j), which is computed from the table like the spur
vector.

The table is stored once, as integer numerators D c_ij^k over one common
denominator D, the lcm of the denominators of the constants (D = 2 on
sym:p, D = 1 on the spin factors); this is the layout of FLINT's
fmpq_mat.  Theta is held the same way over its own denominator D_theta.
K, the spur vector, E and o hold an int wherever the value is integral,
as ``poly.exact`` does.  The checks of the lie suite run on these
integers with sparse dict accumulators and divide each residual once, at
the end, by its power of D and D_theta.  Fractions are formed only there,
in the views ``bracket_coords``, ``bracket_table``, ``coord_bracket`` and
``apply_theta``, and where a check compares with Jordan data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .jordan import JordanAlgebra
from .poly import exact


class GradingClosureFailure(ValueError):
    """The candidate degree-zero subspace is not closed as required."""


@dataclass
class LieElement:
    """(u, T, v) with u, v coordinate vectors and T an n x n matrix."""

    u: list
    t: list  # matrix
    v: list


def _flat(m: Sequence[Sequence]) -> list:
    return [x for row in m for x in row]


def _ratio(num: int, den: int):
    """num / den exactly, an int when den divides num."""
    return num // den if num % den == 0 else Fraction(num, den)


def _common_denominator(values) -> int:
    """The least common denominator of rational values."""
    return math.lcm(*(x.denominator for x in values))


def _sparse_sum(terms, acc: Optional[dict] = None) -> dict:
    """acc plus the sum of c row over the pairs (c, row) of terms, with
    each row a sparse dict; acc is updated in place."""
    acc = {} if acc is None else acc
    for c, row in terms:
        for m, x in row.items():
            acc[m] = acc.get(m, 0) + c * x
    return acc


@dataclass
class GradedLieAlgebra:
    jordan: JordanAlgebra
    mu: Fraction = Fraction(1)

    n: int = field(init=False)
    dim0: int = field(init=False)
    dim: int = field(init=False)
    t_basis: List[linalg.Matrix] = field(init=False)
    _span: linalg.Echelon = field(init=False)
    tau_gram: linalg.Matrix = field(init=False)
    _tau_gram_inv: linalg.Matrix = field(init=False)
    # the sparse matrices e_a box e_b, at index a n + b
    _boxes: List[linalg.Sparse] = field(init=False)
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
        self.tau_gram = A.tau_gram()
        self._tau_gram_inv = linalg.invert(self.tau_gram)
        G, G_inv = linalg.sparse(self.tau_gram), linalg.sparse(self._tau_gram_inv)

        def sharp(t: linalg.Sparse) -> linalg.Sparse:
            return linalg.sparse_mul(G_inv, linalg.sparse_mul(linalg.sparse_transpose(t), G))

        # g(0): the independent boxes e_a box e_b, then the span grown until
        # it is closed under the tau-adjoint and commutators.  A round in
        # which nothing grows holds every T_i# and the coordinates of every
        # [T_i, T_j]; on a Jordan algebra the first round is that round.
        basis: List[linalg.Sparse] = []
        self._span = linalg.Echelon()

        def absorb(m: linalg.Sparse) -> dict:
            """Nonzero coordinates of m along the basis, after appending m
            when it is independent of it."""
            c = self._span.absorb(linalg.flat(m))
            if c is None:
                basis.append(m)
                return {len(basis) - 1: 1}
            return c

        L, S = A.left_mult_basis(), A.structure
        LL = [[linalg.sparse_mul(la, lb) for lb in L] for la in L]
        self._boxes = [
            linalg.sparse_sum(
                [(exact(s), L[c]) for c, s in enumerate(S[a][b]) if s]
                + [(1, LL[a][b]), (-1, LL[b][a])],
                n,
            )
            for a in range(n)
            for b in range(n)
        ]
        self._box_coords = [absorb(m) for m in self._boxes]
        # T_j for j below the size here is the first box with coordinates {j: 1}
        self._t_boxes = [self._box_coords.index({j: 1}) for j in range(len(basis))]
        rounds = 0
        while True:
            rounds += 1
            if rounds > n * n + 1:
                raise GradingClosureFailure("degree-zero span does not stabilize")
            size = len(basis)
            sharps = [sharp(m) for m in basis]
            self._sharp_coords = [absorb(m) for m in sharps]
            comm = {}
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    comm[(i, j)] = absorb(linalg.sparse_commutator(basis[i], basis[j]))
            if len(basis) == size:
                break

        self.t_basis = [linalg.dense(m) for m in basis]
        d0 = self.dim0 = len(basis)
        self.dim = 2 * n + d0
        table = self._block_table(basis, comm, sharps)
        D = self.denom = _common_denominator(c for nz in table.values() for c in nz.values())
        self._structure = {}
        for (i, j), nz in table.items():
            row = self._structure[(i, j)] = {k: (c * D).numerator for k, c in nz.items()}
            self._structure[(j, i)] = {k: -c for k, c in row.items()}
        self.killing = self._build_killing()
        # trace of ad e_j on g(-1)
        S = self._structure
        self.spur_vector = [
            _ratio(sum(S[(j, a)].get(a, 0) for a in range(n) if (j, a) in S), self.denom)
            for j in range(self.dim)
        ]
        # E = (0, Id, 0), whose ad is the grading operator, and o = mu E
        zero = [0] * n
        self.E = zero + [exact(c) for c in self.t_coords(linalg.identity(n))] + zero
        self.o = [exact(self.mu * c) for c in self.E]

    # -- coordinates --------------------------------------------------------
    def t_coords(self, t: Sequence[Sequence]) -> list:
        """Coordinates of t along t_basis; raises GradingClosureFailure when
        t is not in their span."""
        c = self._span.coords(linalg.flat(linalg.sparse(t)))
        if c is None:
            raise GradingClosureFailure("matrix is not in the degree-zero span")
        return [Fraction(c.get(k, 0)) for k in range(self.dim0)]

    def t_from_coords(self, c: Sequence) -> list:
        """sum_j c_j T_j over the nonzero c_j and the nonzero entries of T_j;
        the c_j may be rationals or Polys, and the zero is that of c[0]."""
        zero = c[0] - c[0]
        m = [[zero] * self.n for _ in range(self.n)]
        for cj, t in zip(c, self.t_basis):
            if not linalg._is_zero(cj):
                for r, row in enumerate(t):
                    for col, x in enumerate(row):
                        if x:
                            m[r][col] = m[r][col] + cj * x
        return m

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
        return LieElement(
            list(x.v), linalg.mat_scale(self.sharp(x.t), Fraction(-1)), list(x.u)
        )

    @cached_property
    def theta_table(self) -> Tuple[List[dict], int]:
        """Theta as (rows, D_theta): row i maps m to the integer numerator
        of the m-th coordinate of theta e_i over D_theta.  As
        theta(u, T, v) = (v, -T#, u) swaps e_a and f_a, the rows of g(-1)
        and g(1) are written by index; row n + i of g(0) is -T_i#, whose
        coordinates the build kept when it closed the span."""
        n, f = self.n, self.n + self.dim0
        den = _common_denominator(c for nz in self._sharp_coords for c in nz.values())
        return (
            [{f + a: den} for a in range(n)]
            + [{n + k: (-c * den).numerator for k, c in nz.items()} for nz in self._sharp_coords]
            + [{a: den} for a in range(n)]
        ), den

    def apply_theta(self, c: Sequence) -> list:
        """theta on a rational coordinate vector, through Theta."""
        rows, den = self.theta_table
        out = [0] * self.dim
        for k, ck in enumerate(c):
            if ck:
                for m, t in rows[k].items():
                    out[m] += ck * t
        return [Fraction(x, den) for x in out]

    def _block_table(self, T: list, comm: dict, sharps: list) -> dict:
        """Nonzero c_ij^k for i < j, keyed in that order, block by block:

            [e_a, T_i] = -T_i e_a,              [e_a, f_b] = -2 e_a box e_b,
            [T_i, T_j] = T_i T_j - T_j T_i,     [T_i, f_b] = -T_i# e_b,

        with e_a, T_i, f_b the basis of g(-1), g(0), g(1); every other pair
        of blocks brackets to zero.  ``T[i]`` and ``sharps[i]`` are T_i and
        T_i#, sparse; ``_box_coords[a n + b]`` and ``comm[(i, j)]`` map g(0)
        indices to the nonzero coordinates of e_a box e_b and of [T_i, T_j]."""
        n, d0 = self.n, self.dim0
        f = n + d0
        table = {}

        def put(i, j, nz):
            if nz:
                table[(i, j)] = nz

        def minus_column(m, b, shift):
            return {shift + k: -row[b] for k, row in enumerate(m) if b in row}

        for a in range(n):
            for i in range(d0):
                put(a, n + i, minus_column(T[i], a, 0))
            for b in range(n):
                put(a, f + b, {n + k: -2 * c for k, c in self._box_coords[a * n + b].items()})
        for i in range(d0):
            for j in range(i + 1, d0):
                put(n + i, n + j, {n + k: c for k, c in comm[(i, j)].items()})
            for b in range(n):
                put(n + i, f + b, minus_column(sharps[i], b, f))
        return table

    def bracket_coords(self, i: int, j: int) -> dict:
        """Nonzero coordinates of [e_i, e_j], ints where integral."""
        D = self.denom
        return {k: _ratio(c, D) for k, c in self._structure.get((i, j), {}).items()}

    @property
    def bracket_table(self) -> dict:
        """Nonzero c_ij^k for i < j, keyed in that order, as
        ``bracket_coords`` gives them."""
        return {(i, j): self.bracket_coords(i, j) for i, j in self._structure if i < j}

    def coord_bracket(self, x: Sequence, y: Sequence) -> list:
        """[x, y] on coordinate vectors, through the structure constants.

        Entries may be rationals or Polys; they are multiplied by the
        integer numerators and each sum is divided by D once.  The entries
        of the result have the type of x[0] * y[0] / D.
        """
        out: list = [None] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if not linalg._is_zero(yj)]
        for i, xi in enumerate(x):
            if linalg._is_zero(xi):
                continue
            for j, yj in ys:
                nz = self._structure.get((i, j))
                if nz is None:
                    continue
                p = xi * yj
                for k, c in nz.items():
                    t = p * c
                    out[k] = t if out[k] is None else out[k] + t
        if self.denom != 1:
            scale = Fraction(1, self.denom)
            out = [None if v is None else v * scale for v in out]
        probe = x[0] * y[0]
        zero = probe - probe
        return [zero if v is None else v for v in out]

    def _build_killing(self) -> linalg.Matrix:
        """K_ij = tr(ad e_i ad e_j) = sum over k, l of c_il^k c_jk^l, summed
        over the integer numerators and divided by D^2.  The table respects
        the grading, so K_ij = 0 unless the grades of i and j sum to zero:
        only g(-1) x g(1) and g(0) x g(0) are traced, for j >= i."""
        d, n, f = self.dim, self.n, self.n + self.dim0
        S, D2 = self._structure, self.denom**2
        ads = [[S.get((i, l)) for l in range(d)] for i in range(d)]

        def trace(adi, adj):
            s = 0
            for l, col in enumerate(adi):
                if col:
                    for k, c in col.items():
                        if adj[k]:
                            s += c * adj[k].get(l, 0)
            return s

        K = [[0] * d for _ in range(d)]
        pairs = [(i, j) for i in range(n) for j in range(f, d)]
        pairs += [(i, j) for i in range(n, f) for j in range(i, f)]
        for i, j in pairs:
            K[i][j] = K[j][i] = _ratio(trace(ads[i], ads[j]), D2)
        return K

    def beta(self, x: Sequence, y: Sequence) -> Fraction:
        """Killing form of two coordinate vectors, through the Gram matrix."""
        return sum(
            (
                x[i] * self.killing[i][j] * y[j]
                for i in range(self.dim)
                if x[i] != 0
                for j in range(self.dim)
                if y[j] != 0
            ),
            Fraction(0),
        )

    def omega(self, x: Sequence, y: Sequence) -> Fraction:
        """Symplectic pairing beta(o, [x, y])."""
        return self.beta(self.o, self.coord_bracket(x, y))

    # -- symplectic basis ------------------------------------------------------
    def symplectic_basis(self) -> Tuple[List[list], List[list]]:
        """Coordinates of the basis L_a = e_a of g(-1) and of the dual basis
        L'_b = sum_c (P^-1)_cb f_c of g(1), P_ab = omega(e_a, f_b), so that
        omega(L_a, L'_b) = delta_ab."""
        n, f = self.n, self.n + self.dim0
        unit = linalg.identity(self.dim)
        P = [[self.omega(unit[a], unit[f + b]) for b in range(n)] for a in range(n)]
        Pinv = linalg.invert(P)
        Lp = [[Fraction(0)] * f + [Pinv[c][b] for c in range(n)] for b in range(n)]
        return unit[:n], Lp


# ---------------------------------------------------------------------------
# verification suites: each returns (passed, residual, detail)
# ---------------------------------------------------------------------------


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


def _witness(idx: tuple, residual: Fraction, names: str = "(i, j, k)") -> str:
    return f"first failing {names} = {idx}, residual {residual}"


def verify_jacobi(g: GradedLieAlgebra) -> SuiteResult:
    """Jacobi identity on all basis triples i < j < k, via the integer table:
    each cyclic term c_bc^m c_am^p has its numerator over D^2, and a term
    whose inner bracket [e_b, e_c] is zero is skipped.  On failure the
    detail names the first failing triple and its residual."""
    S, d, D2 = g._structure, g.dim, g.denom**2
    res = bad = 0
    first = None
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc: dict = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    if (b, c) in S:
                        _sparse_sum(((x, S.get((a, m), {})) for m, x in S[(b, c)].items()), acc)
                r = sum(map(abs, acc.values()))
                if r:
                    bad += 1
                    res += r
                    first = first or ((i, j, k), r)
    detail = f"{bad} failing triples; {_witness(first[0], Fraction(first[1], D2))}" if bad else ""
    return _combine("jacobi", Fraction(res, D2), detail)


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


def verify_theta(g: GradedLieAlgebra) -> SuiteResult:
    """theta is an automorphism of the bracket: with Theta the coordinates
    of theta(e_i) from ``theta_table``, Theta [e_i, e_j] = [Theta e_i,
    Theta e_j] is checked through the structure constants, both sides on
    integer numerators over D D_theta^2.  Theta^2 = 1 is not checked: the
    g(+-1) rows are the swap e_a <-> f_a, and on g(0) theta^2 T = T## = T
    whenever the tau Gram matrix is symmetric, as it is for every
    commutative table: the built-ins, and any ``file:`` table, which the
    loader validates.  On failure the detail names the first failing pair
    (i, j), in the order i, then j > i, and its residual."""
    rows, dt = g.theta_table
    S, d, D = g._structure, g.dim, g.denom
    automorphism, first = 0, None
    for i in range(d):
        for j in range(i + 1, d):
            acc = _sparse_sum((dt * c, rows[k]) for k, c in S.get((i, j), {}).items())
            products = ((p, q, tp * tq) for p, tp in rows[i].items() for q, tq in rows[j].items())
            _sparse_sum(((-w, S[(p, q)]) for p, q, w in products if (p, q) in S), acc)
            r = sum(map(abs, acc.values()))
            automorphism += r
            if r and first is None:
                first = _witness((i, j), Fraction(r, D * dt * dt), "(i, j)")
    return _combine("theta", Fraction(automorphism, D * dt * dt), first or "")


def _distance(num: dict, den: int, want: dict):
    """den times the l1 distance between the vector num / den and want,
    both sparse."""
    return sum(abs(num.get(m, 0) - den * want.get(m, 0)) for m in num.keys() | want.keys())


def verify_identifications(g: GradedLieAlgebra) -> SuiteResult:
    """Box and triple product against brackets of the table, over the Jordan
    basis e_a of g(-1):  e_a box e_b = -1/2 [e_a, theta e_b]  and
    {e_a, e_b, e_c} = -1/2 [[e_a, theta e_b], e_c].

    The brackets are taken on the integer numerators of the table and of
    Theta, with theta e_b from ``theta_table`` as in ``verify_theta``:
    [e_a, theta e_b] over D D_theta and the double bracket over
    D^2 D_theta.  The right-hand sides come from the Jordan algebra: the
    matrix of e_a box e_b, with the coordinates along t_basis that the
    build kept for it, and its column c, which is {e_a, e_b, e_c} by the
    definition of the box.  So the check asks whether the table that every later check uses reproduces
    the box and the triple product.

    It can fail only on a wrong build of the table or of theta, never on a
    wrong structure-constant input.  theta e_b = f_b, so identity 1 reads
    -1/2 [e_a, f_b] = e_a box e_b, which is the [e_a, f_b] block formula of
    ``_block_table`` itself.  By identity 1 and the block [e_a, T] = -T e_a,
    identity 2 reduces to (x box y) z = {x, y, z}, and with L(x) z = x o z
    both sides expand to (x o y) o z + x o (y o z) - y o (x o z) for any
    table, Jordan or not.

    On failure the detail names the first failing pair (a, b) of the box
    identity or triple (a, b, c) of the triple product, in the order a, b,
    then c, and its residual."""
    n = g.n
    rows, dt = g.theta_table
    S, D = g._structure, g.denom
    boxes = triples = 0
    first = None
    for a in range(n):
        for b in range(n):
            inner = _sparse_sum((t, S.get((a, q), {})) for q, t in rows[b].items())
            box = g._boxes[a * n + b]
            want = {n + k: y for k, y in g._box_coords[a * n + b].items()}
            r = _distance(inner, -2 * D * dt, want)
            boxes += r
            if r and first is None:
                first = _witness((a, b), Fraction(r, 2 * D * dt), "box (a, b)")
            for c in range(n):
                dbl = _sparse_sum((x, S.get((m, c), {})) for m, x in inner.items())
                want = {k: row[c] for k, row in enumerate(box) if c in row}
                r = _distance(dbl, -2 * D * D * dt, want)
                triples += r
                if r and first is None:
                    first = _witness((a, b, c), Fraction(r, 2 * D * D * dt), "triple (a, b, c)")
    res = Fraction(boxes, 2 * D * dt) + Fraction(triples, 2 * D * D * dt)
    return _combine("identifications", res, first or "box and triple product match the bracket forms")


def verify_killing_invariance(g: GradedLieAlgebra) -> SuiteResult:
    """beta([x,y],z) + beta(y,[x,z]) = 0 on all basis triples, that is
    ad_i^T K + K ad_i = 0, summed over the entries j <= k.

    On integer numerators, K over its denominator D_K: with
    X_jk = sum_m c_ij^m K_mk the (j, k) entry is X_jk + X_kj, as K is
    symmetric, with numerator over D D_K; X is accumulated sparsely.  On
    failure the detail names the first failing (i, j, k) and its
    residual."""
    dk = _common_denominator(_flat(g.killing))
    K = [{m: (x * dk).numerator for m, x in enumerate(row) if x} for row in g.killing]
    S, d, den = g._structure, g.dim, g.denom * dk
    res = 0
    first = None
    for i in range(d):
        X = [_sparse_sum((c, K[m]) for m, c in S.get((i, j), {}).items()) for j in range(d)]
        pairs = {(min(j, k), max(j, k)) for j, row in enumerate(X) for k in row}
        sums = {(j, k): abs(X[j].get(k, 0) + X[k].get(j, 0)) for j, k in pairs}
        bad = {key: r for key, r in sums.items() if r}
        res += sum(bad.values())
        if bad and first is None:
            j, k = min(bad)
            first = ((i, j, k), bad[(j, k)])
    detail = _witness(first[0], Fraction(first[1], den)) if first else ""
    return _combine("killing-invariance", Fraction(res, den), detail)


def closed_form_killing(g: GradedLieAlgebra) -> linalg.Matrix:
    """Gram matrix of the block formula

        beta_c(X, X') = beta_0(T, T') - 4 tau(u, v') - 4 tau(v, u')

    built from Jordan data only, as a cross-check against the intrinsic
    trace form.  The degree-zero block is fixed on box operators by

        beta_0(T, x box y) = 2 tau(Tx, y)

    and so on t_basis: when the boxes span g(0), the build appended each T_j
    as a box e_a box e_b, and beta_0(T_i, T_j) = 2 tau(T_i e_a, e_b).  It
    follows from invariance, beta([u, v'], T) = beta(u, [v', T]), with
    [u, v'] = -2 u box v', [v', T] = T# v' and the -4 tau(u, v') block.
    (The Killing form of gl(V), 2n tr(TT') - 2 tr(T) tr(T'), agrees with it
    only when g(0) = gl(V).)
    """
    n, d0, G = g.n, g.dim0, g.tau_gram
    if len(g._t_boxes) < d0:
        raise GradingClosureFailure("g(0) is not spanned by the box operators")
    # 2 tau(T e_a, e_b) = 2 (T^T G)[a][b], flattened at a n + b
    pair = [_flat(linalg.mat_mul(linalg.transpose(t), G)) for t in g.t_basis]

    out = [[0] * g.dim for _ in range(g.dim)]
    for i in range(d0):
        for j, ab in enumerate(g._t_boxes):
            out[n + i][n + j] = exact(2 * pair[i][ab])
    for a in range(n):
        for b in range(n):
            out[a][n + d0 + b] = out[n + d0 + b][a] = exact(-4 * G[a][b])
    return out


def measure_kappa(g: GradedLieAlgebra) -> Tuple[Optional[Fraction], Fraction]:
    """Proportionality constant between the intrinsic Killing Gram matrix and
    the closed block formula: intrinsic = kappa * closed.  Returns
    (kappa or None, residual after the best match)."""
    closed = closed_form_killing(g)
    pairs = [(x, y) for rk, rc in zip(g.killing, closed) for x, y in zip(rk, rc) if x or y]
    ref = next(((x, y) for x, y in pairs if y), None)
    if ref is None:
        return None, Fraction(sum(abs(x) for x, _ in pairs))
    # kappa = a / b from the first nonzero closed entry, and each
    # |x - kappa y| = |b x - a y| / |b|, in integers where K and closed are
    a, b = ref
    res = Fraction(sum(abs(b * x - a * y) for x, y in pairs), abs(b))
    return (Fraction(a, b) if res == 0 else None), res


def run_structure_suite(g: GradedLieAlgebra) -> List[SuiteResult]:
    results = [
        verify_jacobi(g),
        verify_theta(g),
        verify_identifications(g),
        verify_killing_invariance(g),
    ]
    kappa, res = measure_kappa(g)
    results.append(
        SuiteResult(
            name="killing-closed-form",
            passed=kappa is not None,
            residual=res,
            detail=f"kappa = {kappa}" if kappa is not None else "no proportionality",
            value=kappa,
        )
    )
    return results
