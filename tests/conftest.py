import dataclasses
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, perm, prod
from operator import add
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from starcayley import jordan, kkt, linalg  # noqa: E402
from starcayley.poly import Poly  # noqa: E402
from starcayley.poly import exact, lincomb, pruned  # noqa: E402
from starcayley.weyl import WeylOperator, _pair_kernel  # noqa: E402


def poly_abs(p: Poly) -> Fraction:
    """Sum of |c| over all (monomial, nu-power) coefficients c of p; zero
    iff p is zero."""
    return Fraction(sum(map(abs, p.terms.values())), p.den)


def degree_in(p: Poly, name: str) -> int:
    """Highest exponent of one variable in p."""
    i = p.vs.index(name)
    return max((e[i] for e in unpacked(p)), default=0)


def unpacked(obj, terms: dict = None) -> dict:
    """terms, by default ``obj.terms``, with each packed key in the tuple
    form of obj's class and varset: exponents + (nu-power,) for a Poly
    or a Scalar, (a + (nu-power,), b) for a WeylOperator."""
    terms = obj.terms if terms is None else terms
    return {type(obj)._unpack(obj.vs, k): c for k, c in terms.items()}


def over(cls, vs, terms: dict, den: int):
    """The cls over vs of tuple-keyed numerators over den."""
    return cls(vs, {k: Fraction(c, den) for k, c in terms.items()})


def darboux_names(vs) -> tuple:
    """(l names, m names) of the Darboux pairs of vs, read from positions:
    pair a of 2n variables is (a, n + a)."""
    n = len(vs) // 2
    return vs.names[:n], vs.names[n:]


def embed_z_operator(op: WeylOperator, target) -> WeylOperator:
    """An operator in the n z-variables as one in the 2n variables of
    target, (z, zbar), that does not touch zbar: each key unpacked and
    packed again in the layout of target, the zbar exponents zero."""
    pad = (0,) * (len(target) - len(op.vs))
    terms = {}
    for k, c in op.terms.items():
        a, b = op._unpack(op.vs, k)
        terms[WeylOperator._pack(target, (a[:-1] + pad + a[-1:], b + pad))] = c
    return WeylOperator._new(target, terms, op.den)


# -- the tuple-key kernels that packed keys replaced, kept as oracles -------


def tuple_mul_add(acc: dict, t1: dict, t2: dict, factor: int = 1) -> dict:
    """The oracle of ``poly.mul_add``, on tuple keys added entry by entry."""
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2 * factor
    return acc


def tuple_diff_terms(terms: dict, i: int) -> dict:
    """The oracle of ``poly.diff_terms``, on tuple keys."""
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in terms.items() if e[i]}


def tuple_apply(op: WeylOperator, p: Poly) -> Poly:
    """The oracle of ``WeylOperator.apply``, on tuple keys: the terms of op
    grouped by derivative exponents b, d^b p one derivative at a time."""
    groups: dict = {}
    for (a, b), c in unpacked(op).items():
        groups.setdefault(b, {})[a] = c
    out: dict = {}
    for b, mults in groups.items():
        dp = unpacked(p)
        for i in [i for i, k in enumerate(b) if k for _ in range(k)]:
            dp = tuple_diff_terms(dp, i)
        tuple_mul_add(out, mults, dp)
    return over(Poly, op.vs, out, op.den * p.den)


def tuple_contractions(u: Poly, v: Poly, l_names, m_names, orders=None) -> dict:
    """The oracle of ``weyl.moyal_star``, on tuple keys: the unpruned
    numerators, over u.den v.den, of the sum over s in ``orders`` (every s
    when None) of nu^s B_s(u, v), B_s taking s derivatives of each factor;
    for each pair of terms, the ``_pair_kernel`` of every Darboux pair that
    contracts, read at drop -1 so that each key change is the order s."""
    vs = u.vs
    pairs = [(vs.index(la), vs.index(ma)) for la, ma in zip(l_names, m_names)]
    out: dict = {}
    for e1, c1 in unpacked(u).items():
        for e2, c2 in unpacked(v).items():
            esum = list(map(add, e1, e2))
            active = [
                (i, j, _pair_kernel(e1[i], e1[j], e2[i], e2[j], -1))
                for i, j in pairs
                if (e1[i] and e2[j]) or (e1[j] and e2[i])
            ]
            for combo in itertools.product(*(ker for _, _, ker in active)):
                e, w = list(esum), 1
                for (i, j, _), (s, ws) in zip(active, combo):
                    e[i] -= s
                    e[j] -= s
                    e[-1] += s
                    w *= ws
                if orders is None or e[-1] - esum[-1] in orders:
                    out[tuple(e)] = out.get(tuple(e), 0) + c1 * c2 * w
    return out


def tuple_pairwise_image(op, pairs, kernel, target):
    """The oracle of ``weyl._pairwise_image``, on tuple keys: each term's
    image the product of its pairs' kernel images, zipped field by field."""
    idx = [(op.vs.index(x), op.vs.index(y)) for x, y in pairs]
    words, emax = [], 0
    for (a, b), c in unpacked(op).items():
        kers, e = [], 0
        for i, j in idx:
            ei, image = kernel(a[i], a[j], b[i], b[j])
            e += ei
            kers.append(image)
        words.append((c, e, a[-1], kers))
        emax = max(emax, e)
    out: dict = {}
    for p, e, k0, kers in words:
        for combo in itertools.product(*kers):
            x1, x2, d1, d2, s, w = zip(*combo)
            key = (x1 + x2 + (k0 + sum(s),), d1 + d2)
            out[key] = out.get(key, 0) + (p << (emax - e)) * prod(w)
    return over(WeylOperator, target, out, op.den << emax)


def bracket_rho_parts(srep, a: list):
    """The oracle of ``StarRepresentation``'s per-basis parts: (degree-zero
    coordinates of h_A, l_A, tau_A) for the rational coordinate vector a,
    from dense vectors of Polys and three ``coord_bracket`` calls:
    h_A = A_t + [A_v, z], l_A = A_u + [A_t, z] + 1/2 [z, [z, A_v]], each
    read at its grade, and tau_A = sum_j h_j w_j."""
    g, vs = srep.g, srep.zvs
    z = [Poly.var(vs, x) for x in vs.names] + [Poly.zero(vs)] * (g.dim - g.n)
    cuts = (0, g.n, g.n + g.dim0, g.dim)
    au, at, av = (
        [x if lo <= k < hi else 0 for k, x in enumerate(a)] for lo, hi in zip(cuts, cuts[1:])
    )
    br = g.coord_bracket(av, z)
    h = [br[k] + Poly.const(vs, at[k]) for k in range(g.n, g.n + g.dim0)]
    tz, quad = g.coord_bracket(at, z), g.coord_bracket(z, g.coord_bracket(z, av))
    l = [Poly.const(vs, au[k]) + tz[k] + quad[k] * Fraction(1, 2) for k in range(g.n)]
    tau = sum((hj * w for hj, w in zip(h, srep._tau_weights)), Poly.zero(vs))
    return h, l, tau


def multiset_left_star_operator(lam: Poly, l_names, m_names) -> WeylOperator:
    """The oracle of ``weyl.left_star_operator``: for every order k up to
    the degree of lam and every multiset of k contraction indices, lam is
    differentiated from scratch along the multiset (index c < n in l^c,
    contributing d/dm^c; index n + a in m^a, contributing d/dl^a and a sign
    flip), weighted by sign * nu^k / prod(mult!)."""
    vs = lam.vs
    n = len(l_names)
    l_idx = [vs.index(x) for x in l_names]
    m_idx = [vs.index(x) for x in m_names]
    zero_d = (0,) * len(vs)
    out: dict = {(e, zero_d): c for e, c in unpacked(lam, lam.rationals()).items()}
    for k in range(1, lam.total_degree() + 1):
        for combo in itertools.combinations_with_replacement(range(2 * n), k):
            p = lam
            dexp = [0] * len(vs)
            sign = 1
            for c in combo:
                if c < n:
                    p = p.diff(l_names[c])
                    dexp[m_idx[c]] += 1
                else:
                    p = p.diff(m_names[c - n])
                    dexp[l_idx[c - n]] += 1
                    sign = -sign
            if p.is_zero():
                continue
            weight = exact(Fraction(sign, prod(factorial(m) for m in Counter(combo).values())))
            for e, c in unpacked(p, p.rationals()).items():
                key = (e[:-1] + (e[-1] + k,), tuple(dexp))
                out[key] = out.get(key, 0) + c * weight
    return WeylOperator(vs, pruned(out))


def term_pair_apply(op: WeylOperator, p: Poly) -> Poly:
    """The oracle of ``WeylOperator.apply``: every term c x^a d^b of op
    against every term of p, with d^b x^e = e!/(e-b)! x^(e-b), zero when
    some e_i < b_i."""
    out: dict = {}
    for (a, b), c in unpacked(op).items():
        b0 = b + (0,)
        for e, pc in unpacked(p).items():
            w = prod(map(perm, e, b))
            if not w:
                continue
            mono = tuple(u + v - z for u, v, z in zip(a, e, b0))
            out[mono] = out.get(mono, 0) + c * pc * w
    return over(Poly, op.vs, out, op.den * p.den)


def contraction_b3(u: Poly, v: Poly, l_names, m_names) -> dict:
    """The oracle of ``weyl._cubic_b3``: the numerators of nu^3 B_3(u, v),
    over u.den v.den, from the ``_pair_kernel`` factors of every pair of
    terms (``tuple_contractions`` at order 3), as {nu-power: numerator}
    without zeros; for u and v of degree at most 3 every variable's
    exponent in it is zero."""
    out = {}
    for e, c in tuple_contractions(u, v, l_names, m_names, (3,)).items():
        assert not any(e[:-1])
        if c:
            out[e[-1]] = c
    return out


def contraction_covariance(ch):
    """The oracle of ``weyl.verify_covariance``: (residual, failing pairs,
    witness) from the odd orders s >= 3 of ``tuple_contractions`` on every
    pair of moment maps of degree >= 3, term pair by term pair."""
    deg = [lam.total_degree() for lam in ch.moment]
    res, bad, witness = Fraction(0), 0, None
    for i, j in itertools.combinations(range(len(ch.moment)), 2):
        u, v = ch.moment[i], ch.moment[j]
        tail = tuple_contractions(u, v, *darboux_names(ch.vs), range(3, min(deg[i], deg[j]) + 1, 2))
        r = Fraction(2 * sum(map(abs, tail.values())), u.den * v.den)
        if r:
            res, bad = res + r, bad + 1
            witness = witness or ((i, j), r)
    return res, bad, witness


# -- the Fraction build of g that the integer build replaced, kept as oracle --


class FractionEchelon:
    """The oracle of ``linalg.Echelon``: sparse rational vectors reduced in
    the order of dense Gaussian elimination, each row with 1 at its pivot
    and the combination of the added vectors it equals."""

    def __init__(self):
        self.size, self._rows = 0, []

    def _reduce(self, v):
        r, steps = {k: x for k, x in v.items() if x}, []
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

    def coords(self, v):
        r, coords = self._reduce(v)
        return None if r else coords

    def absorb(self, v):
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


def fraction_build(A: jordan.JordanAlgebra, mu=Fraction(1)) -> dict:
    """The oracle of the ``kkt.GradedLieAlgebra`` build: the closure of the
    boxes under the tau-adjoint and commutators on sparse matrices of
    Fractions, the table written block by block over Fractions and brought
    to one denominator afterwards.  Returns the build's fields by name, the
    box coordinates as reduced (numerators, denominator) pairs and K also as
    its rows of nonzero numerators over D^2, and the tau Gram matrix and its
    inverse."""
    n = A.dim
    S = {ab: {c: Fraction(x, A.den) for c, x in row.items()} for ab, row in A.table.items()}
    s = lambda a, b: S.get((a, b), {})
    mul = lambda a, b: [pruned(lincomb((x, b[t]) for t, x in row.items())) for row in a]
    total = lambda terms: [pruned(lincomb((c, m[r]) for c, m in terms)) for r in range(n)]
    flat = lambda a: {r * n + c: x for r, row in enumerate(a) for c, x in row.items()}
    tr = [sum((s(c, a).get(a, 0) for a in range(n)), Fraction(0)) for c in range(n)]
    gram = [[sum((x * tr[c] for c, x in s(a, b).items()), Fraction(0)) for b in range(n)]
            for a in range(n)]
    span = FractionEchelon()
    for row in gram:
        assert span.absorb(dict(enumerate(row))) is None
    gram_inv = [[Fraction(span.coords({j: 1}).get(i, 0)) for i in range(n)] for j in range(n)]
    G, G_inv = ([{c: x for c, x in enumerate(row) if x} for row in m] for m in (gram, gram_inv))
    transpose = lambda t: [{r: row[c] for r, row in enumerate(t) if c in row} for c in range(n)]
    sharp = lambda t: mul(G_inv, mul(transpose(t), G))
    basis, span = [], FractionEchelon()

    def absorb(m):
        c = span.absorb(flat(m))
        if c is None:
            basis.append(m)
            return {len(basis) - 1: 1}
        return c

    L = [[{a: exact(s(c, a)[r]) for a in range(n) if r in s(c, a)} for r in range(n)] for c in range(n)]
    boxes = [total([(exact(x), L[c]) for c, x in s(a, b).items()]
                   + [(1, mul(L[a], L[b])), (-1, mul(L[b], L[a]))])
             for a in range(n) for b in range(n)]
    box_coords = [absorb(m) for m in boxes]
    t_boxes = [box_coords.index({j: 1}) for j in range(len(basis))]
    while True:
        size = len(basis)
        sharps = [sharp(m) for m in basis]
        sharp_coords = [absorb(m) for m in sharps]
        comm = {}
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                ab = total([(1, mul(basis[i], basis[j])), (-1, mul(basis[j], basis[i]))])
                comm[(i, j)] = absorb(ab)
        if len(basis) == size:
            break
    d0 = len(basis)
    f, dim = n + d0, 2 * n + d0
    table = {}
    column = lambda m, b, shift: {shift + k: -row[b] for k, row in enumerate(m) if b in row}
    for a in range(n):
        for i in range(d0):
            table[(a, n + i)] = column(basis[i], a, 0)
        for b in range(n):
            table[(a, f + b)] = {n + k: -2 * c for k, c in box_coords[a * n + b].items()}
    for i in range(d0):
        for j in range(i + 1, d0):
            table[(n + i, n + j)] = {n + k: c for k, c in comm[(i, j)].items()}
        for b in range(n):
            table[(n + i, f + b)] = column(sharps[i], b, f)
    D = math.lcm(*(c.denominator for nz in table.values() for c in nz.values()))
    structure = {}
    for (i, j), nz in table.items():
        if nz:
            structure[(i, j)] = {k: (c * D).numerator for k, c in nz.items()}
            structure[(j, i)] = {k: -(c * D).numerator for k, c in nz.items()}
    c = lambda i, j: {k: Fraction(x, D) for k, x in structure.get((i, j), {}).items()}
    killing = [[exact(sum((x * c(j, k).get(l, 0) for l in range(dim) for k, x in c(i, l).items()),
                          Fraction(0))) for j in range(dim)] for i in range(dim)]
    def reduced(c):  # the rational vector c as reduced (numerators, denominator)
        d = math.lcm(*(Fraction(x).denominator for x in c.values()))
        return {k: (x * d).numerator for k, x in c.items()}, d

    rows_K = [{j: (x * D * D).numerator for j, x in enumerate(row) if x} for row in killing]
    spur = [exact(sum((c(j, a).get(a, 0) for a in range(n)), Fraction(0))) for j in range(dim)]
    e = span.coords({r * (n + 1): 1 for r in range(n)})
    E = [0] * n + [exact(Fraction(e.get(k, 0))) for k in range(d0)] + [0] * n
    dt = math.lcm(*(c.denominator for nz in sharp_coords for c in nz.values()))
    theta = ([{f + a: dt} for a in range(n)]
             + [{n + k: (-c * dt).numerator for k, c in nz.items()} for nz in sharp_coords]
             + [{a: dt} for a in range(n)])
    return {
        "_structure": structure, "denom": D, "killing": killing, "_killing": rows_K,
        "spur_vector": spur, "theta_table": (theta, dt),
        "_box_coords": [reduced(c) for c in box_coords],
        "_t_boxes": t_boxes, "E": E, "o": [exact(mu * x) for x in E], "tau_gram": gram,
        "tau_gram_inv": gram_inv,
    }


def dense_structure(selector: str) -> list:
    """The dense table s[a][b][c] (the coefficient of e_c in e_a o e_b) of
    the built-in rank1, spin:k or sym:p, from the products the builders
    formed before they wrote sparse numerators: basis matrices multiplied
    for sym:p.  The oracle of ``JordanAlgebra.table``."""
    kind, _, arg = selector.partition(":")
    if kind == "rank1":
        return [[[Fraction(1)]]]
    n = int(arg)
    if kind == "spin":
        def s(a, b, c):  # e_0 is the unit, and e_a o e_b = delta_ab e_0 for a, b >= 1
            return Fraction(int(c == a + b if 0 in (a, b) else a == b and c == 0))

        return [[[s(a, b, c) for c in range(n)] for b in range(n)] for a in range(n)]
    pairs = [(a, a) for a in range(n)] + [(a, b) for a in range(n) for b in range(a + 1, n)]
    idx = range(n)
    basis = [[[Fraction(int({r, c} == s)) for c in idx] for r in idx] for s in map(set, pairs)]

    def product(x, y):  # (xy + yx)/2 along the basis
        xy = linalg.mat_add(linalg.mat_mul(x, y), linalg.mat_mul(y, x))
        return [xy[a][b] / 2 for a, b in pairs]

    return [[product(x, y) for y in basis] for x in basis]


def perturbed(A: jordan.JordanAlgebra, a: int, b: int, c: int, name="perturbed") -> jordan.JordanAlgebra:
    """A with the structure constant of e_c in e_a o e_b raised by 1, so its
    numerator by den, which stays the denominator: not a Jordan algebra."""
    row = dict(A.table.get((a, b), {}))
    row[c] = row.get(c, 0) + A.den
    table = {**A.table, (a, b): dict(sorted(pruned(row).items()))}
    return dataclasses.replace(A, name=name, table={k: table[k] for k in sorted(table) if table[k]})


@pytest.fixture(scope="session")
def instance_cache():
    """Shared construction cache so expensive objects are built once."""
    cache = {}

    def get(kind: str, selector: str, mu=Fraction(1)):
        key = (kind, selector, mu)
        if key in cache:
            return cache[key]
        if kind == "algebra":
            value = jordan.make_algebra(selector)
        elif kind == "lie":
            value = kkt.GradedLieAlgebra(get("algebra", selector), mu)
        elif kind == "chart":
            from starcayley.chart import SymplecticChart

            value = SymplecticChart(get("lie", selector, mu))
        elif kind == "srep":
            from starcayley.starrep import StarRepresentation

            value = StarRepresentation(get("lie", selector, mu))
        elif kind == "rho":
            value = get("srep", selector, mu).rho_basis()
        elif kind == "series":
            from starcayley.hds import DiscreteSeries

            value = DiscreteSeries(get("lie", selector, mu))
        else:
            raise KeyError(kind)
        cache[key] = value
        return value

    return get


def _forbid(name):
    def raiser(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return raiser


@pytest.fixture
def fraction_arithmetic_forbidden(monkeypatch):
    """Fraction's arithmetic raises when called: the exact kernels must run
    on integer numerators, and may form Fractions only at the edges, by
    construction (comparisons and hashing stay allowed)."""
    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__abs__",
    ):
        monkeypatch.setattr(Fraction, name, _forbid(f"Fraction.{name}"))


@pytest.fixture
def model_forbidden(monkeypatch):
    """The (u, T, v) model (``from_coords``, ``theta``) and the second
    elimination ``linalg.in_span`` raise when called: no report path may
    reach them."""
    monkeypatch.setattr(kkt.GradedLieAlgebra, "from_coords", _forbid("from_coords"))
    monkeypatch.setattr(kkt.GradedLieAlgebra, "theta", _forbid("theta"))
    monkeypatch.setattr(linalg, "in_span", _forbid("in_span"))
