"""Normal-ordered polynomial-coefficient differential operators.

A WeylOperator is a finite sum  sum c_{ab} x^a d^b  with all multiplication
factors to the left of all derivatives; composition re-normal-orders via
the commutation relation d x = x d + 1.  Its terms are flat like those of
``Poly``, integer numerators over one denominator ``den``, under packed
keys: the derivative exponents and above them the Poly key of the
multiplication exponents and the power of nu, which is central and so
rides with them (``poly.VarSet``).  On top of this sit first-order
operators and their brackets, the Moyal star product on chart
polynomials, left star multiplication as an operator (its independent
cross-check, property B), and the partial Fourier transform and the
holomorphic frame, exact conjugations that factorise over the Darboux
pairs and never introduce i.  The pairing is a fact of the varset, kept
in ``_darboux_layout`` alone: pair a of 2n variables is (a, n + a), as in
the chart's l1..ln, m1..mn.  The star transform applies the two in turn
to op|nu->-nu / (2 nu); its inverse ``star_pullback`` is one pass through
``_pullback_kernel``.  Every kernel runs on numerators and packed keys
and divides once, at the end.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, factorial, lcm, perm, prod
from operator import or_
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from .poly import (
    NO_VARS, FlatTerms, Poly, Tally, VarSet, VarSetMismatch, abs_numerator, diff_terms, mul_add,
    tally,
)
from .scalars import Scalar


@functools.lru_cache(maxsize=None)
def _reorder(p: int, q: int) -> Tuple[Tuple[int, int], ...]:
    """d^p x^q = sum_k C(p,k) C(q,k) k! x^(q-k) d^(p-k), as (k, weight) pairs."""
    return tuple((k, comb(p, k) * comb(q, k) * factorial(k)) for k in range(min(p, q) + 1))


def _expand(words) -> dict:
    """The sum over the words (key, c, factors) of c x^key times the product
    of the factors, as one term dict: each factor lists (key change,
    weight) pairs, and each term of the product takes one from every factor."""
    out: dict = {}
    for key0, c0, factors in words:
        for combo in itertools.product(*factors):
            key, c = key0, c0
            for dk, w in combo:
                key += dk
                c *= w
            out[key] = out[key] + c if key in out else c
    return out


class WeylOperator(FlatTerms):
    """sum over (a, b) of  c * x^a d^b  on polynomials in a fixed varset,
    with flat terms {key: nonzero numerator} over ``den``: the key holds
    the derivative exponents b and above them the Poly key of x^a nu^k
    (``VarSet``), and its tuple form is (a + (nu-power,), b)."""

    __slots__ = ("_groups",)
    _OPERATOR = True

    @staticmethod
    def _pack(vs: VarSet, key: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> int:
        a, b = key
        if len(a) != len(vs) + 1 or len(b) != len(vs):
            raise ValueError(f"key {key} does not fit {vs.names} and a nu-power")
        return vs.pack((*b, *a))

    @staticmethod
    def _unpack(vs: VarSet, key: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return Poly._unpack(vs, key >> vs.nu_shift), vs.exps(key)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(vs: VarSet) -> "WeylOperator":
        return WeylOperator._new(vs, {})

    @staticmethod
    def identity(vs: VarSet) -> "WeylOperator":
        return WeylOperator._new(vs, {vs.one << vs.nu_shift: 1})

    @staticmethod
    def from_poly(p: Poly) -> "WeylOperator":
        """Multiplication by p."""
        return WeylOperator._new(p.vs, {e << p.vs.nu_shift: c for e, c in p.terms.items()}, p.den)

    @staticmethod
    def partial(vs: VarSet, name: str) -> "WeylOperator":
        return WeylOperator._new(vs, {vs.one << vs.nu_shift | 1 << vs.width * vs.index(name): 1})

    # -- ring structure ----------------------------------------------------
    def __mul__(self, other: "WeylOperator") -> "WeylOperator":
        """Composition: self after other, re-normal-ordered variable by
        variable (``_reorder``): a move lowers x_i and d_i together."""
        if not isinstance(other, WeylOperator):
            return NotImplemented
        self._check(other)
        vs, s = self.vs, self.vs.nu_shift
        drop = [(1 << vs.width * i) * (1 + (1 << s)) for i in range(len(vs))]
        rhs = [(k - (vs.one << s), c, vs.exps(k >> s)) for k, c in other.terms.items()]

        def words():
            for k1, c1 in self.terms.items():
                b1 = vs.exps(k1)
                for k2, c2, a2 in rhs:
                    moves = [[(-k * drop[i], w) for k, w in _reorder(b1[i], a2[i])]
                             for i in range(len(vs)) if b1[i] and a2[i]]
                    yield k1 + k2, c1 * c2, moves

        return self._reduced(vs, _expand(words()), self.den * other.den)

    # -- semantics ---------------------------------------------------------
    def apply(self, p: Poly) -> Poly:
        """The operator applied to p: its terms are grouped by derivative
        exponents b once, on the first call, and d^b p, formed one derivative
        at a time, is multiplied by the multiplication parts that share b."""
        vs = self.vs
        if p.vs != vs:
            raise VarSetMismatch(f"{vs.names} vs {p.vs.names}")
        if not hasattr(self, "_groups"):
            groups: dict = {}
            for k, c in self.terms.items():
                groups.setdefault(k & vs.mono, {})[k >> vs.nu_shift] = c
            # per b: the variable of each single derivative, and x^a nu^k by Poly key
            self._groups = [([i for i, e in enumerate(vs.exps(b)) for _ in range(e)], mults)
                            for b, mults in groups.items()]
        out: dict = {}
        for steps, mults in self._groups:
            dp = p.terms
            for i in steps:
                dp = diff_terms(dp, vs, i)
            mul_add(out, mults, dp, vs.one)
        return Poly._reduced(vs, out, self.den * p.den)

    def order(self) -> int:
        """Highest total derivative order appearing."""
        return max(map(sum, map(self.vs.exps, self.terms)), default=0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        words: Dict[Tuple, dict] = {}
        for k, c in self.terms.items():
            a, b = self._unpack(self.vs, k)
            words.setdefault((a[:-1], b), {})[NO_VARS.one + a[-1]] = c
        bits = []
        for (a, b), c in sorted(words.items()):
            names = self.vs.names
            factors = [f"{x}^{k}" if k > 1 else x for x, k in zip(names, a) if k]
            factors += [f"d_{x}^{k}" if k > 1 else f"d_{x}" for x, k in zip(names, b) if k]
            body = " ".join(factors) if factors else "1"
            bits.append(f"({Scalar._reduced(NO_VARS, c, self.den)}) {body}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# first-order operators: a multiplier plus a vector field
# ---------------------------------------------------------------------------


def first_order(f: Poly, a: Sequence[Poly]) -> WeylOperator:
    """The operator f + sum_j a_j d_j, over the lcm of the parts'
    denominators."""
    den = lcm(f.den, *(aj.den for aj in a))
    return first_order_terms(f.vs, [p.over(den) for p in (f, *a)], den)


def first_order_terms(vs: VarSet, parts: Sequence[dict], den: int) -> WeylOperator:
    """The operator parts[0] + sum_j parts[j + 1] d_j, each part a term dict
    of Poly numerators over den, zeros allowed, in canonical form; the
    parts' keys stay disjoint in the operator."""
    s, terms = vs.nu_shift, {}
    for j, p in enumerate(parts):
        d = 1 << vs.width * (j - 1) if j else 0
        terms.update(((e << s) + d, c) for e, c in p.items())
    return WeylOperator._reduced(vs, terms, den)


def _first_order_terms(op: WeylOperator, factor: int = 1) -> List[dict]:
    """The numerators of f, a_1, ..., a_n in op = f + sum_j a_j d_j, times
    factor; raises ValueError on any term of order > 1 rather than dropping
    it."""
    vs, n = op.vs, len(op.vs)
    part = {0: 0} | {1 << vs.width * j: j + 1 for j in range(n)}
    parts: List[dict] = [{} for _ in range(n + 1)]
    for k, c in op.terms.items():
        j = part.get(k & vs.mono)
        if j is None:
            raise ValueError(f"not first order: a term with derivative exponents {vs.exps(k)}")
        parts[j][k >> vs.nu_shift] = c * factor
    return parts


def split_first_order(op: WeylOperator) -> Tuple[Poly, List[Poly]]:
    """(f, [a_j]) with op = f + sum_j a_j d_j; raises ValueError on any term
    of order > 1 rather than dropping it."""
    f, *a = (Poly._reduced(op.vs, p, op.den) for p in _first_order_terms(op))
    return f, a


class FirstOrderParts(NamedTuple):
    """f + sum_j a_j d_j as the Poly term dicts parts = [f, a_1, ..., a_n],
    with grads[c][v] the terms of d parts[c] / d x_v, and one the Poly key
    of 1."""

    parts: List[dict]
    grads: List[List[dict]]
    one: int


def first_order_parts(op: WeylOperator, den: int = 0) -> FirstOrderParts:
    """op split as ``split_first_order`` splits it, as numerators over den, a
    multiple of ``op.den`` (``op.den`` when 0), with the gradient of each
    part taken once, so that brackets with many operators reuse it."""
    parts = _first_order_terms(op, den // op.den if den else 1)
    vs = op.vs
    grads = [[diff_terms(p, vs, i) for i in range(len(vs))] if p else [{}] * len(vs) for p in parts]
    return FirstOrderParts(parts, grads, vs.one)


def first_order_bracket(x: FirstOrderParts, y: FirstOrderParts, factor: int = 1) -> List[dict]:
    """[f + a.d, g + b.d] = (a.grad g - b.grad f) + sum_j (a.grad b_j - b.grad a_j) d_j,
    as the term dicts of its parts [multiplier, coefficient of d_1, ...]
    times factor, over the product of the two denominators, zeros kept.  The
    second-order parts of the compositions cancel, so part c is
    sum_v a_v d_v y.parts[c] - b_v d_v x.parts[c], over the nonzero a_v, b_v."""
    a = [(v, t) for v, t in enumerate(x.parts[1:]) if t]
    b = [(v, t) for v, t in enumerate(y.parts[1:]) if t]
    out = []
    for dx, dy in zip(x.grads, y.grads):
        acc: dict = {}
        for v, t in a:
            if dy[v]:
                mul_add(acc, t, dy[v], x.one, factor)
        for v, t in b:
            if dx[v]:
                mul_add(acc, t, dx[v], x.one, -factor)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Moyal star product (direct bidifferential formula)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pair_kernel(p1: int, q1: int, p2: int, q2: int, drop: int) -> Tuple[Tuple[int, int], ...]:
    """One Darboux pair's factor of  l^p1 m^q1  star  l^p2 m^q2: the term
    (alpha, beta) is (-1)^beta p1^(alpha) q2^(alpha) q1^(beta) p2^(beta) /
    (alpha! beta!) = (-1)^beta C(p1, alpha) q2^(alpha) C(q1, beta) p2^(beta),
    x^(k) the falling factorial ``math.perm(x, k)``, times nu^s
    l^(p1+p2-s) m^(q1+q2-s), s = alpha + beta.  The terms are merged by s:
    (-s drop, nonzero coefficient) pairs, drop a contraction's key change."""
    acc: Dict[int, int] = {}
    for a in range(min(p1, q2) + 1):
        for b in range(min(q1, p2) + 1):
            c = comb(p1, a) * perm(q2, a) * comb(q1, b) * perm(p2, b)
            acc[a + b] = acc.get(a + b, 0) + (-c if b % 2 else c)
    return tuple((-s * drop, c) for s, c in sorted(acc.items()) if c)


@functools.lru_cache(maxsize=None)
def _darboux_layout(vs: VarSet) -> Tuple[Tuple[int, int, int], ...]:
    """(i, j, key change per contraction) per Darboux pair of vs: pair a of
    2n variables is (a, n + a), as in the chart's l1..ln, m1..mn.  Raises
    ValueError on an odd number of variables."""
    n, odd = divmod(len(vs), 2)
    if odd:
        raise ValueError(f"{vs.names} are not Darboux pairs: an odd number of variables")
    return tuple((a, n + a, (1 << vs.width * a) + (1 << vs.width * (n + a)) - (1 << vs.nu_shift))
                 for a in range(n))


def moyal_star(u: Poly, v: Poly) -> Poly:
    """u star v = sum over multi-indices alpha, beta of nu^(|alpha|+|beta|)
    (-1)^|beta| / (alpha! beta!) d_l^alpha d_m^beta u . d_m^alpha d_l^beta v,
    exactly: the Poisson tensor pairs l^a with m^a, so u star v - v star u =
    2 nu {u, v} + O(nu^3) (Bayen, Flato, Fronsdal, Lichnerowicz and
    Sternheimer, Ann. Phys. 111, 1978).  On two monomials the sum factorises
    over the Darboux pairs (``_darboux_layout``), each factor the cached
    ``_pair_kernel`` of the pair's exponents, s contractions taking s drops
    off the sum of keys."""
    vs = u.vs
    if v.vs != vs:
        raise VarSetMismatch(f"{vs.names} vs {v.vs.names}")
    layout = _darboux_layout(vs)
    left = []
    for k, c in u.terms.items():
        e = vs.exps(k)
        active = [(i, j, e[i], e[j], d) for i, j, d in layout if e[i] or e[j]]
        left.append((k - vs.one, c, active))
    right = [(k, c, vs.exps(k)) for k, c in v.terms.items()]

    def words():
        for k1, c1, active in left:
            for k2, c2, e2 in right:
                kers = []
                for i, j, p1, q1, d in active:
                    if (p1 and e2[j]) or (q1 and e2[i]):
                        kers.append(_pair_kernel(p1, q1, e2[i], e2[j], d))
                yield k1 + k2, c1 * c2, kers

    return Poly._reduced(vs, _expand(words()), u.den * v.den)


def left_star_operator(lam: Poly) -> WeylOperator:
    """The operator u -> lam star u, built from Poisson-tensor contractions
    over the Darboux pairs (l^a, m^a) of ``_darboux_layout``: the k-th order
    part sums over multisets of k contraction indices c < 2n; index c < n
    differentiates lam in l^c and contributes d/dm^c, index n + a
    differentiates it in m^a, contributes d/dl^a and flips the sign.
    A multiset stands for its k!/prod(mult!) orderings, so it weighs
    sign * nu^k / prod(mult!).  The multisets are walked depth first as
    nondecreasing index sequences, a prefix extended only by an index whose
    variable occurs in its derivative of lam; every weight is an integer
    over lam.den deg(lam)!."""
    vs = lam.vs
    layout = _darboux_layout(vs)
    n, s = len(layout), vs.nu_shift
    var = [i for i, _, _ in layout] + [j for _, j, _ in layout]
    dunit = [1 << vs.width * i for i in var[n:] + var[:n]]
    nu = 1 << 2 * s
    top = factorial(lam.total_degree())
    out: dict = {e << s: c * top for e, c in lam.terms.items()}
    # a prefix of length k: last index, its run length, sign, prod(mult!),
    # the key of its derivatives and nu^k, and the terms of lam's derivative
    stack = [(0, 0, 1, 1, 0, lam.terms)]
    while stack:
        last, run, sign, den, dkey, terms = stack.pop()
        for c in range(last, 2 * n):
            dterms = diff_terms(terms, vs, var[c])
            if not dterms:
                continue
            r = run + 1 if c == last else 1
            sg, d = -sign if c >= n else sign, den * r
            dk = dkey + dunit[c] + nu
            w = sg * (top // d)
            for e, x in dterms.items():
                key = (e << s) + dk
                out[key] = out[key] + x * w if key in out else x * w
            stack.append((c, r, sg, d, dk, dterms))
    return WeylOperator._reduced(vs, out, lam.den * top)


# ---------------------------------------------------------------------------
# Fourier transform and holomorphic frame as per-pair conjugations
# ---------------------------------------------------------------------------

# one pair's image of x1^alpha x2^gamma d1^beta d2^delta: the image is
# 1/2^e times the sum of the terms, e the first entry, and each term is
# (x1', x2', d1', d2' exponents, nu-power, int numerator)
PairImage = Tuple[int, Tuple[Tuple[int, int, int, int, int, int], ...]]


def _pairwise_image(
    op: WeylOperator,
    kernel: Callable[[int, int, int, int], PairImage],
    target: VarSet,
) -> WeylOperator:
    """The image of op under a homomorphism that sends the generators of each
    Darboux pair (``_darboux_layout``) to operators in the same pair of the
    2n variables of ``target``.  Source pair a is at fields a and n + a; a
    source of n variables holds the first halves of the pairs, the partner
    exponents zero.  Images of different pairs commute, so a normal-ordered
    word maps to the product over the pairs of ``kernel`` of the pair's
    exponents, each packed once (``_packed_image``) so that the key of a
    product is a sum.  A term p x^a d^b / op.den contributes p 2^-e times
    the kernels' numerators, e their halvings, over op.den 2^emax.  Raises
    ValueError on a source of any other size."""
    vs, layout = op.vs, _darboux_layout(target)
    n = len(layout)
    if len(vs) not in (n, 2 * n):
        raise ValueError(f"{vs.names} are neither {n} Darboux pairs nor their first halves")
    pad = (0,) * (2 * n - len(vs))
    one, nu = target.one << target.nu_shift, 1 << 2 * target.nu_shift
    words, emax = [], 0
    for k, c in op.terms.items():
        kers, e = [], 0
        x, d = vs.exps(k >> vs.nu_shift) + pad, vs.exps(k) + pad
        for a, (i, j, _) in enumerate(layout):
            if x[i] or x[j] or d[i] or d[j]:  # else the pair's image is 1
                h, image = _packed_image(kernel, target.width, n, a, (x[i], x[j], d[i], d[j]))
                e += h
                kers.append(image)
        words.append((one + vs.nu(k >> vs.nu_shift) * nu, c, e, kers))
        emax = max(emax, e)
    out = _expand((key, c << (emax - e), kers) for key, c, e, kers in words)
    return WeylOperator._reduced(target, out, op.den << emax)


@functools.lru_cache(maxsize=None)
def _packed_image(kernel, width: int, n: int, a: int, exps: Tuple[int, ...]) -> tuple:
    """``kernel`` of pair a's exponents as (halvings, [(key contribution,
    numerator)]), the contribution its term's operator key, less the key of
    1, over n target pairs of fields ``width`` bits wide.  Each exponent of
    a kernel image is at most the sum of two source fields, below
    2^width, so no field carries and ``_reduced`` meets any out of range."""
    h, image = kernel(*exps)
    at = [width * (2 * n + a), width * (3 * n + a), width * a, width * (n + a), width * 4 * n]
    return h, tuple((sum(f << p for f, p in zip(fields, at)), c) for *fields, c in image)


@functools.lru_cache(maxsize=None)
def _fourier_kernel(alpha: int, gamma: int, beta: int, delta: int) -> PairImage:
    """One Darboux pair's factor of the Fourier image of l^alpha m^gamma
    d_l^beta d_m^delta, l^alpha d_eta^gamma d_l^beta (-eta)^delta, with
    d_eta^gamma eta^delta normal-ordered by ``_reorder``."""
    sign = -1 if delta % 2 else 1
    return 0, tuple(
        (alpha, delta - k, beta, gamma - k, 0, sign * w) for k, w in _reorder(gamma, delta)
    )


def fourier_conjugate(op: WeylOperator) -> WeylOperator:
    """Conjugate by the partial Fourier transform in the m-variables, kernel
    sign -1: m^a -> -i d/dxi^a, d/dm^a -> -i xi^a, real in eta = i xi, named
    h1, h2, ...: l and d/dl stay, m^a -> d/deta^a, d/dm^a -> -eta^a, through
    the cached ``_fourier_kernel`` of each Darboux pair (l^a, m^a).  Raises
    ValueError on an odd number of variables."""
    n = len(_darboux_layout(op.vs))
    target = VarSet(op.vs.names[:n] + tuple(f"h{a + 1}" for a in range(n)))
    return _pairwise_image(op, _fourier_kernel, target)


@functools.lru_cache(maxsize=None)
def _plus_minus(p: int, q: int) -> Tuple[Tuple[int, int], ...]:
    """(x + y)^p (x - y)^q as (exponent of x, nonzero coefficient) pairs."""
    acc: Dict[int, int] = {}
    for i in range(p + 1):
        for j in range(q + 1):
            acc[i + j] = acc.get(i + j, 0) + comb(p, i) * comb(q, j) * (-1) ** (q - j)
    return tuple((i, c) for i, c in acc.items() if c)


@functools.lru_cache(maxsize=None)
def _frame_kernel(alpha: int, gamma: int, beta: int, delta: int) -> PairImage:
    """One Darboux pair's factor of the frame image of l^alpha eta^gamma
    d_l^beta d_eta^delta, ((z + zbar)/2)^alpha ((z - zbar)/(2 nu))^gamma
    (d_z + d_zbar)^beta (nu (d_z - d_zbar))^delta, already normal-ordered,
    at nu-power delta - gamma, with alpha + gamma halvings."""
    mult, der = _plus_minus(alpha, gamma), _plus_minus(beta, delta)
    return alpha + gamma, tuple(
        (i, alpha + gamma - i, p, beta + delta - p, delta - gamma, c * d)
        for i, c in mult
        for p, d in der
    )


def holomorphic_frame(op: WeylOperator) -> WeylOperator:
    """Change variables to z = l + nu eta = l + i nu xi and zbar = l - nu eta,
    named z1, z2, ... and w1, w2, ... (``_frame_target``): l -> (z + zbar)/2,
    eta -> (z - zbar)/(2 nu), d/dl -> d/dz + d/dzbar, d/deta -> nu (d/dz -
    d/dzbar), through the cached ``_frame_kernel`` of each Darboux pair
    (l_a, eta_a).  Raises ValueError on an odd number of variables."""
    return _pairwise_image(op, _frame_kernel, _frame_target(len(_darboux_layout(op.vs))))


@functools.lru_cache(maxsize=None)
def _frame_target(n: int) -> VarSet:
    return VarSet(tuple(f"z{a + 1}" for a in range(n)) + tuple(f"w{a + 1}" for a in range(n)))


def star_transform(op: WeylOperator) -> WeylOperator:
    """holomorphic_frame(fourier_conjugate(op|nu->-nu / (2 nu))).  The
    source moves each key one nu-step down and negates the odd nu-powers,
    over 2 op.den; its ``_reduced`` rejects a nu-power that leaves the
    range."""
    vs, step = op.vs, 1 << 2 * op.vs.nu_shift
    # the nu field, on top, holds the nu-power plus an even offset
    source = {k - step: -c if k & step else c for k, c in op.terms.items()}
    return holomorphic_frame(fourier_conjugate(WeylOperator._reduced(vs, source, 2 * op.den)))


@functools.lru_cache(maxsize=None)
def _pullback_kernel(alpha: int, gamma: int, beta: int, delta: int) -> PairImage:
    """One pair's factor of the pull-back of z^alpha w^gamma d_z^beta d_w^delta.
    The inverse frame z, w -> l +- nu eta, d_z, d_w -> (d_l +- d_eta / nu)/2
    gives l^i eta^g d_l^j d_eta^h nu^(g - h), normal-ordered; the inverse
    Fourier step eta -> -d_m, d_eta -> m gives (-1)^g l^i d_l^j d_m^g m^h,
    reordered by ``_reorder``; nu -> -nu signs it by (-1)^(g - h)."""
    p, q = alpha + gamma, beta + delta
    return q, tuple(
        (i, q - j - k, j, p - i - k, p - i - q + j, (-1) ** (q - j) * c * d * w)
        for i, c in _plus_minus(alpha, gamma)
        for j, d in _plus_minus(beta, delta)
        for k, w in _reorder(p - i, q - j)
    )


def star_pullback(op: WeylOperator, target: VarSet) -> WeylOperator:
    """The inverse of ``star_transform``, from the frame variables
    (``_frame_target``), or from the z-variables alone, to target, named
    l1..ln, m1..mn, in one pass through the cached ``_pullback_kernel`` of
    each Darboux pair (z_a, w_a), which undoes the frame and the Fourier
    step; the source step X -> (2 nu X)|nu->-nu moves each key one nu-step
    up, times 2 (-1)^(k+1) at nu-power k, first."""
    vs, step = op.vs, 1 << 2 * op.vs.nu_shift
    source = {k + step: 2 * c if k & step else -2 * c for k, c in op.terms.items()}
    return _pairwise_image(WeylOperator._new(vs, source, op.den), _pullback_kernel, target)


def uses_only(op: WeylOperator, names: Sequence[str]) -> bool:
    """True when every term touches only the given variables: one mask
    test on the or of the keys."""
    vs = op.vs
    others = sum(((1 << vs.width) - 1) << vs.width * i for i, x in enumerate(vs.names) if x not in names)
    return not functools.reduce(or_, op.terms, 0) & (others | others << vs.nu_shift)


# ---------------------------------------------------------------------------
# chart-level verification reports
# ---------------------------------------------------------------------------


def _swapped_cubic(lam: Poly, n: int) -> dict:
    """The degree-3 terms c l^alpha m^beta nu^k of lam, over the chart's
    variables l^1..l^n, m^1..m^n, indexed by the l <-> m swap of their
    monomials, packed: {l^beta m^alpha: [(k, (-1)^|beta| alpha! beta! c)]}."""
    vs, out = lam.vs, {}
    half, low = vs.width * n, (1 << vs.width * n) - 1
    for key, c in lam.terms.items():
        e = vs.exps(key)
        if sum(e) == 3:
            w = c * prod(map(factorial, e)) * (-1) ** sum(e[n:])
            swapped = (key & low) << half | key >> half & low
            out.setdefault(swapped, []).append((vs.nu(key), w))
    return out


def _cubic_b3(swapped: dict, v: Poly) -> dict:
    """{nu-power: numerator} of nu^3 B_3(u, v), for u and v of degree at
    most 3, from the ``_swapped_cubic`` of u and the terms of v."""
    vs, out = v.vs, {}
    for e, d in v.terms.items():
        for k, w in swapped.get(e & vs.mono, ()):
            k += vs.nu(e) + 3
            out[k] = out.get(k, 0) + w * d
    return out


def verify_covariance(ch) -> Tally:
    """lambda_A star lambda_B - lambda_B star lambda_A = 2 nu {lambda_A, lambda_B}
    tallied over all basis pairs (i, j), over the squared lcm of the
    denominators.  With u star v = sum_s nu^s B_s(u, v), B_s taking s
    derivatives of each factor, B_1 the Poisson bracket and B_s(v, u) =
    (-1)^s B_s(u, v), the sides differ by 2 sum over odd s >= 3 of
    nu^s B_s(u, v), zero below degree 3.  Of two cubic maps only B_3 of the
    cubic terms survives: c l^alpha m^beta nu^k against d l^gamma m^delta
    nu^k' gives (-1)^|beta| alpha! beta! c d nu^(k + k' + 3) at (gamma,
    delta) = (beta, alpha) only, one sparse dot product (``_cubic_b3``)
    against u's l <-> m swap (``_swapped_cubic``).  A map of higher degree,
    on no built chart, is checked as written, by ``moyal_star``."""
    deg = [lam.total_degree() for lam in ch.moment]
    dens = [lam.den for lam in ch.moment]
    top = lcm(*dens) ** 2
    cubic = [i for i, d in enumerate(deg) if d >= 3]
    swapped = {i: _swapped_cubic(ch.moment[i], ch.g.n) for i in cubic if deg[i] == 3}
    two_nu = Scalar.nu(1, 2)

    def rows():
        for i, j in itertools.combinations(cubic, 2):
            u, v = ch.moment[i], ch.moment[j]
            if deg[i] == deg[j] == 3:
                tail = _cubic_b3(swapped[i], v)
                yield (i, j), 2 * sum(map(abs, tail.values())) * (top // (dens[i] * dens[j]))
            else:
                comm = moyal_star(u, v) - moyal_star(v, u)
                yield (i, j), abs_numerator(comm - ch.poisson(u, v).scale(two_nu), top)

    return tally(rows(), top)


def verify_property_B(ch, samples: Sequence[Poly]) -> Tally:
    """Star multiplication by each moment map is the differential operator
    ``ch.left_stars[i]``: |op.apply(u) - moyal_star(lambda_i, u)| tallied
    over the rows (i, sample), in that order.  Each difference has a
    denominator dividing lcm(op.den, lambda_i.den) u.den, so the rows are
    over the product of the lcms of those denominators."""
    ops, moment = ch.left_stars, ch.moment
    top = lcm(*(x.den for x in (*ops, *moment))) * lcm(*(u.den for u in samples))

    def rows():
        for i, (op, lam) in enumerate(zip(ops, moment)):
            for k, u in enumerate(samples):
                lhs, rhs = op.apply(u), moyal_star(lam, u)
                yield (i, k), 0 if lhs == rhs else abs_numerator(lhs - rhs, top)

    return tally(rows(), top)
