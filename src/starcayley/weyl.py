"""Normal-ordered polynomial-coefficient differential operators.

A WeylOperator is a finite sum  sum c_{ab} x^a d^b  with all multiplication
factors to the left of all derivatives; composition re-normal-orders via
the commutation relation d x = x d + 1.  Its terms are flat like those of
``Poly``, integer numerators over one denominator ``den``: the key (a, b)
holds the multiplication exponents followed by the power of nu, which is
central and so rides with them, and the derivative exponents.  Every
kernel below runs on the numerators and divides once.  On top of this sit

  * first-order operators f + sum_j a_j d_j, split into their parts
    (f, [a_j]) and bracketed as vector fields with multipliers, with no
    normal ordering,
  * the Moyal star product on chart polynomials, computed straight from the
    bidifferential formula, which factorises over the Darboux pairs on
    monomials,
  * left star multiplication as an operator, built from Poisson-tensor
    contractions over multisets of indices, walked depth first so that
    each derivative of the symbol is taken once, from its prefix's; it
    shares no code with the star product and is its independent
    cross-check (property B),
  * the partial Fourier transform, in its Fourier variable rotated by i
    so that every generator image is real, and the passage to the
    holomorphic frame z = l + nu eta, zbar = l - nu eta, both exact
    conjugation homomorphisms that factorise over the Darboux pairs on
    normal-ordered words.  Neither introduces i, so all coefficients stay
    rational,
  * the star transform, the frame image of the Fourier image of an
    operator carried through nu -> -nu and divided by 2 nu, as one pass
    over its terms with a cached kernel per Darboux pair composed from the
    two conjugations' kernels.  Every pass accumulates integer numerators
    over one common denominator and divides once, at the end; the two
    conjugations applied in turn are the star transform's test oracle.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, factorial, lcm, perm, prod
from operator import add
from typing import Callable, Container, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .poly import (
    NO_VARS, FlatTerms, Poly, Tally, VarSet, VarSetMismatch, abs_numerator, diff_terms, mul_add,
    tally,
)
from .scalars import Scalar

Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


@functools.lru_cache(maxsize=None)
def _reorder(p: int, q: int) -> Tuple[Tuple[int, int], ...]:
    """d^p x^q = sum_k C(p,k) C(q,k) k! x^(q-k) d^(p-k), as (k, weight) pairs."""
    return tuple((k, comb(p, k) * comb(q, k) * factorial(k)) for k in range(min(p, q) + 1))


class WeylOperator(FlatTerms):
    """sum over (a, b) of  c * x^a d^b  on polynomials in a fixed varset,
    with flat terms {(a + (nu-power,), b): nonzero numerator} over ``den``."""

    __slots__ = ()

    @staticmethod
    def _fits(key: Key, n: int) -> bool:
        a, b = key
        return len(a) == n + 1 and len(b) == n

    @staticmethod
    def _shift(key: Key, k: int) -> Key:
        a, b = key
        return a[:-1] + (a[-1] + k,), b

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(vs: VarSet) -> "WeylOperator":
        return WeylOperator._new(vs, {})

    @staticmethod
    def identity(vs: VarSet) -> "WeylOperator":
        return WeylOperator._new(vs, {((0,) * (len(vs) + 1), (0,) * len(vs)): 1})

    @staticmethod
    def from_poly(p: Poly) -> "WeylOperator":
        """Multiplication by p."""
        z = (0,) * len(p.vs)
        return WeylOperator._new(p.vs, {(e, z): c for e, c in p.terms.items()}, p.den)

    @staticmethod
    def partial(vs: VarSet, name: str) -> "WeylOperator":
        d = [0] * len(vs)
        d[vs.index(name)] = 1
        return WeylOperator._new(vs, {((0,) * (len(vs) + 1), tuple(d)): 1})

    # -- ring structure ----------------------------------------------------
    def __mul__(self, other: "WeylOperator") -> "WeylOperator":
        """Composition: self after other, re-normal-ordered variable by
        variable (``_reorder``)."""
        self._check(other)
        n = len(self.vs)
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                xe, de = list(map(add, a1, a2)), list(map(add, b1, b2))
                moves = [
                    [(i, k, w) for k, w in _reorder(b1[i], a2[i])]
                    for i in range(n)
                    if b1[i] and a2[i]
                ]
                for combo in itertools.product(*moves):
                    x, d, w = list(xe), list(de), 1
                    for i, k, wi in combo:
                        x[i] -= k
                        d[i] -= k
                        w *= wi
                    key, c = (tuple(x), tuple(d)), c1 * c2 * w
                    out[key] = out[key] + c if key in out else c
        return self._reduced(self.vs, out, self.den * other.den)

    # -- semantics ---------------------------------------------------------
    def apply(self, p: Poly) -> Poly:
        """The operator applied to p, its terms grouped by derivative
        exponents b: d^b p is formed once per b, one derivative at a time
        on the terms that the previous one kept (``poly.diff_terms``), and
        multiplied by the multiplication parts that share b."""
        if p.vs != self.vs:
            raise VarSetMismatch(f"{self.vs.names} vs {p.vs.names}")
        groups: Dict[Tuple[int, ...], dict] = {}
        for (a, b), c in self.terms.items():
            groups.setdefault(b, {})[a] = c
        out: dict = {}
        for b, mults in groups.items():
            dp = p.terms
            for i in [i for i, k in enumerate(b) if k for _ in range(k)]:
                dp = diff_terms(dp, i)
            mul_add(out, mults, dp)
        return Poly._reduced(self.vs, out, self.den * p.den)

    def order(self) -> int:
        """Highest total derivative order appearing."""
        return max((sum(b) for (_, b) in self.terms), default=0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        words: Dict[Key, dict] = {}
        for (a, b), c in self.terms.items():
            words.setdefault((a[:-1], b), {})[a[-1:]] = c
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
    denominators, canonical as the parts are and their keys disjoint."""
    n = len(f.vs)
    den = lcm(f.den, *(aj.den for aj in a))
    terms = {(e, (0,) * n): c for e, c in f.over(den).items()}
    for j, aj in enumerate(a):
        d = tuple(int(i == j) for i in range(n))
        terms.update(((e, d), c) for e, c in aj.over(den).items())
    return WeylOperator._new(f.vs, terms, den)


def _first_order_terms(op: WeylOperator, factor: int = 1) -> List[dict]:
    """The numerators of f, a_1, ..., a_n in op = f + sum_j a_j d_j, times
    factor; raises ValueError on any term of order > 1 rather than dropping
    it."""
    parts: List[dict] = [{} for _ in range(len(op.vs) + 1)]
    for (e, d), c in op.terms.items():
        order = sum(d)
        if order > 1:
            raise ValueError(f"not first order: a term with derivative exponents {d}")
        parts[d.index(1) + 1 if order else 0][e] = c * factor
    return parts


def split_first_order(op: WeylOperator) -> Tuple[Poly, List[Poly]]:
    """(f, [a_j]) with op = f + sum_j a_j d_j; raises ValueError on any term
    of order > 1 rather than dropping it."""
    f, *a = (Poly._reduced(op.vs, p, op.den) for p in _first_order_terms(op))
    return f, a


class FirstOrderParts(NamedTuple):
    """f + sum_j a_j d_j as the Poly term dicts parts = [f, a_1, ..., a_n],
    with grads[c][v] the terms of d parts[c] / d x_v."""

    parts: List[dict]
    grads: List[List[dict]]


def first_order_parts(op: WeylOperator, den: int = 0) -> FirstOrderParts:
    """op split as ``split_first_order`` splits it, as numerators over den, a
    multiple of ``op.den`` (``op.den`` when 0), with the gradient of each
    part taken once, so that brackets with many operators reuse it."""
    parts = _first_order_terms(op, den // op.den if den else 1)
    n = len(op.vs)
    return FirstOrderParts(parts, [[diff_terms(p, i) for i in range(n)] for p in parts])


def first_order_bracket(x: FirstOrderParts, y: FirstOrderParts) -> List[dict]:
    """[f + a.d, g + b.d] = (a.grad g - b.grad f) + sum_j (a.grad b_j - b.grad a_j) d_j,
    as the term dicts of its parts [multiplier, coefficient of d_1, ...],
    which may hold zero values, numerators over the product of the two
    denominators.  The second-order parts of the two compositions cancel,
    so no normal ordering is needed; part c is sum_v a_v d_v y.parts[c] -
    b_v d_v x.parts[c], multiplied and added into one dict, over the v
    with a_v or b_v nonzero only."""
    a = [(v, t) for v, t in enumerate(x.parts[1:]) if t]
    b = [(v, t) for v, t in enumerate(y.parts[1:]) if t]
    out = []
    for dx, dy in zip(x.grads, y.grads):
        acc: dict = {}
        for v, t in a:
            if dy[v]:
                mul_add(acc, t, dy[v])
        for v, t in b:
            if dx[v]:
                mul_add(acc, t, dx[v], -1)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Moyal star product (direct bidifferential formula)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pair_kernel(p1: int, q1: int, p2: int, q2: int) -> Tuple[Tuple[int, int], ...]:
    """One Darboux pair's factor of  l^p1 m^q1  star  l^p2 m^q2.

    The term (alpha, beta) is nu^(alpha+beta) times
    (-1)^beta p1^(alpha) q2^(alpha) q1^(beta) p2^(beta) / (alpha! beta!)
    times l^(p1+p2-alpha-beta) m^(q1+q2-alpha-beta), with x^(k) the falling
    factorial ``math.perm(x, k)``; the coefficient is the integer
    (-1)^beta C(p1, alpha) q2^(alpha) C(q1, beta) p2^(beta).  Both the
    nu-power and the exponent drop depend only on s = alpha + beta, so the
    terms are merged by s: (s, coefficient) pairs with nonzero coefficient.
    """
    acc: Dict[int, int] = {}
    for a in range(min(p1, q2) + 1):
        for b in range(min(q1, p2) + 1):
            c = comb(p1, a) * perm(q2, a) * comb(q1, b) * perm(p2, b)
            acc[a + b] = acc.get(a + b, 0) + (-c if b % 2 else c)
    return tuple((s, c) for s, c in sorted(acc.items()) if c)


def moyal_star(u: Poly, v: Poly, l_names: Sequence[str], m_names: Sequence[str]) -> Poly:
    """u star v = sum over multi-indices alpha, beta of
    nu^(|alpha|+|beta|) (-1)^|beta| / (alpha! beta!)
    d_l^alpha d_m^beta u . d_m^alpha d_l^beta v, exactly.

    The Poisson tensor pairs l^a with m^a, so that l^a star m^a - m^a star l^a
    = 2 nu and u star v - v star u = 2 nu {u, v} + O(nu^3) (Bayen, Flato,
    Fronsdal, Lichnerowicz and Sternheimer, Ann. Phys. 111, 1978).  On two
    monomials the sum factorises over the pairs (l^a, m^a); each factor is
    the cached ``_pair_kernel`` of the pair's exponents.  Variables outside
    the pairs only add their exponents.
    """
    return Poly._reduced(u.vs, _contractions(u, v, l_names, m_names), u.den * v.den)


def _contractions(
    u: Poly,
    v: Poly,
    l_names: Sequence[str],
    m_names: Sequence[str],
    orders: Optional[Container[int]] = None,
) -> dict:
    """The unpruned numerators, over u.den v.den, of sum_s nu^s B_s(u, v),
    where u star v is the sum over all s of nu^s B_s(u, v) and B_s takes s
    derivatives of each factor: over every s when ``orders`` is None, else
    over the s in ``orders``.  ``moyal_star`` is the case of every s."""
    vs = u.vs
    if v.vs != vs:
        raise VarSetMismatch(f"{vs.names} vs {v.vs.names}")
    pairs = [(vs.index(la), vs.index(ma)) for la, ma in zip(l_names, m_names)]
    out: dict = {}
    for e1, c1 in u.terms.items():
        for e2, c2 in v.terms.items():
            base = c1 * c2
            esum = list(map(add, e1, e2))
            # pairs whose exponents allow a contraction; the rest contribute 1
            active = [
                (i, j, _pair_kernel(e1[i], e1[j], e2[i], e2[j]))
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
                if orders is not None and e[-1] - esum[-1] not in orders:
                    continue
                e, c = tuple(e), base * w
                out[e] = out[e] + c if e in out else c
    return out


def left_star_operator(
    lam: Poly, l_names: Sequence[str], m_names: Sequence[str]
) -> WeylOperator:
    """The operator u -> lam star u, built from Poisson-tensor contractions.

    The k-th order part sums over multisets of k contraction indices
    c < 2n: index c < n differentiates lam in l^c and contributes d/dm^c,
    index n + a differentiates it in m^a, contributes d/dl^a and flips the
    sign.  Each multiset stands for its k!/prod(mult!) orderings, so it
    carries the weight sign * nu^k / prod(mult!).

    The multisets are walked depth first as nondecreasing index sequences.
    A prefix is extended only by an index whose variable occurs in the
    prefix's derivative of lam, and that derivative is differentiated once
    more, on its term dict; the sign and prod(mult!) are carried along, the
    latter one run length at a time.  prod(mult!) divides k!, and k is at
    most the degree of lam, so every weight is an integer over
    lam.den deg(lam)!, the one denominator of the accumulation.
    """
    vs = lam.vs
    n = len(l_names)
    var = [vs.index(x) for x in (*l_names, *m_names)]
    dvar = var[n:] + var[:n]
    zero_d = (0,) * len(vs)
    top = factorial(lam.total_degree())
    out: dict = {(e, zero_d): c * top for e, c in lam.terms.items()}
    # a prefix: length k, last index, its run length, sign, prod(mult!),
    # derivative exponents and the terms of lam's derivative
    stack = [(0, 0, 0, 1, 1, zero_d, lam.terms)]
    while stack:
        k, last, run, sign, den, dexp, terms = stack.pop()
        for c in range(last, 2 * n):
            dterms = diff_terms(terms, var[c])
            if not dterms:
                continue
            r = run + 1 if c == last else 1
            s, d = -sign if c >= n else sign, den * r
            de = dexp[: dvar[c]] + (dexp[dvar[c]] + 1,) + dexp[dvar[c] + 1 :]
            for e, x in dterms.items():
                key = (e[:-1] + (e[-1] + k + 1,), de)
                w = x * s * (top // d)
                out[key] = out[key] + w if key in out else w
            stack.append((k + 1, c, r, s, d, de, dterms))
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
    pairs: Sequence[Tuple[str, str]],
    kernel: Callable[[int, int, int, int], PairImage],
    target: VarSet,
    flip_nu: bool = False,
    nu_shift: int = 0,
    halvings: int = 0,
) -> WeylOperator:
    """The image of op under a homomorphism that sends the generators of each
    pair of variables to operators in the matching pair of ``target``,
    after op has been multiplied by nu^nu_shift / 2^halvings and, when
    ``flip_nu`` is set, carried through nu -> -nu.

    Images of different pairs commute, so the image of a normal-ordered
    word is the product over the pairs of ``kernel`` of the pair's
    exponents, and the target pairs are (target[a], target[n + a]).  A term
    c x^a d^b with c = p / op.den contributes p 2^-e / op.den times the
    products of the kernels' integer numerators, e the sum of the kernels'
    halvings and ``halvings``.  These are accumulated as integer numerators
    over the one denominator op.den 2^emax, emax the largest e, and the
    image is reduced once, at the end."""
    idx = [(op.vs.index(x), op.vs.index(y)) for x, y in pairs]
    if sorted(i for p in idx for i in p) != list(range(len(op.vs))):
        raise ValueError(f"{op.vs.names} are not the pairs {tuple(pairs)}")
    words, emax = [], 0
    for (a, b), c in op.terms.items():
        kers, e = [], halvings
        for i, j in idx:
            ei, image = kernel(a[i], a[j], b[i], b[j])
            e += ei
            kers.append(image)
        if flip_nu and a[-1] % 2:
            c = -c
        words.append((c, e, a[-1] + nu_shift, kers))
        emax = max(emax, e)
    out: dict = {}
    for p, e, k0, kers in words:
        w0 = p << (emax - e)
        for combo in itertools.product(*kers):
            x1, x2, d1, d2, s, w = zip(*combo)
            key, w = (x1 + x2 + (k0 + sum(s),), d1 + d2), w0 * prod(w)
            out[key] = out[key] + w if key in out else w
    return WeylOperator._reduced(target, out, op.den << emax)


@functools.lru_cache(maxsize=None)
def _fourier_kernel(alpha: int, gamma: int, beta: int, delta: int) -> PairImage:
    """One Darboux pair's factor of the Fourier image of
    l^alpha m^gamma d_l^beta d_m^delta, that is of

        l^alpha d_eta^gamma d_l^beta (-eta)^delta,

    with d_eta^gamma eta^delta normal-ordered by ``_reorder``.
    """
    sign = -1 if delta % 2 else 1
    return 0, tuple(
        (alpha, delta - k, beta, gamma - k, 0, sign * w) for k, w in _reorder(gamma, delta)
    )


def fourier_conjugate(
    op: WeylOperator,
    l_names: Sequence[str],
    m_names: Sequence[str],
) -> Tuple[WeylOperator, VarSet]:
    """Conjugate by the partial Fourier transform in the m-variables, with
    kernel sign -1, in the Fourier variable rotated by i, named h1, h2, ...

    With kernel sign -1 the transform sends m^a -> -i d/dxi^a and
    d/dm^a -> -i xi^a; in eta = i xi these are the real images of the
    algebraic Fourier transform of the Weyl algebra: l and d/dl stay,
    multiplication by m^a becomes d/deta^a, and d/dm^a becomes -eta^a.  Each
    normal-ordered word maps to the product over the pairs (l^a, m^a) of the
    cached ``_fourier_kernel``.  Raises ValueError when op has a variable
    outside the pairs.
    """
    target = VarSet(tuple(l_names) + tuple(f"h{a + 1}" for a in range(len(m_names))))
    return _pairwise_image(op, list(zip(l_names, m_names)), _fourier_kernel, target), target


@functools.lru_cache(maxsize=None)
def _frame_kernel(alpha: int, gamma: int, beta: int, delta: int) -> PairImage:
    """One Darboux pair's factor of the frame image of
    l^alpha eta^gamma d_l^beta d_eta^delta, that is of

        ((z + zbar)/2)^alpha ((z - zbar)/(2 nu))^gamma
        (d_z + d_zbar)^beta (nu (d_z - d_zbar))^delta.

    The multiplications stand left of the constant-coefficient derivatives,
    so the product is already normal-ordered.  Its nu-power is
    delta - gamma, and its halvings alpha + gamma.
    """

    def expand(p: int, q: int) -> Dict[int, int]:
        # (x + y)^p (x - y)^q as {exponent of x: coefficient}
        acc: Dict[int, int] = {}
        for i in range(p + 1):
            for j in range(q + 1):
                acc[i + j] = acc.get(i + j, 0) + comb(p, i) * comb(q, j) * (-1) ** (q - j)
        return {i: c for i, c in acc.items() if c}

    mult, der = expand(alpha, gamma), expand(beta, delta)
    return alpha + gamma, tuple(
        (i, alpha + gamma - i, p, beta + delta - p, delta - gamma, c * d)
        for i, c in mult.items()
        for p, d in der.items()
    )


def holomorphic_frame(
    op: WeylOperator,
    l_names: Sequence[str],
    eta_names: Sequence[str],
) -> Tuple[WeylOperator, VarSet]:
    """Change variables to z = l + nu eta and zbar = l - nu eta, named
    z1, z2, ... and w1, w2, ... (``_frame_target``).

    Generator images: mult l -> (z + zbar)/2, mult eta -> (z - zbar)/(2 nu),
    d/dl -> d/dz + d/dzbar, d/deta -> nu (d/dz - d/dzbar).  In the unrotated
    variable xi = -i eta these are z = l + i nu xi and its conjugate.  Every
    x-image is a multiplication and every d-image has constant
    coefficients, so the image of a normal-ordered word needs no
    reordering: it is the product over the pairs (l_a, eta_a) of the cached
    ``_frame_kernel`` of the pair's exponents.  Raises ValueError when op
    has a variable outside the pairs.
    """
    target = _frame_target(len(l_names))
    return _pairwise_image(op, list(zip(l_names, eta_names)), _frame_kernel, target), target


def _frame_target(n: int) -> VarSet:
    return VarSet(tuple(f"z{a + 1}" for a in range(n)) + tuple(f"w{a + 1}" for a in range(n)))


@functools.lru_cache(maxsize=None)
def _star_kernel(alpha: int, gamma: int, beta: int, delta: int) -> PairImage:
    """One Darboux pair's factor of the frame image of the Fourier image of
    l^alpha m^gamma d_l^beta d_m^delta: ``_frame_kernel`` applied to each
    term of ``_fourier_kernel``, over the largest of the frame halvings,
    with equal terms merged."""
    _, fourier = _fourier_kernel(alpha, gamma, beta, delta)
    frames = [(s, w, _frame_kernel(*e)) for *e, s, w in fourier]
    top = max(h for _, _, (h, _) in frames)
    acc: Dict[Tuple[int, ...], int] = {}
    for s, w, (h, image) in frames:
        for *e, t, c in image:
            key = (*e, s + t)
            acc[key] = acc.get(key, 0) + (w * c << (top - h))
    return top, tuple((*key, c) for key, c in acc.items() if c)


def star_transform(
    op: WeylOperator, l_names: Sequence[str], m_names: Sequence[str]
) -> Tuple[WeylOperator, VarSet]:
    """holomorphic_frame(fourier_conjugate(op|nu->-nu / (2 nu))) in one pass
    over the terms of op, through the cached ``_star_kernel`` of each
    Darboux pair, with the flip of nu and the factor 1/(2 nu) applied to
    each term on the way; the target variables are those of
    ``holomorphic_frame``.  The two conjugations are its test oracle."""
    target = _frame_target(len(l_names))
    image = _pairwise_image(
        op, list(zip(l_names, m_names)), _star_kernel, target, flip_nu=True, nu_shift=-1, halvings=1
    )
    return image, target


def uses_only(op: WeylOperator, names: Sequence[str]) -> bool:
    """True when every term touches only the given variables."""
    others = [i for i, x in enumerate(op.vs.names) if x not in names]
    return not any(a[i] or b[i] for a, b in op.terms for i in others)


# ---------------------------------------------------------------------------
# chart-level verification reports
# ---------------------------------------------------------------------------


def _swapped_cubic(lam: Poly, n: int) -> dict:
    """The degree-3 terms c l^alpha m^beta nu^k of lam, over the chart's
    variables l^1..l^n, m^1..m^n, indexed by the l <-> m swap of their
    monomials: {l^beta m^alpha: [(k, (-1)^|beta| alpha! beta! c)]}."""
    out: dict = {}
    for e, c in lam.terms.items():
        if sum(e) - e[-1] == 3:
            w = c * prod(map(factorial, e[:-1])) * (-1) ** sum(e[n:-1])
            out.setdefault(e[n:-1] + e[:n], []).append((e[-1], w))
    return out


def _cubic_b3(swapped: dict, v: Poly) -> dict:
    """{nu-power: numerator} of nu^3 B_3(u, v), for u and v of degree at
    most 3, from the ``_swapped_cubic`` of u and the terms of v."""
    out: dict = {}
    for e, d in v.terms.items():
        for k, w in swapped.get(e[:-1], ()):
            out[k + e[-1] + 3] = out.get(k + e[-1] + 3, 0) + w * d
    return out


def verify_covariance(ch) -> Tally:
    """lambda_A star lambda_B - lambda_B star lambda_A = 2 nu {lambda_A, lambda_B}
    tallied over all basis pairs (i, j).

    Write u star v = sum_s nu^s B_s(u, v), B_s taking s derivatives of each
    factor; B_1 is the Poisson bracket.  The Moyal symmetry
    u star_{-nu} v = v star_nu u gives B_s(v, u) = (-1)^s B_s(u, v), so the
    two sides differ by exactly 2 sum over odd s >= 3 of nu^s B_s(u, v),
    for any degrees and nu-dependent coefficients; B_s vanishes when a map
    has degree < 3.  When both have degree 3, only B_3 of their degree-3
    terms survives: in the sum of ``moyal_star``, the order-3 derivative
    d_l^alpha' d_m^beta' of c l^alpha m^beta nu^k is a constant only at
    (alpha', beta') = (alpha, beta), alpha! beta! c nu^k, and then
    d_m^alpha d_l^beta of d l^gamma m^delta nu^k' only at
    (gamma, delta) = (beta, alpha), alpha! beta! d nu^k'.  So the pair
    gives (-1)^|beta| alpha! beta! c d nu^(k + k' + 3), and B_3 is one
    sparse dot product (``_cubic_b3``) with u's cubic part indexed once by
    its l <-> m swap (``_swapped_cubic``).  Pairs with a map of higher
    degree take the odd orders from every pair of terms (``_contractions``).
    Each pair's numerators are over the product of its denominators, and
    the residuals are tallied over top, the square of the lcm.
    """
    deg = [lam.total_degree() for lam in ch.moment]
    dens = [lam.den for lam in ch.moment]
    top = lcm(*dens) ** 2
    cubic = [i for i, d in enumerate(deg) if d >= 3]
    swapped = {i: _swapped_cubic(ch.moment[i], len(ch.l_names)) for i in cubic if deg[i] == 3}

    def rows():
        for i, j in itertools.combinations(cubic, 2):
            if deg[i] == deg[j] == 3:
                tail = _cubic_b3(swapped[i], ch.moment[j])
            else:
                odd = range(3, min(deg[i], deg[j]) + 1, 2)
                tail = _contractions(ch.moment[i], ch.moment[j], ch.l_names, ch.m_names, odd)
            yield (i, j), 2 * sum(map(abs, tail.values())) * (top // (dens[i] * dens[j]))

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
                lhs, rhs = op.apply(u), moyal_star(lam, u, ch.l_names, ch.m_names)
                yield (i, k), 0 if lhs == rhs else abs_numerator(lhs - rhs, top)

    return tally(rows(), top)
