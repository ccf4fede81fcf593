"""Normal-ordered polynomial-coefficient differential operators.

A WeylOperator is a finite sum  sum c_{ab} x^a d^b  with all multiplication
factors to the left of all derivatives; composition re-normal-orders via
the commutation relation d x = x d + 1.  On top of this sit

  * first-order operators f + sum_j a_j d_j, split into their parts
    (f, [a_j]) and bracketed as vector fields with multipliers, with no
    normal ordering,
  * the Moyal star product on chart polynomials, computed straight from the
    bidifferential formula, which factorises over the Darboux pairs on
    monomials,
  * left star multiplication as an operator, built from Poisson-tensor
    contractions summed over multisets of indices; it shares no code with
    the star product and is its independent cross-check (property B),
  * the partial Fourier transform, in its Fourier variable rotated by i
    so that every generator image is real, and the passage to the
    holomorphic frame z = l + nu eta, zbar = l - nu eta, both realized as
    exact conjugation homomorphisms on generators with the factor order of
    each normal-ordered word preserved.  Neither introduces i, so all
    coefficients stay rational.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .poly import Poly, VarSet, VarSetMismatch
from .scalars import Scalar

Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    r = 1
    for i in range(k):
        r = r * (n - i) // (i + 1)
    return r


class WeylOperator:
    """sum over (a, b) of  c * x^a d^b  on polynomials in a fixed varset."""

    __slots__ = ("vs", "terms")

    def __init__(self, vs: VarSet, terms: Dict[Key, Scalar] | None = None):
        pruned: Dict[Key, Scalar] = {}
        if terms:
            for (a, b), c in terms.items():
                if len(a) != len(vs) or len(b) != len(vs):
                    raise ValueError(f"exponents {(a, b)} do not fit the variables {vs.names}")
                if not c.is_zero():
                    pruned[(tuple(a), tuple(b))] = c
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "terms", pruned)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(vs: VarSet) -> "WeylOperator":
        return WeylOperator(vs)

    @staticmethod
    def identity(vs: VarSet) -> "WeylOperator":
        z = (0,) * len(vs.names)
        return WeylOperator(vs, {(z, z): Scalar.one()})

    @staticmethod
    def from_poly(p: Poly) -> "WeylOperator":
        """Multiplication by p."""
        z = (0,) * len(p.vs.names)
        return WeylOperator(p.vs, {(e, z): c for e, c in p.terms.items()})

    @staticmethod
    def mult_var(vs: VarSet, name: str) -> "WeylOperator":
        return WeylOperator.from_poly(Poly.var(vs, name))

    @staticmethod
    def partial(vs: VarSet, name: str) -> "WeylOperator":
        z = [0] * len(vs.names)
        d = list(z)
        d[vs.index(name)] = 1
        return WeylOperator(vs, {(tuple(z), tuple(d)): Scalar.one()})

    # -- ring structure ----------------------------------------------------
    def _check(self, other: "WeylOperator"):
        if self.vs != other.vs:
            raise VarSetMismatch(f"{self.vs.names} vs {other.vs.names}")

    def __add__(self, other: "WeylOperator") -> "WeylOperator":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, Scalar.zero()) + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return WeylOperator(self.vs, out)

    def __neg__(self) -> "WeylOperator":
        return WeylOperator(self.vs, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "WeylOperator") -> "WeylOperator":
        return self + (-other)

    def scale(self, c) -> "WeylOperator":
        c = Scalar.coerce(c)
        return WeylOperator(self.vs, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "WeylOperator") -> "WeylOperator":
        """Composition: self after other, re-normal-ordered."""
        self._check(other)
        nvars = len(self.vs.names)
        out: Dict[Key, Scalar] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                base = c1 * c2
                # move d^b1 past x^a2: sum over contraction multi-indices k
                ranges = [range(min(b1[i], a2[i]) + 1) for i in range(nvars)]
                for kk in itertools.product(*ranges):
                    f = 1
                    for i in range(nvars):
                        f *= _binom(b1[i], kk[i]) * _binom(a2[i], kk[i]) * factorial(kk[i])
                    xe = tuple(a1[i] + a2[i] - kk[i] for i in range(nvars))
                    de = tuple(b1[i] + b2[i] - kk[i] for i in range(nvars))
                    s = out.get((xe, de), Scalar.zero()) + base * Fraction(f)
                    if s.is_zero():
                        out.pop((xe, de), None)
                    else:
                        out[(xe, de)] = s
        return WeylOperator(self.vs, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylOperator)
            and self.vs == other.vs
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vs, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    # -- semantics ---------------------------------------------------------
    def apply(self, p: Poly) -> Poly:
        if p.vs != self.vs:
            raise VarSetMismatch(f"{self.vs.names} vs {p.vs.names}")
        nvars = len(self.vs.names)
        out: Dict[Tuple[int, ...], Scalar] = {}
        for (a, b), c in self.terms.items():
            for e, pc in p.terms.items():
                if any(e[i] < b[i] for i in range(nvars)):
                    continue
                f = 1
                for i in range(nvars):
                    for t in range(b[i]):
                        f *= e[i] - t
                mono = tuple(a[i] + e[i] - b[i] for i in range(nvars))
                s = out.get(mono, Scalar.zero()) + c * pc * Fraction(f)
                if s.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Poly(self.vs, out)

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Highest total derivative order appearing."""
        return max((sum(b) for (_, b) in self.terms), default=0)

    def flip_nu(self) -> "WeylOperator":
        return WeylOperator(self.vs, {k: c.flip_nu() for k, c in self.terms.items()})

    # -- conjugation on generators -------------------------------------------
    def map_generators(
        self,
        target: VarSet,
        x_images: Dict[str, "WeylOperator"],
        d_images: Dict[str, "WeylOperator"],
    ) -> "WeylOperator":
        """Algebra homomorphism fixed by generator images.

        Each normal-ordered word x^a d^b maps to the composition of the
        generator images in the same order (all multiplications, then all
        derivatives); images are composed with `*` so the result is again
        normal-ordered.
        """
        acc = WeylOperator.zero(target)
        for (a, b), c in self.terms.items():
            word = WeylOperator.identity(target)
            for i, name in enumerate(self.vs.names):
                for _ in range(a[i]):
                    word = word * x_images[name]
            for i, name in enumerate(self.vs.names):
                for _ in range(b[i]):
                    word = word * d_images[name]
            acc = acc + word.scale(c)
        return acc

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            factors = []
            for i, name in enumerate(self.vs.names):
                if a[i] == 1:
                    factors.append(name)
                elif a[i] > 1:
                    factors.append(f"{name}^{a[i]}")
            for i, name in enumerate(self.vs.names):
                if b[i] == 1:
                    factors.append(f"d_{name}")
                elif b[i] > 1:
                    factors.append(f"d_{name}^{b[i]}")
            body = " ".join(factors) if factors else "1"
            bits.append(f"({c}) {body}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# first-order operators: a multiplier plus a vector field
# ---------------------------------------------------------------------------


def first_order(f: Poly, a: Sequence[Poly]) -> WeylOperator:
    """The operator f + sum_j a_j d_j."""
    zero = (0,) * len(f.vs.names)
    terms: Dict[Key, Scalar] = {(e, zero): c for e, c in f.terms.items()}
    for j, aj in enumerate(a):
        d = tuple(int(i == j) for i in range(len(zero)))
        terms.update(((e, d), c) for e, c in aj.terms.items())
    return WeylOperator(f.vs, terms)


def split_first_order(op: WeylOperator) -> Tuple[Poly, List[Poly]]:
    """(f, [a_j]) with op = f + sum_j a_j d_j; raises ValueError on any term
    of order > 1 rather than dropping it."""
    parts: List[Dict[Tuple[int, ...], Scalar]] = [{} for _ in range(len(op.vs.names) + 1)]
    for (e, d), c in op.terms.items():
        order = sum(d)
        if order > 1:
            raise ValueError(f"not first order: a term with derivative exponents {d}")
        parts[d.index(1) + 1 if order else 0][e] = c
    f, *a = (Poly(op.vs, p) for p in parts)
    return f, a


def first_order_bracket(
    x: Tuple[Poly, Sequence[Poly]], y: Tuple[Poly, Sequence[Poly]]
) -> Tuple[Poly, List[Poly]]:
    """[f + a.d, g + b.d] = (a.grad g - b.grad f) + sum_j (a.grad b_j - b.grad a_j) d_j,
    on split parts (f, a) and (g, b); the second-order parts of the two
    compositions cancel, so no normal ordering is needed."""
    (f, a), (g, b) = x, y
    names = f.vs.names
    zero = Poly.zero(f.vs)

    def along(c: Sequence[Poly], p: Poly) -> Poly:
        if p.is_zero():
            return zero
        return sum((ci * p.diff(v) for ci, v in zip(c, names) if not ci.is_zero()), zero)

    return along(a, g) - along(b, f), [along(a, bj) - along(b, aj) for aj, bj in zip(a, b)]


# ---------------------------------------------------------------------------
# Moyal star product (direct bidifferential formula)
# ---------------------------------------------------------------------------


def _falling(x: int, k: int) -> int:
    """The falling factorial x (x-1) ... (x-k+1)."""
    r = 1
    for t in range(k):
        r *= x - t
    return r


@functools.lru_cache(maxsize=None)
def _pair_kernel(p1: int, q1: int, p2: int, q2: int) -> Tuple[Tuple[int, Fraction], ...]:
    """One Darboux pair's factor of  l^p1 m^q1  star  l^p2 m^q2.

    The term (alpha, beta) is nu^(alpha+beta) times
    (-1)^beta p1^(alpha) q2^(alpha) q1^(beta) p2^(beta) / (alpha! beta!)
    times l^(p1+p2-alpha-beta) m^(q1+q2-alpha-beta), with x^(k) the falling
    factorial.  Both the nu-power and the exponent drop depend only on
    s = alpha + beta, so the terms are merged by s: (s, coefficient) pairs
    with nonzero coefficient.
    """
    acc: Dict[int, Fraction] = {}
    for a in range(min(p1, q2) + 1):
        for b in range(min(q1, p2) + 1):
            c = Fraction(
                _falling(p1, a) * _falling(q2, a) * _falling(q1, b) * _falling(p2, b),
                factorial(a) * factorial(b),
            )
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
    vs = u.vs
    if v.vs != vs:
        raise VarSetMismatch(f"{vs.names} vs {v.vs.names}")
    pairs = [(vs.index(la), vs.index(ma)) for la, ma in zip(l_names, m_names)]
    out: Dict[Tuple[int, ...], Scalar] = {}
    for e1, c1 in u.terms.items():
        for e2, c2 in v.terms.items():
            base = c1 * c2
            esum = [a + b for a, b in zip(e1, e2)]
            # pairs whose exponents allow a contraction; the rest contribute 1
            active = [
                (i, j, _pair_kernel(e1[i], e1[j], e2[i], e2[j]))
                for i, j in pairs
                if (e1[i] and e2[j]) or (e1[j] and e2[i])
            ]
            for combo in itertools.product(*(ker for _, _, ker in active)):
                e = list(esum)
                k = 0
                f = Fraction(1)
                for (i, j, _), (s, c) in zip(active, combo):
                    e[i] -= s
                    e[j] -= s
                    k += s
                    f *= c
                term = base if k == 0 and f == 1 else Scalar(
                    {k0 + k: g * f for k0, g in base.coeffs.items()}
                )
                e = tuple(e)
                out[e] = out[e] + term if e in out else term
    return Poly(vs, out)


def left_star_operator(
    lam: Poly, l_names: Sequence[str], m_names: Sequence[str]
) -> WeylOperator:
    """The operator u -> lam star u, built from Poisson-tensor contractions.

    The k-th order part sums over multisets of k contraction indices: each
    multiset stands for its k!/prod(mult!) orderings, so it carries the
    weight sign * nu^k / prod(mult!).
    """
    vs = lam.vs
    n = len(l_names)
    nvars = len(vs.names)
    l_idx = [vs.index(x) for x in l_names]
    m_idx = [vs.index(x) for x in m_names]
    out: Dict[Key, Scalar] = {}

    def emit(p: Poly, dexp: Tuple[int, ...], coeff: Scalar):
        for e, c in p.terms.items():
            k = (e, dexp)
            s = out.get(k, Scalar.zero()) + c * coeff
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s

    zero_d = (0,) * nvars
    emit(lam, zero_d, Scalar.one())
    deg = lam.total_degree()
    for k in range(1, deg + 1):
        for combo in itertools.combinations_with_replacement(range(2 * n), k):
            p = lam
            dexp = [0] * nvars
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
                    break
            if p.is_zero():
                continue
            weight = Fraction(sign)
            for mult in Counter(combo).values():
                weight /= factorial(mult)
            emit(p, tuple(dexp), Scalar.nu(k, weight))
    return WeylOperator(vs, out)


# ---------------------------------------------------------------------------
# Fourier transform and holomorphic frame as generator conjugations
# ---------------------------------------------------------------------------


def fourier_conjugate(
    op: WeylOperator,
    l_names: Sequence[str],
    m_names: Sequence[str],
    eta_names: Sequence[str] | None = None,
) -> Tuple[WeylOperator, VarSet]:
    """Conjugate by the partial Fourier transform in the m-variables, with
    kernel sign -1, in the Fourier variable rotated by i.

    With kernel sign -1 the transform sends m^a -> -i d/dxi^a and
    d/dm^a -> -i xi^a; in eta = i xi these are the real images of the
    algebraic Fourier transform of the Weyl algebra: l and d/dl stay,
    multiplication by m^a becomes d/deta^a, and d/dm^a becomes -eta^a.
    """
    if eta_names is None:
        eta_names = tuple(f"h{a + 1}" for a in range(len(m_names)))
    target = VarSet(tuple(l_names) + tuple(eta_names))
    x_images: Dict[str, WeylOperator] = {}
    d_images: Dict[str, WeylOperator] = {}
    for la in l_names:
        x_images[la] = WeylOperator.mult_var(target, la)
        d_images[la] = WeylOperator.partial(target, la)
    for ma, ea in zip(m_names, eta_names):
        x_images[ma] = WeylOperator.partial(target, ea)
        d_images[ma] = -WeylOperator.mult_var(target, ea)
    return op.map_generators(target, x_images, d_images), target


@functools.lru_cache(maxsize=None)
def _frame_kernel(
    alpha: int, gamma: int, beta: int, delta: int
) -> Tuple[Tuple[Tuple[int, int, int, int], Fraction], ...]:
    """One Darboux pair's factor of the frame image of
    l^alpha eta^gamma d_l^beta d_eta^delta, that is of

        ((z + zbar)/2)^alpha ((z - zbar)/(2 nu))^gamma
        (d_z + d_zbar)^beta (nu (d_z - d_zbar))^delta.

    The multiplications stand left of the constant-coefficient derivatives,
    so the product is already normal-ordered.  Its nu-power is
    delta - gamma; returns ((z, zbar, d_z, d_zbar exponents), coefficient)
    pairs with nonzero coefficient.
    """

    def expand(p: int, q: int) -> Dict[int, int]:
        # (x + y)^p (x - y)^q as {exponent of x: coefficient}
        acc: Dict[int, int] = {}
        for i in range(p + 1):
            for j in range(q + 1):
                c = _binom(p, i) * _binom(q, j) * (-1) ** (q - j)
                acc[i + j] = acc.get(i + j, 0) + c
        return {i: c for i, c in acc.items() if c}

    mult, der = expand(alpha, gamma), expand(beta, delta)
    scale = Fraction(1, 2 ** (alpha + gamma))
    return tuple(
        ((i, alpha + gamma - i, p, beta + delta - p), scale * c * d)
        for i, c in mult.items()
        for p, d in der.items()
    )


def holomorphic_frame(
    op: WeylOperator,
    l_names: Sequence[str],
    eta_names: Sequence[str],
    z_names: Sequence[str] | None = None,
    zbar_names: Sequence[str] | None = None,
) -> Tuple[WeylOperator, VarSet]:
    """Change variables to z = l + nu eta and zbar = l - nu eta.

    Generator images: mult l -> (z + zbar)/2, mult eta -> (z - zbar)/(2 nu),
    d/dl -> d/dz + d/dzbar, d/deta -> nu (d/dz - d/dzbar).  In the unrotated
    variable xi = -i eta these are z = l + i nu xi and its conjugate.  Every
    x-image is a multiplication and every d-image has constant
    coefficients, so the image of a normal-ordered word needs no
    reordering: it is the product over the pairs (l_a, eta_a) of the cached
    ``_frame_kernel`` of the pair's exponents.
    """
    n = len(l_names)
    if z_names is None:
        z_names = tuple(f"z{a + 1}" for a in range(n))
    if zbar_names is None:
        zbar_names = tuple(f"w{a + 1}" for a in range(n))
    pairs = [(op.vs.index(la), op.vs.index(ea)) for la, ea in zip(l_names, eta_names)]
    if sorted(i for p in pairs for i in p) != list(range(len(op.vs.names))):
        raise ValueError(f"{op.vs.names} are not the pairs {tuple(l_names)}, {tuple(eta_names)}")
    target = VarSet(tuple(z_names) + tuple(zbar_names))
    out: Dict[Key, Scalar] = {}
    for (a, b), c in op.terms.items():
        k = sum(b[j] - a[j] for _, j in pairs)
        kers = [_frame_kernel(a[i], a[j], b[i], b[j]) for i, j in pairs]
        for combo in itertools.product(*kers):
            f = Fraction(1)
            for _, cf in combo:
                f *= cf
            key = (
                tuple(e[0] for e, _ in combo) + tuple(e[1] for e, _ in combo),
                tuple(e[2] for e, _ in combo) + tuple(e[3] for e, _ in combo),
            )
            term = Scalar({k0 + k: g * f for k0, g in c.coeffs.items()})
            out[key] = out[key] + term if key in out else term
    return WeylOperator(target, out), target


def uses_only(op: WeylOperator, names: Sequence[str]) -> bool:
    """True when every term touches only the given variables."""
    allowed = {op.vs.index(x) for x in names}
    for (a, b) in op.terms:
        for i in range(len(op.vs.names)):
            if i not in allowed and (a[i] or b[i]):
                return False
    return True


# ---------------------------------------------------------------------------
# chart-level verification reports
# ---------------------------------------------------------------------------


def verify_covariance(ch) -> Tuple[Fraction, int]:
    """lambda_A star lambda_B - lambda_B star lambda_A = 2 nu {lambda_A, lambda_B}
    over all basis pairs; returns (residual, failing pair count)."""
    from .chart import poly_abs

    two_nu = Scalar.nu(1, Fraction(2))
    res = Fraction(0)
    bad = 0
    for i in range(ch.g.dim):
        for j in range(i + 1, ch.g.dim):
            comm = moyal_star(ch.moment[i], ch.moment[j], ch.l_names, ch.m_names) - moyal_star(
                ch.moment[j], ch.moment[i], ch.l_names, ch.m_names
            )
            d = comm - ch.poisson(ch.moment[i], ch.moment[j]) * two_nu
            r = poly_abs(d)
            if r:
                bad += 1
                res += r
    return res, bad


def verify_property_B(ch, samples: Sequence[Poly]) -> Tuple[int, bool]:
    """Star multiplication by each moment map is the differential operator
    ``ch.left_stars[i]``: its action equals ``moyal_star(lambda_i, u)`` on
    every sample u.

    Returns (N, ok) with N the highest order among the operators.
    """
    N = max(op.order() for op in ch.left_stars)
    ok = all(
        op.apply(u) == moyal_star(lam, u, ch.l_names, ch.m_names)
        for op, lam in zip(ch.left_stars, ch.moment)
        for u in samples
    )
    return N, ok
