"""The star representation on holomorphic polynomials.

For A in g, with coordinate parts A_u, A_t and A_v in g(-1), g(0) and
g(1), one forms, with a symbolic point z in g(-1),

    h_A(z)   = A_t + (degree-0 part of [A_v, z])          (matrix, linear in z)
    l_A(z)   = A_u + [A_t, z] + 1/2 [z, [z, A_v]]          (vector, quadratic)
    tau_A(z) = (1/2 nu) (beta(h_A(z), o) + nu spur(h_A(z)))

and the first-order operator  rho(A) = tau_A + sum_a l_A(z)^a d/dz^a.  The
weights w_j = (K.o)_j / (2 nu) + spur_j / 2 turn the degree-zero
coordinates h_j of h into tau = sum_j h_j w_j.  All three are linear in A,
and on the bases e_a, T_j, f_b of g(-1), g(0), g(1) each is a read of the
table, grade by grade, with k < n = dim g(-1):

    e_a:  h = 0,                l = e_a,                      tau = 0;
    T_j:  h = e_j,              l^k = [T_j, z]^k,             tau = w_j;
    f_b:  h^j = [f_b, z]^(n+j), l^k = 1/2 sum_m [f_b, z]^m [e_m, z]^k,
          tau = sum_j h^j w_j,

where [e_i, z]^k = sum_a z_a c_{i a}^k.  These parts, term dicts over one
denominator built once, are the one source of rho, of its cross-checks
(l_A against the Jordan-data field of hds, h_A against kappa * Dl_A) and of
``l_poly``, ``_h_coords`` and ``tau_scalar``.  ``bracket_sign`` measures
the bracket sign of rho and of dpi.  ``verify_star_transform`` decides
D_A = rho(A) on one path: it pulls rho(A) back through the star transform
and, on a mismatch, transforms only the differences from the left-star
operators.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, List, NamedTuple, Optional, Tuple

from .chart import SymplecticChart
from .kkt import GradedLieAlgebra, homomorphism_tallies
from .poly import (
    NO_VARS, Poly, Tally, VarSet, abs_numerator, diff_terms, lincomb, mul_add, numerators, proportion,
    tally,
)
from .scalars import Scalar
from .weyl import (
    WeylOperator,
    first_order_bracket,
    first_order_parts,
    first_order_terms,
    split_first_order,
    star_pullback,
    star_transform,
    uses_only,
    _frame_target,
)


def z_names(n: int) -> Tuple[str, ...]:
    return tuple(f"z{a + 1}" for a in range(n))


class RhoParts(NamedTuple):
    """tau_A, l_A and the degree-zero coordinates of h_A for one basis
    element A, as term dicts of Poly numerators over the one denominator of
    the ``StarRepresentation``, zeros allowed."""

    tau: dict
    l: List[dict]
    h: List[dict]


class StarRepresentation:
    def __init__(self, g: GradedLieAlgebra):
        self.g, self.zvs = g, VarSet(z_names(g.n))
        # tau_A = (1/2 nu)(beta(h, o) + nu spur(h)) = sum_j h_j w_j over the
        # degree-zero coordinates h_j of h, w_j = (K.o)_j/(2 nu) + spur_j/2
        ko = g.killing_o
        self._tau_weights = [
            Scalar.nu(-1, Fraction(ko[j], 2)) + Scalar.of(Fraction(g.spur_vector[j], 2))
            for j in range(g.n, g.n + g.dim0)
        ]
        # the denominator of every term dict of ``_basis_parts``: 2 D^2 times
        # the lcm W of the weights' denominators
        self._den = 2 * g.denom**2 * lcm(*(w.den for w in self._tau_weights))

    @cached_property
    def _basis_parts(self) -> List[RhoParts]:
        """The ``RhoParts`` of each basis element, grade by grade from the
        integer numerators of the table over D (module docstring), built on
        first use.  On g(1), l = 1/2 [[f_b, z], z] sums over every
        coordinate m of [f_b, z] and keeps the components k < n, as on
        coordinate vectors, so the parts hold for any table, Jordan or not."""
        g, vs, den = self.g, self.zvs, self._den
        n, d0, f, D, one = g.n, g.dim0, g.n + g.dim0, g.denom, vs.one
        W = den // (2 * D * D)
        # w_j as key shifts by its nu-powers, with numerators over W
        w = [{NO_VARS.nu(k) << vs.nu_shift: c * (W // wj.den) for k, c in wj.terms.items()}
             for wj in self._tau_weights]
        # ad[i][k]: the coordinate k of [e_i, z], numerators over D, linear in z
        ad = [[{} for _ in range(g.dim)] for _ in range(g.dim)]
        for (i, a), row in g._structure.items():
            if a < n:
                for k, c in row.items():
                    ad[i][k][one + (1 << vs.width * a)] = c
        scaled = lambda ts, x: [{e: c * x for e, c in t.items()} for t in ts]
        unit = lambda j, size: [{one: den} if i == j else {} for i in range(size)]
        parts = [RhoParts({}, unit(a, n), [{} for _ in range(d0)]) for a in range(n)]
        for j in range(d0):
            tau = {one + s: c * (den // W) for s, c in w[j].items()}
            parts.append(RhoParts(tau, scaled(ad[n + j][:n], den // D), unit(j, d0)))
        for y in ad[f:]:
            tau, l = {}, [{} for _ in range(n)]
            for hj, wj in zip(y[n:f], w):
                mul_add(tau, hj, wj, 0, 2 * D)
            for m, ym in enumerate(y):
                if ym:
                    for lk, t in zip(l, ad[m]):
                        mul_add(lk, ym, t, one, W)
            parts.append(RhoParts(tau, l, scaled(y[n:f], den // D)))
        return parts

    def _combine(self, a: list, part: Callable[[RhoParts], List[dict]]) -> List[Poly]:
        """sum_i a_i part(P_i) over the rational coordinates a_i of a, P_i
        the ``RhoParts`` of e_i, as Polys."""
        (a,), d = numerators([dict(enumerate(a))])
        rows = [(x, part(self._basis_parts[i])) for i, x in a.items()]
        size = len(part(self._basis_parts[0]))
        den = self._den * d
        return [Poly._reduced(self.zvs, lincomb((c, t[k]) for c, t in rows), den)
                for k in range(size)]

    def _h_coords(self, a: list) -> List[Poly]:
        """Degree-zero coordinates of h_A(z) = A_t + [A_v, z]."""
        return self._combine(a, lambda p: p.h)

    def l_poly(self, a: list) -> List[Poly]:
        """Vector-valued polynomial l_A(z), quadratic in z."""
        return self._combine(a, lambda p: p.l)

    def tau_scalar(self, a: list) -> Poly:
        return self._combine(a, lambda p: [p.tau])[0]

    def rho_basis(self) -> List[WeylOperator]:
        """rho(A) = tau_A + sum_a l_A(z)^a d/dz^a for each basis element A."""
        return [first_order_terms(self.zvs, [p.tau, *p.l], self._den) for p in self._basis_parts]

    # -- invariants -------------------------------------------------------
    def field_residual(self, series) -> Tally:
        """|l_A - X| tallied over the basis elements A, X the field u + Tz + P(z)v
        that ``series``, an ``hds.DiscreteSeries`` of the same g, builds from
        Jordan data: minus the vector part of ``series.dpi_basis()``, over the
        lcm of the parts' denominator and the operators'."""
        ops = series.dpi_basis()
        L = lcm(self._den, *(op.den for op in ops))
        f = L // self._den

        def rows():
            for i, (p, op) in enumerate(zip(self._basis_parts, ops)):
                diffs = (lincomb(((f, lk), (L // q.den, q.terms))) for lk, q in
                         zip(p.l, split_first_order(op)[1]))
                yield i, sum(sum(map(abs, d.values())) for d in diffs)

        return tally(rows(), L)

    def measure_kappa_h(self) -> Tuple[Optional[Scalar], Tally]:
        """Constant kappa with h_A(z) = kappa * D(l_A)(z) across the basis, read
        by ``poly.proportion`` from the rows (A, r, c) of the entries (h_A)_rc,
        summed on term dicts from the sparse T_j, and d l_A^r / dz^c; returns
        ``proportion``'s pair (kappa or None, Tally).  On g(-1) both are zero
        and no row is formed; on g(0) l_A = [T_j, z] is linear, so D l_A is
        read at its linear terms; only on g(1) is l_A differentiated."""
        g, vs = self.g, self.zvs
        poly = lambda t, den: Poly._reduced(vs, t, den) if t else Poly.zero(vs)
        n, f, one, dh = g.n, g.n + g.dim0, vs.one, self._den * g.t_den
        units = [one + (1 << vs.width * c) for c in range(n)]

        def rows():
            for i, p in enumerate(self._basis_parts[n:], n):
                h: dict = {}  # (h_A)_rc at r n + c, over dh
                for hj, t in zip(p.h, g._t_flat):
                    for rc, x in t.items() if hj else ():
                        lincomb(((x, hj),), h.setdefault(rc, {}))
                for r, c in itertools.product(range(n), repeat=2):
                    lr, hc = p.l[r], h.get(r * n + c)
                    d = diff_terms(lr, vs, c) if i >= f else {one: lr[units[c]]} if units[c] in lr else {}
                    if d or hc:
                        yield (i, r, c), poly(hc, dh), poly(d, self._den)

        return proportion(rows())


def bracket_sign(g: GradedLieAlgebra, ops: List[WeylOperator]) -> Tuple[int, Tally]:
    """Measure the sign s with [X_i, X_j] = s * X([e_i, e_j]) over all basis
    pairs i < j of first-order operators X_k = ops[k]; returns (s, Tally).
    The operators, over one denominator L, are split once with their
    gradients (``weyl.first_order_parts``), and each pair's bracket goes to
    ``kkt.homomorphism_tallies``, which tallies one sign unless it fails.
    s = +1 reports a homomorphism, -1 an anti-homomorphism and 0 neither,
    with the Tally of the sign of smaller total, +1 on a tie.  Raises
    ValueError on a term of order > 1."""
    L = lcm(*(op.den for op in ops))
    fields = [first_order_parts(op, L) for op in ops]
    bracket = lambda i, j: first_order_bracket(fields[i], fields[j], g.denom)
    plus, minus = homomorphism_tallies(g, [f.parts for f in fields], bracket, L, minus=True)
    best = min((t for t in (plus, minus) if t is not None), key=lambda t: t.residual)
    return (0 if best.failures else 1 if best is plus else -1), best


def verify_rho_homomorphism(g: GradedLieAlgebra, rho: List[WeylOperator]) -> Tuple[int, Tally]:
    """Bracket sign of rho: [rho(A), rho(B)] = s * rho([A,B]); returns
    (s, Tally) as ``bracket_sign``."""
    return bracket_sign(g, rho)


def verify_star_transform(
    ch: SymplecticChart, srep: StarRepresentation, rho: List[WeylOperator]
) -> Tuple[bool, Tally]:
    """Compare the transformed star operators D_A, ``weyl.star_transform``
    of A's left-star operator L_A, against rho(A), per basis element:
    returns whether every D_A is holomorphic, and |D_A - rho(A)| tallied
    over the basis, over the lcm of the differences' denominators.  The
    transform T is linear and bijective, so D_A - rho(A) = T(L_A - P_A),
    P_A the pull-back of rho(A) (``weyl.star_pullback``, which reads an
    operator in z as one in (z, zbar) that does not touch zbar).  When
    every P_A is L_A the Tally is zero; otherwise only the differences are
    transformed.  rho(A) is holomorphic, so D_A is exactly when its
    difference is, and a D_A that is not differs from rho(A): the Tally's
    witness covers both failures."""
    n, hvs = srep.g.n, _frame_target(srep.g.n)
    pulled = [star_pullback(op, ch.vs) for op in rho]
    if all(p == op for p, op in zip(pulled, ch.left_stars)):
        return True, tally(())
    diffs = [star_transform(op - p) for p, op in zip(pulled, ch.left_stars)]
    holomorphic = all(uses_only(d, hvs.names[:n]) for d in diffs)
    L = lcm(*(d.den for d in diffs))
    return holomorphic, tally(((i, abs_numerator(d, L)) for i, d in enumerate(diffs)), L)
