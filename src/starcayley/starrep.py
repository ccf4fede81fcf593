"""The star representation on holomorphic polynomials.

For each element A of g, given by its coordinate vector with parts A_u,
A_t and A_v in g(-1), g(0) and g(1), one forms, with a symbolic point z in
g(-1),

    h_A(z)   = A_t + (degree-0 part of [A_v, z])          (matrix, linear in z)
    l_A(z)   = A_u + [A_t, z] + 1/2 [z, [z, A_v]]          (vector, quadratic)
    tau_A(z) = (1/2 nu) (beta(h_A(z), o) + nu spur(h_A(z)))

and the first-order operator  rho(A) = tau_A + sum_a l_A(z)^a d/dz^a, all
on coordinate vectors through the structure constants, beta(h, o) and
spur(h) as dot products of the degree-zero coordinates of h with K.o and
the spur vector.  h_A and l_A are built once per basis element and shared
by rho and its cross-checks: l_A against the conformal field that hds
builds from Jordan data, h_A against kappa * Dl_A.  ``bracket_sign``
measures the bracket sign of rho and of the first-order operators of hds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import List, Optional, Tuple

from . import linalg
from .chart import SymplecticChart
from .kkt import GradedLieAlgebra, homomorphism_tallies
from .poly import Poly, Tally, VarSet, abs_numerator, diff_terms, proportion, tally
from .scalars import Scalar
from .weyl import (
    WeylOperator,
    first_order,
    first_order_bracket,
    first_order_parts,
    split_first_order,
    star_transform,
    uses_only,
)


def z_names(n: int) -> Tuple[str, ...]:
    return tuple(f"z{a + 1}" for a in range(n))


@dataclass
class StarRepresentation:
    g: GradedLieAlgebra

    zvs: VarSet = field(init=False)
    _z: List[Poly] = field(init=False)
    _tau_weights: List[Scalar] = field(init=False)

    def __post_init__(self):
        g = self.g
        self.zvs = VarSet(z_names(g.n))
        zero = Poly.zero(self.zvs)
        self._z = [Poly.var(self.zvs, x) for x in self.zvs.names] + [zero] * (g.dim - g.n)
        # tau_A = (1/2 nu)(beta(h, o) + nu spur(h)) = sum_j h_j w_j over the
        # degree-zero coordinates h_j of h, w_j = (K.o)_j/(2 nu) + spur_j/2
        ko = [sum((k * c for k, c in zip(row, g.o) if c != 0), Fraction(0)) for row in g.killing]
        self._tau_weights = [
            Scalar.nu(-1, Fraction(ko[j], 2)) + Scalar.of(Fraction(g.spur_vector[j], 2))
            for j in range(g.n, g.n + g.dim0)
        ]

    # -- the three building blocks ------------------------------------------
    def _grade_parts(self, a: list) -> List[list]:
        """Coordinate vectors of the g(-1), g(0) and g(1) parts of a."""
        g = self.g
        cuts = (0, g.n, g.n + g.dim0, g.dim)
        return [
            [x if lo <= k < hi else 0 for k, x in enumerate(a)]
            for lo, hi in zip(cuts, cuts[1:])
        ]

    def _h_coords(self, a: list) -> List[Poly]:
        """Degree-zero coordinates of h_A(z) = A_t + [A_v, z]."""
        g = self.g
        _, at, av = self._grade_parts(a)
        br = g.coord_bracket(av, self._z)
        return [br[k] + Poly.const(self.zvs, at[k]) for k in range(g.n, g.n + g.dim0)]

    def _tau(self, h_coords: List[Poly]) -> Poly:
        return sum((hj * w for hj, w in zip(h_coords, self._tau_weights)), Poly.zero(self.zvs))

    def l_poly(self, a: list) -> List[Poly]:
        """Vector-valued polynomial l_A(z), quadratic in z."""
        g = self.g
        z = self._z
        au, at, av = self._grade_parts(a)
        tz = g.coord_bracket(at, z)
        quad = g.coord_bracket(z, g.coord_bracket(z, av))
        return [Poly.const(self.zvs, au[k]) + tz[k] + quad[k] * Fraction(1, 2) for k in range(g.n)]

    def tau_scalar(self, a: list) -> Poly:
        return self._tau(self._h_coords(a))

    @cached_property
    def _basis_parts(self) -> List[Tuple[List[Poly], List[Poly]]]:
        """(degree-zero coordinates of h_A, l_A) for each basis element A,
        built on first use and read by rho, the field and kappa_h checks."""
        return [(self._h_coords(e), self.l_poly(e)) for e in linalg.identity(self.g.dim)]

    def rho_basis(self) -> List[WeylOperator]:
        """rho(A) = tau_A + sum_a l_A(z)^a d/dz^a for each basis element A."""
        return [first_order(self._tau(h), lp) for h, lp in self._basis_parts]

    # -- invariants -------------------------------------------------------
    def field_residual(self, series) -> Tally:
        """|l_A - X| tallied over the basis elements A, X the field
        u + Tz + P(z)v that ``series``, an ``hds.DiscreteSeries`` of the
        same g, builds from Jordan data: minus the vector part of
        ``series.dpi_basis()``.  The rows are over the lcm of the
        denominators of the l_A and of the operators."""
        ops = series.dpi_basis()
        L = lcm(*(op.den for op in ops), *(p.den for _, lp in self._basis_parts for p in lp))
        rows = (
            (i, sum(abs_numerator(p + q, L) for p, q in zip(lp, split_first_order(op)[1])))
            for i, ((_, lp), op) in enumerate(zip(self._basis_parts, ops))
        )
        return tally(rows, L)

    def measure_kappa_h(self) -> Tuple[Optional[Scalar], Fraction]:
        """Constant kappa with h_A(z) = kappa * D(l_A)(z) across the basis,
        read by ``poly.proportion`` from the rows (A, r, c) of the entries
        (h_A)_rc and d l_A^r / dz^c; returns (kappa or None, residual)."""

        def rows():
            for i, (h_coords, lp) in enumerate(self._basis_parts):
                h = self.g.t_from_coords(h_coords)
                for r, p in enumerate(lp):
                    for c, hc in enumerate(h[r]):
                        d = diff_terms(p.terms, self.zvs, c)
                        if d or hc.terms:
                            yield (i, r, c), hc, Poly._reduced(self.zvs, d, p.den)

        kappa, t = proportion(rows())
        return kappa, t.residual


def bracket_sign(g: GradedLieAlgebra, ops: List[WeylOperator]) -> Tuple[int, Tally]:
    """Measure the sign s with [X_i, X_j] = s * X([e_i, e_j]) over all basis
    pairs i < j of first-order operators X_k = ops[k]; returns (s, Tally).

    The operators are brought to one denominator L and split once, with
    their gradients (``weyl.first_order_parts``), and each pair's
    first-order bracket feeds both Tallies of ``kkt.homomorphism_tallies``.
    s = +1 reports a homomorphism, s = -1 an anti-homomorphism and s = 0
    neither, with the Tally of the sign of smaller total, +1 on a tie.
    Raises ValueError on a term of order > 1."""
    L = lcm(*(op.den for op in ops))
    fields = [first_order_parts(op, L) for op in ops]
    bracket = lambda i, j: first_order_bracket(fields[i], fields[j], g.denom)
    plus, minus = homomorphism_tallies(g, [f.parts for f in fields], bracket, L)
    best = plus if plus.residual <= minus.residual else minus
    return (0 if best.failures else 1 if best is plus else -1), best


def verify_rho_homomorphism(g: GradedLieAlgebra, rho: List[WeylOperator]) -> Tuple[int, Tally]:
    """Bracket sign of rho: [rho(A), rho(B)] = s * rho([A,B]); returns
    (s, Tally) as ``bracket_sign``."""
    return bracket_sign(g, rho)


def star_transform_operator(ch: SymplecticChart, index: int) -> Tuple[WeylOperator, VarSet]:
    """D_A = holomorphic-frame(Fourier_-((1/2 nu) right-star(lambda_A))).

    Right star multiplication u -> u star lambda_A is an anti-homomorphism
    in A, like rho; by the Moyal symmetry a star_{-nu} b = b star_nu a it is
    the left-star operator with nu -> -nu.  Fourier_- is the partial Fourier
    transform with kernel sign -1, in its variable rotated by i, eta = i xi:
    m^a -> d/deta^a, d/dm^a -> -eta^a (``weyl.fourier_conjugate``).

    The kernel sign follows from flipping nu.  With kernel sign s the
    rotated transform followed by the frame z = l + nu eta, zbar = l - nu eta
    sends l -> (z+zbar)/2, d/dl -> d/dz + d/dzbar,
    m^a -> -s nu (d/dz^a - d/dzbar^a) and d/dm^a -> s (z^a - zbar^a)/(2 nu),
    in which s enters only through s nu; these are also the images of the
    unrotated transform followed by z = l + i nu xi, so D_A does not depend
    on the rotation.  So kernel sign -1 is kernel sign +1 with nu -> -nu,
    and with the factor 1/(2 nu), D_A = -(left-star, +1 construction)|nu->-nu,
    formed in one pass over the operator's terms (``weyl.star_transform``).
    """
    return star_transform(ch.left_stars[index], ch.l_names, ch.m_names)


def embed_z_operator(op: WeylOperator, target: VarSet) -> WeylOperator:
    """Extend an operator in the z-variables to the (z, zbar) variable set,
    each key unpacked and packed again in the layout of ``target``."""
    pad = (0,) * (len(target.names) - len(op.vs.names))
    keys = [op._unpack(op.vs, k) for k in op.terms]
    terms = {WeylOperator._pack(target, (a[:-1] + pad + a[-1:], b + pad)): c
             for (a, b), c in zip(keys, op.terms.values())}
    return WeylOperator._new(target, terms, op.den)


def verify_star_transform(
    ch: SymplecticChart, srep: StarRepresentation, rho: List[WeylOperator]
) -> Tuple[bool, Tally]:
    """Compare the transformed star operators D_A against rho(A), per basis
    element: returns whether every D_A is holomorphic, and |D_A - rho(A)|
    tallied over the basis, over the lcm of the differences' denominators.
    A D_A that is not holomorphic differs from the embedded rho(A), so the
    Tally's witness covers both failures."""
    n, holomorphic, diffs = srep.g.n, True, []
    for i in range(srep.g.dim):
        d_op, hvs = star_transform_operator(ch, i)
        holomorphic &= uses_only(d_op, hvs.names[:n])
        diffs.append(d_op - embed_z_operator(rho[i], hvs))
    L = lcm(*(d.den for d in diffs))
    return holomorphic, tally(((i, abs_numerator(d, L)) for i, d in enumerate(diffs)), L)
