"""The star representation on holomorphic polynomials.

For each element A of g, given by its coordinate vector with parts A_u,
A_t and A_v in g(-1), g(0) and g(1), one forms, with a symbolic point z in
g(-1),

    h_A(z)   = A_t + (degree-0 part of [A_v, z])          (matrix, linear in z)
    l_A(z)   = A_u + [A_t, z] + 1/2 [z, [z, A_v]]          (vector, quadratic)
    tau_A(z) = (1/2 nu) (beta(h_A(z), o) + nu spur(h_A(z)))

and the first-order operator  rho(A) = tau_A + sum_a l_A(z)^a d/dz^a.

Everything is computed on coordinate vectors through the structure
constants of g, with z the coordinate vector of g(-1) whose entries are the
variables z^a; beta(h, o) and spur(h) are dot products of the degree-zero
coordinates of h with the precomputed vectors K.o and spur_vector.  l_A is
cross-checked against the conformal field u + Tz + P(z)v that hds builds
from Jordan data, and h_A against kappa * Dl_A.  The coordinates of h_A
and l_A are built once per basis element and shared by rho and both
cross-checks.

``bracket_sign`` is the one bracket-sign check, shared by rho and by the
weighted operators of hds: both are first order, so each commutator is a
bracket of vector fields with multipliers, not a product of operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Tuple

from . import linalg
from .chart import SymplecticChart, poly_abs
from .kkt import GradedLieAlgebra
from .poly import Poly, VarSet, gradient, scalar_ratio
from .scalars import Scalar
from .weyl import (
    WeylOperator,
    first_order,
    first_order_bracket,
    first_order_parts,
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
            [x if lo <= k < hi else Fraction(0) for k, x in enumerate(a)]
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

    def h_poly(self, a: list) -> List[List[Poly]]:
        """Matrix-valued polynomial h_A(z), linear in z."""
        return self.g.t_from_coords(self._h_coords(a))

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
    def field_residual(self, series) -> Fraction:
        """l_A against the field u + Tz + P(z)v that ``series``, an
        ``hds.DiscreteSeries`` of the same g, builds from Jordan data."""
        res = Fraction(0)
        for (_, lp), b in zip(self._basis_parts, linalg.identity(self.g.dim)):
            for p, q in zip(lp, series.field(b)):
                res += poly_abs(p - q)
        return res

    def measure_kappa_h(self) -> Tuple[Optional[Scalar], Fraction]:
        """Constant kappa with h_A(z) = kappa * D(l_A)(z) across the basis."""
        kappa: Optional[Scalar] = None
        res = Fraction(0)
        for h_coords, lp in self._basis_parts:
            h = self.g.t_from_coords(h_coords)
            dmat = [[Poly._new(self.zvs, d) for d in gradient(p)] for p in lp]
            for r in range(self.g.n):
                for c in range(self.g.n):
                    if kappa is None and not dmat[r][c].is_zero():
                        kappa = scalar_ratio(h[r][c], dmat[r][c])
                        if kappa is None:
                            return None, Fraction(1)
                    if kappa is not None:
                        res += poly_abs(h[r][c] - dmat[r][c] * kappa)
        return (kappa, res) if res == 0 else (None, res)


def bracket_sign(g: GradedLieAlgebra, ops: List[WeylOperator]) -> Tuple[int, Fraction]:
    """Measure the sign s with [X_i, X_j] = s * X([e_i, e_j]) over all basis
    pairs i < j of first-order operators X_k = ops[k]; returns (s, residual).

    Each operator is split once into its multiplier and vector field, with
    their gradients (``weyl.first_order_parts``).  Each commutator is their
    first-order bracket, and it is compared with the image
    sum_k c_ij^k X_k component by component, the image accumulated into one
    term dict and both sign residuals summed over the union of the keys.
    s = +1 reports a homomorphism, s = -1 an anti-homomorphism, s = 0
    neither, with the smaller residual.  Raises ValueError if an operator
    has a term of order > 1.
    """
    fields = [first_order_parts(op) for op in ops]
    res = {1: 0, -1: 0}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            nz = g.bracket_coords(i, j).items()
            comm = first_order_bracket(fields[i], fields[j])
            for c, terms in enumerate(comm):
                image: dict = {}
                for k, ck in nz:
                    for e, x in fields[k].parts[c].items():
                        image[e] = image[e] + x * ck if e in image else x * ck
                for e in terms.keys() | image.keys():
                    a, b = terms.get(e, 0), image.get(e, 0)
                    res[1] += abs(a - b)
                    res[-1] += abs(a + b)
    for sign in (1, -1):
        if res[sign] == 0:
            return sign, Fraction(0)
    return 0, Fraction(min(res.values()))


def verify_rho_homomorphism(g: GradedLieAlgebra, rho: List[WeylOperator]) -> Tuple[int, Fraction]:
    """Bracket sign of rho: [rho(A), rho(B)] = s * rho([A,B]); returns
    (s, residual) as ``bracket_sign``."""
    return bracket_sign(g, rho)


@dataclass
class StarTransformResult:
    holomorphic: bool
    matches_rho: bool
    residual: Fraction


def star_transform_operator(ch: SymplecticChart, index: int) -> Tuple[WeylOperator, VarSet]:
    """D_A = holomorphic-frame(Fourier_-((1/2 nu) right-star(lambda_A))).

    Right star multiplication u -> u star lambda_A is an anti-homomorphism
    in A, like rho; by the Moyal symmetry a star_{-nu} b = b star_nu a it is
    the left-star operator with nu -> -nu.  Fourier_- is the partial Fourier
    transform with kernel sign -1, in its variable rotated by i, eta = i xi:
    m^a -> d/deta^a, d/dm^a -> -eta^a (``weyl.fourier_conjugate``).

    The kernel sign follows from flipping nu.  With kernel sign s the
    rotated transform sends m^a -> -s d/deta^a and d/dm^a -> s eta^a;
    followed by the frame z = l + nu eta, zbar = l - nu eta, it sends
    l -> (z+zbar)/2, d/dl -> d/dz + d/dzbar, m^a -> -s nu (d/dz^a - d/dzbar^a)
    and d/dm^a -> s (z^a - zbar^a)/(2 nu), in which s enters only through
    s nu.  These composite images are those of the unrotated transform
    (m^a -> s i d/dxi^a, d/dm^a -> s i xi^a) followed by z = l + i nu xi, so
    D_A does not depend on the rotation.  So kernel sign -1 is kernel sign
    +1 with nu -> -nu, and D_A is the left-star construction with kernel
    sign +1, carried through nu -> -nu as a whole; the factor 1/(2 nu) turns
    that into a minus sign, D_A = -(left-star, +1 construction)|nu->-nu.

    The flip of nu, the factor 1/(2 nu) and both conjugations are one pass
    over the terms of the left-star operator (``weyl.star_transform``), on
    integer numerators over one denominator; ``weyl.fourier_conjugate``
    and ``weyl.holomorphic_frame`` applied in turn are its test oracle.
    """
    return star_transform(ch.left_stars[index], ch.l_names, ch.m_names)


def embed_z_operator(op: WeylOperator, target: VarSet) -> WeylOperator:
    """Extend an operator in the z-variables to the (z, zbar) variable set."""
    pad = len(target.names) - len(op.vs.names)
    return WeylOperator(
        target,
        {(a[:-1] + (0,) * pad + a[-1:], b + (0,) * pad): c for (a, b), c in op.terms.items()},
    )


def verify_star_transform(
    ch: SymplecticChart, srep: StarRepresentation, rho: List[WeylOperator]
) -> List[StarTransformResult]:
    """Compare the transformed star operators D_A against rho(A), per basis
    element, and check that D_A is holomorphic."""
    out = []
    n = srep.g.n
    for i in range(srep.g.dim):
        d_op, hvs = star_transform_operator(ch, i)
        holo = uses_only(d_op, hvs.names[:n])
        r_emb = embed_z_operator(rho[i], hvs)
        res = poly_abs(d_op - r_emb)
        out.append(StarTransformResult(holomorphic=holo, matches_rho=res == 0, residual=res))
    return out
