"""Derived holomorphic discrete series operators and the equivalence solver.

For X in g with parts u, T and v in g(-1), g(0) and g(1), read from its
coordinate vector, the conformal field on the tube domain is
X(z) = u + Tz + P(z)v with Tr DX(z) = Tr T + 2 tau(z, v).  The weight-m
operator is first order,

    dpi_m(X) = m s_X + V_X,   s_X = -(r/n) Tr DX(z),   V_X = -sum_a X(z)^a d/dz^a,

with m kept formal.  The bracket of first-order operators is linear in
their multipliers and never multiplies two of them:
[dpi_m X, dpi_m Y] = m (V_X s_Y - V_Y s_X) + [V_X, V_Y].  So
[dpi_m X, dpi_m Y] = sigma dpi_m([X,Y]) holds for every m exactly when it holds
for dpi_1 = s_X + V_X with the multiplier and the vector field compared
separately, which is how ``starrep.bracket_sign`` compares them.  Each
operator is therefore stored as dpi_1, whose multiplier is the coefficient
of m.  The solver searches an intertwining automorphism alpha in
{+id, -id, +theta, -theta} matching the star representation against dpi,
then solves for the unique weight m* by exact division, and compares with
the closed-form value (beta(o,o) + n nu c) / (2 nu r c).  That value follows
from the grading element E = (0, Id, 0): h_E = Id, l_E(z) = z,
beta(E, o) = beta(o,o)/mu and spur(E) = n give
rho(E) = (beta(o,o)/mu + n nu)/(2 nu) + sum z^a d_a, while
dpi_m(-E) = m r + sum z^a d_a; the solver finds alpha = -id.  The value is
thus fixed by this package's own normalisations of rho and dpi_m; the
repository does not hold the paper's text to check them against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Tuple

from . import linalg
from .chart import poly_abs
from .kkt import GradedLieAlgebra
from .poly import Poly, VarSet, scalar_ratio
from .scalars import NotDivisible, Scalar
from .starrep import bracket_sign, z_names
from .weyl import WeylOperator, first_order, split_first_order


class NoEquivalence(ValueError):
    def __init__(self, msg: str, residual: Fraction):
        super().__init__(msg)
        self.residual = residual


@dataclass
class DiscreteSeries:
    g: GradedLieAlgebra

    def __post_init__(self):
        self.zvs = VarSet(z_names(self.g.n))
        self._zvec = [Poly.var(self.zvs, x) for x in self.zvs.names]
        self._P = self.g.jordan.quadratic_rep(self._zvec)

    def field(self, a: list) -> List[Poly]:
        """X(z) = u + Tz + P(z)v, from the Jordan data directly: u and v are
        read from the coordinate vector a and T is the matrix of its g(0)
        coordinates along t_basis."""
        n, f = self.g.n, self.g.n + self.g.dim0
        u, t, v = a[:n], self.g.t_from_coords(a[n:f]), a[f:]
        comps = []
        for i in range(n):
            acc = Poly.const(self.zvs, u[i])
            for j in range(n):
                if t[i][j] != 0:
                    acc = acc + self._zvec[j] * t[i][j]
                if v[j] != 0:
                    acc = acc + self._P[i][j] * v[j]
            comps.append(acc)
        return comps

    def dpi(self, a: list) -> WeylOperator:
        """dpi_1(X) = s_X - sum_a X(z)^a d_a; s_X is the coefficient of m."""
        comps = self.field(a)
        div = sum((c.diff(x) for c, x in zip(comps, self.zvs.names)), Poly.zero(self.zvs))
        s = div * Fraction(-self.g.jordan.rank, self.g.n)
        return first_order(s, [-comp for comp in comps])

    @cached_property
    def _dpi_basis(self) -> tuple:
        return tuple(self.dpi(e) for e in linalg.identity(self.g.dim))

    def dpi_basis(self) -> List[WeylOperator]:
        """dpi_1 of each basis element, built once; a new list on each call."""
        return list(self._dpi_basis)


def verify_dpi_homomorphism(g: GradedLieAlgebra, ops: List[WeylOperator]) -> Tuple[int, Fraction]:
    """[dpi_m(X), dpi_m(Y)] = sigma * dpi_m([X,Y]) identically in the formal
    weight m, checked on dpi_1 (see the module docstring); returns
    (sign sigma, residual) as ``starrep.bracket_sign``."""
    return bracket_sign(g, ops)


# ---------------------------------------------------------------------------
# equivalence solver
# ---------------------------------------------------------------------------


def _automorphism_candidates(g: GradedLieAlgebra):
    """(name, alpha) with alpha acting on coordinate vectors."""
    yield "+id", lambda a: a
    yield "-id", lambda a: [-x for x in a]
    yield "+theta", g.apply_theta
    yield "-theta", lambda a: [-x for x in g.apply_theta(a)]


@dataclass
class EquivalenceResult:
    alpha: str
    m_star: Scalar
    residual: Fraction


def solve_equivalence(
    g: GradedLieAlgebra,
    rho: List[WeylOperator],
    ds: Optional[DiscreteSeries] = None,
) -> EquivalenceResult:
    """Find (alpha, m*) with rho(A) = dpi_{m*}(alpha(A)) for every basis A.

    For each candidate alpha the vector-field parts must agree on the nose;
    the multiplication parts then determine m* by exact division, which must
    be consistent across the whole basis.  Raises NoEquivalence otherwise.
    dpi is linear, so dpi(alpha e) is formed as sum_k alpha(e)_k dpi(e_k)
    from ``ds.dpi_basis()``, which every candidate shares.
    """
    ds = ds or DiscreteSeries(g)
    rho_parts = [split_first_order(op) for op in rho]
    ops, zero = ds.dpi_basis(), WeylOperator.zero(ds.zvs)
    best = None
    for name, alpha in _automorphism_candidates(g):
        ok = True
        m_star: Optional[Scalar] = None
        res = Fraction(0)
        for e, (tau, vec) in zip(linalg.identity(g.dim), rho_parts):
            dpi_alpha = sum((ops[k].scale(c) for k, c in enumerate(alpha(e)) if c), zero)
            s_poly, dpi_vec = split_first_order(dpi_alpha)
            r = sum((poly_abs(p - q) for p, q in zip(vec, dpi_vec)), Fraction(0))
            if r != 0:
                ok = False
                res += r
                continue
            if s_poly.is_zero():
                if not tau.is_zero():
                    ok = False
                    res += poly_abs(tau)
                continue
            m = scalar_ratio(tau, s_poly)
            if m is None:
                ok = False
                res += Fraction(1)
                continue
            if m_star is None:
                m_star = m
            elif m != m_star:
                ok = False
                res += Fraction(1)
        if ok and m_star is not None:
            return EquivalenceResult(alpha=name, m_star=m_star, residual=Fraction(0))
        if best is None or res < best[1]:
            best = (name, res)
    raise NoEquivalence(
        f"no candidate automorphism matches (best: {best[0]}, residual {best[1]})",
        best[1],
    )


# ---------------------------------------------------------------------------
# comparison with the closed-form weight
# ---------------------------------------------------------------------------


@dataclass
class WeightComparison:
    m_star: Scalar
    m_closed: Scalar
    match: str  # "exact" | "proportional" | "failed"
    factor: Optional[Scalar]


def closed_form_weight(g: GradedLieAlgebra) -> Scalar:
    """(beta(o,o) + n nu c) / (2 nu r c) with c = mu, as a Laurent scalar."""
    boo = g.beta(g.o, g.o)
    n, r, c = g.n, g.jordan.rank, g.mu
    num = Scalar.of(boo) + Scalar.nu(1, Fraction(n) * c)
    return num * Scalar.nu(-1, Fraction(1, 2) / (Fraction(r) * c))


def compare_with_closed_form(g: GradedLieAlgebra, m_star: Scalar) -> WeightComparison:
    m_closed = closed_form_weight(g)
    try:
        factor = m_star.div_exact(m_closed)
    except NotDivisible:
        return WeightComparison(m_star, m_closed, "failed", None)
    if factor == Scalar.one():
        return WeightComparison(m_star, m_closed, "exact", factor)
    if set(factor.coeffs.keys()) <= {0}:
        return WeightComparison(m_star, m_closed, "proportional", factor)
    return WeightComparison(m_star, m_closed, "failed", factor)


def special_nu_value(g: GradedLieAlgebra) -> Tuple[Fraction, bool]:
    """nu0 = -beta(o,o)/(n c); at this value the numerator of the closed-form
    weight vanishes.  Returns (nu0, numerator_vanishes)."""
    boo = g.beta(g.o, g.o)
    n, c = g.n, g.mu
    nu0 = -boo / (Fraction(n) * c)
    num = Scalar.of(boo) + Scalar.nu(1, Fraction(n) * c)
    return nu0, num.eval_nu(nu0) == 0
