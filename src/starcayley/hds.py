"""Derived holomorphic discrete series operators and the equivalence solver.

For X in g with parts u, T and v in g(-1), g(0) and g(1), the conformal
field on the tube domain is X(z) = u + Tz + P(z)v, with Tr DX(z) = Tr T +
2 tau(z, v), and the weight-m operator is first order,

    dpi_m(X) = m s_X + V_X,   s_X = -(r/n) Tr DX(z),   V_X = -sum_a X(z)^a d/dz^a,

with m formal.  [dpi_m X, dpi_m Y] = m (V_X s_Y - V_Y s_X) + [V_X, V_Y]
never multiplies two multipliers, so [dpi_m X, dpi_m Y] = sigma dpi_m([X,Y])
holds for every m exactly when it holds for dpi_1 = s_X + V_X with the
multiplier and the vector field compared apart; each operator is stored as
dpi_1.  The solver finds an intertwiner alpha in {+id, -id, +theta, -theta},
reads the weight m* and compares it with (beta(o,o) + n nu c) / (2 nu r c),
from E = (0, Id, 0): h_E = Id, l_E(z) = z, beta(E, o) = beta(o,o)/mu and
spur(E) = n give rho(E) = (beta(o,o)/mu + n nu)/(2 nu) + sum z^a d_a, while
dpi_m(-E) = m r + sum z^a d_a, so alpha = -id.  The value is fixed by this
package's normalisations of rho and dpi_m; the repository does not hold the
paper's text to check them against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import List, Optional, Tuple

from . import linalg
from .kkt import GradedLieAlgebra
from .poly import Poly, Tally, VarSet, lincomb, numerators, proportion
from .scalars import Scalar
from .starrep import bracket_sign, z_names
from .weyl import WeylOperator, first_order, split_first_order


class NoEquivalence(ValueError):
    def __init__(self, msg: str, residual: Fraction):
        super().__init__(msg)
        self.residual = residual


class DiscreteSeries:
    def __init__(self, g: GradedLieAlgebra):
        self.g, self.zvs = g, VarSet(z_names(g.n))
        self._zvec = [Poly.var(self.zvs, x) for x in self.zvs.names]
        self._P = g.jordan.quadratic_rep(self._zvec)

    def field(self, a: list) -> List[Poly]:
        """X(z) = u + Tz + P(z)v, from the Jordan data directly: u and v are
        read from the coordinate vector a, and Tz from the nonzero entries
        of T = sum_j a_j T_j over its g(0) coordinates a_j (``t_entries``)."""
        n, f, den = self.g.n, self.g.n + self.g.dim0, self.g.t_den
        comps = [Poly.const(self.zvs, x) for x in a[:n]]
        for k, x in self.g.t_entries(a[n:f]).items():
            comps[k // n] = comps[k // n] + self._zvec[k % n] * Fraction(x, den)
        for j, vj in enumerate(a[f:]):
            if vj:
                comps = [c + self._P[i][j] * vj for i, c in enumerate(comps)]
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


def verify_dpi_homomorphism(g: GradedLieAlgebra, ops: List[WeylOperator]) -> Tuple[int, Tally]:
    """[dpi_m(X), dpi_m(Y)] = sigma * dpi_m([X,Y]) identically in the formal
    weight m, checked on dpi_1 (see the module docstring); returns
    (sign sigma, Tally) as ``starrep.bracket_sign``."""
    return bracket_sign(g, ops)


# ---------------------------------------------------------------------------
# equivalence solver
# ---------------------------------------------------------------------------


def _automorphism_candidates(g: GradedLieAlgebra):
    """(name, alpha) with alpha acting on coordinate vectors, -theta negating first."""
    yield "+id", lambda a: a
    yield "-id", lambda a: [-x for x in a]
    yield "+theta", g.apply_theta
    yield "-theta", lambda a: g.apply_theta([-x for x in a])


class EquivalenceResult:
    def __init__(self, alpha: str, m_star: Scalar):
        self.alpha, self.m_star = alpha, m_star


def solve_equivalence(
    g: GradedLieAlgebra,
    rho: List[WeylOperator],
    ds: DiscreteSeries,
) -> EquivalenceResult:
    """Find (alpha, m*) with rho(A) = dpi_{m*}(alpha(A)) for every basis A.

    For each candidate alpha, ``poly.proportion`` reads m* and the l1
    residual from rows per basis element A: the components of the vector
    field difference, with divisor 0, then the multipliers (tau_A, s_A),
    dpi(alpha e) = sum_k alpha(e)_k dpi(e_k) summed on the numerators of
    ``ds.dpi_basis()``.  A candidate stops at its first basis element whose
    vector fields differ; only when none matches are the stopped ones
    finished, and NoEquivalence names the one of smallest full residual,
    the first on a tie."""
    rho_parts = [split_first_order(op) for op in rho]
    L = lcm(*(op.den for op in ds.dpi_basis()))
    nums = [op.over(L) for op in ds.dpi_basis()]
    units = [[int(i == j) for j in range(g.dim)] for i in range(g.dim)]
    zero = Poly.zero(ds.zvs)

    def check(alpha):
        """Yields None at each basis element whose vector fields differ and
        ``proportion`` over all the rows, (m* or None, Tally), at the end."""
        rows = []
        for i, (e, (tau, vec)) in enumerate(zip(units, rho_parts)):
            (cs,), da = numerators([dict(enumerate(alpha(e)))])
            ws = [(x, nums[k]) for k, x in cs.items()]
            s_poly, dpi_vec = split_first_order(WeylOperator._reduced(ds.zvs, lincomb(ws), L * da))
            diffs = [p - q for p, q in zip(vec, dpi_vec)]
            rows += [(i, d, zero) for d in diffs] + [(i, tau, s_poly)]
            if any(d.terms for d in diffs):
                yield None
        yield proportion(rows)

    tried = []
    for name, alpha in _automorphism_candidates(g):
        run = check(alpha)
        first = next(run)
        if first and first[0] is not None:
            return EquivalenceResult(alpha=name, m_star=first[0])
        tried.append((name, first, run))
    full = [(name, (first or list(run)[-1])[1].residual) for name, first, run in tried]
    name, res = min(full, key=lambda t: t[1])
    raise NoEquivalence(f"no candidate automorphism matches (best: {name}, residual {res})", res)


# ---------------------------------------------------------------------------
# comparison with the closed-form weight
# ---------------------------------------------------------------------------


class WeightComparison:
    def __init__(self, m_star: Scalar, m_closed: Scalar, match: str, factor: Optional[Scalar]):
        # match is "exact" | "proportional" | "failed"
        self.m_star, self.m_closed, self.match, self.factor = m_star, m_closed, match, factor


def closed_form_weight(g: GradedLieAlgebra) -> Scalar:
    """(beta(o,o) + n nu c) / (2 nu r c) with c = mu, as a Laurent scalar."""
    boo = g.beta(g.o, g.o)
    n, r, c = g.n, g.jordan.rank, g.mu
    num = Scalar.of(boo) + Scalar.nu(1, Fraction(n) * c)
    return num * Scalar.nu(-1, Fraction(1, 2) / (Fraction(r) * c))


def compare_with_closed_form(g: GradedLieAlgebra, m_star: Scalar) -> WeightComparison:
    """m* = factor * m_closed, the factor read by ``poly.proportion`` from one
    row per nu-power, top down: "exact" for 1, "proportional" for another
    rational and "failed", with no factor, when none exists."""
    m_closed = closed_form_weight(g)
    a, b = m_star.coeffs, m_closed.coeffs
    powers = sorted(a.keys() | b.keys(), reverse=True)
    factor, _ = proportion((k, Scalar.of(a.get(k, 0)), Scalar.of(b.get(k, 0))) for k in powers)
    match = "failed" if factor is None else "exact" if factor == 1 else "proportional"
    return WeightComparison(m_star, m_closed, match, factor)


def special_nu_value(g: GradedLieAlgebra, m_star: Optional[Scalar]) -> Tuple[Fraction, bool]:
    """nu0 = -beta(o,o)/(n c), where the numerator of the closed-form weight
    vanishes.  Returns (nu0, whether the measured weight m* vanishes at
    nu0), False when no m* was found."""
    nu0 = -g.beta(g.o, g.o) / (Fraction(g.n) * g.mu)
    return nu0, m_star is not None and m_star.eval_nu(nu0) == 0
