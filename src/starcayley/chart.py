"""Symplectic chart on the orbit of the base point, and moment maps.

Coordinates (l^1..l^n, m^1..m^n) are attached to a symplectic basis
L_a of g(-1) and its omega-dual L'_a in g(1).  The chart is

    phi(l, m) = exp(ad(sum l^a L_a)) exp(ad(sum m^a L'_a)) . o

which terminates because both ad's are nilpotent on the graded algebra,
computed on coordinate vectors with Poly entries.  The moment maps are
lambda_A = beta(phi, A) = sum_j phi_j K_jA, K the Killing Gram matrix; the
Poisson bracket is the canonical one, and lambda_[A,B] = {lambda_A, lambda_B}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import List, Tuple

from . import weyl
from .kkt import GradedLieAlgebra, homomorphism_tallies
from .poly import Poly, Tally, VarSet, diff_terms, mul_add


EXP_AD_STEPS = 8


def exp_ad(g: GradedLieAlgebra, x: list, y: list) -> list:
    """exp(ad x) . y on coordinate vectors, for nilpotent ad x; raises if
    the series fails to stop within ``EXP_AD_STEPS`` terms."""
    total = list(y)
    term = y
    for k in range(1, EXP_AD_STEPS + 1):
        term = [c * Fraction(1, k) for c in g.coord_bracket(x, term)]
        if all(c.is_zero() for c in term):
            return total
        total = [a + b for a, b in zip(total, term)]
    raise ValueError("ad series did not terminate; element is not nilpotent here")


@dataclass
class SymplecticChart:
    g: GradedLieAlgebra

    vs: VarSet = field(init=False)
    l_names: Tuple[str, ...] = field(init=False)
    m_names: Tuple[str, ...] = field(init=False)
    phi: List[Poly] = field(init=False)
    moment: List[Poly] = field(init=False)

    def __post_init__(self):
        g = self.g
        n = g.n
        self.l_names = tuple(f"l{a + 1}" for a in range(n))
        self.m_names = tuple(f"m{a + 1}" for a in range(n))
        self.vs = VarSet(self.l_names + self.m_names)
        L, Lp = g.symplectic_basis()  # coordinate vectors

        lsym = self._combination(L, self.l_names)
        msym = self._combination(Lp, self.m_names)
        o = [Poly.const(self.vs, c) for c in g.o]
        self.phi = exp_ad(g, lsym, exp_ad(g, msym, o))
        # lambda_i = beta(phi, e_i) = sum_j phi_j K_ji
        zero, K = Poly.zero(self.vs), g.killing
        self.moment = [
            sum((p * row[i] for p, row in zip(self.phi, K) if row[i]), zero) for i in range(g.dim)
        ]

    def _combination(self, elts: List[list], names: Tuple[str, ...]) -> List[Poly]:
        """Coordinates of sum_a x^a elts[a] for the chart variables x^a."""
        acc = [Poly.zero(self.vs)] * self.g.dim
        for e, name in zip(elts, names):
            x = Poly.var(self.vs, name)
            acc = [a + x * c if c != 0 else a for a, c in zip(acc, e)]
        return acc

    @cached_property
    def left_stars(self) -> List[weyl.WeylOperator]:
        """The operators u -> lambda_i star u, one per basis element, built
        on first use."""
        return [weyl.left_star_operator(lam, self.l_names, self.m_names) for lam in self.moment]

    def poisson(self, p: Poly, q: Poly) -> Poly:
        acc = Poly.zero(self.vs)
        for la, ma in zip(self.l_names, self.m_names):
            acc = acc + p.diff(la) * q.diff(ma) - p.diff(ma) * q.diff(la)
        return acc

    # -- verification -----------------------------------------------------
    def hamiltonicity_residual(self) -> Tally:
        """|lambda_[bi,bj] - {lambda_i, lambda_j}| tallied over the basis
        pairs i < j by ``kkt.homomorphism_tallies``, on the moment maps over
        one denominator L, with their gradients taken once."""
        g, n, one = self.g, self.g.n, self.vs.one
        L = lcm(*(lam.den for lam in self.moment))
        moment = [lam.over(L) for lam in self.moment]
        grads = [[diff_terms(t, self.vs, v) for v in range(2 * n)] for t in moment]

        def bracket(i, j):
            acc: dict = {}
            for a in range(n):
                mul_add(acc, grads[i][a], grads[j][n + a], one, g.denom)
                mul_add(acc, grads[i][n + a], grads[j][a], one, -g.denom)
            return [acc]

        return homomorphism_tallies(g, [[t] for t in moment], bracket, L)[0]

    def max_moment_degree(self) -> int:
        return max(p.total_degree() for p in self.moment)
