"""Symplectic chart on the orbit of the base point, and moment maps.

Coordinates (l^1..l^n, m^1..m^n) are attached to a symplectic basis
L_a of g(-1) and its omega-dual L'_a in g(1); in this order Darboux pair
a is variables a and n + a (``weyl._darboux_layout``).  The chart is

    phi(l, m) = exp(ad(sum l^a L_a)) exp(ad(sum m^a L'_a)) . o

which terminates because both ad's are nilpotent on the graded algebra,
computed on coordinate vectors with Poly entries.  The moment maps are
lambda_A = beta(phi, A) = sum_j phi_j K_jA, K the Killing Gram matrix; the
Poisson bracket is the canonical one, and lambda_[A,B] = {lambda_A, lambda_B}.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import List, Tuple

from . import weyl
from .kkt import GradedLieAlgebra, homomorphism_tallies
from .poly import Poly, Tally, VarSet, bilinear_terms, diff_terms, lincomb, mul_add, numerators


EXP_AD_STEPS = 8


def exp_ad(g: GradedLieAlgebra, x: List[dict], dx: int, y: List[dict], dy: int, one: int):
    """exp(ad x) . y, for nilpotent ad x, on coordinate vectors of term
    dicts over dx and dy (Poly keys whose 1 is one), as (numerators,
    denominator): ad(x)^k y / k! is over dy (dx D)^k k!, with nothing
    divided; raises if the series does not stop within EXP_AD_STEPS terms."""
    xs = [(i, t) for i, t in enumerate(x) if t]
    total, term, den = y, y, dy
    for k in range(1, EXP_AD_STEPS + 1):
        acc = bilinear_terms(g._structure, xs, [(j, t) for j, t in enumerate(term) if t], one)
        term = [{e: c for e, c in acc.get(i, {}).items() if c} for i in range(g.dim)]
        if not any(term):
            return total, den
        f = dx * g.denom * k
        total, den = [lincomb(((f, a), (1, b))) for a, b in zip(total, term)], den * f
    raise ValueError("ad series did not terminate; element is not nilpotent here")


class SymplecticChart:
    def __init__(self, g: GradedLieAlgebra):
        self.g = g
        n = g.n
        vs = self.vs = VarSet(tuple(f"{x}{a + 1}" for x in "lm" for a in range(n)))
        L, Lp = g.symplectic_basis()  # coordinate vectors
        keys = [vs.one + (1 << vs.width * a) for a in range(2 * n)]
        o = self._combination([g.o], [vs.one])
        phi, den = exp_ad(g, *self._combination(L, keys[:n]),
                          *exp_ad(g, *self._combination(Lp, keys[n:]), *o, vs.one), vs.one)
        self.phi = [Poly._reduced(vs, t, den) for t in phi]
        # lambda_i = beta(phi, e_i) = sum_j K_ij phi_j on the numerators of phi and K
        self.moment = [Poly._reduced(vs, lincomb((x, phi[j]) for j, x in row.items()), den * g.denom**2)
                       for row in g._killing]

    def _combination(self, elts: List[list], keys: List[int]) -> Tuple[List[dict], int]:
        """The coordinates of sum_a x_a elts[a], x_a the term of key
        keys[a], as (term dicts of numerators, their one denominator)."""
        elts, d = numerators(dict(enumerate(e)) for e in elts)
        return [{key: e[k] for e, key in zip(elts, keys) if k in e} for k in range(self.g.dim)], d

    @cached_property
    def left_stars(self) -> List[weyl.WeylOperator]:
        """The operators u -> lambda_i star u, one per basis element, built
        on first use."""
        return [weyl.left_star_operator(lam) for lam in self.moment]

    def poisson(self, p: Poly, q: Poly) -> Poly:
        acc, n = Poly.zero(self.vs), self.g.n
        for la, ma in zip(self.vs.names[:n], self.vs.names[n:]):
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
