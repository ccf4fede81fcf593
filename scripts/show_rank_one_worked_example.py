#!/usr/bin/env python3
"""Walk through the full pipeline on the one-dimensional Jordan algebra.

Prints every intermediate object: bracket table, moment maps, the three
representation operators, the weight-m operators dpi_m = V + m*S, and the
solved weight parameter.  Each dpi is stored as the first-order operator
dpi_1 = S + V; its multiplier S is the coefficient of the formal weight m.  Useful as a readable end-to-end sanity check.
"""

import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from starcayley import (
    DiscreteSeries,
    GradedLieAlgebra,
    StarRepresentation,
    SymplecticChart,
    WeylOperator,
    make_rank_one,
    solve_equivalence,
)
from starcayley.hds import compare_with_closed_form, special_nu_value
from starcayley.weyl import split_first_order


def main() -> None:
    g = GradedLieAlgebra(make_rank_one(), mu=Fraction(1))
    print(f"dim g = {g.dim}, beta(o,o) = {g.beta(g.o, g.o)}")

    print("\nbracket table (nonzero [e_i, e_j], i < j):")
    for (i, j), nz in sorted(g.bracket_table.items()):
        terms = " + ".join(f"{c}*e{k}" for k, c in sorted(nz.items()))
        print(f"  [e{i}, e{j}] = {terms}")

    ch = SymplecticChart(g)
    print("\nmoment maps:")
    for i, lam in enumerate(ch.moment):
        print(f"  lambda[{i}] = {lam}")

    srep = StarRepresentation(g)
    print("\nrepresentation operators:")
    for i, op in enumerate(srep.rho_basis()):
        print(f"  rho[{i}] = {op}")

    ds = DiscreteSeries(g)
    print("\nweight-m operators dpi_m = V + m*S (S the multiplier of dpi_1, V its vector field):")
    for i, op in enumerate(ds.dpi_basis()):
        s_op = WeylOperator.from_poly(split_first_order(op)[0])
        print(f"  dpi[{i}] = ({op - s_op})  +  m * ({s_op})")

    eq = solve_equivalence(g, srep.rho_basis(), ds)
    cmpr = compare_with_closed_form(g, eq.m_star)
    print(f"\nintertwiner: alpha = {eq.alpha}")
    print(f"solved weight m* = {eq.m_star}")
    print(f"closed-form weight = {cmpr.m_closed}  ({cmpr.match}, factor {cmpr.factor})")
    nu0, vanishes = special_nu_value(g, eq.m_star)
    print(f"special parameter value nu0 = {nu0}; m* vanishes there: {vanishes}")


if __name__ == "__main__":
    main()
