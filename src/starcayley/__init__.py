"""Exact computer algebra for Jordan-algebra star products.

From a Euclidean Jordan algebra this package builds the associated
3-graded Lie algebra, a symplectic chart with moment maps, the Moyal star
product and its left-multiplication operators, the star representation on
holomorphic polynomials, and the derived discrete series operators — all
over an exact ring of Laurent polynomials in nu with rational
coefficients — and verifies the structural identities connecting them.
"""

from .jordan import (
    JordanAlgebra,
    make_algebra,
    make_rank_one,
    make_spin_factor,
    make_sym_matrices,
    validate_jordan,
)
from .kkt import GradedLieAlgebra
from .chart import SymplecticChart
from .weyl import WeylOperator, left_star_operator, moyal_star
from .starrep import StarRepresentation
from .hds import DiscreteSeries, NoEquivalence, solve_equivalence
from .scalars import Scalar
from .poly import Poly, VarSet

__all__ = [
    "JordanAlgebra",
    "make_algebra",
    "make_rank_one",
    "make_spin_factor",
    "make_sym_matrices",
    "validate_jordan",
    "GradedLieAlgebra",
    "SymplecticChart",
    "WeylOperator",
    "moyal_star",
    "left_star_operator",
    "StarRepresentation",
    "DiscreteSeries",
    "solve_equivalence",
    "NoEquivalence",
    "Scalar",
    "Poly",
    "VarSet",
]

__version__ = "0.1.0"
