"""Exact scalar arithmetic.

Two layers: arbitrary-precision rationals (``fractions.Fraction``) and
Laurent polynomials in the formal deformation parameter nu with rational
coefficients, the coefficient ring of everything downstream.  ``Poly``
and ``WeylOperator`` store it flat, integer numerators over one
denominator keyed with the nu-power, and ``Scalar``, its public form (m*,
kappa, the closed-form weight, read out by ``Scalar.coeffs``), is the
``Poly`` over no variables, defined in ``poly`` beside that ring; this
module is its public name.  nu is never evaluated inside the core.
No step of the verifier introduces the imaginary unit: the Fourier step
works in a variable rotated by i (see ``weyl.fourier_conjugate``).
"""

from .poly import Scalar, rational_to_str

__all__ = ["Scalar", "rational_to_str"]
