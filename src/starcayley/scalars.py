"""Exact scalar arithmetic.

Two layers: arbitrary-precision rationals (``fractions.Fraction``) and
Laurent polynomials in the formal deformation parameter nu with rational
coefficients.  The Laurent ring is the coefficient ring of everything
downstream; ``Poly`` and ``WeylOperator`` store it flat, the nu-power in
each term's key, and ``Scalar``, its public form (m*, kappa, the
closed-form weight), is the ``Poly`` over no variables, so its ring
operations are Poly's.  It is defined in ``poly`` beside that flat ring;
this module is its public name.  nu is never evaluated inside the core.
No step of the verifier introduces the imaginary unit: the Fourier step
works in a variable rotated by i (see ``weyl.fourier_conjugate``).
"""

from .poly import NotDivisible, Scalar, rational_to_str

__all__ = ["NotDivisible", "Scalar", "rational_to_str"]
