"""Exact scalar arithmetic: the public name of ``Scalar``.

``Scalar``, the Laurent polynomial in the formal parameter nu with
rational coefficients (m*, kappa, the closed-form weight), is the ``Poly``
over no variables, defined in ``poly``.  nu is never evaluated inside the
core, and no step introduces the imaginary unit (``weyl.fourier_conjugate``).
"""

from .poly import Scalar, rational_to_str

__all__ = ["Scalar", "rational_to_str"]
