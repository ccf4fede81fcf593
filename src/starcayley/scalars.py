"""Exact scalar arithmetic.

Two layers: arbitrary-precision rationals (``fractions.Fraction``) and
Laurent polynomials in the formal deformation parameter nu with rational
coefficients.  The Laurent ring is the coefficient ring of everything
downstream; ``Scalar`` is its public form (m*, kappa, the closed-form
weight), while ``Poly`` and ``WeylOperator`` store it flat, the nu-power
in each term's key.  nu is never evaluated inside the core.  No step of
the verifier introduces the imaginary unit: the Fourier step works in a
variable rotated by i (see ``weyl.fourier_conjugate``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class NotDivisible(ArithmeticError):
    """No exact quotient exists in the Laurent ring."""


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def rational_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _scalar(coeffs: dict) -> "Scalar":
    """A Scalar over an already pruned dict of nonzero Fractions."""
    r = Scalar.__new__(Scalar)
    object.__setattr__(r, "coeffs", coeffs)
    return r


class Scalar:
    """Laurent polynomial sum_k c_k nu^k with rational c_k.

    Immutable; ``coeffs`` maps each nu-power to a nonzero Fraction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        pruned = {k: _frac(c) for k, c in coeffs.items() if c} if coeffs else {}
        object.__setattr__(self, "coeffs", pruned)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def of(c: RationalLike) -> "Scalar":
        return Scalar({0: c})

    @staticmethod
    def nu(k: int = 1, coeff: RationalLike = 1) -> "Scalar":
        """coeff * nu^k (k may be negative)."""
        return Scalar({k: coeff})

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.of(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    # -- ring operations ------------------------------------------------
    def __add__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _scalar(out)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _scalar({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> "Scalar":
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other) -> "Scalar":
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        other = Scalar.coerce(other)
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return _scalar(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            try:
                other = Scalar.coerce(other)
            except TypeError:
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its Fraction, so it must hash like it
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, Fraction(0)))
        return hash(frozenset(self.coeffs.items()))

    # -- division --------------------------------------------------------
    def div_exact(self, other) -> "Scalar":
        """Exact quotient q with q*other == self, else NotDivisible."""
        other = Scalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Scalar")
        if self.is_zero():
            return _ZERO
        if other.is_monomial():
            (k0, c0), = other.coeffs.items()
            return _scalar({k - k0: c / c0 for k, c in self.coeffs.items()})
        # general Laurent division: shift to ordinary polynomials, long-divide
        amin = min(self.coeffs)
        bmin = min(other.coeffs)
        a = {k - amin: c for k, c in self.coeffs.items()}
        b = {k - bmin: c for k, c in other.coeffs.items()}
        bdeg = max(b)
        blead = b[bdeg]
        quot: dict = {}
        rem = dict(a)
        while rem and max(rem) >= bdeg:
            rdeg = max(rem)
            q = rem[rdeg] / blead
            quot[rdeg - bdeg] = q
            for k, c in b.items():
                s = rem.get(k + rdeg - bdeg, 0) - q * c
                if s:
                    rem[k + rdeg - bdeg] = s
                else:
                    rem.pop(k + rdeg - bdeg, None)
        if rem:
            raise NotDivisible("no exact Laurent quotient")
        return _scalar({k + amin - bmin: c for k, c in quot.items()})

    # -- substitutions ----------------------------------------------------
    def eval_nu(self, value: RationalLike) -> Fraction:
        """Substitute a rational for nu (CLI-level only); raises
        ZeroDivisionError at nu = 0 when a negative power is present."""
        v = _frac(value)
        return sum((c * v**k for k, c in self.coeffs.items()), Fraction(0))

    # -- display ------------------------------------------------------------
    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = rational_to_str(self.coeffs[k])
            if k == 0:
                parts.append(c)
            elif k == 1:
                parts.append(f"{c}*nu")
            else:
                parts.append(f"{c}*nu^{k}")
        return " + ".join(parts)

    __repr__ = __str__


_ZERO = Scalar()
_ONE = Scalar({0: 1})
