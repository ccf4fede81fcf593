"""Exact scalar arithmetic.

Three layers: arbitrary-precision rationals (``fractions.Fraction``),
Gaussian rationals a + b*i, and Laurent polynomials in the formal
deformation parameter nu with Gaussian-rational coefficients.  The Laurent
ring is the universal coefficient ring for everything downstream; nu is
never evaluated inside the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction

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


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i): re + im*i with exact rational parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "GaussianRational":
        return GaussianRational(_frac(re), _frac(im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return GaussianRational(self.re * _frac(other), self.im * _frac(other))

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def to_json(self) -> dict:
        return {"re": rational_to_str(self.re), "im": rational_to_str(self.im)}

    def __str__(self) -> str:
        if self.im == 0:
            return rational_to_str(self.re)
        if self.re == 0:
            return f"{rational_to_str(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({rational_to_str(self.re)} {sign} {rational_to_str(abs(self.im))}*i)"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)


class Scalar:
    """Laurent polynomial sum_k c_k nu^k with Gaussian-rational c_k.

    Immutable; zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        pruned = {}
        if coeffs:
            for k, c in coeffs.items():
                if not c.is_zero():
                    pruned[k] = c
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
    def of(re: RationalLike, im: RationalLike = 0) -> "Scalar":
        return Scalar({0: GaussianRational.of(re, im)})

    @staticmethod
    def i() -> "Scalar":
        return _I

    @staticmethod
    def nu(k: int = 1, coeff: RationalLike = 1) -> "Scalar":
        """coeff * nu^k (k may be negative)."""
        return Scalar({k: GaussianRational.of(coeff)})

    @staticmethod
    def from_gaussian(g: GaussianRational, k: int = 0) -> "Scalar":
        return Scalar({k: g})

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.of(x)
        if isinstance(x, GaussianRational):
            return Scalar.from_gaussian(x)
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
            s = out.get(k, GR_ZERO) + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        r = Scalar.__new__(Scalar)
        object.__setattr__(r, "coeffs", out)
        return r

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        r = Scalar.__new__(Scalar)
        object.__setattr__(r, "coeffs", {k: -c for k, c in self.coeffs.items()})
        return r

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
                p = c1 * c2
                s = out.get(k, GR_ZERO) + p
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        r = Scalar.__new__(Scalar)
        object.__setattr__(r, "coeffs", out)
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            raise ValueError("use div_exact for negative powers")
        r = _ONE
        for _ in range(n):
            r = r * self
        return r

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            try:
                other = Scalar.coerce(other)
            except TypeError:
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a real constant equals its Fraction, so it must hash like it
        c0 = self.coeffs.get(0, GR_ZERO)
        if self.coeffs.keys() <= {0} and c0.im == 0:
            return hash(c0.re)
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
            inv = c0.inverse()
            return Scalar({k - k0: c * inv for k, c in self.coeffs.items()})
        # general Laurent division: shift to ordinary polynomials, long-divide
        amin = min(self.coeffs)
        bmin = min(other.coeffs)
        a = {k - amin: c for k, c in self.coeffs.items()}
        b = {k - bmin: c for k, c in other.coeffs.items()}
        bdeg = max(b)
        blead = b[bdeg]
        blead_inv = blead.inverse()
        quot: dict = {}
        rem = dict(a)
        while rem and max(rem) >= bdeg:
            rdeg = max(rem)
            q = rem[rdeg] * blead_inv
            quot[rdeg - bdeg] = q
            for k, c in b.items():
                s = rem.get(k + rdeg - bdeg, GR_ZERO) - q * c
                if s.is_zero():
                    rem.pop(k + rdeg - bdeg, None)
                else:
                    rem[k + rdeg - bdeg] = s
        if rem:
            raise NotDivisible("no exact Laurent quotient")
        return Scalar({k + amin - bmin: c for k, c in quot.items()})

    # -- substitutions ----------------------------------------------------
    def flip_nu(self) -> "Scalar":
        """The ring automorphism nu -> -nu."""
        return Scalar({k: (c if k % 2 == 0 else -c) for k, c in self.coeffs.items()})

    def eval_nu(self, value: RationalLike) -> GaussianRational:
        """Substitute a nonzero rational for nu (CLI-level only)."""
        v = _frac(value)
        total = GR_ZERO
        for k, c in self.coeffs.items():
            if k >= 0:
                total = total + c * (v ** k)
            else:
                if v == 0:
                    raise ZeroDivisionError("nu = 0 with negative exponents")
                total = total + c * (Fraction(1) / (v ** (-k)))
        return total

    # -- serialization / display ------------------------------------------
    def to_json(self) -> dict:
        return {str(k): c.to_json() for k, c in sorted(self.coeffs.items())}

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*nu")
            else:
                parts.append(f"{c}*nu^{k}")
        return " + ".join(parts)

    __repr__ = __str__


_ZERO = Scalar()
_ONE = Scalar({0: GR_ONE})
_I = Scalar({0: GR_I})
