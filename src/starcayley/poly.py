"""Multivariate polynomials over rational Laurent polynomials in nu.

Variables live in an ordered ``VarSet``; the order is authoritative for the
symplectic pairing used by the operator layer, so it is carried explicitly
and checked on every binary operation.

The coefficient ring is flat.  ``Poly.terms`` maps each key, the exponents
of the variables followed by the power of nu, to a nonzero exact rational:
an ``int`` when it is integral, a ``Fraction`` otherwise.  The two compare
and hash equal, so the split is invisible to every identity; it exists
because integer arithmetic is several times cheaper, and each operation
stores an integral result as an ``int``.  Carrying nu as a trailing
exponent, which may be negative, lets products and derivatives treat it
like any other exponent.  ``Scalar``, the Laurent polynomial in nu, is
the Poly over no variables, with keys (nu-power,); ``Poly.coeff`` returns
the coefficient of one monomial as a Scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Tuple

Key = Tuple[int, ...]


class NotDivisible(ArithmeticError):
    """No exact quotient exists in the Laurent ring."""


def rational_to_str(x) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


class VarSetMismatch(ValueError):
    """Binary operation on polynomials over different variable sets."""


class UnknownVariable(KeyError):
    pass


@dataclass(frozen=True)
class VarSet:
    names: Tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(name) from None

    def __len__(self) -> int:
        return len(self.names)


def varset(*names: str) -> VarSet:
    return VarSet(tuple(names))


NO_VARS = VarSet(())


def exact(c):
    """c as an exact rational, an int when integral; raises TypeError on
    anything else (a float, a bool, a Scalar)."""
    if type(c) not in (int, Fraction):
        raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def ratio(num: int, den: int):
    """num / den exactly, an int when den divides num."""
    return num // den if num % den == 0 else Fraction(num, den)


def pruned(terms: dict) -> dict:
    """The entries of terms with a nonzero value, integral ones as int."""
    return {k: exact(c) for k, c in terms.items() if c}


def lincomb(pairs, acc: dict | None = None) -> dict:
    """acc plus the sum of c t over the pairs (c, t), each t a sparse dict,
    with acc updated in place and returned; it may be left with zero
    values.  The values need only * and +, so Poly coefficients work."""
    acc = {} if acc is None else acc
    for c, t in pairs:
        for k, x in t.items():
            acc[k] = acc[k] + c * x if k in acc else c * x
    return acc


def add_terms(t1: dict, t2: dict) -> dict:
    out = dict(t1)
    for k, c in t2.items():
        if k in out:
            s = out[k] + c
            if s:
                out[k] = exact(s)
            else:
                del out[k]
        else:
            out[k] = c
    return out


def mul_add(acc: dict, t1: dict, t2: dict, sign: int = 1) -> dict:
    """Add sign t1 t2, for sign = 1 or -1, into the term dict acc, whose
    keys add entry by entry; acc may be left with zero or integral
    ``Fraction`` values.  Returns acc."""
    for e1, c1 in t1.items():
        if sign < 0:
            c1 = -c1
        for e2, c2 in t2.items():
            e = tuple(map(add, e1, e2))
            if e in acc:
                acc[e] += c1 * c2
            else:
                acc[e] = c1 * c2
    return acc


def mul_terms(t1: dict, t2: dict) -> dict:
    """The product of two Poly term dicts."""
    return pruned(mul_add({}, t1, t2))


def diff_terms(terms: dict, i: int) -> dict:
    """The term dict of the derivative in the variable at index i; lowering
    one exponent is injective on the terms it keeps."""
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: exact(c * e[i]) for e, c in terms.items() if e[i]}


def gradient(p: "Poly") -> List[dict]:
    """The term dicts of the derivatives of p in the variables of ``p.vs``."""
    return [diff_terms(p.terms, i) for i in range(len(p.vs))]


def scale_terms(terms: dict, c, shift: Callable[[tuple, int], tuple]) -> dict:
    """terms times c, a rational or a Scalar; ``shift(key, k)`` is the key
    multiplied by nu^k."""
    if not isinstance(c, Scalar):
        c = exact(c)
        return pruned({k: v * c for k, v in terms.items()}) if c else {}
    out: dict = {}
    for (s,), cs in c.terms.items():
        for k, v in terms.items():
            k = shift(k, s)
            out[k] = out[k] + v * cs if k in out else v * cs
    return pruned(out)


class FlatTerms:
    """The ring structure that Poly and WeylOperator share: a variable set
    ``vs`` and a flat dict ``terms`` from keys carrying the nu-power to
    nonzero exact rationals.  No operation changes an instance."""

    __slots__ = ("vs", "terms")

    def __init__(self, vs: VarSet, terms: Mapping | None = None):
        out = {}
        for key, c in (terms or {}).items():
            if not self._fits(key, len(vs)):
                raise ValueError(f"key {key} does not fit {vs.names} and a nu-power")
            c = exact(c)
            if c:
                out[key] = c
        self.vs, self.terms = vs, out

    @classmethod
    def _new(cls, vs: VarSet, terms: dict):
        """An instance over an already validated and pruned term dict."""
        r = cls.__new__(cls)
        r.vs, r.terms = vs, terms
        return r

    def _check(self, other):
        if self.vs is not other.vs and self.vs != other.vs:
            raise VarSetMismatch(f"{self.vs.names} vs {other.vs.names}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        return self._new(self.vs, add_terms(self.terms, other.terms))

    def __neg__(self):
        return self._new(self.vs, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """self times c, a rational or a Scalar."""
        return self._new(self.vs, scale_terms(self.terms, c, self._shift))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.vs == other.vs and self.terms == other.terms

    def __hash__(self):
        return hash((self.vs, frozenset(self.terms.items())))


class Poly(FlatTerms):
    """Polynomial in the variables of ``vs`` with flat terms
    {exponents + (nu-power,): nonzero rational}."""

    __slots__ = ()

    @staticmethod
    def _fits(e: Key, n: int) -> bool:
        return len(e) == n + 1

    @staticmethod
    def _shift(e: Key, k: int) -> Key:
        return e[:-1] + (e[-1] + k,)

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero(vs: VarSet) -> "Poly":
        return Poly._new(vs, {})

    @staticmethod
    def const(vs: VarSet, c) -> "Poly":
        """The constant c, a rational or a Scalar."""
        return Poly._new(vs, {(0,) * (len(vs) + 1): 1}).scale(c)

    @staticmethod
    def var(vs: VarSet, name: str) -> "Poly":
        e = [0] * (len(vs) + 1)
        e[vs.index(name)] = 1
        return Poly._new(vs, {tuple(e): 1})

    # -- accessors --------------------------------------------------------------
    def total_degree(self) -> int:
        return max((sum(e) - e[-1] for e in self.terms), default=0)

    def coeff(self, mono: Key) -> Scalar:
        """The coefficient of the monomial with exponents ``mono``, as a Scalar."""
        return Scalar({e[-1]: c for e, c in self.terms.items() if e[:-1] == mono})

    # -- ring ops -----------------------------------------------------------
    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly) or isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        return self._new(self.vs, mul_terms(self.terms, other.terms))

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def __add__(self, other) -> "Poly":
        # a Scalar operand is a constant, in either order, as under *
        if other.vs is not self.vs and isinstance(other, Scalar) and not isinstance(self, Scalar):
            other = Poly.const(self.vs, other)
        return FlatTerms.__add__(self, other)

    def __radd__(self, other) -> "Poly":
        return self + Poly.const(self.vs, other)

    def __rsub__(self, other) -> "Poly":
        return (-self).__radd__(other)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        r = self._new(self.vs, {(0,) * (len(self.vs) + 1): 1})
        for _ in range(n):
            r = r * self
        return r

    # -- calculus --------------------------------------------------------
    def diff(self, name: str) -> "Poly":
        return Poly._new(self.vs, diff_terms(self.terms, self.vs.index(name)))

    def substitute(self, mapping: Mapping[str, "Poly"], target: VarSet) -> "Poly":
        """Replace every variable appearing in self by its image polynomial.

        All images must live over ``target``.  Ring homomorphism.
        """
        for name, img in mapping.items():
            if img.vs != target:
                raise VarSetMismatch(f"image of {name} is not over the target varset")
        result = Poly.zero(target)
        for e, c in self.terms.items():
            term = Poly._new(target, {(0,) * len(target) + e[-1:]: c})
            for i, k in enumerate(e[:-1]):
                if k == 0:
                    continue
                name = self.vs.names[i]
                if name not in mapping:
                    raise UnknownVariable(name)
                term = term * (mapping[name] ** k)
            result = result + term
        return result

    def eval_nu(self, value) -> "Poly":
        """Substitute a rational for nu in every coefficient."""
        v = Fraction(exact(value))
        out: dict = {}
        for e, c in self.terms.items():
            k = e[:-1] + (0,)
            out[k] = out.get(k, 0) + c * v ** e[-1]
        return self._new(self.vs, pruned(out))

    # -- display ------------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        monos: Dict[Key, dict] = {}
        for e, c in self.terms.items():
            monos.setdefault(e[:-1], {})[e[-1]] = c
        parts = []
        for e in sorted(monos, key=lambda t: (sum(t), t), reverse=True):
            c = Scalar(monos[e])
            mono = "*".join(
                f"{self.vs.names[i]}^{k}" if k > 1 else self.vs.names[i]
                for i, k in enumerate(e)
                if k > 0
            )
            cs = str(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    __repr__ = __str__


class Scalar(Poly):
    """Laurent polynomial sum_k c_k nu^k with rational c_k: the Poly over no
    variables, with terms {(k,): c_k}.  Its ring operations are Poly's; it
    adds int and Fraction operands, equality and hashing with rationals,
    exact division, evaluation at a rational nu and its own display."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping | None = None):
        super().__init__(NO_VARS, {(k,): c for k, c in (coeffs or {}).items()})

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def of(c) -> "Scalar":
        return Scalar({0: c})

    @staticmethod
    def nu(k: int = 1, coeff=1) -> "Scalar":
        """coeff * nu^k (k may be negative)."""
        return Scalar({k: coeff})

    @property
    def coeffs(self) -> Mapping[int, Fraction]:
        """Read-only view {nu-power: nonzero Fraction}."""
        return MappingProxyType({k: Fraction(c) for (k,), c in self.terms.items()})

    # -- ring operations, with rational operands ------------------------
    def __add__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return super().__add__(other)

    __radd__ = __add__

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Scalar):
            return self._new(NO_VARS, mul_terms(self.terms, other.terms))
        return NotImplemented

    def __rmul__(self, other) -> "Scalar":
        # p * s for a Poly p over variables is Poly.__mul__'s scaling, not a
        # product of Scalars
        return NotImplemented if isinstance(other, Poly) else self * other

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(0,): other} if other else {})
        return self.terms == other.terms if isinstance(other, Scalar) else NotImplemented

    def __hash__(self):
        # a constant equals its rational, so it must hash like it
        if self.terms.keys() <= {(0,)}:
            return hash(self.terms.get((0,), 0))
        return super().__hash__()

    # -- division and evaluation ---------------------------------------------
    def div_exact(self, other: "Scalar") -> "Scalar":
        """Exact quotient q with q*other == self, else NotDivisible: long
        division after shifting both to ordinary polynomials in nu."""
        a, b = self.coeffs, other.coeffs
        if not b:
            raise ZeroDivisionError("division by zero Scalar")
        amin, bmin = min(a, default=0), min(b)
        rem = {k - amin: c for k, c in a.items()}
        b = {k - bmin: c for k, c in b.items()}
        bdeg = max(b)
        quot: dict = {}
        while rem and max(rem) >= bdeg:
            rdeg = max(rem)
            q = quot[rdeg - bdeg] = rem[rdeg] / b[bdeg]
            for k, c in b.items():
                s = rem.get(k + rdeg - bdeg, 0) - q * c
                if s:
                    rem[k + rdeg - bdeg] = s
                else:
                    rem.pop(k + rdeg - bdeg, None)
        if rem:
            raise NotDivisible("no exact Laurent quotient")
        return Scalar({k + amin - bmin: c for k, c in quot.items()})

    def eval_nu(self, value) -> Fraction:
        """Substitute a rational for nu (CLI-level only); raises
        ZeroDivisionError at nu = 0 when a negative power is present."""
        return Fraction(super().eval_nu(value).terms.get((0,), 0))

    # -- display ------------------------------------------------------------
    def __str__(self) -> str:
        parts = []
        for (k,), c in sorted(self.terms.items(), reverse=True):
            c = rational_to_str(c)
            parts.append(c if k == 0 else f"{c}*nu" if k == 1 else f"{c}*nu^{k}")
        return " + ".join(parts) or "0"

    __repr__ = __str__


_ZERO = Scalar()
_ONE = Scalar({0: 1})


def scalar_ratio(p: "Poly", q: "Poly"):
    """The unique Scalar m with p = q * m, or None if no exact ratio exists.

    For q = 0 the ratio exists (conventionally 0) only when p = 0.
    """
    if q.is_zero():
        return Scalar.zero() if p.is_zero() else None
    mono = next(iter(q.terms))[:-1]
    try:
        m = p.coeff(mono).div_exact(q.coeff(mono))
    except NotDivisible:
        return None
    return m if (p - q * m).is_zero() else None
