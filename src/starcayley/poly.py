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
like any other exponent.  ``Scalar`` is the public Laurent scalar;
``Poly.coeff`` returns the coefficient of one monomial as a Scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Dict, Mapping, Tuple

from .scalars import NotDivisible, Scalar

Key = Tuple[int, ...]


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


def exact(c):
    """c as an exact rational, an int when integral; raises TypeError on
    anything else (a float, a bool, a Scalar)."""
    if type(c) not in (int, Fraction):
        raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def pruned(terms: dict) -> dict:
    """The entries of terms with a nonzero value, integral ones as int."""
    return {k: exact(c) for k, c in terms.items() if c}


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


def scale_terms(terms: dict, c, shift: Callable[[tuple, int], tuple]) -> dict:
    """terms times c, a rational or a Scalar; ``shift(key, k)`` is the key
    multiplied by nu^k."""
    if not isinstance(c, Scalar):
        c = exact(c)
        return pruned({k: v * c for k, v in terms.items()}) if c else {}
    out: dict = {}
    for s, cs in c.coeffs.items():
        cs = exact(cs)
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
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                if e in out:
                    out[e] += c1 * c2
                else:
                    out[e] = c1 * c2
        return self._new(self.vs, pruned(out))

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def __radd__(self, other) -> "Poly":
        return self + Poly.const(self.vs, other)

    def __rsub__(self, other) -> "Poly":
        return (-self).__radd__(other)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        r = Poly.const(self.vs, 1)
        for _ in range(n):
            r = r * self
        return r

    # -- calculus --------------------------------------------------------
    def diff(self, name: str) -> "Poly":
        # lowering one exponent is injective on the terms it keeps
        i = self.vs.index(name)
        terms = self.terms.items()
        return Poly._new(
            self.vs, {e[:i] + (e[i] - 1,) + e[i + 1 :]: exact(c * e[i]) for e, c in terms if e[i]}
        )

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

    def flip_nu(self) -> "Poly":
        return self._new(self.vs, {e: -c if e[-1] % 2 else c for e, c in self.terms.items()})

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
            if len(c.coeffs) > 1:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    __repr__ = __str__


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
