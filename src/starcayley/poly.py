"""Multivariate polynomials over the exact scalar ring.

Variables live in an ordered ``VarSet``; the order is authoritative for the
symplectic pairing used by the operator layer, so it is carried explicitly
and checked on every binary operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from .scalars import Scalar


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

    def __contains__(self, name: str) -> bool:
        return name in self.names


def varset(*names: str) -> VarSet:
    return VarSet(tuple(names))


def _coerce_coeff(c) -> Scalar:
    return c if isinstance(c, Scalar) else Scalar.coerce(c)


class Poly:
    """Polynomial with Scalar coefficients and non-negative exponents."""

    __slots__ = ("vs", "terms")

    def __init__(self, vs: VarSet, terms: Mapping[Tuple[int, ...], Scalar] | None = None):
        pruned: Dict[Tuple[int, ...], Scalar] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != len(vs):
                    raise ValueError(f"exponent {tuple(e)} does not fit the variables {vs.names}")
                if not c.is_zero():
                    pruned[tuple(e)] = c
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "terms", pruned)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero(vs: VarSet) -> "Poly":
        return Poly(vs)

    @staticmethod
    def const(vs: VarSet, c) -> "Poly":
        return Poly(vs, {(0,) * len(vs): _coerce_coeff(c)})

    @staticmethod
    def var(vs: VarSet, name: str) -> "Poly":
        e = [0] * len(vs)
        e[vs.index(name)] = 1
        return Poly(vs, {tuple(e): Scalar.one()})

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    # -- ring ops -----------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.vs != other.vs:
            raise VarSetMismatch(f"{self.vs.names} vs {other.vs.names}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Scalar.zero()) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        r = Poly.__new__(Poly)
        object.__setattr__(r, "vs", self.vs)
        object.__setattr__(r, "terms", out)
        return r

    def __neg__(self) -> "Poly":
        r = Poly.__new__(Poly)
        object.__setattr__(r, "vs", self.vs)
        object.__setattr__(r, "terms", {e: -c for e, c in self.terms.items()})
        return r

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        out: Dict[Tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Scalar.zero()) + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        r = Poly.__new__(Poly)
        object.__setattr__(r, "vs", self.vs)
        object.__setattr__(r, "terms", out)
        return r

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def __radd__(self, other) -> "Poly":
        return self + Poly.const(self.vs, other)

    def __rsub__(self, other) -> "Poly":
        return (-self).__radd__(other)

    def scale(self, c) -> "Poly":
        c = _coerce_coeff(c)
        return Poly(self.vs, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        r = Poly.const(self.vs, 1)
        for _ in range(n):
            r = r * self
        return r

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.vs == other.vs and self.terms == other.terms

    def __hash__(self):
        return hash((self.vs, frozenset(self.terms.items())))

    # -- calculus --------------------------------------------------------
    def diff(self, name: str) -> "Poly":
        i = self.vs.index(name)
        out: Dict[Tuple[int, ...], Scalar] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            k = ne[i]
            ne[i] = k - 1
            ne = tuple(ne)
            s = out.get(ne, Scalar.zero()) + c * k
            if not s.is_zero():
                out[ne] = s
            else:
                out.pop(ne, None)
        return Poly(self.vs, out)

    def substitute(self, mapping: Mapping[str, "Poly"], target: VarSet) -> "Poly":
        """Replace every variable appearing in self by its image polynomial.

        All images must live over ``target``.  Ring homomorphism.
        """
        for name, img in mapping.items():
            if img.vs != target:
                raise VarSetMismatch(f"image of {name} is not over the target varset")
        result = Poly.zero(target)
        for e, c in self.terms.items():
            term = Poly.const(target, c)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                name = self.vs.names[i]
                if name not in mapping:
                    raise UnknownVariable(name)
                term = term * (mapping[name] ** k)
            result = result + term
        return result

    def flip_nu(self) -> "Poly":
        return Poly(self.vs, {e: c.flip_nu() for e, c in self.terms.items()})

    def eval_nu(self, value) -> "Poly":
        """Substitute a rational for nu in every coefficient."""
        return Poly(self.vs, {e: Scalar.of(c.eval_nu(value)) for e, c in self.terms.items()})

    # -- display ------------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
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
    from .scalars import NotDivisible

    if q.is_zero():
        return Scalar.zero() if p.is_zero() else None
    e, qc = next(iter(q.terms.items()))
    pc = p.terms.get(e, Scalar.zero())
    try:
        m = pc.div_exact(qc)
    except NotDivisible:
        return None
    return m if (p - q * m).is_zero() else None

