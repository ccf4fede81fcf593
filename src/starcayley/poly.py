"""Multivariate polynomials over rational Laurent polynomials in nu.

Variables live in an ordered ``VarSet``, checked on every binary
operation, which also fixes the layout of the packed term keys.  As in
FLINT's fmpq_poly, ``Poly.terms`` maps each key, one int holding the
exponents and the power of nu, to a nonzero ``int`` numerator over one
positive ``Poly.den``, with gcd(den, *numerators) = 1, so ``==`` and
``hash`` are exact; Fractions are formed only to read a coefficient out
and to display it.  ``Scalar``, the Laurent polynomial in nu, is the Poly
over no variables.  Every pairwise check is a pass over (index, residual
numerator) rows that ``tally`` sums into a ``Tally``, and every measured
constant is the c of x = c y that ``proportion`` reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

def rational_to_str(x) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


class VarSetMismatch(ValueError):
    """Binary operation on polynomials over different variable sets."""


class UnknownVariable(KeyError):
    pass


@dataclass(frozen=True)
class VarSet:
    """Ordered variable names, and the layout of the packed term keys.

    A key is one int of fields ``width`` bits wide, lowest first: a Poly
    key holds the n exponents and the nu-power plus ``nu_offset``; an
    operator key holds the n derivative exponents and above them a Poly
    key.  A stored field lies in [0, 2^(width-1)), so a product, the sum of
    two keys less ``one`` (the key of 1), is exact field by field, and the
    nu field, on top, at any value; ``invalid`` masks what a stored Poly or
    operator key must not hold.  A field is 1, 2, 4 or 8 bytes, the widest
    that keeps a Poly key within 64 bits."""

    names: Tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        n = len(self.names)
        size = max(1, 8 >> n.bit_length())
        w, code = 8 * size, "<%d" + {1: "B", 2: "H", 4: "I", 8: "Q"}[size]
        free = [sum(((1 << w - 1) - 1) << w * i for i in range(k)) for k in (n + 1, 2 * n + 1)]
        for name, value in dict(
            width=w, code=code, fmt=code % n, nu_shift=w * n,
            nu_offset=1 << w - 2, one=1 << w - 2 << w * n, mono=(1 << w * n) - 1,
            invalid=(~free[0], ~free[1]),
        ).items():
            object.__setattr__(self, name, value)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(name) from None

    def __len__(self) -> int:
        return len(self.names)

    def nu(self, key: int) -> int:
        """The nu-power of a Poly key."""
        return (key >> self.nu_shift) - self.nu_offset

    def pack(self, fields: Sequence[int]) -> int:
        """The key of a Poly's fields, exponents and nu-power, or an
        operator's, derivative exponents first; raises OverflowError, naming
        the field, outside the range."""
        stored = (*fields[:-1], fields[-1] + self.nu_offset)
        top = 1 << self.width - 1
        if min(stored) < 0 or max(stored) >= top:
            labels = [f"d_{x}" for x in self.names] * (len(fields) > len(self) + 1)
            f, x = next((f, x) for f, x, v in zip(fields, labels + [*self.names, "nu"], stored)
                        if not 0 <= v < top)
            raise OverflowError(f"{x} = {f} leaves the {self.width}-bit key fields of {self.names}")
        return int.from_bytes(struct.pack(self.code % len(stored), *stored), "little")

    def exps(self, key: int) -> Tuple[int, ...]:
        """The n lowest fields of key: a Poly key's exponents, or an
        operator key's derivative exponents."""
        return struct.unpack(self.fmt, (key & self.mono).to_bytes(self.nu_shift // 8, "little"))


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


def numerators(vectors: Iterable[Mapping]) -> Tuple[List[dict], int]:
    """The sparse rational vectors as dicts of their nonzero entries' integer
    numerators over one common denominator, and that denominator."""
    vectors = list(vectors)
    d = lcm(*(x.denominator for v in vectors for x in v.values()))
    return [{k: x.numerator * (d // x.denominator) for k, x in v.items() if x} for v in vectors], d


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


def canonical(terms: dict, den: int) -> Tuple[dict, int]:
    """Numerators over den in canonical form: zero values dropped and the
    common factor of den and the numerators divided out.  The dict is
    handed over and may be returned as it is."""
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            den //= g
    return terms, den


def mul_add(acc: dict, t1: dict, t2: dict, one: int, factor: int = 1) -> dict:
    """Add factor t1 t2 into the term dict acc, for Poly keys whose key of 1
    is one (``VarSet.one``); acc may be left with zero values.  Returns acc."""
    for e1, c1 in t1.items():
        e1 -= one
        if factor != 1:
            c1 *= factor
        for e2, c2 in t2.items():
            e = e1 + e2
            if e in acc:
                acc[e] += c1 * c2
            else:
                acc[e] = c1 * c2
    return acc


def diff_terms(terms: dict, vs: VarSet, i: int) -> dict:
    """The numerators of the derivative in the variable at index i, over the
    same denominator; lowering one nonzero field is injective on the terms
    kept."""
    shift = vs.width * i
    unit, field = 1 << shift, ((1 << vs.width) - 1) << shift
    out = {}
    for e, c in terms.items():
        x = e & field
        if x:
            out[e - unit] = c * (x >> shift)
    return out


def bilinear(table: Mapping, den: int, x: Sequence, y: Sequence, size: int) -> List["Poly"]:
    """The sum over (i, j) of x_i y_j table[(i, j)] / den, a vector of size
    Polys, for a table {(i, j): {k: integer numerator}} and vectors of
    Polys over one varset or of rationals, at least one of Polys.  Each
    vector is brought to one denominator, each x_i y_j formed once, on
    numerators, and each entry divided once."""
    vs = next(c.vs for c in (*x, *y) if isinstance(c, Poly))

    def numerators(v):
        # a rational c as the constant c.numerator over c.denominator
        ps = [(i, c if isinstance(c, Poly) else Poly._new(vs, {vs.one: c.numerator}, c.denominator))
              for i, c in enumerate(v) if (c.terms if isinstance(c, Poly) else c)]
        d = lcm(*(p.den for _, p in ps))
        return [(i, p.over(d)) for i, p in ps], d

    (xs, dx), (ys, dy) = numerators(x), numerators(y)
    acc = bilinear_terms(table, xs, ys, vs.one)
    zero, den = Poly._new(vs, {}), den * dx * dy
    return [Poly._reduced(vs, acc[k], den) if k in acc else zero for k in range(size)]


def bilinear_terms(table: Mapping, xs: list, ys: list, one: int) -> Dict[int, dict]:
    """{k: sum of table[(i, j)][k] x_i y_j} over the pairs (i, x_i) of xs
    and (j, y_j) of ys, term dicts of Poly keys whose 1 is one."""
    acc: Dict[int, dict] = {}
    for i, xi in xs:
        for j, yj in ys:
            row = table.get((i, j))
            if row:
                prod = mul_add({}, xi, yj, one)
                for k, s in row.items():
                    lincomb(((s, prod),), acc.setdefault(k, {}))
    return acc


class FlatTerms:
    """The ring structure that Poly and WeylOperator share: a variable set
    ``vs``, a flat dict ``terms`` from packed keys (``VarSet``) to nonzero
    integer numerators, and their one positive denominator ``den``, in the
    canonical form of ``canonical``.  No operation changes an instance.
    ``_pack`` and ``_unpack`` convert a key to and from its tuple form."""

    __slots__ = ("vs", "terms", "den")
    _OPERATOR = False

    def __init__(self, vs: VarSet, terms: Mapping | None = None):
        """From {tuple key: int or Fraction} over the lcm of the denominators, a canonical form."""
        self.vs, ((self.terms,), self.den) = vs, numerators([{
            self._pack(vs, k): exact(c) for k, c in (terms or {}).items()}])

    @classmethod
    def _new(cls, vs: VarSet, terms: dict, den: int = 1):
        """An instance over already validated, canonical numerators."""
        r = cls.__new__(cls)
        r.vs, r.terms, r.den = vs, terms, den
        return r

    @classmethod
    def _reduced(cls, vs: VarSet, terms: dict, den: int):
        """An instance over numerators put in canonical form; raises
        OverflowError when a key kept leaves the range of ``VarSet``.  A sum
        or a rational multiple, whose keys are stored keys, skips the test."""
        terms, den = canonical(terms, den)
        if reduce(or_, terms, 0) & vs.invalid[cls._OPERATOR]:
            for k in terms:
                cls._pack(vs, cls._unpack(vs, k))
        return cls._new(vs, terms, den)

    def _check(self, other):
        if self.vs is not other.vs and self.vs != other.vs:
            raise VarSetMismatch(f"{self.vs.names} vs {other.vs.names}")

    def is_zero(self) -> bool:
        return not self.terms

    def over(self, den: int) -> dict:
        """The numerators of self over den, a multiple of ``self.den``; the
        dict may be ``self.terms`` itself, so it must not be changed."""
        f = den // self.den
        return self.terms if f == 1 else {k: c * f for k, c in self.terms.items()}

    def rationals(self) -> dict:
        """{key: coefficient}, each read out as a Fraction."""
        return {k: Fraction(c, self.den) for k, c in self.terms.items()}

    def __add__(self, other):
        if not isinstance(other, FlatTerms) or other._OPERATOR is not self._OPERATOR:
            return NotImplemented
        self._check(other)
        if not other.terms:
            return self
        if not self.terms and type(other) is type(self):
            return other
        den = lcm(self.den, other.den)
        out = dict(self.over(den))
        for k, c in other.over(den).items():
            out[k] = out[k] + c if k in out else c
        return self._new(self.vs, *canonical(out, den))

    def __neg__(self):
        return self._new(self.vs, {k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """self times c, a rational or a Scalar."""
        if isinstance(c, Scalar):
            # the key of nu^k is k units of the nu field, the key of 1 zero
            unit = 1 << self.vs.nu_shift * (1 + self._OPERATOR)
            shifts = {NO_VARS.nu(s) * unit: cs for s, cs in c.terms.items()}
            return self._reduced(self.vs, mul_add({}, shifts, self.terms, 0), self.den * c.den)
        c = exact(c)
        num, den = c.numerator, c.denominator
        if den == 1 and num in (0, 1):
            return self if num else self._new(self.vs, {})
        return self._new(self.vs, *canonical({k: v * num for k, v in self.terms.items()}, self.den * den))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return False if isinstance(other, FlatTerms) else NotImplemented
        return (self.vs, self.den, self.terms) == (other.vs, other.den, other.terms)

    def __hash__(self):
        return hash((self.vs, frozenset(self.terms.items()), self.den))


class Poly(FlatTerms):
    """Polynomial in the variables of ``vs`` with flat terms {packed key of
    exponents + (nu-power,): nonzero numerator} over ``den``."""

    __slots__ = ()

    @staticmethod
    def _pack(vs: VarSet, e: Tuple[int, ...]) -> int:
        if len(e) != len(vs) + 1:
            raise ValueError(f"key {e} does not fit {vs.names} and a nu-power")
        return vs.pack(e)

    @staticmethod
    def _unpack(vs: VarSet, key: int) -> Tuple[int, ...]:
        return (*vs.exps(key), vs.nu(key))

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero(vs: VarSet) -> "Poly":
        return Poly._new(vs, {})

    @staticmethod
    def const(vs: VarSet, c) -> "Poly":
        """The constant c, a rational or a Scalar."""
        return Poly._new(vs, {vs.one: 1}).scale(c)

    @staticmethod
    def var(vs: VarSet, name: str) -> "Poly":
        return Poly._new(vs, {vs.one + (1 << vs.width * vs.index(name)): 1})

    # -- accessors --------------------------------------------------------------
    def total_degree(self) -> int:
        return max(map(sum, map(self.vs.exps, self.terms)), default=0)

    # -- ring ops -----------------------------------------------------------
    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly) or isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        prod = mul_add({}, self.terms, other.terms, self.vs.one)
        return self._reduced(self.vs, prod, self.den * other.den)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def __add__(self, other) -> "Poly":
        # a rational operand, or a Scalar one of a non-Scalar, is a constant, as under *
        if not isinstance(other, Poly) or type(other) is Scalar and type(self) is not Scalar:
            other = Poly.const(self.vs, other)
        return FlatTerms.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other) -> "Poly":
        return (-self).__radd__(other)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        r = self._new(self.vs, {self.vs.one: 1})
        for _ in range(n):
            r = r * self
        return r

    # -- calculus --------------------------------------------------------
    def diff(self, name: str) -> "Poly":
        return self._reduced(self.vs, diff_terms(self.terms, self.vs, self.vs.index(name)), self.den)

    def substitute(self, mapping: Mapping[str, "Poly"], target: VarSet) -> "Poly":
        """Replace every variable appearing in self by its image polynomial.

        All images must live over ``target``.  Ring homomorphism.
        """
        for name, img in mapping.items():
            if img.vs != target:
                raise VarSetMismatch(f"image of {name} is not over the target varset")
        result = Poly.zero(target)
        for e, c in self.terms.items():
            *exps, nu = self._unpack(self.vs, e)
            term = Poly._reduced(target, {target.one + (nu << target.nu_shift): c}, self.den)
            for i, k in enumerate(exps):
                if k == 0:
                    continue
                name = self.vs.names[i]
                if name not in mapping:
                    raise UnknownVariable(name)
                term = term * (mapping[name] ** k)
            result = result + term
        return result

    def eval_nu(self, value) -> "Poly":
        """Substitute a rational for nu in every coefficient; a Poly."""
        v, vs = Fraction(exact(value)), self.vs
        out: dict = {}
        for e, c in self.terms.items():
            k = (e & vs.mono) + vs.one
            out[k] = out.get(k, 0) + c * v ** vs.nu(e)
        return Poly(vs, {self._unpack(vs, k): x / self.den for k, x in out.items()})

    # -- display ------------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        monos: Dict[Tuple[int, ...], dict] = {}
        for e, c in self.terms.items():
            monos.setdefault(self.vs.exps(e), {})[NO_VARS.one + self.vs.nu(e)] = c
        parts = []
        for e in sorted(monos, key=lambda t: (sum(t), t), reverse=True):
            c = Scalar._reduced(NO_VARS, monos[e], self.den)
            names = self.vs.names
            mono = "*".join(f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k)
            cs = f"({c})" if len(c.terms) > 1 else str(c)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    __repr__ = __str__


class Scalar(Poly):
    """Laurent polynomial sum_k c_k nu^k with rational c_k: the Poly over no
    variables, with terms {key of nu^k: c_k den} over den, the key
    ``NO_VARS.one + k``.  Its ring operations
    are Poly's; it adds int and Fraction operands, equality and hashing
    with rationals, evaluation at a rational nu and its own display."""

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
        """The rational c, built in canonical form."""
        c = exact(c)
        return Scalar._new(NO_VARS, {NO_VARS.one: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def nu(k: int = 1, coeff=1) -> "Scalar":
        """coeff * nu^k (k may be negative), built in canonical form; the
        range test of ``_reduced`` rejects a k outside the nu field."""
        c = exact(coeff)
        return Scalar._reduced(NO_VARS, {NO_VARS.one + k: c.numerator} if c else {}, c.denominator)

    @property
    def coeffs(self) -> Mapping[int, Fraction]:
        """Read-only view {nu-power: nonzero Fraction}."""
        return MappingProxyType({NO_VARS.nu(k): c for k, c in self.rationals().items()})

    # -- ring operations, with rational operands ------------------------
    def __add__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return super().__add__(other)

    __radd__ = __add__

    def __mul__(self, other) -> "Scalar":
        return self.scale(other) if isinstance(other, (int, Fraction, Scalar)) else NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return self.den == other.denominator and self.terms == ({NO_VARS.one: n} if n else {})
        return FlatTerms.__eq__(self, other) if isinstance(other, Scalar) else NotImplemented

    def __hash__(self):
        # a constant equals its rational, so it must hash like it
        if self.terms.keys() <= {NO_VARS.one}:
            c = self.terms.get(NO_VARS.one, 0)
            return hash(c if self.den == 1 else Fraction(c, self.den))
        return super().__hash__()

    # -- evaluation ------------------------------------------------------------
    def eval_nu(self, value) -> Fraction:
        """Substitute a rational for nu (CLI-level only); raises
        ZeroDivisionError at nu = 0 when a negative power is present."""
        r = super().eval_nu(value)
        return Fraction(r.terms.get(NO_VARS.one, 0), r.den)

    # -- display ------------------------------------------------------------
    def __str__(self) -> str:
        parts = []
        for k, c in sorted(((NO_VARS.nu(k), c) for k, c in self.terms.items()), reverse=True):
            c = rational_to_str(Fraction(c, self.den))
            parts.append(c if k == 0 else f"{c}*nu" if k == 1 else f"{c}*nu^{k}")
        return " + ".join(parts) or "0"

    __repr__ = __str__


_ZERO = Scalar()
_ONE = Scalar({0: 1})


def abs_numerator(p: FlatTerms, den: int) -> int:
    """den times the sum of |c| over the (monomial, nu-power) coefficients c
    of p, as an int; den is a multiple of p.den."""
    return sum(map(abs, p.terms.values())) * (den // p.den)


class Tally(NamedTuple):
    """One pass of a check: the summed residual, the number of failing rows
    and the first failing (index, residual), or None."""

    residual: Fraction
    failures: int
    first: Optional[tuple]

    def witness(self, names: str) -> Optional[str]:
        """The first failing row as report text, its index named by names;
        None when no row failed."""
        return self.first and f"first failing {names} = {self.first[0]}, residual {self.first[1]}"


def tally(rows: Iterable[tuple], den: int = 1) -> Tally:
    """The Tally of (index, residual) rows, each residual an int numerator
    over den: the numerators are summed, the nonzero rows counted and the
    first kept, and Fractions formed only at the end."""
    total = failures = 0
    first = None
    for index, r in rows:
        if r:
            total += r
            failures += 1
            first = first or (index, r)
    return Tally(Fraction(total, den), failures, first and (first[0], Fraction(first[1], den)))


def proportion(rows: Iterable[tuple]) -> Tuple[Optional[Scalar], Tally]:
    """The Scalar c with x = c y on every (index, x, y) row, x and y Polys
    over one varset or Scalars, every divisor y free of nu: returns c, or
    None when some row fails, and the Tally of |x - c y| over the rows.

    Rows with x and y both zero are dropped.  c is read at the first term
    of the first nonzero y, as x's coefficients there over y's rational, so
    no Laurent division is needed; c = 0 when every y is zero.  Raises
    ValueError if that y depends on nu."""
    rows = [r for r in rows if r[1].terms or r[2].terms]
    c, lifted = Scalar.zero(), {}
    ref = next(((x, y) for _, x, y in rows if y.terms), None)
    if ref:
        x, y = ref
        vs = y.vs
        if any(k >> vs.nu_shift != vs.nu_offset for k in y.terms):
            raise ValueError(f"the divisor {y} depends on nu")
        e, b = next(iter(y.terms.items()))
        at_e = {NO_VARS.one + vs.nu(k): v for k, v in x.terms.items() if k & vs.mono == e & vs.mono}
        c = Scalar._reduced(NO_VARS, at_e, x.den).scale(Fraction(y.den, b))
        lifted = {vs.one + (NO_VARS.nu(k) << vs.nu_shift): v for k, v in c.terms.items()}
    L = lcm(*(x.den for _, x, _ in rows), *(c.den * y.den for _, _, y in rows))

    def residuals():
        for i, x, y in rows:
            acc = mul_add(dict(x.over(L)), y.terms, lifted, y.vs.one, -(L // (c.den * y.den)))
            yield i, sum(map(abs, acc.values()))

    t = tally(residuals(), L)
    return (None if t.failures else c), t
