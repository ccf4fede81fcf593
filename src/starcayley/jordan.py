"""Euclidean Jordan algebras from structure constants.

Built-in instances (rank one, spin factors, real symmetric matrices), a
generic loader, symbolic validation of the axioms, and the standard
operators: left multiplication L, trace form tau, box operator (the
matrix of the triple product), quadratic representation.  Element
coordinates may be Fractions or Polys, so the same code runs numerically
and symbolically.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .poly import Poly, VarSet, bilinear, lincomb, numerators
from .scalars import rational_to_str


# the largest dimension a built-in spin:k or sym:p may have, a fixed limit on
# the size of a report; 64 keeps the Albert algebra's 27
MAX_BUILTIN_DIM = 64


class InvalidDimension(ValueError):
    pass


class UnknownAlgebra(ValueError):
    pass


class ValidationFailed(ValueError):
    def __init__(self, report: "JordanValidationReport"):
        super().__init__("; ".join(report.failures))
        self.report = report


@dataclass(frozen=True)
class JordanAlgebra:
    name: str
    dim: int
    rank: int
    basis_names: Tuple[str, ...]
    # e_a o e_b = sum_c table[(a, b)][c] e_c / den: nonzero numerators only
    table: dict
    den: int
    unit: Tuple[Fraction, ...]
    # the report of the validation that loaded the algebra from a table, so
    # that a report validates it once; None for a built-in
    validation: Optional["JordanValidationReport"] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        n, rank = self.dim, self.rank
        if type(n) is not int:
            raise InvalidDimension(f"dim must be an int, got {n!r}")
        if len(self.unit) != n:
            raise InvalidDimension(f"unit has {len(self.unit)} entries, dim is {n}")
        if not all(type(u) in (int, Fraction) for u in self.unit):
            raise ValueError(f"unit entries must be int or Fraction, got {self.unit!r}")
        if len(self.basis_names) != n:
            raise InvalidDimension(f"basis_names has {len(self.basis_names)} entries, dim is {n}")
        if not (type(rank) is int and 1 <= rank <= n):
            raise InvalidDimension(f"rank {rank!r} is not between 1 and dim {n!r}")
        if type(self.den) is not int or self.den < 1:
            raise ValueError(f"den must be a positive int, got {self.den!r}")
        keys = set(range(n))
        for ab, row in self.table.items():
            if len(ab) != 2 or not {*ab, *row} <= keys or not row or not all(row.values()):
                raise ValueError(f"table row {ab}: {row} is not a nonzero row in range({self.dim})")

    # -- products ---------------------------------------------------------
    def mul(self, x: Sequence, y: Sequence) -> list:
        """x o y from the integer table, summed once and divided by den
        once; on Poly coordinates through ``poly.bilinear``."""
        table, D = self.table, self.den
        if isinstance(x[0], Poly) or isinstance(y[0], Poly):
            return bilinear(table, D, x, y, self.dim)
        out = lincomb((x[a] * y[b], nz) for (a, b), nz in table.items() if x[a] and y[b])
        return [Fraction(out.get(c, 0)) / D for c in range(self.dim)]

    def L(self, x: Sequence) -> list:
        """Matrix of left multiplication by x in the declared basis: column
        a is x o e_a."""
        return linalg.transpose([self.mul(x, e) for e in linalg.identity(self.dim)])

    def tau(self, x: Sequence, y: Sequence):
        """tau(x, y) = Tr L(x o y)."""
        return linalg.trace(self.L(self.mul(x, y)))

    @cached_property
    def _int_tau_gram(self) -> Tuple[list, int]:
        """tau(e_a, e_b) = Tr L(e_a o e_b) = sum_c s_ab^c Tr L(e_c) as integer
        numerators over den^2."""
        table, D, n = self.table, self.den, self.dim
        tr = [sum(table.get((c, a), {}).get(a, 0) for a in range(n)) for c in range(n)]
        return [
            [sum(s * tr[c] for c, s in table.get((a, b), {}).items()) for b in range(n)]
            for a in range(n)
        ], D * D

    def tau_gram(self) -> linalg.Matrix:
        """tau(e_a, e_b), as Fractions."""
        G, d = self._int_tau_gram
        return [[Fraction(x, d) for x in row] for row in G]

    def box(self, x: Sequence, y: Sequence) -> list:
        """Matrix of z -> {x, y, z}: L(x o y) + [L(x), L(y)]."""
        lx, ly = self.L(x), self.L(y)
        return linalg.mat_add(self.L(self.mul(x, y)), linalg.commutator(lx, ly))

    def quadratic_rep(self, z: Sequence) -> list:
        """P(z) = 2 L(z)^2 - L(z^2), column by column: P(z)e_j =
        2 z o (z o e_j) - z^2 o e_j; satisfies P(z)v = {z, v, z}."""
        z2 = self.mul(z, z)
        cols = [zip(self.mul(z, self.mul(z, e)), self.mul(z2, e)) for e in linalg.identity(self.dim)]
        return linalg.transpose([[2 * a - b for a, b in col] for col in cols])

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        """The dense table of the loader's schema."""
        n = self.dim
        return {
            "name": self.name,
            "dim": self.dim,
            "rank": self.rank,
            "unit": [rational_to_str(u) for u in self.unit],
            "structure": [[[rational_to_str(Fraction(self.table.get((a, b), {}).get(c, 0), self.den))
                            for c in range(n)] for b in range(n)] for a in range(n)],
        }


# -- built-in instances ------------------------------------------------------


def make_rank_one() -> JordanAlgebra:
    """The one-dimensional algebra: x o y = xy, unit 1."""
    return JordanAlgebra("rank1", 1, 1, ("e",), table={(0, 0): {0: 1}}, den=1, unit=(Fraction(1),))


def _check_builtin_dim(name: str, n: int) -> None:
    if n > MAX_BUILTIN_DIM:
        raise InvalidDimension(f"{name} has dimension {n}, above the limit {MAX_BUILTIN_DIM}")


def make_spin_factor(k: int) -> JordanAlgebra:
    """Spin factor on R + R^(k-1): (s,u) o (t,v) = (st + <u,v>, sv + tu).

    Rank 2, dimension k.
    """
    if k < 2:
        raise InvalidDimension("spin factor needs k >= 2")
    _check_builtin_dim(f"spin:{k}", k)
    # e_0 is the unit, and e_a o e_b = delta_ab e_0 for a, b >= 1
    table = {(a, b): {a + b if 0 in (a, b) else 0: 1}
             for a in range(k) for b in range(k) if 0 in (a, b) or a == b}
    unit = (Fraction(1),) + (Fraction(0),) * (k - 1)
    names = ("s",) + tuple(f"u{a}" for a in range(1, k))
    return JordanAlgebra(f"spin:{k}", k, 2, names, table=table, den=1, unit=unit)


def make_sym_matrices(p: int) -> JordanAlgebra:
    """Real symmetric p x p matrices with x o y = (xy + yx)/2.

    Basis: E_aa, then unnormalized F_ab = E_ab + E_ba (a < b); rank p.
    Each basis element is its set of matrix units (r, c), and entry (a, b),
    a <= b, of xy + yx, the number of unit products that land there, is
    twice the coefficient of the basis element at (a, b).
    """
    if p < 1:
        raise InvalidDimension("need p >= 1")
    _check_builtin_dim(f"sym:{p}", p * (p + 1) // 2)
    pairs = [(a, a) for a in range(p)] + [(a, b) for a in range(p) for b in range(a + 1, p)]
    col = {ab: k for k, ab in enumerate(pairs)}
    units = [{(a, b), (b, a)} for a, b in pairs]
    D = 2 if p > 1 else 1  # F_12 o E_11 = F_12 / 2

    def twice(x, y):  # 2 (x o y) along the basis: entry (r, d), r <= d, of xy + yx
        return lincomb((1, {col[r, d]: 1}) for s, t in ((x, y), (y, x))
                       for r, c in s for e, d in t if c == e and r <= d)

    table = {(i, j): {k: m * D // 2 for k, m in sorted(xy.items())}
             for i, x in enumerate(units) for j, y in enumerate(units) if (xy := twice(x, y))}
    unit = tuple(Fraction(int(a == b)) for a, b in pairs)
    names = tuple(f"{'E' if a == b else 'F'}{a + 1}{b + 1}" for a, b in pairs)
    return JordanAlgebra(f"sym:{p}", len(pairs), p, names, table=table, den=D, unit=unit)


# -- validation and generic loader -------------------------------------------


@dataclass
class JordanValidationReport:
    name: str
    commutative: bool = False
    jordan_identity: bool = False
    unital: bool = False
    positive_definite: bool = False
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        out = {k: v for k, v in asdict(self).items() if k != "failures"}
        return {**out, "passed": self.passed, "failures": list(self.failures)}


def validate_jordan(A: JordanAlgebra) -> JordanValidationReport:
    """Check the axioms by full symbolic expansion.

    Commutativity and the defining identity are verified with two vectors
    of polynomial indeterminates, so a pass is a proof, not a sample.
    """
    rep = JordanValidationReport(name=A.name)
    n = A.dim

    rep.commutative = all(A.table.get((b, a)) == row for (a, b), row in A.table.items())
    if not rep.commutative:
        rep.failures.append("commutativity: structure constants not symmetric")

    vs = VarSet(tuple(f"{v}{i + 1}" for v in "xy" for i in range(n)))
    xy = [Poly.var(vs, name) for name in vs.names]
    x, y = xy[:n], xy[n:]
    x2 = A.mul(x, x)
    lhs = A.mul(x, A.mul(x2, y))
    rhs = A.mul(x2, A.mul(x, y))
    rep.jordan_identity = lhs == rhs
    if not rep.jordan_identity:
        rep.failures.append("jordan identity: x o (x^2 o y) != x^2 o (x o y)")

    rep.unital = A.mul(list(A.unit), x) == x
    if not rep.unital:
        rep.failures.append("unit: e o x != x")

    gram = A.tau_gram()
    rep.positive_definite = gram == linalg.transpose(gram) and linalg.positive_definite(gram)
    if not rep.positive_definite:
        rep.failures.append("trace form: Gram matrix not positive definite")

    return rep


def min_poly_degree(A: JordanAlgebra) -> int:
    """The degree of the minimal polynomial of x = sum_k (k+1) e_k, at most
    the rank: the number of powers e, x, x o x, ... that one
    ``linalg.Echelon`` absorbs before a power depends on those before it."""
    span, x, p = linalg.Echelon(), [Fraction(k + 1) for k in range(A.dim)], list(A.unit)
    while span.absorb(numerators([dict(enumerate(p))])[0][0]):
        p = A.mul(x, p)
    return span.size


def parse_rational(x) -> Fraction:
    """x, an int or a string of a signed integer or p/q, as a Fraction; any
    other value or form, such as an exponent, whose power of ten Fraction
    would build, raises ValueError, and q = 0 ZeroDivisionError."""
    # bool is an int subclass and a float is inexact, so check the type itself
    if type(x) is not int and not (type(x) is str and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", x)):
        raise ValueError(f"expected an integer or p/q, got {x!r}")
    return Fraction(x)


def _table_entries(x, depth: int):
    """The JSON value x, arrays nested depth deep, as nested lists of
    ``parse_rational`` values; a string is not an array, though it iterates."""
    if depth == 0:
        return parse_rational(x)
    if not isinstance(x, list):
        raise TypeError(f"expected a JSON array, got {x!r}")
    return [_table_entries(y, depth - 1) for y in x]


def load_from_structure_constants(data: dict | str) -> JordanAlgebra:
    """Build an algebra from the JSON table and validate it; the algebra
    keeps the validation report as ``validation``.

    Schema: {name, dim, rank: integers, unit: [rational],
    structure: [[[rational]]], optional basis_names: [distinct strings]},
    each rational a JSON integer or a string such as "-3/2".
    Raises UnknownAlgebra when the table does not follow the schema,
    InvalidDimension when its sizes disagree or the declared rank is below
    ``min_poly_degree`` and ValidationFailed when any axiom fails.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise UnknownAlgebra("a structure-constant table must be a JSON object")
    try:
        n, rank = data["dim"], data["rank"]
        S = _table_entries(data["structure"], 3)
        unit = tuple(_table_entries(data["unit"], 1))
    except KeyError as exc:
        raise UnknownAlgebra(f"structure-constant table has no {exc} entry") from None
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UnknownAlgebra(f"malformed structure-constant table: {exc}") from None
    # bool is an int subclass, so compare the type itself
    if type(n) is not int or type(rank) is not int:
        raise UnknownAlgebra(f"dim and rank must be integers, got {n!r} and {rank!r}")
    # the shapes first: they bound dim by the size of the table, before the
    # default names are made for it
    if len(S) != n or any(len(p) != n for p in S) or any(len(r) != n for p in S for r in p):
        raise InvalidDimension("structure table shape does not match dim")
    if len(unit) != n:
        raise InvalidDimension(f"unit has {len(unit)} entries, dim is {n}")
    names = data.get("basis_names", [f"e{i + 1}" for i in range(n)])
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise UnknownAlgebra("basis_names must be a list of strings")
    if len(set(names)) != len(names):
        raise UnknownAlgebra("basis_names must be distinct")
    rows, den = numerators(dict(enumerate(row)) for plane in S for row in plane)
    A = JordanAlgebra(
        name=str(data.get("name", "custom")),
        dim=n,
        rank=rank,
        basis_names=tuple(names),
        table={divmod(i, n): nz for i, nz in enumerate(rows) if nz},
        den=den,
        unit=unit,
    )
    rep = validate_jordan(A)
    if not rep.passed:
        raise ValidationFailed(rep)
    if rank < (k := min_poly_degree(A)):
        raise InvalidDimension(f"rank {rank} is below {k}, the degree of a minimal polynomial")
    object.__setattr__(A, "validation", rep)  # frozen: set once, here
    return A


def make_algebra(selector: str) -> JordanAlgebra:
    """Parse 'rank1' | 'spin:k' | 'sym:p' | 'file:path'."""
    if selector == "rank1":
        return make_rank_one()
    kind, _, arg = selector.partition(":")
    if kind in ("spin", "sym"):
        try:
            k = int(arg)
        except ValueError:
            k = None
        if k is None or str(k) != arg:  # else the report would not name what was built
            raise UnknownAlgebra(f"{kind}: needs an integer in canonical form, got {arg!r}")
        return make_spin_factor(k) if kind == "spin" else make_sym_matrices(k)
    if kind == "file":
        try:
            with open(arg) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UnknownAlgebra(f"cannot read {arg!r}: {exc}") from None
        return load_from_structure_constants(data)
    raise UnknownAlgebra(f"unknown algebra selector {selector!r}")

