import itertools
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from starcayley import jordan, kkt, linalg  # noqa: E402
from starcayley.poly import Poly  # noqa: E402
from starcayley.scalars import Scalar  # noqa: E402
from starcayley.poly import exact, pruned  # noqa: E402
from starcayley.weyl import WeylOperator, fourier_conjugate, holomorphic_frame  # noqa: E402


def degree_in(p: Poly, name: str) -> int:
    """Highest exponent of one variable in p."""
    i = p.vs.index(name)
    return max((e[i] for e in p.terms), default=0)


def two_conjugations(op: WeylOperator, l_names, m_names):
    """The oracle of ``weyl.star_transform``, step by step: op with
    nu -> -nu, times 1/(2 nu), through ``fourier_conjugate`` and then
    ``holomorphic_frame``."""
    flipped = WeylOperator(op.vs, {k: -c if k[0][-1] % 2 else c for k, c in op.terms.items()})
    fop, fvs = fourier_conjugate(flipped.scale(Scalar.nu(-1, Fraction(1, 2))), l_names, m_names)
    return holomorphic_frame(fop, l_names, fvs.names[len(l_names) :])


def multiset_left_star_operator(lam: Poly, l_names, m_names) -> WeylOperator:
    """The oracle of ``weyl.left_star_operator``: for every order k up to
    the degree of lam and every multiset of k contraction indices, lam is
    differentiated from scratch along the multiset (index c < n in l^c,
    contributing d/dm^c; index n + a in m^a, contributing d/dl^a and a sign
    flip), weighted by sign * nu^k / prod(mult!)."""
    vs = lam.vs
    n = len(l_names)
    l_idx = [vs.index(x) for x in l_names]
    m_idx = [vs.index(x) for x in m_names]
    zero_d = (0,) * len(vs)
    out: dict = {(e, zero_d): c for e, c in lam.terms.items()}
    for k in range(1, lam.total_degree() + 1):
        for combo in itertools.combinations_with_replacement(range(2 * n), k):
            p = lam
            dexp = [0] * len(vs)
            sign = 1
            for c in combo:
                if c < n:
                    p = p.diff(l_names[c])
                    dexp[m_idx[c]] += 1
                else:
                    p = p.diff(m_names[c - n])
                    dexp[l_idx[c - n]] += 1
                    sign = -sign
            if p.is_zero():
                continue
            weight = exact(Fraction(sign, prod(factorial(m) for m in Counter(combo).values())))
            for e, c in p.terms.items():
                key = (e[:-1] + (e[-1] + k,), tuple(dexp))
                out[key] = out.get(key, 0) + c * weight
    return WeylOperator(vs, pruned(out))


@pytest.fixture(scope="session")
def instance_cache():
    """Shared construction cache so expensive objects are built once."""
    cache = {}

    def get(kind: str, selector: str, mu=Fraction(1)):
        key = (kind, selector, mu)
        if key in cache:
            return cache[key]
        if kind == "algebra":
            value = jordan.make_algebra(selector)
        elif kind == "lie":
            value = kkt.GradedLieAlgebra(get("algebra", selector), mu)
        elif kind == "chart":
            from starcayley.chart import SymplecticChart

            value = SymplecticChart(get("lie", selector, mu))
        elif kind == "srep":
            from starcayley.starrep import StarRepresentation

            value = StarRepresentation(get("lie", selector, mu))
        elif kind == "rho":
            value = get("srep", selector, mu).rho_basis()
        elif kind == "series":
            from starcayley.hds import DiscreteSeries

            value = DiscreteSeries(get("lie", selector, mu))
        else:
            raise KeyError(kind)
        cache[key] = value
        return value

    return get


@pytest.fixture
def model_forbidden(monkeypatch):
    """The (u, T, v) model (``from_coords``, ``theta``) and the second
    elimination ``linalg.in_span`` raise when called: no report path may
    reach them."""

    def forbid(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        return raiser

    monkeypatch.setattr(kkt.GradedLieAlgebra, "from_coords", forbid("from_coords"))
    monkeypatch.setattr(kkt.GradedLieAlgebra, "theta", forbid("theta"))
    monkeypatch.setattr(linalg, "in_span", forbid("in_span"))
