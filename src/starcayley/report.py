"""Verification pipeline: build an instance, run the suites, collect a report.

Suites (in dependency order): jordan, lie, chart, star, fourier, theorem.
Construction artifacts are cached per run so suites share the same algebra,
graded Lie algebra, chart and representation objects.
"""

from __future__ import annotations

import json
import os
import random
import time
from fractions import Fraction
from typing import Dict, List, Optional

from . import chart as chart_mod
from . import hds as hds_mod
from . import jordan as jordan_mod
from . import kkt as kkt_mod
from . import starrep as starrep_mod
from . import weyl as weyl_mod
from .poly import Poly, Tally
from .scalars import Scalar, rational_to_str

ALL_SUITES = ("jordan", "lie", "chart", "star", "fourier", "theorem")

BUILTIN_SELECTORS = ("rank1", "spin:2", "spin:3", "spin:4", "spin:5", "sym:2", "sym:3")

ASSOCIATIVITY_TRIALS = 20


class ConfigError(ValueError):
    pass


class RunConfig:
    seed = 20260826  # the default, also of ``verify --seed``

    def __init__(self, algebra: str = "rank1", mu: Fraction = Fraction(1), suites: tuple = ALL_SUITES,
                 fmt: str = "text", out: Optional[str] = None, seed: int = seed):
        self.algebra, self.mu, self.suites = algebra, mu, suites
        self.fmt, self.out, self.seed = fmt, out, seed

    def validate(self):
        if type(self.mu) not in (int, Fraction):
            raise ConfigError(f"mu must be an int or a Fraction, got {type(self.mu).__name__}")
        if self.mu == 0:
            raise ConfigError("mu must be nonzero")
        if not self.suites:
            raise ConfigError("no suites selected")
        bad = [s for s in self.suites if s not in ALL_SUITES]
        if bad:
            raise ConfigError(f"unknown suites: {bad}")
        if self.fmt not in ("text", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.out is not None and (not self.out or os.path.isdir(self.out)
                                     or not os.path.isdir(os.path.dirname(os.path.abspath(self.out)))):
            raise ConfigError(f"cannot write {self.out!r}: not a file in an existing directory")


class VerificationReport:
    def __init__(self, algebra: str, mu: str):
        self.algebra, self.mu = algebra, mu
        self.suites: Dict[str, dict] = {}
        self.constants: Dict[str, object] = {}
        self.timings: Dict[str, float] = {}
        # why the algebra could not be built; every suite then records it too
        self.algebra_error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(s.get("passed") for s in self.suites.values())

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "mu": self.mu,
            "passed": self.passed,
            "suites": {k: self.suites[k] for k in sorted(self.suites)},
            "constants": {k: self.constants[k] for k in sorted(self.constants)},
            "timings": {k: round(v, 3) for k, v in sorted(self.timings.items())},
        }

    def to_text(self) -> str:
        lines = [f"instance {self.algebra}  mu = {self.mu}"]
        for name, s in ((name, self.suites[name]) for name in ALL_SUITES if name in self.suites):
            mark = "PASS" if s.get("passed") else "FAIL"
            lines.append(f"  [{mark}] {name}  ({self.timings.get(name, 0):.2f}s)")
            lines += [f"      {k}: {v}" for k, v in sorted(s.items()) if k != "passed"]
        lines += ["constants:"] + [f"  {k} = {self.constants[k]}" for k in sorted(self.constants)]
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


class InstanceContext:
    """Lazily built, shared construction artifacts for one (algebra, mu).

    A build that fails validation is cached too, so it is tried once and
    every later use re-raises the same error.  ``build_s`` holds each
    artifact's build time and ``check_s`` each check's, "<suite>.<check>",
    in seconds, net of the builds they started, which have their own entries.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self._cache: dict = {}
        self.build_s: Dict[str, float] = {}
        self.check_s: Dict[str, float] = {}
        self._nested_s = 0.0  # time of finished builds inside the current one

    def _get(self, key, builder):
        if key not in self._cache:
            outer, self._nested_s = self._nested_s, 0.0
            t0 = time.perf_counter()
            try:
                self._cache[key] = builder()
            except jordan_mod.ValidationFailed as exc:
                self._cache[key] = exc
            finally:
                elapsed = time.perf_counter() - t0
                self.build_s[key] = elapsed - self._nested_s
                self._nested_s = outer + elapsed
        value = self._cache[key]
        if isinstance(value, jordan_mod.ValidationFailed):
            raise value
        return value

    def timed(self, name: str, check, *args):
        """check(*args), its time kept as ``check_s[name]``, also when it raises."""
        built, t0 = sum(self.build_s.values()), time.perf_counter()
        try:
            return check(*args)
        finally:
            self.check_s[name] = time.perf_counter() - t0 - (sum(self.build_s.values()) - built)

    @property
    def algebra(self) -> jordan_mod.JordanAlgebra:
        return self._get("algebra", lambda: jordan_mod.make_algebra(self.config.algebra))

    @property
    def lie(self) -> kkt_mod.GradedLieAlgebra:
        return self._get("lie", lambda: kkt_mod.GradedLieAlgebra(self.algebra, self.config.mu))

    @property
    def generators(self) -> tuple:
        """g's certified generating set, billed apart so that no check absorbs it."""
        return self._get("generators", lambda: self.lie.generators)

    @property
    def chart(self) -> chart_mod.SymplecticChart:
        return self._get("chart", lambda: chart_mod.SymplecticChart(self.lie))

    @property
    def left_stars(self) -> List[weyl_mod.WeylOperator]:
        """The chart's left-star operators, billed apart from the checks that read them."""
        return self._get("left_stars", lambda: self.chart.left_stars)

    @property
    def srep(self) -> starrep_mod.StarRepresentation:
        return self._get("srep", lambda: starrep_mod.StarRepresentation(self.lie))

    @property
    def rho(self) -> List[weyl_mod.WeylOperator]:
        return self._get("rho", lambda: self.srep.rho_basis())

    @property
    def series(self) -> hds_mod.DiscreteSeries:
        return self._get("series", lambda: hds_mod.DiscreteSeries(self.lie))

    @property
    def dpi(self) -> List[weyl_mod.WeylOperator]:
        """dpi_1 of each basis element, the series' ``dpi_basis``."""
        return self._get("dpi", lambda: self.series.dpi_basis())


def _random_poly(rng: random.Random, ch) -> Poly:
    """A sum of 1 to 4 monomials, each p/q, q <= 3, times up to 3 of
    the chart's variables, summed as drawn: numerators over 6, packed keys."""
    vs, terms = ch.vs, {}
    units = [1 << vs.width * i for i in range(len(vs))]
    for _ in range(rng.randint(1, 4)):
        c = rng.randint(-4, 4) * 6 // rng.randint(1, 3)
        e = vs.one
        for _ in range(rng.randint(0, 3)):
            e += rng.choice(units)
        terms[e] = terms.get(e, 0) + c
    return Poly._reduced(vs, terms, 6)


# -- suite runners --------------------------------------------------------


def _put_witness(out: dict, key: str, t: Tally, names: str) -> None:
    """out[key] = the witness of t, only when some row of t failed."""
    if t.failures:
        out[key] = t.witness(names)


def run_jordan_suite(ctx: InstanceContext) -> dict:
    A = ctx.algebra
    rep = A.validation or ctx.timed("jordan.axioms", jordan_mod.validate_jordan, A)
    out = rep.to_json()
    out["dim"] = A.dim
    out["rank"] = A.rank
    return out


def run_lie_suite(ctx: InstanceContext) -> dict:
    g, _ = ctx.lie, ctx.generators
    jac = ctx.timed("lie.jacobi", kkt_mod.verify_jacobi, g)
    theta = ctx.timed("lie.theta", kkt_mod.verify_theta, g)
    ident = ctx.timed("lie.identifications", kkt_mod.verify_identifications, g)
    inv = ctx.timed("lie.killing-invariance", kkt_mod.verify_killing_invariance, g)
    kappa, closed, why = ctx.timed("lie.killing-closed-form", kkt_mod.measure_kappa, g)
    # the identifications' rows are the boxes (a, b) and their triples (a, b, c)
    box = ident.first and len(ident.first[0]) == 2
    # closed fails exactly when kappa is None (see measure_kappa)
    proportional = f"kappa = {kappa}" if kappa is not None else "no proportionality"
    checks = {
        "jacobi": (jac, jac.failures and f"{jac.failures} failing triples; {jac.witness('(i, j, k)')}"),
        "theta": (theta, theta.witness("(i, j)")),
        "identifications": (ident, ident.witness("box (a, b)" if box else "triple (a, b, c)")
                            or "box and triple product match the bracket forms"),
        "killing-invariance": (inv, inv.witness("(i, j, k)")),
        "killing-closed-form": (closed, why or proportional),
    }
    out = {"passed": not any(t.failures for t, _ in checks.values()), "dim_g": g.dim}
    for name, (t, detail) in checks.items():
        verdict = f"FAIL residual {t.residual}" if t.failures else "pass"
        out[name] = verdict + (f" ({detail})" if detail else "")
    out["kappa_g"] = str(kappa) if kappa is not None else "not proportional"
    return out


def run_chart_suite(ctx: InstanceContext) -> dict:
    ch, _ = ctx.chart, ctx.generators
    ctx.timed("chart.jacobi", kkt_mod.verify_jacobi, ch.g)
    ham = ctx.timed("chart.hamiltonicity", ch.hamiltonicity_residual)
    deg = ctx.timed("chart.max_moment_degree", ch.max_moment_degree)
    out = {
        "passed": ham.failures == 0 and deg <= 3,
        "hamiltonicity_residual": str(ham.residual),
        "failing_pairs": ham.failures,
        "max_moment_degree": deg,
    }
    _put_witness(out, "hamiltonicity_witness", ham, "(i, j)")
    return out


def run_star_suite(ctx: InstanceContext) -> dict:
    ch, _ = ctx.chart, ctx.left_stars
    rng = random.Random(ctx.config.seed)
    out: dict = {}

    star = weyl_mod.moyal_star
    one = Poly.const(ch.vs, 1)
    unit_ok = ctx.timed("star.unit", lambda: all(star(x, one) == x == star(one, x) for x in ch.moment))

    def low_orders(lowest_ok=True, first_order_ok=True):
        for _ in range(5):
            p, q = _random_poly(rng, ch), _random_poly(rng, ch)
            s = star(p, q)
            lowest_ok &= min(map(ch.vs.nu, (s - p * q).terms), default=1) > 0
            d = s - star(q, p) - ch.poisson(p, q) * Scalar.nu(1, Fraction(2))
            first_order_ok &= min(map(ch.vs.nu, d.terms), default=2) >= 2
        return lowest_ok, first_order_ok

    lowest_ok, first_order_ok = ctx.timed("star.low_orders", low_orders)
    out.update(unit=unit_ok, mod_nu_is_product=lowest_ok,
               commutator_mod_nu2_is_2nu_poisson=first_order_ok)

    triples = ([_random_poly(rng, ch) for _ in range(3)] for _ in range(ASSOCIATIVITY_TRIALS))
    assoc = lambda: sum(star(star(p, q), r) != star(p, star(q, r)) for p, q, r in triples)
    assoc_fail = ctx.timed("star.associativity", assoc)
    out.update(associativity_trials=ASSOCIATIVITY_TRIALS, associativity_failures=assoc_fail)

    cov = ctx.timed("star.covariance", weyl_mod.verify_covariance, ch)
    out["covariance_residual"] = str(cov.residual)
    _put_witness(out, "covariance_witness", cov, "(i, j)")
    samples = [_random_poly(rng, ch) for _ in range(3)]
    prop_b = ctx.timed("star.property_B", weyl_mod.verify_property_B, ch, samples)
    N = out["property_B_order"] = max(op.order() for op in ch.left_stars)
    _put_witness(out, "property_B_witness", prop_b, "(i, sample)")
    out["passed"] = (unit_ok and lowest_ok and first_order_ok and assoc_fail == 0 and cov.failures == 0
                     and prop_b.failures == 0 and N == 3)
    return out


def run_fourier_suite(ctx: InstanceContext) -> dict:
    ch, _, check = ctx.chart, ctx.left_stars, starrep_mod.verify_star_transform
    holo, t = ctx.timed("fourier.star_transform", check, ch, ctx.srep, ctx.rho)
    out = {
        "passed": holo and t.failures == 0,
        "holomorphic": holo,
        "matches_rho": t.failures == 0,
        "residual": str(t.residual),
    }
    _put_witness(out, "star_transform_witness", t, "i")
    return out


def run_theorem_suite(ctx: InstanceContext) -> dict:
    g, _, rho, series, out = ctx.lie, ctx.generators, ctx.rho, ctx.series, {}
    ctx.timed("theorem.jacobi", kkt_mod.verify_jacobi, g)
    sign_rho, rho_hom = ctx.timed("theorem.rho_bracket_sign", starrep_mod.verify_rho_homomorphism, g, rho)
    out.update(rho_bracket_sign=sign_rho, rho_hom_residual=str(rho_hom.residual))
    _put_witness(out, "rho_hom_witness", rho_hom, "(i, j)")
    sign_dpi, dpi_hom = ctx.timed("theorem.dpi_bracket_sign", hds_mod.verify_dpi_homomorphism, g, ctx.dpi)
    out.update(dpi_bracket_sign=sign_dpi, dpi_hom_residual=str(dpi_hom.residual))
    _put_witness(out, "dpi_hom_witness", dpi_hom, "(i, j)")
    field = ctx.timed("theorem.tube_field", ctx.srep.field_residual, series)
    out["tube_field_residual"] = str(field.residual)
    _put_witness(out, "tube_field_witness", field, "i")
    kappa_h, kt = ctx.timed("theorem.kappa_h", ctx.srep.measure_kappa_h)
    out["kappa_h"] = str(kappa_h) if kappa_h is not None else f"none (residual {kt.residual})"
    m_star = None
    try:
        eq = ctx.timed("theorem.equivalence", hds_mod.solve_equivalence, g, rho, series)
        m_star = eq.m_star
        cmpr = ctx.timed("theorem.closed_form", hds_mod.compare_with_closed_form, g, m_star)
        factor = str(cmpr.factor) if cmpr.factor is not None else None
        out.update(alpha=eq.alpha, m_star=str(eq.m_star), m_closed_form=str(cmpr.m_closed),
                   match=cmpr.match, factor=factor)
        solved = cmpr.match in ("exact", "proportional")
    except hds_mod.NoEquivalence as exc:
        out.update(match="failed", error=str(exc))
        solved = False
    nu0, vanish = ctx.timed("theorem.special_nu", hds_mod.special_nu_value, g, m_star)
    out.update(nu0=str(nu0), numerator_vanishes_at_nu0=vanish)
    if solved:
        tau_e = ctx.srep.tau_scalar(g.E)
        out["tau_of_grade_element_at_nu0"] = str(tau_e.eval_nu(nu0))
    out["passed"] = (sign_rho != 0 and sign_dpi != 0 and field.failures == 0 and kappa_h is not None
                     and solved and vanish)
    return out


SUITE_RUNNERS = {
    "jordan": run_jordan_suite,
    "lie": run_lie_suite,
    "chart": run_chart_suite,
    "star": run_star_suite,
    "fourier": run_fourier_suite,
    "theorem": run_theorem_suite,
}


def run(config: RunConfig) -> VerificationReport:
    config.validate()
    ctx = InstanceContext(config)
    rep = VerificationReport(algebra=config.algebra, mu=rational_to_str(config.mu))
    for name in ALL_SUITES:
        if name not in config.suites:
            continue
        try:
            rep.suites[name] = ctx.timed(name, SUITE_RUNNERS[name], ctx)
        except jordan_mod.ValidationFailed as exc:
            rep.suites[name] = {"passed": False, "error": str(exc)}
        # the suite's time net of the builds it started, which have their own entries
        rep.timings[name] = ctx.check_s.pop(name)
    try:
        A = ctx.algebra
    except jordan_mod.ValidationFailed as exc:
        rep.algebra_error = str(exc)
    else:
        rep.constants.update(dim_algebra=A.dim, rank=A.rank)
    g = ctx._cache.get("lie")
    if isinstance(g, kkt_mod.GradedLieAlgebra):
        beta_oo = rational_to_str(g.beta(g.o, g.o))
        rep.constants.update(dim_g=g.dim, c=rational_to_str(g.mu), beta_oo=beta_oo)
    if "property_B_order" in rep.suites.get("star", {}):
        rep.constants["N"] = rep.suites["star"]["property_B_order"]
    rep.timings.update({f"build:{key}": seconds for key, seconds in ctx.build_s.items()})
    rep.timings.update({f"check:{key}": seconds for key, seconds in ctx.check_s.items()})
    return rep


def write_report(rep: VerificationReport, config: RunConfig) -> str:
    text = json.dumps(rep.to_json(), indent=2, sort_keys=True) if config.fmt == "json" else rep.to_text()
    if config.out is not None:
        try:
            with open(config.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {config.out!r}: {exc.strerror}") from None
    return text
