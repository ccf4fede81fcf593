"""Acceptance checklist: one test (and one printed pass/fail line) per criterion.

Every comparison is exact over the rational Laurent ring in nu — no
tolerances anywhere.  Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines even when everything passes.

Criteria 2, 5 and 7 state the identification itself, under the conventions
described in the README:

* criterion 2 — the block formula built from Jordan data, with the
  degree-zero block beta(T, x box y) = 2 tau(Tx, y) fixed by invariance,
  is the intrinsic trace form (constant 1);
* criterion 5 — the right star multiplication by a moment map, scaled by
  1/(2ν), carried through the partial Fourier transform with kernel sign
  −1 and the holomorphic frame, is the representation operator itself;
* criterion 7 — the solved weight equals the closed form
  (β(o,o) + nνc)/(2νrc), which is (2μ+ν)/(2ν) in rank one.
"""

import random
import time
from fractions import Fraction

import pytest

from starcayley import hds, jordan, kkt, weyl
from starcayley.chart import SymplecticChart
from starcayley.poly import Poly
from starcayley.report import InstanceContext, RunConfig, run_lie_suite, run_star_suite
from starcayley.scalars import Scalar
from starcayley.starrep import (
    StarRepresentation,
    verify_rho_homomorphism,
    verify_star_transform,
)
from starcayley.weyl import WeylOperator

from conftest import perturbed

JORDAN_SELECTORS = ("rank1", "spin:2", "spin:3", "spin:4", "spin:5", "sym:2", "sym:3")
LIE_SELECTORS = ("rank1", "spin:3", "sym:2", "sym:3")
EXPECTED_DIM_G = {"rank1": 3, "spin:3": 10, "sym:2": 10, "sym:3": 21}
ALL_BUILTINS = JORDAN_SELECTORS


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def _perturbed_spin2():
    return perturbed(jordan.make_spin_factor(2), 0, 1, 1, name="spin:2-perturbed")


def test_criterion_1_jordan_axioms():
    t0 = time.perf_counter()
    ok = True
    for sel in JORDAN_SELECTORS:
        rep = jordan.validate_jordan(jordan.make_algebra(sel))
        ok = ok and rep.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10
    _line(1, ok, f"axioms on {len(JORDAN_SELECTORS)} instances in {elapsed:.1f}s")
    assert ok


def test_criterion_2_lie_structure():
    t0 = time.perf_counter()
    ok = True
    details = []
    for sel in LIE_SELECTORS:
        ctx = InstanceContext(RunConfig(algebra=sel))
        g, out = ctx.lie, run_lie_suite(ctx)
        ok = ok and g.dim == EXPECTED_DIM_G[sel]
        for name, line in out.items():
            if name not in ("passed", "dim_g", "kappa_g") and not line.startswith("pass"):
                ok = False
                details.append(f"{sel}/{name}")
        kappa, t, _ = kkt.measure_kappa(g)
        if kappa is None:
            ok = False
            details.append(f"{sel}/kappa_g absent (residual {t.residual})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _line(2, ok, f"{elapsed:.1f}s; " + ("; ".join(details) if details else "all clean"))
    assert ok


def test_criterion_3_moment_maps(instance_cache):
    t0 = time.perf_counter()
    ok = True
    for sel in LIE_SELECTORS:
        ch = instance_cache("chart", sel)
        res, bad, _ = ch.hamiltonicity_residual()
        ok = ok and res == 0 and bad == 0 and ch.max_moment_degree() <= 3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _line(3, ok, f"bracket/Poisson match + degree bound on 4 instances, {elapsed:.1f}s")
    assert ok


def test_criterion_4_star_product():
    t0 = time.perf_counter()
    config = RunConfig(algebra="sym:2", mu=Fraction(1), suites=("star",))
    config.validate()
    out = run_star_suite(InstanceContext(config))
    elapsed = time.perf_counter() - t0
    ok = (
        out["passed"]
        and out["associativity_trials"] >= 20
        and out["property_B_order"] == 3
        and elapsed < 120
    )
    _line(
        4,
        ok,
        f"sym:2 star axioms, {out['associativity_trials']} associativity trials, "
        f"N={out['property_B_order']}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_star_transform(instance_cache):
    t0 = time.perf_counter()
    ok = True
    details = []
    for sel in ("rank1", "spin:3", "sym:2"):
        holo, t = verify_star_transform(
            instance_cache("chart", sel),
            instance_cache("srep", sel),
            instance_cache("rho", sel),
        )
        match = t.failures == 0 and t.residual == 0
        ok = ok and holo and match
        if not match:
            details.append(f"{sel}: holomorphic={holo}, equals-rho=False")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    _line(5, ok, f"{elapsed:.1f}s; " + ("; ".join(details) if details else "all equal"))
    assert ok


def test_criterion_6_homomorphisms(instance_cache):
    ok = True
    details = []
    for sel in ("rank1", "spin:3", "sym:2"):
        g = instance_cache("lie", sel)
        sign_r, (res_r, _, _) = verify_rho_homomorphism(g, instance_cache("rho", sel))
        sign_d, (res_d, _, _) = hds.verify_dpi_homomorphism(
            g, instance_cache("series", sel).dpi_basis()
        )
        ok = ok and sign_r != 0 and res_r == 0 and sign_d != 0 and res_d == 0
        details.append(f"{sel}: rho sign {sign_r:+d}, dpi sign {sign_d:+d}")
    _line(6, ok, "; ".join(details))
    assert ok


def test_criterion_7_equivalence(instance_cache):
    t0 = time.perf_counter()
    ok = True
    details = []
    for mu in (Fraction(1), Fraction(2), Fraction(-3)):
        g = kkt.GradedLieAlgebra(jordan.make_rank_one(), mu)
        eq = hds.solve_equivalence(g, StarRepresentation(g).rho_basis(), hds.DiscreteSeries(g))
        expected = (Scalar.nu(1) + Scalar.of(2 * mu)) * Scalar.nu(-1, Fraction(1, 2))
        cmpr = hds.compare_with_closed_form(g, eq.m_star)
        exact = eq.m_star == expected and cmpr.match == "exact"
        ok = ok and exact
        if not exact:
            details.append(f"rank1 mu={mu}: m*={eq.m_star} (factor {cmpr.factor})")
    for sel in ("spin:3", "sym:2"):
        g = instance_cache("lie", sel)
        eq = hds.solve_equivalence(
            g, instance_cache("rho", sel), instance_cache("series", sel)
        )
        cmpr = hds.compare_with_closed_form(g, eq.m_star)
        ok = ok and cmpr.match in ("exact", "proportional")
        kappa_h, _ = instance_cache("srep", sel).measure_kappa_h()
        details.append(
            f"{sel}: {cmpr.match}, factor {cmpr.factor}, kappa_h {kappa_h}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    _line(7, ok, f"{elapsed:.1f}s; " + "; ".join(details))
    assert ok


def test_criterion_8_special_parameter_value(instance_cache):
    ok = True
    for sel in ALL_BUILTINS:
        g = instance_cache("lie", sel)
        eq = hds.solve_equivalence(g, instance_cache("rho", sel), instance_cache("series", sel))
        _, vanishes = hds.special_nu_value(g, eq.m_star)
        ok = ok and vanishes
    _line(8, ok, f"measured weight m* vanishes at nu0 on {len(ALL_BUILTINS)} instances")
    assert ok


def test_criterion_9_negative_controls(instance_cache):
    bad = _perturbed_spin2()
    g_bad = kkt.GradedLieAlgebra(bad)
    jac = kkt.verify_jacobi(g_bad)
    ham_res, ham_bad, _ = SymplecticChart(g_bad).hamiltonicity_residual()
    structure_detected = jac.failures > 0 and ham_res > 0 and ham_bad > 0

    g = instance_cache("lie", "rank1")
    srep = instance_cache("srep", "rank1")
    rho = list(instance_cache("rho", "rank1"))
    rho[1] = rho[1] + WeylOperator.from_poly(Poly.const(srep.zvs, 1))
    try:
        hds.solve_equivalence(g, rho, hds.DiscreteSeries(g))
        tau_detected = False
    except hds.NoEquivalence as exc:
        tau_detected = exc.residual > 0

    ok = structure_detected and tau_detected
    _line(
        9,
        ok,
        f"perturbed structure: jacobi residual {jac.residual}, "
        f"{ham_bad} non-Hamiltonian pairs; perturbed scalar part: NoEquivalence",
    )
    assert ok
