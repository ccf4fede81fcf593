"""The lie suite's report dict, pinned whole on algebras that fail it: each
check's line, its residual and detail, and kappa_g."""

import copy

import pytest
from conftest import perturbed

from starcayley import jordan, kkt
from starcayley.report import InstanceContext, RunConfig, run_lie_suite

CLOSURE = "FAIL residual {} (g(0) is not spanned by the box operators)"
MATCH = "pass (box and triple product match the bracket forms)"

PINNED = {
    "perturbed-spin:2": (
        lambda: perturbed(jordan.make_spin_factor(2), 0, 1, 1),
        {
            "dim_g": 8,
            "identifications": MATCH,
            "jacobi": "FAIL residual 170 (13 failing triples; first failing (i, j, k) = (0, 1, 6), residual 4)",
            "kappa_g": "not proportional",
            "killing-closed-form": CLOSURE.format(656),
            "killing-invariance": "FAIL residual 708 (first failing (i, j, k) = (0, 2, 6), residual 18)",
            "passed": False,
            "theta": "FAIL residual 8/3 (first failing (i, j) = (0, 7), residual 4/3)",
        },
    ),
    "perturbed-sym:2": (
        lambda: perturbed(jordan.make_sym_matrices(2), 1, 0, 1),
        {
            "dim_g": 15,
            "identifications": MATCH,
            "jacobi": "FAIL residual 367 (83 failing triples; first failing (i, j, k) = (0, 1, 12), residual 4)",
            "kappa_g": "not proportional",
            "killing-closed-form": CLOSURE.format(300),
            "killing-invariance": "FAIL residual 670 (first failing (i, j, k) = (0, 3, 12), residual 1)",
            "passed": False,
            "theta": "FAIL residual 135/2 (first failing (i, j) = (0, 3), residual 1)",
        },
    ),
    "grown-sym:2": (
        lambda: perturbed(jordan.make_sym_matrices(2), 0, 0, 0),
        {
            "dim_g": 15,
            "identifications": MATCH,
            "jacobi": "FAIL residual 82441/105 (71 failing triples; first failing (i, j, k) = (0, 3, 14), "
                      "residual 156/7)",
            "kappa_g": "not proportional",
            "killing-closed-form": CLOSURE.format("369199/225"),
            "killing-invariance": "FAIL residual 449341/225 (first failing (i, j, k) = (0, 3, 12), residual 80)",
            "passed": False,
            "theta": "FAIL residual 10 (first failing (i, j) = (0, 14), residual 4)",
        },
    ),
    "perturbed-spin:3": (
        lambda: perturbed(jordan.make_spin_factor(3), 1, 2, 0),
        {
            "dim_g": 15,
            "identifications": MATCH,
            "jacobi": "FAIL residual 466 (55 failing triples; first failing (i, j, k) = (0, 1, 14), residual 4)",
            "kappa_g": "not proportional",
            "killing-closed-form": CLOSURE.format(514),
            "killing-invariance": "FAIL residual 1180 (first failing (i, j, k) = (0, 3, 12), residual 2)",
            "passed": False,
            "theta": "FAIL residual 45 (first failing (i, j) = (0, 4), residual 2)",
        },
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_lie_suite_on_a_perturbed_algebra(name):
    make, want = PINNED[name]
    ctx = InstanceContext(RunConfig())
    ctx._cache["algebra"] = make()
    assert run_lie_suite(ctx) == want


def test_lie_suite_on_an_edited_table():
    # one constant of [e_0, theta e_0] of spin:2 raised by 1 after the
    # build, so K and its closed form still agree
    g = copy.copy(kkt.GradedLieAlgebra(jordan.make_algebra("spin:2")))
    key = (0, g.n + g.dim0)
    structure = dict(g._structure)
    structure[key] = {**structure[key], g.n: structure[key].get(g.n, 0) + g.denom}
    g._structure = structure
    ctx = InstanceContext(RunConfig(algebra="spin:2"))
    ctx._cache["lie"] = g
    assert run_lie_suite(ctx) == {
        "dim_g": 6,
        "identifications": "FAIL residual 3/2 (first failing box (a, b) = (0, 0), residual 1/2)",
        "jacobi": "FAIL residual 4 (4 failing triples; first failing (i, j, k) = (0, 1, 4), residual 1)",
        "kappa_g": "1",
        "killing-closed-form": "pass (kappa = 1)",
        "killing-invariance": "FAIL residual 4 (first failing (i, j, k) = (0, 2, 4), residual 4)",
        "passed": False,
        "theta": "FAIL residual 1 (first failing (i, j) = (0, 4), residual 1)",
    }
