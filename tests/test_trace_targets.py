"""The benchmark tracer patches starcayley functions by name; every name it
uses must resolve, or a traced benchmark run fails."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import trace  # noqa: E402
from perfbench.worker import MODULES  # noqa: E402


def _modules():
    return {m: importlib.import_module(f"starcayley.{m}") for m in MODULES}


def test_every_traced_name_resolves():
    missing = [
        (span, attr) for span, owner, attr in trace.targets(_modules()) if not hasattr(owner, attr)
    ]
    assert not missing


def test_sized_and_counted_names_resolve(instance_cache):
    sc = _modules()
    for owner, attr in [
        (sc["kkt"].GradedLieAlgebra, "__init__"),
        (sc["chart"].SymplecticChart, "__init__"),
        (sc["starrep"].StarRepresentation, "rho_basis"),
        (sc["hds"], "solve_equivalence"),
        (sc["report"], "SUITE_RUNNERS"),
    ]:
        assert hasattr(owner, attr), attr
    # the candidate counter wraps a generator taking g and yielding pairs
    g = instance_cache("lie", "rank1")
    candidates = list(sc["hds"]._automorphism_candidates(g))
    assert candidates
    for name, alpha in candidates:
        assert isinstance(name, str) and callable(alpha)
