"""The benchmark's workloads and metrics, with the reasoning that
BENCHMARK.json has no room for.

BENCHMARK.json lists the workload names and each metric's name, unit and
direction; ``run.py`` refuses to start when it disagrees with the tables
below.  Every per-layer metric also records which end-to-end metric it
should move, on which workload, and what is predicted elsewhere, written
down before any change is measured against it.
"""

from __future__ import annotations

LAYERS = ("scalars", "poly", "linalg", "jordan", "kkt", "chart", "weyl", "starrep", "hds", "report")
SUITES = ("jordan", "lie", "chart", "star", "fourier", "theorem")
SMALL = ("rank1", "spin:2", "spin:3", "sym:2", "spin:4")

# Each workload is a list of (algebra, suites); every entry is one
# report.run call with a fresh context and mu = 1.  The three together
# cover all seven built-in algebras.
WORKLOADS = {
    # The headline instance; the lie suite's Killing-form checks dominate.
    "full-sym3": [("sym:3", SUITES)],
    # No lie suite, so kkt only builds g; weyl, starrep, hds and poly dominate.
    "operators-spin5": [("spin:5", ("star", "fourier", "theorem"))],
    # What `verify --suites X` costs: every call rebuilds its artifacts.
    "per-suite-small": [(alg, (suite,)) for alg in SMALL for suite in SUITES],
}

KKT_CHECKS = (
    "antisymmetry",
    "jacobi",
    "grading",
    "theta",
    "identifications",
    "killing_invariance",
    "killing_closed_form",
)

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("verify_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

_ALL = "all three"


def _per_layer():
    """(name, unit, better, moves, on, elsewhere) for every per-layer metric."""
    rows = [("kkt.build_s", "s")]
    rows += [(f"kkt.check_s.{c}", "s") for c in KKT_CHECKS]
    rows += [
        ("kkt.bracket_calls", "count"),
        ("kkt.beta_calls", "count"),
        ("kkt.structure_constants_nonzero", "count"),
        ("linalg.mat_mul_calls", "count"),
    ]
    out = [(n, u, "lower", "verify_s", "full-sym3", "small change on operators-spin5 (g build only)") for n, u in rows]
    out += [
        (n, u, "lower", "verify_s", "operators-spin5", "-")
        for n, u in (
            ("weyl.moyal_star_calls", "count"),
            ("weyl.moyal_star_s", "s"),
            ("weyl.left_star_s", "s"),
            ("weyl.compose_calls", "count"),
            ("weyl.compose_s", "s"),
            ("weyl.conjugate_s", "s"),
            ("weyl.covariance_s", "s"),
            ("weyl.property_B_s", "s"),
        )
    ]
    out.append(
        (
            "weyl.left_star_calls", "count", "lower", "verify_s", "operators-spin5",
            "cannot fall on per-suite-small; a cache there shows only as peak_rss_mb",
        )
    )
    out += [
        (n, u, "higher" if n.endswith("_ratio") else "lower", "verify_s", "operators-spin5", "-")
        for n, u in (
            ("starrep.rho_basis_s", "s"),
            ("starrep.rho_terms", "count"),
            ("starrep.star_transform_s", "s"),
            ("starrep.rho_hom_s", "s"),
            ("starrep.field_s", "s"),
            ("hds.dpi_basis_s", "s"),
            ("hds.dpi_hom_s", "s"),
            ("hds.solve_equivalence_s", "s"),
            ("hds.candidates_tried", "count"),
            ("hds.candidate_hit_ratio", "ratio"),
        )
    ]
    out += [
        (n, u, "lower", "verify_s", "per-suite-small", "-")
        for n, u in (
            ("chart.build_s", "s"),
            ("chart.hamiltonicity_s", "s"),
            ("chart.moment_terms", "count"),
            *[(f"report.suite_s.{s}", "s") for s in SUITES],
        )
    ]
    out.append(
        (
            "jordan.validate_s", "s", "lower", "setup_s", "per-suite-small",
            "only if algebra construction moves into RunConfig.validate",
        )
    )
    out += [
        (n, u, "lower", "verify_s", _ALL, "per-suite-small is where fixed per-object overhead can lose")
        for n, u in (
            ("poly.mul_calls", "count"),
            ("poly.mul_s", "s"),
            ("poly.diff_calls", "count"),
            ("poly.substitute_calls", "count"),
            ("scalars.mul_calls", "count"),
            ("scalars.add_calls", "count"),
        )
    ]
    out += [(f"{layer}.self_s", "s", "lower", "verify_s", _ALL, "-") for layer in LAYERS]
    out.append(("trace.overhead_s", "s", "lower", "none", _ALL, "traced minus untraced verify_s"))
    return tuple(out)


PER_LAYER = _per_layer()


def per_layer_values(tracer) -> dict:
    """Every per-layer metric except the tracing overhead, from one traced pass."""
    calls, total = tracer.calls, tracer.total_s
    counts = tracer.counts
    v = {"kkt.build_s": total("kkt.build")}
    for c in KKT_CHECKS:
        v[f"kkt.check_s.{c}"] = total(f"kkt.check.{c}")
    v["kkt.bracket_calls"] = calls("kkt.bracket")
    v["kkt.beta_calls"] = calls("kkt.beta")
    v["kkt.structure_constants_nonzero"] = counts["kkt.structure_constants_nonzero"]
    v["linalg.mat_mul_calls"] = calls("linalg.mat_mul")
    for op in ("moyal_star", "left_star", "compose"):
        v[f"weyl.{op}_calls"] = calls(f"weyl.{op}")
        v[f"weyl.{op}_s"] = total(f"weyl.{op}")
    v["weyl.conjugate_s"] = total("weyl.fourier_conjugate") + total("weyl.holomorphic_frame")
    v["weyl.covariance_s"] = total("weyl.covariance")
    v["weyl.property_B_s"] = total("weyl.property_B")
    v["starrep.rho_basis_s"] = total("starrep.rho_basis")
    v["starrep.rho_terms"] = counts["starrep.rho_terms"]
    v["starrep.star_transform_s"] = total("starrep.star_transform")
    v["starrep.rho_hom_s"] = total("starrep.rho_hom")
    v["starrep.field_s"] = total("starrep.field")
    v["hds.dpi_basis_s"] = total("hds.dpi_basis")
    v["hds.dpi_hom_s"] = total("hds.dpi_hom")
    v["hds.solve_equivalence_s"] = total("hds.solve_equivalence")
    tried = counts["hds.candidates_tried"]
    v["hds.candidates_tried"] = tried
    v["hds.candidate_hit_ratio"] = counts["hds.equivalences_found"] / tried if tried else 0.0
    v["chart.build_s"] = total("chart.build")
    v["chart.hamiltonicity_s"] = total("chart.hamiltonicity")
    v["chart.moment_terms"] = counts["chart.moment_terms"]
    for s in SUITES:
        v[f"report.suite_s.{s}"] = total(f"report.suite.{s}")
    v["jordan.validate_s"] = total("jordan.validate")
    v["poly.mul_calls"] = calls("poly.mul")
    v["poly.mul_s"] = total("poly.mul")
    v["poly.diff_calls"] = calls("poly.diff")
    v["poly.substitute_calls"] = calls("poly.substitute")
    v["scalars.mul_calls"] = calls("scalars.mul")
    v["scalars.add_calls"] = calls("scalars.add")
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        v[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return v
