"""Spans and counts around the calls into each starcayley layer.

The tracer patches the layers' public functions from outside the package
and keeps every record in memory until the run ends.  A span is
(id, name, start, end, parent id).  The primitive operations in ``HOT``
run up to hundreds of thousands of times per run, so their spans are
folded into per-name totals as they close instead of being stored one by
one; every other span is stored.  Self time is computed as each span
closes: its duration minus the time covered by its direct children, which
is the same figure the stored spans give.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter, defaultdict

# Binary operations that call no other traced function: their spans need
# no frame of their own, which keeps the cost of tracing them low.
LEAVES = frozenset({"scalars.add", "scalars.mul"})

# Span names whose individual spans are folded into totals (see above).
HOT = LEAVES | frozenset(
    {
        "poly.mul",
        "poly.diff",
        "poly.substitute",
        "weyl.compose",
        "linalg.mat_mul",
        "linalg.mat_vec",
        "linalg.commutator",
        "kkt.bracket",
        "kkt.beta",
    }
)


def targets(sc):
    """(span name, owner, attribute) for every traced call; ``sc`` maps
    module names to the imported starcayley modules."""
    report, jordan, kkt, linalg = sc["report"], sc["jordan"], sc["kkt"], sc["linalg"]
    chart, weyl, starrep, hds = sc["chart"], sc["weyl"], sc["starrep"], sc["hds"]
    poly, scalars = sc["poly"], sc["scalars"]
    g, ch, sr, ds = kkt.GradedLieAlgebra, chart.SymplecticChart, starrep.StarRepresentation, hds.DiscreteSeries
    return [
        ("report.run", report, "run"),
        ("report.validate", report.RunConfig, "validate"),
        *[(f"report.suite.{s}", report, f"run_{s}_suite") for s in report.ALL_SUITES],
        ("jordan.make_algebra", jordan, "make_algebra"),
        ("jordan.validate", jordan, "validate_jordan"),
        ("kkt.build", g, "__init__"),
        ("kkt.check.antisymmetry", kkt, "verify_antisymmetry"),
        ("kkt.check.jacobi", kkt, "verify_jacobi"),
        ("kkt.check.grading", kkt, "verify_grading"),
        ("kkt.check.theta", kkt, "verify_theta"),
        ("kkt.check.identifications", kkt, "verify_identifications"),
        ("kkt.check.killing_invariance", kkt, "verify_killing_invariance"),
        ("kkt.check.killing_closed_form", kkt, "measure_kappa"),
        ("kkt.symplectic_basis", g, "symplectic_basis"),
        ("kkt.bracket", g, "bracket"),
        ("kkt.beta", g, "beta"),
        ("linalg.mat_mul", linalg, "mat_mul"),
        ("linalg.mat_vec", linalg, "mat_vec"),
        ("linalg.commutator", linalg, "commutator"),
        ("linalg.invert", linalg, "invert"),
        ("linalg.in_span", linalg, "in_span"),
        ("chart.build", ch, "__init__"),
        ("chart.hamiltonicity", ch, "hamiltonicity_residual"),
        ("weyl.moyal_star", weyl, "moyal_star"),
        ("weyl.left_star", weyl, "left_star_operator"),
        ("weyl.compose", weyl.WeylOperator, "__mul__"),
        ("weyl.fourier_conjugate", weyl, "fourier_conjugate"),
        ("weyl.holomorphic_frame", weyl, "holomorphic_frame"),
        ("weyl.covariance", weyl, "verify_covariance"),
        ("weyl.property_B", weyl, "verify_property_B"),
        ("starrep.build", sr, "__init__"),
        ("starrep.rho_basis", sr, "rho_basis"),
        ("starrep.star_transform", starrep, "verify_star_transform"),
        ("starrep.rho_hom", starrep, "verify_rho_homomorphism"),
        ("starrep.field", sr, "field_residual"),
        ("starrep.kappa_h", sr, "measure_kappa_h"),
        ("hds.build", ds, "__init__"),
        ("hds.dpi_basis", ds, "dpi_basis"),
        ("hds.dpi_hom", hds, "verify_dpi_homomorphism"),
        ("hds.solve_equivalence", hds, "solve_equivalence"),
        ("hds.closed_form", hds, "compare_with_closed_form"),
        ("hds.special_nu", hds, "special_nu_value"),
        ("poly.mul", poly.Poly, "__mul__"),
        ("poly.diff", poly.Poly, "diff"),
        ("poly.substitute", poly.Poly, "substitute"),
        ("scalars.add", scalars.Scalar, "__add__"),
        ("scalars.mul", scalars.Scalar, "__mul__"),
    ]


def _replace(sc, owner, attr, new):
    """Point every reference to ``owner.attr`` inside the package at ``new``:
    the attribute itself, aliases on the same class (``__radd__ = __add__``),
    names imported into other modules and the report's suite table."""
    old = getattr(owner, attr)
    if isinstance(owner, type):
        for name, value in list(vars(owner).items()):
            if value is old:
                setattr(owner, name, new)
        return
    for mod in sc.values():
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
    runners = sc["report"].SUITE_RUNNERS
    for name, fn in runners.items():
        if fn is old:
            runners[name] = new


class Tracer:
    """Records spans and counts for the calls it wraps; single-threaded."""

    def __init__(self, sc):
        self.ids = itertools.count(1)
        self.stack = [[0, 0.0]]  # open spans: [id, seconds covered by children]
        self.spans = []  # (id, name, start, end, parent id)
        self.stats = {}
        self.counts = Counter()
        for name, owner, attr in targets(sc):
            _replace(sc, owner, attr, self.wrap(name, getattr(owner, attr)))
        self._add_sizes(sc)

    def wrap(self, name, fn):
        clock, stack, spans, ids = time.perf_counter, self.stack, self.spans, self.ids
        hot = name in HOT
        # calls, inclusive seconds (outermost calls only), self seconds, depth
        stats = self.stats[name] = [0, 0.0, 0.0, 0]

        if name in LEAVES:

            @functools.wraps(fn)
            def leaf(a, b):
                start = clock()
                try:
                    return fn(a, b)
                finally:
                    dur = clock() - start
                    stack[-1][1] += dur
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur

            return leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0] if hot else next(ids), 0.0]
            stack.append(frame)
            stats[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[1] += dur
                stats[0] += 1
                stats[2] += dur - frame[1]
                stats[3] -= 1
                if not stats[3]:
                    stats[1] += dur
                if not hot:
                    spans.append((frame[0], name, start, end, parent[0]))

        return traced

    def _add_sizes(self, sc):
        """Object sizes and candidate counts read from the built objects."""
        counts = self.counts
        g_cls = sc["kkt"].GradedLieAlgebra
        ch_cls = sc["chart"].SymplecticChart
        sr_cls = sc["starrep"].StarRepresentation
        hds = sc["hds"]

        def after(cls, attr, measure):
            fn = getattr(cls, attr)

            @functools.wraps(fn)
            def sized(obj, *args, **kwargs):
                out = fn(obj, *args, **kwargs)
                measure(obj, out)
                return out

            setattr(cls, attr, sized)

        def g_size(g, _):
            counts["kkt.structure_constants_nonzero"] += sum(len(v) for v in g.bracket_table.values())

        def ch_size(ch, _):
            counts["chart.moment_terms"] += sum(len(p.terms) for p in ch.moment)

        def rho_size(_, ops):
            counts["starrep.rho_terms"] += sum(len(op.terms) for op in ops)

        after(g_cls, "__init__", g_size)
        after(ch_cls, "__init__", ch_size)
        after(sr_cls, "rho_basis", rho_size)

        solve = hds.solve_equivalence

        def counted_solve(*args, **kwargs):
            out = solve(*args, **kwargs)
            counts["hds.equivalences_found"] += 1
            return out

        _replace(sc, hds, "solve_equivalence", functools.wraps(solve)(counted_solve))

        candidates = hds._automorphism_candidates

        def counted_candidates(g):
            for item in candidates(g):
                counts["hds.candidates_tried"] += 1
                yield item

        hds._automorphism_candidates = counted_candidates

    def calls(self, name):
        return self.stats[name][0]

    def total_s(self, name):
        return self.stats[name][1]

    def layer_self_s(self):
        out = defaultdict(float)
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st[2]
        return out

    def dump(self):
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "calls": {n: st[0] for n, st in self.stats.items()},
            "total_s": {n: st[1] for n, st in self.stats.items()},
            "self_s": {n: st[2] for n, st in self.stats.items()},
            "counts": dict(self.counts),
        }
