"""Command-line driver.

    starcayley verify --algebra spin:3 --mu 1 --suites all --format json --out report.json
    starcayley verify --algebra sym:3 --profile 20
    starcayley list-algebras
    starcayley show --algebra sym:2 --what bracket-table|moment-maps|rho|dpi

Exit codes: 0 all selected suites pass, 1 some suite failed, 2 bad config.
``--profile N`` runs the verification under cProfile and prints the N
entries with the most own time to stderr; stdout and the exit code do not
change.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from fractions import Fraction

from . import jordan, kkt, report
from .report import ALL_SUITES, BUILTIN_SELECTORS, ConfigError, RunConfig
from .weyl import WeylOperator, split_first_order


def _parse_mu(text: str) -> Fraction:
    try:
        return jordan.parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad --mu value {text!r}: {exc}")


def _parse_profile(text):
    if text is None:
        return None
    try:
        top = int(text)
    except ValueError:
        top = 0
    if top <= 0:
        raise ConfigError(f"bad --profile value {text!r}: must be a positive integer")
    return top


def _parse_suites(text: str) -> tuple:
    if text == "all":
        return ALL_SUITES
    return tuple(s.strip() for s in text.split(",") if s.strip())


def cmd_verify(args) -> int:
    config = RunConfig(
        algebra=args.algebra,
        mu=_parse_mu(args.mu),
        suites=_parse_suites(args.suites),
        fmt=args.format,
        out=args.out,
        seed=args.seed,
    )
    top = _parse_profile(args.profile)
    if top is None:
        rep = report.run(config)
    else:
        profile = cProfile.Profile()
        rep = profile.runcall(report.run, config)
        pstats.Stats(profile, stream=sys.stderr).sort_stats("tottime").print_stats(top)
    if rep.algebra_error is not None:
        raise ConfigError(rep.algebra_error)
    print(report.write_report(rep, config))
    return 0 if rep.passed else 1


def cmd_list_algebras(_args) -> int:
    for sel in BUILTIN_SELECTORS:
        A = jordan.make_algebra(sel)
        print(f"{sel:8s} dim={A.dim:2d} rank={A.rank} dim_g={kkt.GradedLieAlgebra(A).dim}")
    print("custom  file:<path-to-structure-constants.json>")
    return 0


def cmd_show(args) -> int:
    config = RunConfig(algebra=args.algebra, mu=_parse_mu(args.mu))
    config.validate()
    ctx = report.InstanceContext(config)
    g = ctx.lie
    if args.what == "bracket-table":
        out = {
            f"[{i},{j}]": {str(k): str(c) for k, c in nz.items()}
            for (i, j), nz in sorted(g.bracket_table.items())
        }
        print(json.dumps(out, indent=2))
    elif args.what == "moment-maps":
        for i, lam in enumerate(ctx.chart.moment):
            print(f"lambda[{i}] = {lam}")
    elif args.what == "rho":
        for i, op in enumerate(ctx.rho):
            print(f"rho[{i}] = {op}")
    elif args.what == "dpi":
        # dpi_m = V + m*S, with S the multiplier of dpi_1 and V its vector field
        for i, op in enumerate(ctx.dpi):
            s_op = WeylOperator.from_poly(split_first_order(op)[0])
            print(f"dpi[{i}] = ({op - s_op})  +  m * ({s_op})")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError, so that it ends
    as one ``error:`` line and exit 2 like every other bad input; the
    subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="starcayley", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites on one instance")
    v.add_argument("--algebra", default="rank1")
    v.add_argument("--mu", default="1")
    v.add_argument("--suites", default="all", help="comma list or 'all'")
    v.add_argument("--format", default="text", choices=("text", "json"))
    v.add_argument("--out", default=None)
    v.add_argument("--seed", type=int, default=RunConfig.seed)
    v.add_argument("--profile", default=None, metavar="N", help="print the top N by own time")
    v.set_defaults(func=cmd_verify)

    ls = sub.add_parser("list-algebras", help="list built-in instances")
    ls.set_defaults(func=cmd_list_algebras)

    s = sub.add_parser("show", help="print computed objects for one instance")
    s.add_argument("--algebra", required=True)
    s.add_argument("--mu", default="1")
    s.add_argument("--what", required=True, choices=("bracket-table", "moment-maps", "rho", "dpi"))
    s.set_defaults(func=cmd_show)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (
        ConfigError,
        jordan.InvalidDimension,
        jordan.UnknownAlgebra,
        jordan.ValidationFailed,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
