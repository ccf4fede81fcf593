import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from starcayley import cli, jordan, starrep, weyl
from starcayley.report import (
    ALL_SUITES,
    ConfigError,
    InstanceContext,
    RunConfig,
    run,
    run_fourier_suite,
    run_star_suite,
    write_report,
)
from starcayley.poly import Poly
from starcayley.weyl import WeylOperator

REPORTS = Path(__file__).resolve().parent.parent / "reports"
SPIN2 = jordan.make_spin_factor(2)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_zero_mu_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--algebra", "rank1", "--mu", "0")
        assert code == 2
        assert "mu" in err

    def test_show_zero_mu_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "show", "--algebra", "rank1", "--mu", "0", "--what", "rho"
        )
        assert code == 2
        assert out == "" and err == "error: mu must be nonzero\n"

    def test_unknown_algebra_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--algebra", "oct:3")
        assert code == 2
        assert "error" in err

    def test_unknown_suite_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--algebra", "rank1", "--suites", "nonsense"
        )
        assert code == 2

    @pytest.mark.parametrize("text", ["1e3", "2E-1", "0.5", " 2", "1_0"])
    def test_mu_outside_integer_or_p_over_q_is_config_error(self, capsys, text):
        # Fraction reads an exponent by building the power of ten, so a
        # large one ran without end; each of these was accepted
        code, out, err = run_cli(capsys, "verify", "--algebra", "rank1", "--mu", text)
        assert code == 2 and out == ""
        assert err == f"error: bad --mu value {text!r}: expected an integer or p/q, got {text!r}\n"

    @pytest.mark.parametrize("text", ["1e0", "10E-1", "1.0"])
    def test_table_entry_outside_integer_or_p_over_q_is_config_error(self, capsys, tmp_path, text):
        # each reads as 1, the unit's first entry, so the table was accepted
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps({**SPIN2.to_json(), "unit": [text, "0"]}))
        code, out, err = run_cli(capsys, "verify", "--algebra", f"file:{path}")
        assert code == 2 and out == ""
        assert err.startswith("error: malformed structure-constant table: ") and err.count("\n") == 1

    def test_bad_mu_string(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--mu", "one")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,start",
        [
            pytest.param(("verify", "--seed", "abc"), "error: argument --seed", id="bad-seed"),
            pytest.param(("verify", "--format", "xml"), "error: argument --format", id="bad-format"),
            pytest.param(
                ("show", "--algebra", "rank1"), "error: the following arguments are required: --what",
                id="missing-what",
            ),
            pytest.param(
                ("show", "--algebra", "rank1", "--what", "theta"), "error: argument --what",
                id="unknown-what",
            ),
            pytest.param((), "error: the following arguments are required: command", id="no-subcommand"),
        ],
    )
    def test_malformed_command_line_is_one_error_line(self, capsys, argv, start):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(start) and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--algebra" in capsys.readouterr().out

    def test_spin_needs_two_dimensions(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--algebra", "spin:1")
        assert code == 2

    @pytest.mark.parametrize(
        "selector",
        # a non-canonical integer would build spin:3 or sym:2 under another name
        ["spin:abc", "sym:", "spin:03", "spin: 3", "spin:+3", "sym:0_2"],
    )
    def test_non_integer_dimension_is_config_error(self, capsys, selector):
        code, _, err = run_cli(capsys, "verify", "--algebra", selector)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_file_is_config_error(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        code, _, err = run_cli(capsys, "verify", "--algebra", f"file:{missing}")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_invalid_json_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", "--algebra", f"file:{path}")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: {k: v for k, v in d.items() if k != "rank"}, id="no-rank"),
            pytest.param(lambda d: {**d, "unit": ["x", "0"]}, id="non-rational"),
            pytest.param(lambda d: [d], id="not-an-object"),
            pytest.param(lambda d: {**d, "unit": d["unit"] + ["0"]}, id="unit-length"),
            pytest.param(lambda d: {**d, "rank": 0}, id="zero-rank"),
            # a string iterates as its characters; this one passed as rank1
            pytest.param(
                lambda d: {"dim": 1, "rank": 1, "unit": "1", "structure": "1"}, id="string-table"
            ),
        ],
    )
    def test_malformed_table_is_config_error(self, capsys, tmp_path, edit):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(edit(jordan.make_spin_factor(2).to_json())))
        code, _, err = run_cli(capsys, "verify", "--algebra", f"file:{path}")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param({"dim": 2.5}, id="float-dim"),
            pytest.param({"dim": 2.0}, id="integral-float-dim"),
            pytest.param({"rank": True}, id="bool-rank"),
            pytest.param({"basis_names": ["s", "u1", "u2"]}, id="three-names-for-dim-2"),
            pytest.param({"basis_names": ["s", "s"]}, id="repeated-name"),
            pytest.param({"basis_names": ["s", 1]}, id="non-string-name"),
            pytest.param({"unit": [True, False]}, id="bool-unit"),
            pytest.param({"unit": "10"}, id="string-unit"),
            pytest.param({"structure": [["10", "01"], ["01", "10"]]}, id="string-rows"),
            pytest.param(
                {"structure": [[list(map(float, r)) for r in p] for p in SPIN2.to_json()["structure"]]},
                id="float-structure",
            ),
        ],
    )
    def test_mistyped_table_is_config_error(self, capsys, tmp_path, edit):
        # each of these was read as a valid spin:2 and passed every suite
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps({**SPIN2.to_json(), **edit}))
        code, out, err = run_cli(capsys, "verify", "--algebra", f"file:{path}")
        assert code == 2
        assert "PASS" not in out
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("selector, rank", [("spin:3", 1), ("sym:3", 2), ("sym:3", 1)])
    def test_rank_below_minimal_polynomial_degree_is_config_error(
        self, capsys, tmp_path, selector, rank
    ):
        # spin:3 declared of rank 1 passed every suite with a wrong m*
        path = tmp_path / "low-rank.json"
        path.write_text(json.dumps({**jordan.make_algebra(selector).to_json(), "rank": rank}))
        code, out, err = run_cli(capsys, "verify", "--algebra", f"file:{path}")
        assert code == 2
        assert "PASS" not in out
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"rank {rank} is below" in err

    @pytest.mark.parametrize("target", ["absent/report.json", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_out_is_config_error(self, capsys, tmp_path, target):
        out = tmp_path / target
        code, _, err = run_cli(
            capsys, "verify", "--algebra", "rank1", "--suites", "jordan", "--out", str(out)
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("target", ["", "."], ids=["empty", "a-dir"])
    def test_out_is_refused_before_any_suite_runs(self, capsys, monkeypatch, tmp_path, target):
        # an empty --out ran every suite, wrote no file and exited 0; a
        # directory ran every suite before it exited 2
        def boom(ctx):
            raise AssertionError("a suite ran")

        monkeypatch.setitem(cli.report.SUITE_RUNNERS, "jordan", boom)
        out = str(tmp_path / target) if target else target
        code, stdout, err = run_cli(
            capsys, "verify", "--algebra", "rank1", "--suites", "jordan", "--out", out
        )
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: cannot write {out!r}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("suites", [",", " , "])
    def test_empty_suite_list_is_config_error(self, capsys, suites):
        code, out, err = run_cli(capsys, "verify", "--algebra", "rank1", "--suites", suites)
        assert code == 2
        assert "overall" not in out
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_jordan_table_is_config_error(self, capsys, tmp_path):
        # spin:2 with one structure constant changed breaks the Jordan axioms
        data = jordan.make_spin_factor(2).to_json()
        data["structure"][0][1][1] = "2"
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "verify", "--algebra", f"file:{path}")
        assert code == 2
        assert err == (
            "error: commutativity: structure constants not symmetric; jordan identity: "
            "x o (x^2 o y) != x^2 o (x o y); unit: e o x != x\n"
        )

    def test_indefinite_trace_form_is_config_error(self, capsys, tmp_path):
        # commutative, Jordan and unital, but the Gram matrix is diag(2, -2)
        data = jordan.make_spin_factor(2).to_json()
        data["structure"][1][1][0] = "-1"
        path = tmp_path / "indefinite.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "verify", "--algebra", f"file:{path}")
        assert code == 2
        assert err == "error: trace form: Gram matrix not positive definite\n"

    def test_passing_suites_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", "rank1", "--suites", "jordan,chart"
        )
        assert code == 0
        assert "[PASS]" in out

    @pytest.mark.parametrize("top", ["0", "-3", "x", "1.5", ""])
    def test_bad_profile_is_config_error(self, capsys, top):
        code, out, err = run_cli(capsys, "verify", "--algebra", "rank1", "--profile", top)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad --profile") and err.count("\n") == 1

    def test_profile_leaves_stdout_and_exit_code(self, capsys):
        args = ("verify", "--algebra", "spin:2", "--format", "json")
        code, out, err = run_cli(capsys, *args)
        code_p, out_p, err_p = run_cli(capsys, *args, "--profile", "5")
        assert code_p == code == 0 and err == ""
        plain, profiled = json.loads(out), json.loads(out_p)
        assert plain.pop("timings").keys() == profiled.pop("timings").keys()
        assert profiled == plain
        assert "Ordered by: internal time" in err_p
        assert "restriction <5>" in err_p

    def test_failing_suite_exit_one(self, capsys, monkeypatch):
        # a fault injected into the pull-back that decides D_A = rho(A) (its
        # image shifted by the identity) must fail the fourier suite and
        # surface as exit 1
        real = starrep.star_pullback

        def shifted(op, target):
            return real(op, target) + WeylOperator.identity(target)

        monkeypatch.setattr(starrep, "star_pullback", shifted)
        code, out, _ = run_cli(
            capsys, "verify", "--algebra", "rank1", "--suites", "fourier"
        )
        assert code == 1
        assert "[FAIL]" in out


class TestJsonReport:
    def test_schema_and_file_output(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--algebra",
            "rank1",
            "--suites",
            "jordan,lie,chart",
            "--format",
            "json",
            "--out",
            str(out_file),
        )
        assert code == 0
        data = json.loads(out)
        assert data["algebra"] == "rank1"
        assert set(data["suites"]) == {"jordan", "lie", "chart"}
        for suite in data["suites"].values():
            assert "passed" in suite
        assert json.loads(out_file.read_text()) == data

    def test_constants_block(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "verify",
            "--algebra",
            "spin:3",
            "--suites",
            "lie",
            "--format",
            "json",
        )
        data = json.loads(out)
        consts = data["constants"]
        assert consts["dim_algebra"] == 3
        assert consts["dim_g"] == 10
        assert consts["beta_oo"] == "6"


class TestShowAndList:
    def test_list_algebras(self, capsys):
        code, out, _ = run_cli(capsys, "list-algebras")
        assert code == 0
        for sel in ("rank1", "spin:3", "sym:2"):
            assert sel in out
        assert "dim_g=10" in out

    def test_show_bracket_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "show", "--algebra", "rank1", "--what", "bracket-table"
        )
        assert code == 0
        table = json.loads(out)
        assert any(key.startswith("[") for key in table)

    @pytest.mark.parametrize("what", ["moment-maps", "rho", "dpi"])
    def test_show_computed_objects(self, capsys, what):
        code, out, _ = run_cli(capsys, "show", "--algebra", "rank1", "--what", what)
        assert code == 0
        assert out.strip()

    @pytest.mark.parametrize(
        "what,lines",
        [
            (
                "rho",
                [
                    "rho[0] = (1) d_z1",
                    "rho[1] = (1/2 + 1*nu^-1) 1 + (1) z1 d_z1",
                    "rho[2] = (1 + 2*nu^-1) z1 + (1) z1^2 d_z1",
                ],
            ),
            (
                "dpi",
                [
                    "dpi[0] = ((-1) d_z1)  +  m * (0)",
                    "dpi[1] = ((-1) z1 d_z1)  +  m * ((-1) 1)",
                    "dpi[2] = ((-1) z1^2 d_z1)  +  m * ((-2) z1)",
                ],
            ),
        ],
    )
    def test_show_rank_one_operators_exactly(self, capsys, what, lines):
        code, out, _ = run_cli(capsys, "show", "--algebra", "rank1", "--what", what)
        assert code == 0
        assert out.splitlines() == lines

    def test_rank_one_worked_example_script(self):
        script = Path(__file__).resolve().parent.parent / "scripts" / "show_rank_one_worked_example.py"
        out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "solved weight m* = 1/2 + 1*nu^-1" in out.stdout.splitlines()


class TestReportApi:
    def test_all_suites_constant(self):
        assert ALL_SUITES == ("jordan", "lie", "chart", "star", "fourier", "theorem")

    def test_run_config_defaults(self):
        config = RunConfig()
        assert (config.algebra, config.mu, config.suites) == ("rank1", 1, ALL_SUITES)
        assert (config.fmt, config.out, config.seed) == ("text", None, 20260826)
        # the default of verify --seed is read off the class
        assert RunConfig.seed == 20260826
        assert cli.build_parser().parse_args(["verify"]).seed == RunConfig.seed

    @pytest.mark.parametrize("mu", [0.5, 1.0, True, "1"])
    def test_inexact_mu_is_config_error(self, mu):
        config = RunConfig(algebra="rank1", mu=mu)
        with pytest.raises(ConfigError, match="mu"):
            config.validate()
        with pytest.raises(ConfigError, match="mu"):
            run(config)

    def test_text_report_one_line_per_check(self):
        config = RunConfig(algebra="rank1", mu=1, suites=("jordan",))
        config.validate()
        rep = run(config)
        text = write_report(rep, config)
        assert text.count("[PASS]") + text.count("[FAIL]") >= 1

    def test_build_timings(self):
        # the chart builds g first; each artifact reports its own time
        t0 = time.perf_counter()
        rep = run(RunConfig(algebra="spin:3", suites=("chart",)))
        wall = time.perf_counter() - t0
        builds = {k: v for k, v in rep.timings.items() if k.startswith("build:")}
        assert set(builds) == {"build:algebra", "build:lie", "build:generators", "build:chart"}
        assert all(v >= 0 for v in builds.values())
        # nested builds are not counted twice, and the suite's time is net
        # of the builds it started: the two add up to at most the wall time
        assert rep.timings["chart"] >= 0
        assert rep.timings["chart"] + sum(builds.values()) <= wall
        # each check that ran has its own entry, net of builds, inside the suite's
        checks = {k: v for k, v in rep.timings.items() if k.startswith("check:")}
        assert set(checks) == {f"check:chart.{c}" for c in ("jacobi", "hamiltonicity", "max_moment_degree")}
        assert all(v >= 0 for v in checks.values())
        assert sum(checks.values()) <= rep.timings["chart"] + 1e-9
        assert "build:lie" in rep.to_json()["timings"]
        assert "build:" not in rep.to_text()

    def test_non_jordan_table_returns_report(self, tmp_path, monkeypatch):
        data = jordan.make_spin_factor(2).to_json()
        data["structure"][0][1][1] = "2"
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(data))
        real = jordan.make_algebra
        calls = []

        def counted(selector):
            calls.append(selector)
            return real(selector)

        monkeypatch.setattr(jordan, "make_algebra", counted)
        rep = run(RunConfig(algebra=f"file:{path}"))
        assert len(calls) == 1
        assert set(rep.suites) == set(ALL_SUITES)
        assert all(s == {"passed": False, "error": rep.algebra_error} for s in rep.suites.values())
        assert rep.algebra_error
        assert "dim_algebra" not in rep.constants and "rank" not in rep.constants
        assert not rep.passed

    def test_file_table_is_validated_once(self, tmp_path, monkeypatch):
        # the jordan suite reuses the report of the validation in the load
        data = {**jordan.make_sym_matrices(3).to_json(), "name": "sym3-table"}
        path = tmp_path / "sym3.json"
        path.write_text(json.dumps(data))
        real = jordan.validate_jordan
        calls = []

        def counted(A):
            calls.append(A.name)
            return real(A)

        monkeypatch.setattr(jordan, "validate_jordan", counted)
        got = run(RunConfig(algebra=f"file:{path}")).to_json()
        assert calls == ["sym3-table"]
        want = json.loads((REPORTS / "sym_3.json").read_text())
        assert got["suites"]["jordan"].pop("name") == "sym3-table"
        want["suites"]["jordan"].pop("name")
        for rep in (got, want):
            del rep["algebra"], rep["timings"]
        assert json.loads(json.dumps(got)) == want

    def test_left_star_operators_built_once_per_instance(self, monkeypatch):
        real = weyl.left_star_operator
        calls = []

        def counted(lam):
            calls.append(lam)
            return real(lam)

        # every module of the package that holds the function, so that a
        # build through an imported name is counted as well
        for name, mod in list(sys.modules.items()):
            if name == "starcayley" or name.startswith("starcayley."):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, counted)
        ctx = InstanceContext(RunConfig(algebra="spin:3"))
        assert run_star_suite(ctx)["passed"]
        assert run_fourier_suite(ctx)["passed"]
        assert len(calls) == ctx.lie.dim

    def test_covariance_witness_only_on_failure(self):
        ctx = InstanceContext(RunConfig(algebra="spin:2"))
        assert "covariance_witness" not in run_star_suite(ctx)
        ch = ctx.chart
        l1, m1 = (Poly.var(ch.vs, x) for x in ("l1", "m1"))
        ch.moment = [ch.moment[0] + l1 * m1 * m1, *ch.moment[1:]]
        star = run_star_suite(ctx)
        assert not star["passed"] and star["covariance_residual"] == "4"
        assert star["covariance_witness"] == "first failing (i, j) = (0, 4), residual 4"
