"""Command line interface: evaluation, suites, exports, exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qszego
from qszego import cli
from qszego.cli import main
from qszego.hypercomplex import Hypercomplex


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_density(capsys):
    code, out, err = run_cli(["eval", "s", "--n", "1", "--nu", "1,0,0,0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"][0] - 24 / math.pi**4) < 1e-14
    assert data["n"] == 1 and data["m"] == 4


def test_eval_cauchy(capsys):
    code, out, err = run_cli(["eval", "E", "--m", "4", "--nu", "1,0,0,0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"][0] - 1 / (2 * math.pi**2)) < 1e-14


def test_eval_singular_point(capsys):
    code, out, err = run_cli(["eval", "s", "--n", "1", "--nu", "0,0,0,0"], capsys)
    assert code == 1
    assert "singular" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["eval", "E", "--nu", "0,0,0,0"], "singular point nu = 0"),
        (["eval", "K", "--omega", "0,0,0,0", "--t", "0,0,0"], "singular point: identity element"),
    ],
)
def test_eval_singular_point_of_each_kernel(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "s", "--nu", "1e-400,0,0,0"],
        ["eval", "E", "--nu", "1e-400,0,0,0"],
        ["eval", "K", "--omega", "0,0,0,0", "--t", "1e-400,0,0"],
        ["eval", "K", "--omega", "1e-400,0,0,0", "--t", "0,0,0"],
    ],
)
def test_eval_nonzero_point_that_rounds_to_zero_is_not_singular(args, capsys):
    # the singular test reads the exact input; its floats are all 0.0, so the
    # float evaluation fails, as on any value it cannot represent
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "singular" not in err and err.count("\n") == 1


@pytest.mark.parametrize("nu", ["1e-200,0,0,0", "1e200,0,0,0"])
def test_eval_float_fault_is_one_error_line(nu, capsys):
    # |s| is about 1e995 and 1e-1005 at n = 1, beyond the floats either way:
    # the overflow and the value whose every component rounds to 0 both
    # raise, exit 1 and one error line
    code, out, err = run_cli(["eval", "s", "--nu", nu], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("nu", ["1e-60,0,0,0", "1e60,0,0,0", "3e-50,-1e-50,2e-50,0", "1e55,0,-5e54,1e54"])
def test_eval_density_across_the_float_range(nu, capsys):
    # the density scales each point by a power of two, so a value the floats
    # hold is printed, as close to the exact oracle as one near |nu| = 1
    code, out, err = run_cli(["eval", "s", "--nu", nu], capsys)
    assert code == 0, err
    got = json.loads(out)["value"]
    density = qszego.szego_density(1)
    exact = density.body.eval([Fraction(c) for c in nu.split(",")]).comps
    want = [float(Fraction(density.prefactor()) * c) for c in exact]
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14 * max(abs(w) for w in want)


@pytest.mark.parametrize("n", range(19, 25))
def test_k_decay_table_at_every_n_up_to_the_cap(n, tmp_path, capsys):
    # |K| runs from about 1e102 down to 1e-242 over the table at n = 24
    path = tmp_path / "t.csv"
    code, _, err = run_cli(["export", "table", "--what", "K-decay", "--n", str(n), "-o", str(path)], capsys)
    assert code == 0, err
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 50 and all(math.isfinite(float(v)) and float(v) > 0 for r in rows for v in r.split(","))


@pytest.mark.parametrize("command", [["eval", "s", "--nu", "1,0,0"], ["export", "kernel"]])
def test_m_outside_2_and_4_is_usage_error(command, capsys):
    code, out, err = run_cli(command + ["--m", "3"], capsys)
    assert code == 2 and out == ""
    assert "--m" in err


def test_eval_full_kernel(capsys):
    code, out, err = run_cli(
        ["eval", "S", "--n", "1", "--q", "0,0,0,0,1,0,0,0", "--omega", "0,0,0,0,1,0,0,0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"][0] - 3 / (4 * math.pi**4)) < 1e-16
    assert data["nu"] == [2.0, 0.0, 0.0, 0.0]


def test_eval_full_kernel_rounds_the_exact_nu_once(capsys):
    q, omega = "1/3,2/3,-1/3,1/3,2,1/3,0,-2/3", "1/3,-1/3,1/3,2/3,3,0,1/3,1/3"
    code, out, err = run_cli(["eval", "S", "--q", q, "--omega", omega], capsys)
    assert code == 0
    (q1, q2), (w1, w2) = (
        [Hypercomplex([Fraction(c) for c in text.split(",")[i : i + 4]]) for i in (0, 4)]
        for text in (q, omega)
    )
    nu = q2 + w2.conj() - (w1.conj() * q1) * 2
    assert all(type(c) in (int, Fraction) for c in nu.comps)
    assert json.loads(out)["nu"] == [float(c) for c in nu.comps]


def test_eval_group_kernel(capsys):
    code, out, err = run_cli(
        ["eval", "K", "--n", "1", "--omega", "0,0,0,0", "--t", "1,0,0"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"][1] - 8 / math.pi**4) < 1e-14
    assert data["rho"] == 1.0


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "S", "--q", "0,0,0,0,1,0,0,0", "--omega", "0,0,0,0,1,0,0,0"],
        ["eval", "K", "--omega", "0,0,0,0", "--t", "1,0,0"],
    ],
    ids=["S", "K"],
)
def test_eval_quaternionic_kernel_needs_m_4(args, capsys):
    # S and K are quaternionic: --m 2 would silently give the m = 4 value
    code, out, err = run_cli(args + ["--m", "2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "--m 4" in err


@pytest.mark.parametrize(
    "q, omega, flag",
    [
        ("1,0,0,0,0,0,0,0", "0,0,0,0,1,0,0,0", "--q"),
        ("0,0,0,0,1,0,0,0", "1/2,0,0,0,1/5,1,0,0", "--omega"),
    ],
)
def test_eval_point_below_the_half_space_is_usage_error(q, omega, flag, capsys):
    # height Re q_2 - |q'|^2 = -1 (and 1/5 - 1/4 for omega): not a point of the domain
    code, out, err = run_cli(["eval", "S", "--q", q, "--omega", omega], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def test_eval_boundary_point_still_evaluates(capsys):
    # height 0: (e1, 1) is on the boundary, and so is (0, e2)
    code, out, err = run_cli(
        ["eval", "S", "--q", "1,0,0,0,1,0,0,0", "--omega", "0,0,0,0,0,0,1,0"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["nu"] == [1.0, 0.0, -1.0, 0.0] and all(math.isfinite(v) for v in data["value"])


def test_eval_parse_error(capsys):
    code, out, err = run_cli(["eval", "s", "--nu", "1,zebra,0,0"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("nu", ["1,,0,0,0", ",1,0,0,0"])
def test_empty_component_is_usage_error(nu, capsys):
    # five fields, one empty: an error, not the value at the other four
    code, out, err = run_cli(["eval", "s", "--nu", nu], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_component_list_blanks(capsys):
    # a missing flag is a list of no components; spaces around a field are allowed
    code, out, err = run_cli(["eval", "s"], capsys)
    assert (code, out) == (2, "") and err.strip() == "error: expected 4 components, got 0 in ''"
    code, out, _ = run_cli(["eval", "s", "--nu", " 1, 0,0 ,0"], capsys)
    assert code == 0
    assert out == run_cli(["eval", "s", "--nu", "1,0,0,0"], capsys)[1]


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "s", "--n", "1", "--nu", "1e400,0,0,0"],
        ["eval", "S", "--n", "1", "--q", "0,0,0,0,1e400,0,0,0", "--omega", "0,0,0,0,1,0,0,0"],
    ],
)
def test_out_of_range_component_is_usage_error(args, capsys):
    # a component beyond the float range is a bad flag value, not a failed evaluation
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_verify_algebra_passes(capsys):
    code, out, err = run_cli(["verify", "algebra"], capsys)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines and all(l["passed"] for l in lines)
    assert "passed" in err


def test_verify_deterministic_given_seed(capsys):
    code1, out1, _ = run_cli(["verify", "geometry", "--seed", "7"], capsys)
    code2, out2, _ = run_cli(["verify", "geometry", "--seed", "7"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    # pins the float Cayley deviations, which go through the product
    digest = hashlib.sha256(out1.encode()).hexdigest()
    assert digest == "089cb6e518b8cdf464ac514f13a258ccb6f0b64d70d3bc733f2117f1eeef57e1"


def test_verify_all_seed_0_is_pinned(capsys):
    # every report of every suite, bit for bit
    code, out, _ = run_cli(["verify", "all", "--seed", "0"], capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "70d796eb17a4396d6448c391e343e0ea518b5d31a1e27b5c0fff4239e4bd8824"


def test_verify_octonion_seed_3_is_pinned(capsys):
    # the Stein-Weiss input and the corpus' conjugate gradients at a second seed
    code, out, _ = run_cli(["verify", "octonion", "--seed", "3"], capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "969733ccf065b2026c5e291011144366fb5ecf586866061c02336a65166b0ae2"


@pytest.mark.parametrize(
    "n, want",
    [
        ("2", "f0deed4c1961bac3c1af3c42b311f1b74bf82dea869446bc04f6da3e48ad8888"),
        ("3", "5d67133a20652b900c814035ef0508a52129140a3450907f322d5307c47f2fbc"),
    ],
)
def test_verify_reproducing_is_pinned_above_n_1(n, want, capsys):
    # the boundary rule at n >= 2, bit for bit; n = 1 is pinned by verify all
    code, out, _ = run_cli(["verify", "reproducing", "--n", n], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize(
    "args, want",
    [
        (["eval", "s", "--n", "1", "--nu", "1,0,0,0"], "eea1148024cfaee71a8e0cbae339cf118861f9cc3d6e2721f174d4e16ad27eb6"),
        (["eval", "E", "--m", "4", "--nu", "1,0,0,0"], "6d2e52966358c745036423af441172376f04d953c6cf0def515b9e2828945237"),
        (
            ["eval", "S", "--n", "1", "--q", "0,0,0,0,1,0,0,0", "--omega", "0,0,0,0,1,0,0,0"],
            "0b34c9eb4be73431665fc97a3fb9deee11d23932ae285b338ae0b9fc1e09fa25",
        ),
        (
            ["eval", "K", "--n", "1", "--omega", "0,0,0,0", "--t", "1,0,0", "--eps", "0"],
            "208dc341d633193d53d9fa0cb34508c17a9bd95d382cba14678a5a691d38fbcc",
        ),
        (["export", "kernel", "--n", "2"], "20e56e70f33097a56ff8266cebb9b1d474f08ffdadc6a9180af20a7056ef0e38"),
        (
            ["export", "table", "--what", "K-decay", "--n", "1"],
            "0816862d7b56463b715768d3c58ee03cf6ec96c1067ba92475736371b386773a",
        ),
        (
            ["export", "table", "--what", "s-ray", "--n", "1"],
            "bbdb04b24cac6e604c764d88fe7978bc8594d5d4449a82fce0a293f6dad51903",
        ),
    ],
    ids=["eval-s", "eval-E", "eval-S", "eval-K", "export-kernel", "export-K-decay", "export-s-ray"],
)
def test_readme_outputs_are_pinned(args, want, tmp_path, capsys):
    # the README's commands, bit for bit: eval's stdout, export's file
    if args[0] == "export":
        path = tmp_path / "out"
        code, _, _ = run_cli(args + ["-o", str(path)], capsys)
        data = path.read_bytes()
    else:
        code, out, _ = run_cli(args, capsys)
        data = out.encode()
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == want


def test_run_suite_returns_reports_and_timings():
    reports, elapsed = cli.run_suite("reproducing", 1, 1e-3, 2.0e7, 0)
    assert [r.name for r in reports] == ["reproducing-property"] * 2
    assert list(elapsed) == ["reproducing"] and elapsed["reproducing"] > 0


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == 2


def test_verify_reproducing_suite(capsys):
    code, out, err = run_cli(
        ["verify", "reproducing", "--n", "1", "--tol", "1e-3", "--budget", "2e7"], capsys
    )
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 2 and all(l["passed"] for l in lines)
    assert all(l["rel_deviation"] <= 1e-3 for l in lines)


def test_verify_reproducing_out_of_budget_reports_failure(capsys):
    # the boundary rule stops before it converges: a failing report with
    # the best value, not a traceback
    code, out, err = run_cli(["verify", "reproducing", "--budget", "6e4"], capsys)
    assert code == 1
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 2 and not any(l["passed"] for l in lines)
    for l in lines:
        assert l["inputs"]["budget"] == 6e4 and len(l["lhs"]) == 4
        assert l["abs_deviation"] == max(abs(a - b) for a, b in zip(l["lhs"], l["rhs"]))
    assert "0/2 checks passed" in err


@pytest.mark.parametrize("budget", ["1e4", "37247"])
def test_verify_budget_below_two_levels_is_usage_error(budget, capsys):
    # two boundary levels (12 x 8^3 and 18 x 12^3 rule points) need a
    # budget of 37248; a smaller budget is a usage error with one error line
    code, out, err = run_cli(["verify", "reproducing", "--budget", budget], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget" in err and len(err.strip().splitlines()) == 1


def test_verify_n_outside_hardy_range_is_usage_error(capsys):
    # the suite's test function t = (2, 0, 0, 1) has order 3, outside the
    # Hardy membership range for n >= 5
    code, out, err = run_cli(["verify", "reproducing", "--n", "5"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Hardy" in err and len(err.strip().splitlines()) == 1


def test_eval_nonpositive_n_is_usage_error(capsys):
    code, out, err = run_cli(["eval", "s", "--n", "0", "--nu", "1,0,0,0"], capsys)
    assert code == 2
    assert "positive integer" in err and out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "s", "--nu", "1,0,0,0"],
        ["eval", "S"],
        ["eval", "K"],
        ["export", "kernel"],
        ["export", "table", "--what", "s-ray"],
    ],
)
def test_n_above_cap_is_usage_error(args, tmp_path, monkeypatch, capsys):
    # eval and export take --n up to 24, and reject 25 before any density build
    def must_not_run(*a, **k):
        raise AssertionError("started work on an --n above the cap")

    for name in ("szego_density", "szego_eval", "group_kernel"):
        monkeypatch.setattr(cli, name, must_not_run)
    monkeypatch.chdir(tmp_path)
    assert cli.MAX_N == 24
    code, out, err = run_cli(args + ["--n", "25"], capsys)
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "argument --n:" in err and "at most 24" in err
    assert list(tmp_path.iterdir()) == []
    parser, _ = cli.build_parser()
    assert parser.parse_args(args + ["--n", "24"]).n == 24


def test_raising_suite_is_a_failing_report(monkeypatch, capsys):
    # a suite that raises is one failing suite-error report; the others still run
    from qszego import suites
    from qszego.report import CheckReport

    def raising(seed=0):
        raise RuntimeError("boom")

    for name in ("algebra", "kernel", "geometry", "props", "octonion", "reproducing", "exact"):
        stub = lambda name=name, **k: [CheckReport.from_flag(f"{name}-stub", {}, True)]
        monkeypatch.setattr(suites, f"{name}_suite", stub)
    monkeypatch.setattr(suites, "props_suite", raising)
    code, out, err = run_cli(["verify", "all"], capsys)
    assert code == 1
    lines = [json.loads(l) for l in out.strip().splitlines()]
    # sorted by name, and the exact suite's reports after all the others
    assert [l["name"] for l in lines] == [
        "algebra-stub", "geometry-stub", "kernel-stub", "octonion-stub", "reproducing-stub", "suite-error", "exact-stub"
    ]
    error = lines[-2]
    assert error["inputs"] == {"suite": "props"} and error["error"] == "RuntimeError: boom"
    assert error["passed"] is False
    assert all("error" not in l for l in lines if l is not error)
    assert "6/7 checks passed" in err


@pytest.mark.parametrize("flag", [["--n", "6"], ["--budget", "1e4"]], ids=["n-outside-hardy-range", "budget"])
def test_verify_all_usage_error_runs_no_other_suite(flag, monkeypatch, capsys):
    # the reproducing suite raises the usage error, and it runs first
    from qszego import suites

    started = []
    for name in ("algebra", "kernel", "geometry", "props", "octonion"):
        monkeypatch.setattr(suites, f"{name}_suite", lambda name=name, **k: started.append(name) or [])
    code, out, err = run_cli(["verify", "all"] + flag, capsys)
    assert code == 2 and out == "" and started == []
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_verify_output_is_strict_json(monkeypatch, capsys):
    # a failing exact report and a suite-error carry infinite deviations: written as null
    from qszego import suites
    from qszego.report import CheckReport

    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    def raising(seed=0):
        raise RuntimeError("boom")

    for name in ("algebra", "kernel", "geometry", "octonion", "reproducing"):
        stub = lambda name=name, **k: [CheckReport.from_flag(f"{name}-stub", {}, name != "kernel")]
        monkeypatch.setattr(suites, f"{name}_suite", stub)
    monkeypatch.setattr(suites, "props_suite", raising)
    code, out, err = run_cli(["verify", "all"], capsys)
    assert code == 1
    lines = [json.loads(line, parse_constant=refuse) for line in out.splitlines()]
    failing = [l for l in lines if not l["passed"]]
    assert [l["name"] for l in failing] == ["kernel-stub", "suite-error"]
    assert all(l["abs_deviation"] is None and l["rel_deviation"] is None for l in failing)


def test_verify_prints_each_suite_time_on_stderr(monkeypatch, capsys):
    from qszego import suites
    from qszego.report import CheckReport

    names = ("algebra", "kernel", "geometry", "props", "octonion", "reproducing", "exact")
    for name in names:
        stub = lambda name=name, **k: [CheckReport.from_flag(f"{name}-stub", {}, True)]
        monkeypatch.setattr(suites, f"{name}_suite", stub)
    code, out, err = run_cli(["verify", "all"], capsys)
    assert code == 0 and len(out.strip().splitlines()) == 7
    times = [line for line in err.splitlines() if re.fullmatch(r"\w+: \d+\.\d+ s", line)]
    assert sorted(line.split(":")[0] for line in times) == sorted(names)
    assert "all: 7/7 checks passed" in err


def test_config_bad_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("n=abc\nnu=1,0,0,0\n")
    code, out, err = run_cli(["eval", "s", "--config", str(cfg)], capsys)
    assert code == 2
    assert "--n" in err and out == ""


def test_negative_eps_is_usage_error(tmp_path, capsys):
    base = ["eval", "K", "--omega", "0,0,0,0", "--t", "1,0,0"]
    code, out, err = run_cli(base + ["--eps", "-1"], capsys)
    assert code == 2 and out == ""
    assert "--eps" in err and "nonnegative" in err
    cfg = tmp_path / "conf"
    cfg.write_text("eps=-1\n")
    code, out, err = run_cli(base + ["--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert "--eps" in err and "nonnegative" in err


_EVAL_K = ["eval", "K", "--omega", "0,0,0,0", "--t", "1,0,0"]


@pytest.mark.parametrize(
    "args",
    [["verify", suite, "--seed", "-1"] for suite in ("algebra", "geometry", "kernel", "octonion", "all")]
    + [["verify", "reproducing", "--tol", v] for v in ("inf", "-1", "0", "nan")]
    + [["verify", "reproducing", "--budget", v] for v in ("inf", "-1", "nan")]
    + [_EVAL_K + ["--eps", v] for v in ("inf", "nan")],
)
def test_bad_flag_value_is_usage_error(args, monkeypatch, capsys):
    # argparse rejects the value before any suite or evaluation starts
    def must_not_run(*a, **k):
        raise AssertionError("started work on a bad flag value")

    monkeypatch.setattr(cli, "run_suite", must_not_run)
    monkeypatch.setattr(cli, "group_kernel", must_not_run)
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and f"argument {args[-2]}:" in err


@pytest.mark.parametrize("points", ["-3", "0"])
def test_export_nonpositive_points_is_usage_error(points, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out_path = tmp_path / "ray.csv"
    for extra in (["-o", str(out_path)], []):
        code, out, err = run_cli(["export", "table", "--what", "s-ray", "--points", points] + extra, capsys)
        assert code == 2 and out == ""
        assert "--points" in err and "positive integer" in err
    assert list(tmp_path.iterdir()) == []


def test_export_dash_writes_stdout(tmp_path, monkeypatch, capsys):
    # "-o -" is standard output, as an empty path is: the CSV is printed,
    # the note says stdout, and no file named "-" is left behind
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["export", "table", "--what", "s-ray", "--points", "3", "-o", "-"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "x0,s0,s1,s2,s3" and len(out.splitlines()) == 4
    assert err.strip() == "wrote stdout"
    assert list(tmp_path.iterdir()) == []


def test_export_kernel_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "s2.json"
    code, out, err = run_cli(["export", "kernel", "--n", "2", "-o", str(out_path)], capsys)
    assert code == 0
    from qszego.kernel import KernelOrder, PiScaledKernel, szego_density

    data = json.loads(out_path.read_text())
    back = PiScaledKernel.from_json(data)
    s = szego_density(KernelOrder(2))
    assert back.coeff == s.coeff and back.pi_pow == s.pi_pow and back.body == s.body


def test_export_decay_table(tmp_path, capsys):
    out_path = tmp_path / "decay.csv"
    code, out, err = run_cli(
        ["export", "table", "--what", "K-decay", "--n", "1", "-o", str(out_path)], capsys
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "rho,absK,absK_times_rho_d"
    first = lines[1].split(",")
    # scale invariance: the compensated column is constant along the ray
    last = lines[-1].split(",")
    assert abs(float(first[2]) - float(last[2])) < 1e-9 * abs(float(first[2]))


def test_export_decay_table_modulus_outside_the_squares_range(tmp_path, monkeypatch, capsys):
    # the absK column is the modulus of KernelValue: components whose squares
    # overflow or underflow still give their finite, nonzero modulus
    rows = [[3e200, -4e200, 0.0, 0.0], [-3e-200, 4e-200, 0.0, 0.0], [1e200, 1e-200, 0.0, 0.0]]

    class Density:
        def eval_array(self, pts):
            return np.array(rows[: len(pts)])

    monkeypatch.setattr(cli, "szego_density", lambda order: Density())
    out_path = tmp_path / "decay.csv"
    code, _, _ = run_cli(["export", "table", "--what", "K-decay", "--points", "3", "-o", str(out_path)], capsys)
    assert code == 0
    absk = [float(line.split(",")[1]) for line in out_path.read_text().splitlines()[1:]]
    for got, row in zip(absk, rows, strict=True):
        want = math.hypot(*row)
        assert want > 0.0 and abs(got - want) <= 4e-16 * want


def test_export_decay_table_needs_m_4(tmp_path, monkeypatch, capsys):
    # the group kernel is quaternionic: --m 2 would silently give the m = 4 table
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["export", "table", "--what", "K-decay", "--m", "2"], capsys)
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "--m 4" in err
    assert list(tmp_path.iterdir()) == []


def test_export_table_default_name_has_m(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for args in (["--what", "s-ray", "--m", "2"], ["--what", "s-ray", "--m", "4"], ["--what", "K-decay"]):
        code, out, err = run_cli(["export", "table", "--points", "3"] + args, capsys)
        assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["K-decay-n1-m4.csv", "s-ray-n1-m2.csv", "s-ray-n1-m4.csv"]
    assert (tmp_path / "s-ray-n1-m2.csv").read_text() != (tmp_path / "s-ray-n1-m4.csv").read_text()


def test_export_bad_path(capsys):
    code, out, err = run_cli(["export", "kernel", "-o", "/nonexistent/dir/x.json"], capsys)
    assert code == 2


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "conf"
    cfg.write_text("n=2\nnu=1,0,0,0\n")
    code, out, err = run_cli(["eval", "s", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["n"] == 2
    # explicit flag beats the config value
    code, out, err = run_cli(["eval", "s", "--config", str(cfg), "--n", "1"], capsys)
    assert json.loads(out)["n"] == 1


def test_console_entry_point():
    # the child process finds the package where this one imported it from
    src = str(Path(qszego.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-m", "qszego.cli", "eval", "s", "--nu", "1,0,0,0"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"][0] > 0
