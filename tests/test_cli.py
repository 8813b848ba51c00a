"""Command line interface: evaluation, suites, exports, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qszego
from qszego import cli
from qszego.cli import main


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


@pytest.mark.parametrize("nu", ["1e-60,0,0,0", "1e60,0,0,0"])
def test_eval_float_fault_is_one_error_line(nu, capsys):
    # the float evaluation over- or underflows: exit 1 and one error line
    code, out, err = run_cli(["eval", "s", "--nu", nu], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_eval_group_kernel(capsys):
    code, out, err = run_cli(
        ["eval", "K", "--n", "1", "--omega", "0,0,0,0", "--t", "1,0,0"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"][1] - 8 / math.pi**4) < 1e-14
    assert data["rho"] == 1.0


def test_eval_parse_error(capsys):
    code, out, err = run_cli(["eval", "s", "--nu", "1,zebra,0,0"], capsys)
    assert code == 2
    assert "error" in err


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
    # two boundary levels (12 x 8^3 and 18 x 12^3 points) need 37248
    # evaluations; a smaller budget is a usage error with one error line
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
