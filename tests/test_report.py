"""The verdict rules of CheckReport."""

import json
import math

from qszego.report import CheckReport


def test_within_verdict_rule():
    rep = CheckReport.within("x", {"k": 1}, 0.3, 0.1, ref=4.0, lhs=1.0, rhs=1.3, n_evals=7)
    assert rep.passed
    assert (rep.abs_deviation, rep.rel_deviation, rep.tolerance) == (0.3, 0.3 / 4.0, 0.1)
    assert (rep.name, rep.inputs, rep.lhs, rep.rhs, rep.n_evals) == ("x", {"k": 1}, 1.0, 1.3, 7)

    # deviation == tolerance * ref passes; ok=False fails whatever the deviation
    assert CheckReport.within("x", {}, 0.25, 0.125, ref=2.0).passed
    assert not CheckReport.within("x", {}, 0.0, 0.125, ok=False).passed
    assert not CheckReport.within("x", {}, 0.3, 0.125, ref=2.0).passed

    # a NaN deviation fails
    rep = CheckReport.within("x", {}, math.nan, 1.0)
    assert not rep.passed and rep.passed is False


def _strict(line):
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(line, parse_constant=refuse)


def test_non_finite_floats_are_written_as_null():
    rep = CheckReport.from_flag("x", {"tol": math.inf, "k": [1.0, math.nan]}, False)
    assert rep.abs_deviation == rep.rel_deviation == math.inf  # the object keeps inf
    data = _strict(rep.to_json_line())
    assert data["abs_deviation"] is None and data["rel_deviation"] is None
    assert data["inputs"] == {"tol": None, "k": [1.0, None]}
    data = _strict(CheckReport.within("y", {}, math.nan, 1.0, lhs=math.nan, rhs=[2.0]).to_json_line())
    assert (data["abs_deviation"], data["lhs"], data["rhs"], data["tolerance"]) == (None, None, [2.0], 1.0)
