"""Pass/fail reporting shared by the verification checks and the CLI.

Every check ends as one :class:`CheckReport`.  Exact checks build theirs
with :meth:`CheckReport.from_flag`, float checks with
:meth:`CheckReport.within`, whose ``ok`` carries any condition beyond the
deviation, such as a quadrature rule's ``converged`` flag.  A request that
cannot run as asked raises :class:`UsageError`, the CLI's exit code 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


def _jsonable(v):
    """``v`` as strict JSON data: a non-finite float (inf, nan) becomes None, JSON's ``null``."""
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, int):
        return int(v)
    if isinstance(v, float):
        return float(v) if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


class UsageError(ValueError):
    """Bad input, a budget too small, or a test function outside the Hardy range."""


@dataclass
class CheckReport:
    """One verified identity: sides, deviation, tolerance and the verdict."""

    name: str
    inputs: dict = field(default_factory=dict)
    lhs: object = None
    rhs: object = None
    abs_deviation: float = 0.0
    rel_deviation: float = 0.0
    tolerance: float = 0.0
    passed: bool = False
    n_evals: int = 0
    error: str | None = None  # a suite that raised: the exception's type and message

    @classmethod
    def from_flag(cls, name, inputs, passed, lhs=None, rhs=None, n_evals=0, error=None):
        return cls(
            name=name,
            inputs=inputs,
            lhs=lhs,
            rhs=rhs,
            abs_deviation=0.0 if passed else float("inf"),
            rel_deviation=0.0 if passed else float("inf"),
            tolerance=0.0,
            passed=bool(passed),
            n_evals=n_evals,
            error=error,
        )

    @classmethod
    def within(cls, name, inputs, deviation, tolerance, ref=1.0, ok=True, lhs=None, rhs=None, n_evals=0):
        """Passed when ``ok`` holds and deviation <= tolerance * ref; a NaN deviation fails."""
        return cls(
            name=name,
            inputs=inputs,
            lhs=lhs,
            rhs=rhs,
            abs_deviation=deviation,
            rel_deviation=deviation / ref,
            tolerance=tolerance,
            passed=bool(ok and deviation <= tolerance * ref),
            n_evals=n_evals,
        )

    def to_json(self):
        """The report as strict JSON data (RFC 8259): every non-finite float,
        such as the infinite deviation of a failing exact report or a NaN
        side, is written as ``null``; the report itself keeps it."""
        out = {
            "name": self.name,
            "inputs": _jsonable(self.inputs),
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "abs_deviation": _jsonable(float(self.abs_deviation)),
            "rel_deviation": _jsonable(float(self.rel_deviation)),
            "tolerance": _jsonable(float(self.tolerance)),
            "passed": bool(self.passed),
            "n_evals": int(self.n_evals),
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def to_json_line(self):
        return json.dumps(self.to_json(), sort_keys=True, allow_nan=False)

