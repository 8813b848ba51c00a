"""Pass/fail reporting shared by the verification checks and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def _jsonable(v):
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, int):
        return int(v)
    if isinstance(v, float):
        return float(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


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

    @classmethod
    def from_flag(cls, name, inputs, passed, lhs=None, rhs=None, n_evals=0):
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
        )

    def to_json(self):
        return {
            "name": self.name,
            "inputs": _jsonable(self.inputs),
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "abs_deviation": float(self.abs_deviation),
            "rel_deviation": float(self.rel_deviation),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "n_evals": int(self.n_evals),
        }

    def to_json_line(self):
        return json.dumps(self.to_json(), sort_keys=True)

