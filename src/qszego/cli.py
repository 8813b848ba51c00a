"""Command line interface: evaluate kernels, run verification suites, export.

Output is machine-first: values and check reports go to stdout as JSON (one
line per check for suites), human summaries go to stderr.  Exit codes:
0 success, 1 check or evaluation failure (a singular point, or a float
evaluation that overflows or divides by zero), 2 usage or I/O error
(including a ``--budget`` too small for two boundary refinement levels, and
an ``--n`` for which the reproducing test function is outside the Hardy
membership range).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .geometry import GroupElement, SiegelPoint, homogeneous_dim, rho_length
from .hypercomplex import Hypercomplex
from .kernel import (
    KernelOrder,
    cauchy_kernel,
    group_kernel,
    group_kernel_array,
    szego_density,
    szego_eval,
    szego_nu,
)
from .quadrature import BudgetTooSmallError
from .suites import SUITE_NAMES, run_suite
from .verify import OutsideHardyRangeError


class UsageError(Exception):
    pass


def _parse_components(text, expected=None):
    try:
        comps = [float(Fraction(part)) for part in text.split(",") if part.strip() != ""]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse component list {text!r}: {exc}") from None
    if expected is not None and len(comps) != expected:
        raise UsageError(f"expected {expected} components, got {len(comps)} in {text!r}")
    return comps


def _parse_point(text, n):
    comps = _parse_components(text, expected=4 * (n + 1))
    horizontal = tuple(
        Hypercomplex(comps[4 * i : 4 * i + 4], exact=False) for i in range(n)
    )
    vertical = Hypercomplex(comps[4 * n :], exact=False)
    return SiegelPoint(horizontal, vertical)


def _checked(convert, ok, expected):
    """An argparse type: ``convert`` the text, then require ``ok(value)``."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_nonnegative_float = _checked(float, lambda v: 0 <= v < math.inf, "a nonnegative finite number")


def _config_defaults(path, sub):
    """The ``key=value`` pairs of a config file that name options of ``sub``.

    They become the subcommand's defaults, so argparse converts them through
    each option's type and explicit flags still win.
    """
    dests = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
    values = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line {line!r}")
                key, _, val = line.partition("=")
                if key.strip() in dests:
                    values[key.strip()] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    return values


def _emit(path, text):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _emit_value(args, payload):
    _emit(args.output, json.dumps(payload, sort_keys=True) + "\n")


def cmd_eval(args):
    kind = args.kind
    if kind in ("s", "E"):
        nu = _parse_components(args.nu, expected=args.m)
        if not any(nu):
            raise ZeroDivisionError("singular point nu = 0")
        if kind == "s":
            kernel = szego_density(KernelOrder(args.n, m=args.m))
            payload = {"kind": "szego-density", "n": args.n}
        else:
            kernel = cauchy_kernel(args.m)
            payload = {"kind": "cauchy-kernel"}
        payload.update(m=args.m, nu=nu, value=list(kernel.eval(nu).comps))
        _emit_value(args, payload)
        return 0
    if kind == "S":
        if not args.q or not args.omega:
            raise UsageError("S needs --q and --omega")
        q = _parse_point(args.q, args.n)
        omega = _parse_point(args.omega, args.n)
        value = szego_eval(KernelOrder(args.n), q, omega)
        nu = szego_nu(q, omega)
        _emit_value(
            args,
            {
                "kind": "szego-kernel",
                "n": args.n,
                "nu": [float(c) for c in nu.comps],
                "value": list(value.comps),
            },
        )
        return 0
    # kind "K", the last of the parser's choices
    if not args.omega or not args.t:
        raise UsageError("K needs --omega and --t")
    w = _parse_components(args.omega, expected=4 * args.n)
    t = _parse_components(args.t, expected=3)
    h = GroupElement(
        tuple(Hypercomplex(w[4 * i : 4 * i + 4], exact=False) for i in range(args.n)),
        tuple(t),
    )
    value = group_kernel(KernelOrder(args.n), h, args.eps)
    _emit_value(
        args,
        {
            "kind": "group-kernel",
            "n": args.n,
            "eps": args.eps,
            "rho": rho_length(h),
            "value": list(value.comps),
        },
    )
    return 0


def cmd_verify(args):
    reports = run_suite(
        args.suite, n=args.n, tol=args.tol, budget=args.budget, seed=args.seed
    )
    _emit(args.output, "".join(r.to_json_line() + "\n" for r in reports))
    n_pass = sum(r.passed for r in reports)
    print(f"{args.suite}: {n_pass}/{len(reports)} checks passed", file=sys.stderr)
    return 0 if n_pass == len(reports) else 1


def cmd_export(args):
    if args.what == "kernel":
        kernel = szego_density(KernelOrder(args.n, m=args.m))
        out = args.output or f"szego-density-n{args.n}-m{args.m}.json"
        _emit(out, json.dumps(kernel.to_json(), sort_keys=True, indent=1) + "\n")
        print(f"wrote {out}", file=sys.stderr)
        return 0
    # "table", the last of the parser's choices
    if args.table == "K-decay":
        d = homogeneous_dim(args.n)
        rhos = [10 ** (-1 + 3.0 * i / max(1, args.points - 1)) for i in range(args.points)]
        vals = group_kernel_array(
            KernelOrder(args.n), [rho * rho for rho in rhos], [(0.0, 0.0, 0.0)] * args.points
        )
        absk = np.sqrt(np.sum(vals * vals, axis=1)).tolist()
        rows = [("rho", "absK", "absK_times_rho_d")]
        rows += [(rho, a, a * rho**d) for rho, a in zip(rhos, absk)]
    else:  # "s-ray"
        density = szego_density(KernelOrder(args.n, m=args.m))
        x0 = [0.25 + 4.0 * i / max(1, args.points - 1) for i in range(args.points)]
        pts = np.zeros((args.points, density.alg_dim))
        pts[:, 0] = x0
        rows = [("x0",) + tuple(f"s{i}" for i in range(density.alg_dim))]
        rows += [(x,) + tuple(v) for x, v in zip(x0, density.eval_array(pts).tolist())]
    out = args.output or f"{args.table}-n{args.n}.csv"
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _emit(out, buf.getvalue())
    print(f"wrote {out}", file=sys.stderr)
    return 0


def build_parser():
    """The ``qszego`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="qszego",
        description="Cauchy-Szego kernel construction and verification on the Siegel half space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a kernel at a point")
    p_eval.add_argument("kind", choices=["s", "S", "E", "K"])
    p_eval.add_argument("--n", type=_positive_int, default=1)
    p_eval.add_argument("--m", type=int, choices=(2, 4), default=4)
    p_eval.add_argument("--nu", type=str, default="")
    p_eval.add_argument("--q", type=str, default="")
    p_eval.add_argument("--omega", type=str, default="")
    p_eval.add_argument("--t", type=str, default="")
    p_eval.add_argument("--eps", type=_nonnegative_float, default=0.0)
    p_eval.set_defaults(run=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=list(SUITE_NAMES))
    p_verify.add_argument("--n", type=_positive_int, default=1)
    p_verify.add_argument("--tol", type=_positive_float, default=1e-3)
    p_verify.add_argument("--budget", type=_positive_float, default=2.0e7)
    p_verify.add_argument("--seed", type=_nonnegative_int, default=0)
    p_verify.set_defaults(run=cmd_verify)

    p_export = sub.add_parser("export", help="export kernels or tables")
    p_export.add_argument("what", choices=["kernel", "table"])
    p_export.add_argument("--what", dest="table", choices=["K-decay", "s-ray"], default="K-decay")
    p_export.add_argument("--n", type=_positive_int, default=1)
    p_export.add_argument("--m", type=int, choices=(2, 4), default=4)
    p_export.add_argument("--points", type=_positive_int, default=50)
    p_export.set_defaults(run=cmd_export)

    for p in sub.choices.values():
        p.add_argument("--config", type=str, default="")
        p.add_argument("-o", "--output", type=str, default="")
    return parser, sub.choices


def main(argv=None):
    """Run the CLI; flags win over ``--config`` values, which win over defaults."""
    parser, subcommands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            sub = subcommands[args.command]
            sub.set_defaults(**_config_defaults(args.config, sub))
            args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (UsageError, BudgetTooSmallError, OutsideHardyRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
