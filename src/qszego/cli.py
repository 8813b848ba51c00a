"""Command line interface: evaluate kernels, run verification suites, export.

Output is machine-first: values and check reports go to stdout as JSON (one
line per check for suites), human summaries go to stderr.  Exit codes:
0 success, 1 check or evaluation failure (a singular point, or a float
evaluation that overflows, divides by zero or, for the density, rounds
every component of a value to 0), 2 usage or I/O error, a
``report.UsageError`` or an argparse error (including a ``--budget`` too
small for two boundary refinement levels, an ``--n`` for which the
reproducing test function is outside the Hardy membership range, an
``eval`` or ``export`` ``--n`` above ``MAX_N``, an empty field in a
component list, and an ``eval S`` point of negative height).
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
    KernelValue,
    cauchy_kernel,
    group_kernel,
    szego_density,
    szego_eval,
    szego_nu,
)
from .report import UsageError
from .suites import SUITE_NAMES, run_suite


def _parse_components(text, expected):
    """Exact components of a comma-separated list (none for blank text); each must fit a float."""
    try:
        comps = [Fraction(part) for part in text.split(",")] if text.strip() else []
        for c in comps:
            float(c)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"cannot parse component list {text!r}: {exc}") from None
    if len(comps) != expected:
        raise UsageError(f"expected {expected} components, got {len(comps)} in {text!r}")
    return comps


def _parse_point(text, n, flag):
    """The exact point of ``flag``'s components; it must lie in the closed half space."""
    comps = _parse_components(text, expected=4 * (n + 1))
    horizontal = tuple(Hypercomplex(comps[4 * i : 4 * i + 4]) for i in range(n))
    point = SiegelPoint(horizontal, Hypercomplex(comps[4 * n :]))
    height = point.height()
    if height < 0:
        raise UsageError(f"{flag} is outside the Siegel half space: height {height} < 0")
    return point


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


# The largest n that ``eval`` and ``export`` accept: the density has O(n^3)
# terms, and its cold build takes about 0.45 s at n = 24 and 3.5 s at n = 40
# (2-CPU Xeon, Python 3.11).
MAX_N = 24

_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_kernel_n = _checked(int, lambda v: 1 <= v <= MAX_N, f"a positive integer at most {MAX_N}")
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
    """Write ``text`` to ``path``, or to stdout when the path is empty or ``-``."""
    if path in ("", "-"):
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
        comps = _parse_components(args.nu, expected=args.m)
        if not any(comps):  # on the exact input: a nonzero nu may round to 0.0
            raise ZeroDivisionError("singular point nu = 0")
        nu = [float(c) for c in comps]
        if kind == "s":
            kernel = szego_density(KernelOrder(args.n, m=args.m))
            payload = {"kind": "szego-density", "n": args.n}
        else:
            kernel = cauchy_kernel(args.m)
            payload = {"kind": "cauchy-kernel"}
        payload.update(m=args.m, nu=nu, value=list(kernel.eval(nu).comps))
        _emit_value(args, payload)
        return 0
    if args.m != 4:
        raise UsageError(f"{kind} is a quaternionic kernel; it needs --m 4")
    if kind == "S":
        if not args.q or not args.omega:
            raise UsageError("S needs --q and --omega")
        q = _parse_point(args.q, args.n, "--q")
        omega = _parse_point(args.omega, args.n, "--omega")
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
    h = GroupElement(tuple(Hypercomplex(w[4 * i : 4 * i + 4]) for i in range(args.n)), t)
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
    reports, elapsed = run_suite(args.suite, args.n, args.tol, args.budget, args.seed)
    _emit(args.output, "".join(r.to_json_line() + "\n" for r in reports))
    for suite, seconds in elapsed.items():
        print(f"{suite}: {seconds:.3f} s", file=sys.stderr)
    n_pass = sum(r.passed for r in reports)
    print(f"{args.suite}: {n_pass}/{len(reports)} checks passed", file=sys.stderr)
    return 0 if n_pass == len(reports) else 1


def cmd_export(args):
    if args.what == "kernel":
        kernel = szego_density(KernelOrder(args.n, m=args.m))
        out = args.output or f"szego-density-n{args.n}-m{args.m}.json"
        _emit(out, json.dumps(kernel.to_json(), sort_keys=True, indent=1) + "\n")
        print(f"wrote {'stdout' if out == '-' else out}", file=sys.stderr)
        return 0
    # "table", the last of the parser's choices
    if args.table == "K-decay":
        if args.m != 4:
            raise UsageError("the K-decay table is the quaternionic group kernel; it needs --m 4")
        d = homogeneous_dim(args.n)
        rhos = [10 ** (-1 + 3.0 * i / max(1, args.points - 1)) for i in range(args.points)]
        pts = np.zeros((args.points, 4))
        pts[:, 0] = [rho * rho for rho in rhos]
        vals = szego_density(KernelOrder(args.n)).eval_array(pts)
        absk = [abs(KernelValue(tuple(row))) for row in vals.tolist()]
        rows = [("rho", "absK", "absK_times_rho_d")]
        rows += [(rho, a, a * rho**d) for rho, a in zip(rhos, absk)]
    else:  # "s-ray"
        density = szego_density(KernelOrder(args.n, m=args.m))
        x0 = [0.25 + 4.0 * i / max(1, args.points - 1) for i in range(args.points)]
        pts = np.zeros((args.points, density.alg_dim))
        pts[:, 0] = x0
        rows = [("x0",) + tuple(f"s{i}" for i in range(density.alg_dim))]
        rows += [(x,) + tuple(v) for x, v in zip(x0, density.eval_array(pts).tolist())]
    out = args.output or f"{args.table}-n{args.n}-m{args.m}.csv"
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _emit(out, buf.getvalue())
    print(f"wrote {'stdout' if out == '-' else out}", file=sys.stderr)
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
    p_eval.add_argument("--n", type=_kernel_n, default=1)
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
    p_export.add_argument("--n", type=_kernel_n, default=1)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
