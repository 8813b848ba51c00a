"""Span tracing of the qszego layers, installed from outside the package.

Every traced callable is replaced by a wrapper that records one span
(name, start, end, parent) per call.  Class methods are wrapped in
place; module functions are wrapped in every ``qszego`` namespace that holds
them, because modules import them by name (``suites.group_mul``,
``verify.integrate_boundary``, ``quadrature._sphere_level``).  Spans stay in
flat arrays in memory; :meth:`Tracer.save` writes them out at the end of the
process and :meth:`Tracer.layer_metrics` turns them into the per-layer
metrics.  A span's self time is its duration minus the durations of its
direct children (all calls run in one thread, so children never overlap).

Some boundaries also record work counts (points, terms, term pairs), taken
where the work happens rather than inferred from the spans.
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (span name, module, attribute); an attribute "Class.method" is wrapped in
# place on the class, a plain attribute in every namespace that imported it.
TRACED = (
    ("hypercomplex.mul", "hypercomplex", "Hypercomplex.__mul__"),
    ("hypercomplex.mul_arrays", "hypercomplex", "mul_arrays"),
    ("polyfrac.mul", "polyfrac", "RatPoly.__mul__"),
    ("polyfrac.eval_array", "polyfrac", "RatPoly.eval_array"),
    ("polyfrac.substitute", "polyfrac", "RatPoly.substitute_linear"),
    ("polyfrac.divide", "polyfrac", "try_divide_radius_sq"),
    ("polyfrac.eval_scalar", "polyfrac", "RadialFraction.eval"),
    ("polyfrac.deriv", "polyfrac", "RadialFraction.deriv"),
    ("polyfrac.dirac", "polyfrac", "HyperFrac.dirac"),
    ("kernel.density", "kernel", "szego_density"),
    ("kernel.eval_array", "kernel", "PiScaledKernel.eval_array"),
    ("kernel.newton_derivative", "kernel", "newton_derivative"),
    ("geometry.group_mul", "geometry", "group_mul"),
    ("geometry.translate", "geometry", "translate"),
    ("geometry.cayley", "geometry", "cayley"),
    ("geometry.cayley_inv", "geometry", "cayley_inv"),
    ("quadrature.sphere_level", "quadrature", "_sphere_level"),
    ("quadrature.integrate_r3", "quadrature", "integrate_r3"),
    ("quadrature.parseval", "quadrature", "parseval_identity_check"),
    ("quadrature.boundary_level", "quadrature", "_boundary_level_radial"),
    ("quadrature.integrate_boundary", "quadrature", "integrate_boundary"),
    ("verify.reproducing", "verify", "reproducing_check"),
    ("verify.composed_analyticity", "verify", "composed_analyticity_check"),
    ("verify.subharmonicity", "verify", "subharmonicity_check"),
    ("suites.run_suite", "suites", "run_suite"),
    ("suites.algebra_suite", "suites", "algebra_suite"),
    ("suites.geometry_suite", "suites", "geometry_suite"),
    ("suites.octonion_suite", "suites", "octonion_suite"),
    ("cli.main", "cli", "main"),
    ("report.to_json", "report", "CheckReport.to_json"),
)

# The integrands handed to the quadrature engines are the callers' code;
# they get spans of their own so that their time stays out of the engines'
# self time.
SPHERE_INTEGRAND = "quadrature.sphere_integrand"
BOUNDARY_INTEGRAND = "quadrature.boundary_integrand"

# the ten modules of the package; "__init__" is reported as "init"
MODULES = (
    "__init__", "cli", "geometry", "hypercomplex", "kernel",
    "polyfrac", "quadrature", "report", "suites", "verify",
)

# Per-layer metric names and units, in report order (see README.md).
LAYER_METRICS = (
    ("hypercomplex.mul_calls", "count"),
    ("hypercomplex.mul_s", "s"),
    ("hypercomplex.mul_arrays_points", "count"),
    ("hypercomplex.mul_arrays_s", "s"),
    ("polyfrac.eval_array_calls", "count"),
    ("polyfrac.eval_array_term_points", "count"),
    ("polyfrac.eval_array_s", "s"),
    ("polyfrac.eval_array_ns_per_term_point", "ns"),
    ("polyfrac.eval_scalar_calls", "count"),
    ("polyfrac.eval_scalar_s", "s"),
    ("polyfrac.mul_term_pairs", "count"),
    ("polyfrac.deriv_calls", "count"),
    ("polyfrac.deriv_s", "s"),
    ("polyfrac.divide_calls", "count"),
    ("polyfrac.divide_hit_ratio", "ratio"),
    ("polyfrac.divide_s", "s"),
    ("polyfrac.dirac_s", "s"),
    ("polyfrac.substitute_s", "s"),
    ("kernel.density_builds", "count"),
    ("kernel.density_build_s", "s"),
    ("kernel.density_terms", "count"),
    ("kernel.eval_array_points", "count"),
    ("kernel.eval_array_s", "s"),
    ("kernel.newton_derivative_s", "s"),
    ("quadrature.sphere_levels", "count"),
    ("quadrature.sphere_points", "count"),
    ("quadrature.sphere_integrand_calls", "count"),
    ("quadrature.sphere_self_s", "s"),
    ("quadrature.parseval_self_s", "s"),
    ("quadrature.r3_levels_per_call", "levels/call"),
    ("quadrature.boundary_levels", "count"),
    ("quadrature.boundary_points", "count"),
    ("quadrature.boundary_integrand_calls", "count"),
    ("quadrature.boundary_self_s", "s"),
    ("quadrature.boundary_levels_per_call", "levels/call"),
    ("verify.reproducing_self_s", "s"),
    ("verify.composed_analyticity_s", "s"),
    ("verify.subharmonicity_s", "s"),
    ("geometry.group_mul_calls", "count"),
    ("geometry.group_mul_s", "s"),
    ("geometry.translate_s", "s"),
    ("geometry.cayley_s", "s"),
    ("suites.self_s", "s"),
    ("cli.self_s", "s"),
    ("report.to_json_s", "s"),
) + tuple((f"{m.strip('_')}.sloc", "count") for m in MODULES) + (
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.outside_share", "ratio"),
)

# metrics that must repeat exactly between two traced runs of one input set
EXACT_UNITS = ("count", "ratio", "levels/call")
EXACT_EXCLUDED = ("trace.outside_share",)


def _points(x):
    """Number of points in an array of shape (..., dim)."""
    return int(np.prod(np.shape(x)[:-1]))


def sloc(path):
    """Non-blank lines that are not comment lines; 0 for a deleted module."""
    if not Path(path).exists():
        return 0
    with open(path) as fh:
        return sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))


class Tracer:
    """Collects spans and work counts while ``active`` is true."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.open_depth = []
        self.counts = defaultdict(int)
        self.density_keys = set()
        self.density_build_spans = []
        self.active = False
        self.notes = set()

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
            self.open_depth.append(0)
        return self.names.index(name)

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``before(args)`` may record work counts and returns the arguments to
        call with (integrands are replaced by counted ones); ``after(result)``
        records counts that depend on the result.
        """
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                # counting must never change what the program does
                try:
                    args = before(args)
                except Exception as exc:
                    tracer.notes.add(f"count at {name} failed: {exc!r}")
            idx = len(tracer.span_start)
            stack = tracer.stack
            depth = tracer.open_depth
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_outer.append(depth[nid] == 0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                depth[nid] -= 1
                stack.pop()
            if after is not None:
                try:
                    after(result)
                except Exception as exc:
                    tracer.notes.add(f"count at {name} failed: {exc!r}")
            return result

        traced.__wrapped__ = fn
        return traced

    # -- work counts taken at the boundaries --------------------------------

    def _before_eval_array(self, args):
        poly, x = args[0], args[1]
        self.counts["polyfrac.eval_array_term_points"] += len(poly.terms) * _points(x)
        return args

    def _before_ratpoly_mul(self, args):
        a, b = args
        if hasattr(b, "terms"):
            self.counts["polyfrac.mul_term_pairs"] += len(a.terms) * len(b.terms)
        return args

    def _before_mul_arrays(self, args):
        shape = np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))
        self.counts["hypercomplex.mul_arrays_points"] += int(np.prod(shape[:-1]))
        return args

    def _before_kernel_eval_array(self, args):
        self.counts["kernel.eval_array_points"] += _points(args[1])
        return args

    def _before_density(self, args):
        order = args[0]
        key = (4, order) if isinstance(order, int) else (order.m, order.n)
        if key not in self.density_keys:
            # the density cache starts empty in every workload process, so
            # the first call for a key is the one that builds it
            self.density_keys.add(key)
            self.density_build_spans.append(len(self.span_start))
        return args

    def _after_divide(self, result):
        self.counts["polyfrac.divide_hits"] += result is not None

    def _before_sphere_level(self, args):
        f = self._integrand(SPHERE_INTEGRAND, args[0], "quadrature.sphere_points")
        return (f,) + tuple(args[1:])

    def _before_boundary_level(self, args):
        integrand = args[0]
        fn = self._integrand(BOUNDARY_INTEGRAND, integrand.fn, "quadrature.boundary_points")
        return (dataclasses.replace(integrand, fn=fn),) + tuple(args[1:])

    def _integrand(self, name, fn, points_key):
        counts = self.counts

        def counted(pts, *rest):
            counts[points_key] += len(pts)
            return fn(pts, *rest)

        return self.span(name, counted)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every entry of TRACED; the qszego modules must be imported."""
        hooks = {
            "polyfrac.eval_array": (self._before_eval_array, None),
            "polyfrac.mul": (self._before_ratpoly_mul, None),
            "polyfrac.divide": (None, self._after_divide),
            "hypercomplex.mul_arrays": (self._before_mul_arrays, None),
            "kernel.eval_array": (self._before_kernel_eval_array, None),
            "kernel.density": (self._before_density, None),
            "quadrature.sphere_level": (self._before_sphere_level, None),
            "quadrature.boundary_level": (self._before_boundary_level, None),
        }
        namespaces = [m for k, m in sys.modules.items() if k == "qszego" or k.startswith("qszego.")]
        for name, module, attr in TRACED:
            owner = sys.modules.get(f"qszego.{module}")
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                original = vars(getattr(owner, cls_name, object)).get(meth)
            else:
                original = getattr(owner, attr, None)
            if original is None:
                # a renamed or deleted layer reads 0; the run says which
                self.notes.add(f"qszego.{module}.{attr} not found; span {name} not recorded")
                continue
            if "." in attr:
                cls = getattr(owner, cls_name)
                wrapped = self.span(name, original, before, after)
                # aliases such as ``__rmul__ = __mul__`` share the function
                for key, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, key, wrapped)
            else:
                wrapped = self.span(name, original, before, after)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapped)

    # -- results ------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.array(self.span_name, dtype=np.int64),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "outer": np.array(self.span_outer, dtype=bool),
            "start": np.array(self.span_start, dtype=float),
            "end": np.array(self.span_end, dtype=float),
        }

    def save(self, path):
        """Write every span to ``path`` (numpy .npz) with the name table."""
        np.savez(Path(path), names=np.array(self.names), **self.arrays())

    def span_table(self):
        """Per span name: calls, inclusive time of outermost calls, self time."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        table = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            table[name] = {
                "calls": int(np.sum(sel)),
                "total_s": float(np.sum(dur[sel & a["outer"]])),
                "self_s": float(np.sum(own[sel])),
            }
        return table, a, dur

    def layer_metrics(self, wall_s, untraced_wall_s, density_terms, sloc_counts):
        """The per-layer metrics of LAYER_METRICS, as a name -> value dict."""
        table, a, dur = self.span_table()
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

        def t(name):
            return table.get(name, zero)

        def children_of(child, parent):
            nid, pid = self.names.index(child), self.names.index(parent)
            par = a["parent"][a["name"] == nid]
            par = par[par >= 0]
            return int(np.sum(a["name"][par] == pid))

        def per(num, den):
            return num / den if den else 0.0

        c = self.counts
        term_points = c["polyfrac.eval_array_term_points"]
        roots = dur[a["parent"] < 0]
        m = {
            "hypercomplex.mul_calls": t("hypercomplex.mul")["calls"],
            "hypercomplex.mul_s": t("hypercomplex.mul")["total_s"],
            "hypercomplex.mul_arrays_points": c["hypercomplex.mul_arrays_points"],
            "hypercomplex.mul_arrays_s": t("hypercomplex.mul_arrays")["total_s"],
            "polyfrac.eval_array_calls": t("polyfrac.eval_array")["calls"],
            "polyfrac.eval_array_term_points": term_points,
            "polyfrac.eval_array_s": t("polyfrac.eval_array")["total_s"],
            "polyfrac.eval_array_ns_per_term_point": per(1e9 * t("polyfrac.eval_array")["total_s"], term_points),
            "polyfrac.eval_scalar_calls": t("polyfrac.eval_scalar")["calls"],
            "polyfrac.eval_scalar_s": t("polyfrac.eval_scalar")["total_s"],
            "polyfrac.mul_term_pairs": c["polyfrac.mul_term_pairs"],
            "polyfrac.deriv_calls": t("polyfrac.deriv")["calls"],
            "polyfrac.deriv_s": t("polyfrac.deriv")["total_s"],
            "polyfrac.divide_calls": t("polyfrac.divide")["calls"],
            "polyfrac.divide_hit_ratio": per(c["polyfrac.divide_hits"], t("polyfrac.divide")["calls"]),
            "polyfrac.divide_s": t("polyfrac.divide")["total_s"],
            "polyfrac.dirac_s": t("polyfrac.dirac")["total_s"],
            "polyfrac.substitute_s": t("polyfrac.substitute")["total_s"],
            "kernel.density_builds": len(self.density_build_spans),
            "kernel.density_build_s": float(np.sum(dur[self.density_build_spans])),
            "kernel.density_terms": density_terms,
            "kernel.eval_array_points": c["kernel.eval_array_points"],
            "kernel.eval_array_s": t("kernel.eval_array")["total_s"],
            "kernel.newton_derivative_s": t("kernel.newton_derivative")["total_s"],
            "quadrature.sphere_levels": t("quadrature.sphere_level")["calls"],
            "quadrature.sphere_points": c["quadrature.sphere_points"],
            "quadrature.sphere_integrand_calls": t(SPHERE_INTEGRAND)["calls"],
            "quadrature.sphere_self_s": t("quadrature.sphere_level")["self_s"],
            "quadrature.parseval_self_s": t("quadrature.parseval")["self_s"],
            "quadrature.r3_levels_per_call": per(
                children_of("quadrature.sphere_level", "quadrature.integrate_r3"),
                t("quadrature.integrate_r3")["calls"],
            ),
            "quadrature.boundary_levels": t("quadrature.boundary_level")["calls"],
            "quadrature.boundary_points": c["quadrature.boundary_points"],
            "quadrature.boundary_integrand_calls": t(BOUNDARY_INTEGRAND)["calls"],
            "quadrature.boundary_self_s": t("quadrature.boundary_level")["self_s"],
            "quadrature.boundary_levels_per_call": per(
                children_of("quadrature.boundary_level", "quadrature.integrate_boundary"),
                t("quadrature.integrate_boundary")["calls"],
            ),
            "verify.reproducing_self_s": t("verify.reproducing")["self_s"],
            "verify.composed_analyticity_s": t("verify.composed_analyticity")["total_s"],
            "verify.subharmonicity_s": t("verify.subharmonicity")["total_s"],
            "geometry.group_mul_calls": t("geometry.group_mul")["calls"],
            "geometry.group_mul_s": t("geometry.group_mul")["total_s"],
            "geometry.translate_s": t("geometry.translate")["total_s"],
            "geometry.cayley_s": t("geometry.cayley")["total_s"] + t("geometry.cayley_inv")["total_s"],
            "suites.self_s": sum(v["self_s"] for k, v in table.items() if k.startswith("suites.")),
            "cli.self_s": t("cli.main")["self_s"],
            "report.to_json_s": t("report.to_json")["total_s"],
            "trace.spans": len(dur),
            "trace.wall_s": wall_s,
            "trace.overhead_s": wall_s - untraced_wall_s,
            "trace.outside_share": per(wall_s - float(np.sum(roots)), wall_s),
        }
        for module in MODULES:
            m[f"{module.strip('_')}.sloc"] = sloc_counts[module]
        return m, table
