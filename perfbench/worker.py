"""One workload process: import qszego, run the workload once, write results.

    python3 perfbench/worker.py MODE INPUTS_JSON RESULT_JSON

MODE is ``setup`` (import only), ``run`` (untraced), ``trace`` (with span
tracing) or ``oracle`` (exact-rational spot check of the float evaluator).
Every mode records, right after ``import qszego`` returns, the monotonic
clock, which the parent compares with the moment it spawned the process.
An untraced run also times the speed-probe kernels (probe.py) every
PROBE_PERIOD_S seconds from a timer signal, and takes their time out of the
measured times.  The package is imported from ``src/`` of the checkout this
file sits in.
"""

import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qszego  # noqa: E402

T_IMPORTED = time.monotonic()

import math  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

from qszego import cli, kernel, quadrature, verify  # noqa: E402
from qszego.kernel import KernelOrder, PiScaledKernel  # noqa: E402
from qszego.polyfrac import HyperFrac, RadialFraction, RatPoly  # noqa: E402

import probe  # noqa: E402
from layers import MODULES, Tracer, sloc  # noqa: E402

PROBE_PERIOD_S = 0.25


class SpeedProbe:
    """Probe samples taken before, every PROBE_PERIOD_S during, and after a run.

    The samples are taken from a SIGALRM handler, between two bytecodes of
    whatever runs; ``spent`` is the time spent in them, which the measured
    times exclude.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def take(self, *_):
        t0 = time.perf_counter()
        self.samples.append(probe.sample())
        self.spent += time.perf_counter() - t0

    def start(self):
        self.take()
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()


def record(name, inputs, tolerance, passed):
    """The fields of a check that the result fingerprint covers."""
    return {"name": name, "inputs": inputs, "tolerance": float(tolerance), "passed": bool(passed)}


def from_report(rep):
    data = rep.to_json()
    return record(data["name"], data["inputs"], data["tolerance"], data["passed"])


# ----------------------------------------------------------------------
# workloads: each is a list of (item name, callable returning records)


def exact_items(inputs, out_dir):
    items = []
    seed = inputs["suite_seed"]
    for suite in inputs["suites"]:
        path = out_dir / f"verify-{suite}.jsonl"

        def run_suite(suite=suite, path=path):
            code = cli.main(["verify", suite, "--seed", str(seed), "-o", str(path)])
            with open(path) as fh:
                recs = [json.loads(line) for line in fh if line.strip()]
            out = [record(r["name"], r["inputs"], r["tolerance"], r["passed"]) for r in recs]
            if code != (0 if all(r["passed"] for r in out) else 1):
                out.append(record("cli-exit-code", {"suite": suite, "code": code}, 0.0, False))
            return out

        items.append((f"verify-{suite}", run_suite))

    for n in range(1, inputs["density_n_max"] + 1):

        def density(n=n):
            s = kernel.szego_density(KernelOrder(n))
            dirac_ok = s.body.dirac("left").is_zero()
            degree = -(2 * n + 3)
            degree_ok = all(
                c.is_zero() or c.num.homogeneous_degree() == 2 * c.k + degree for c in s.body.comps
            )
            return [
                record("density-dirac-annihilation", {"n": n}, 0.0, dirac_ok),
                record("density-homogeneous-degree", {"n": n, "degree": degree}, 0.0, degree_ok),
            ]

        items.append((f"density-n{n}", density))

    for n_text, points in inputs["homogeneity_points"].items():

        def homogeneity(n=int(n_text), points=points):
            s = kernel.szego_density(KernelOrder(n))
            worst = 0.0
            for nu in points:
                base = s.eval(nu)
                for t in (0.5, 2.0, 5.0):
                    scaled = s.eval([t * v for v in nu])
                    dev = max(
                        abs(float(a) * t ** (2 * n + 3) - float(b))
                        for a, b in zip(scaled.comps, base.comps)
                    )
                    worst = max(worst, dev / max(abs(base), 1e-300))
            return [record("density-float-homogeneity", {"n": n, "points": points}, 1e-12, worst <= 1e-12)]

        items.append((f"homogeneity-n{n_text}", homogeneity))

    for n in inputs["complex_n"]:

        def complex_density(n=n):
            s = kernel.szego_density(KernelOrder(n, m=2))
            x0, x1 = RatPoly.variable(2, 0), RatPoly.variable(2, 1)
            re_p, im_p = RatPoly.const(2, 1), RatPoly.zero(2)
            for _ in range(n + 1):
                re_p, im_p = re_p * x0 + im_p * x1, im_p * x0 - re_p * x1
            closed = PiScaledKernel(
                Fraction(2 ** (n - 1) * math.factorial(n)),
                -(n + 1),
                HyperFrac((RadialFraction(re_p, n + 1), RadialFraction(im_p, n + 1))),
            )
            return [record("unified-complex-density", {"n": n}, 0.0, s.scaled_equal(closed))]

        items.append((f"complex-n{n}", complex_density))
    return items


def parseval_items(inputs, out_dir):
    items = []
    for p, q, x0 in inputs["pairs"]:

        def pair(p=p, q=q, x0=x0):
            return [quadrature.parseval_identity_check(p, q, x0)]

        items.append((f"parseval-{''.join(map(str, p))}-{''.join(map(str, q))}-{x0}", pair))
    return items


def reproducing_items(inputs, out_dir):
    items = []
    for n, t in inputs["checks"]:

        def check(n=n, t=t):
            spec = verify.TestFunctionSpec(n, tuple(t))
            return [verify.reproducing_check(spec, tol=inputs["tol"], budget=inputs["budget"])]

        items.append((f"reproducing-n{n}-{''.join(map(str, t))}", check))
    return items


WORKLOADS = {"exact": exact_items, "parseval": parseval_items, "reproducing": reproducing_items}


def run_items(items, speed=None):
    """Time every item, less probe time; exceptions become failing records."""
    timings, results = [], []

    def spent():
        return speed.spent if speed is not None else 0.0

    t_start, spent_start = time.perf_counter(), spent()
    for name, fn in items:
        t0, spent0 = time.perf_counter(), spent()
        try:
            out = fn()
        except Exception:  # a check that raises is a failed check, not a crash
            out = [record(name, {"error": traceback.format_exc(limit=3)}, 0.0, False)]
        timings.append(time.perf_counter() - t0 - (spent() - spent0))
        results.append(out)
    return time.perf_counter() - t_start - (spent() - spent_start), timings, results


# ----------------------------------------------------------------------
# exact-rational oracle for the float evaluator


def _abs_scale(frac, point):
    """Sum of the absolute term values of a RadialFraction at ``point``."""
    num = RatPoly(frac.dim, {k: abs(c) for k, c in frac.num.terms.items()})
    val = num.eval(tuple(abs(x) for x in point))
    r2 = sum(x * x for x in point)
    return float(Fraction(val) / Fraction(r2) ** frac.k)


def _oracle_error(comps, float_values, point):
    """Worst error of one point's float values against the exact values."""
    worst = 0.0
    for frac, got in zip(comps, float_values):
        want = frac.eval(point)
        scale = _abs_scale(frac, point)
        err = abs(float(got) - float(want)) / scale if scale else abs(float(got))
        if not math.isfinite(err):
            return math.inf
        worst = max(worst, err)
    return worst


def oracle(inputs):
    """eval_array against the exact eval at dyadic rational points.

    Dyadic points are exact in binary floating point, so the float path sees
    the same point as the exact path.  The error is taken relative to the
    sum of the absolute term values, the scale rounding errors grow with.
    """
    points = [tuple(Fraction(n, d) for n, d in p) for p in inputs["oracle_points"]]
    x = np.array([[float(v) for v in p] for p in points])
    tol = inputs["oracle_tol"]

    def check(name, key, fractions, float_values):
        try:
            vals = float_values()
            worst = max(_oracle_error(fractions, vals[i], p) for i, p in enumerate(points))
        except Exception:  # an evaluator that raises fails its check
            return record(name, dict(key, error=traceback.format_exc(limit=3)), tol, False)
        return record(name, key, tol, worst <= tol)

    checks = []
    for n in inputs["oracle_density_n"]:
        s = kernel.szego_density(KernelOrder(n))
        checks.append(check("oracle-density", {"n": n}, s.body.comps, lambda: s.eval_array(x) / s.prefactor()))
    for orders in inputs["oracle_newton_orders"]:
        f = kernel.newton_derivative(tuple(orders))
        checks.append(check("oracle-newton-derivative", {"orders": orders}, (f,), lambda: f.eval_array(x)[:, None]))
    for t in inputs["oracle_test_specs"]:
        comps = verify.hardy_test_function_components(tuple(t))
        checks.append(check("oracle-test-function", {"t": t}, comps.comps, lambda: comps.eval_array(x)))
    return checks


# ----------------------------------------------------------------------


def main(argv):
    mode, inputs_path, result_path = argv
    src_pkg = (ROOT / "src" / "qszego").resolve()
    if Path(qszego.__file__).resolve().parent != src_pkg:
        print(f"qszego imported from {qszego.__file__}, not from {src_pkg}", file=sys.stderr)
        return 2
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    result = {"t_imported": T_IMPORTED}
    out_dir = Path(result_path).parent

    if mode == "oracle":
        result["records"] = oracle(inputs)
    elif mode in ("run", "trace"):
        items = WORKLOADS[inputs["workload"]](inputs, out_dir)
        tracer = speed = None
        if mode == "trace":
            tracer = Tracer()
            tracer.install()
            tracer.active = True
        else:
            speed = SpeedProbe()
            speed.start()
        wall, timings, results = run_items(items, speed)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.active = False
        else:
            speed.stop()
            result["probe_samples"] = speed.samples
        result.update(
            wall_s=wall,
            item_s=timings,
            peak_rss_kb=rss_kb,
            records=[r if isinstance(r, dict) else from_report(r) for out in results for r in out],
        )
        if tracer is not None:
            built = [kernel.szego_density(KernelOrder(n, m=m)) for m, n in sorted(tracer.density_keys)]
            terms = sum(len(c.num.terms) for s in built for c in s.body.comps)
            sloc_counts = {m: sloc(ROOT / "src" / "qszego" / f"{m}.py") for m in MODULES}
            metrics, table = tracer.layer_metrics(wall, inputs.get("untraced_wall_s", wall), terms, sloc_counts)
            result.update(layers=metrics, spans=table, tracer_notes=sorted(tracer.notes))
            tracer.save(Path(result_path).with_suffix(".spans.npz"))
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
