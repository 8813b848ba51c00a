"""Benchmark of the qszego package, run from the root of a checkout.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all        # every workload, untraced and traced

Each repetition of a workload is a fresh Python process (perfbench/worker.py)
that imports qszego from ``src/`` with every cache cold, as one ``qszego``
command does.  Repetitions run one at a time until the next one would end
after ``--seconds``.  Times are divided by the slowdown of the speed probe
measured with them (probe.py), so they read as times at the reference
speed; every metric is a median over the run.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced repetition with ``--trace 1``.
README.md in this directory lists every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "qszego"
OUT = HERE / "out"
WORKER = HERE / "worker.py"
FINGERPRINTS = HERE / "fingerprints.json"

sys.path.insert(0, str(HERE))
import probe  # noqa: E402
from layers import EXACT_EXCLUDED, EXACT_UNITS, LAYER_METRICS  # noqa: E402

WORKLOAD_NAMES = ("exact", "parseval", "reproducing")
# Inputs come from one of INPUT_SETS sets, chosen by seed mod INPUT_SETS, so
# that every input set has a result fingerprint recorded in fingerprints.json.
INPUT_SETS = 16
# Import-only spawns made before every repetition; the rest of the window,
# too short for another repetition, is filled with more of them.
SETUP_SPAWNS_PER_REP = 10
# a run must end within 180 s; a worker still running at this many seconds
# into the run is killed and the run fails
RUN_LIMIT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed and recorded with every run but not part of the gated metrics:
# across seeds they spread by more than any bound the benchmark may set
# (README.md, "End-to-end metrics").
LATENCY = (
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
)

PARSEVAL_PAIRS = 300
PARSEVAL_X0 = (0.5, 0.75, 1.0, 1.5)
REPRODUCING_SPECS = ((2, 0, 0, 1), (3, 0, 0, 1))
DENSITY_N_MAX = 11


# ----------------------------------------------------------------------
# inputs


def _orders(max_total):
    return [
        (a, b, c, d)
        for a in range(max_total + 1)
        for b in range(max_total + 1 - a)
        for c in range(max_total + 1 - a - b)
        for d in range(max_total + 1 - a - b - c)
    ]


def make_inputs(workload, seed):
    """The workload's inputs; equal seeds mod INPUT_SETS give equal inputs."""
    input_set = seed % INPUT_SETS
    rng = random.Random(f"qszego-perfbench:{workload}:{input_set}")
    inputs = {"workload": workload, "input_set": input_set}
    if workload == "exact":
        points = {}
        for n in range(1, 5):
            pts = []
            while len(pts) < 10:
                nu = [rng.uniform(-2, 2) for _ in range(4)]
                if sum(v * v for v in nu) >= 0.25:
                    pts.append(nu)
            points[str(n)] = pts
        inputs.update(
            suites=["algebra", "geometry", "octonion"],
            suite_seed=rng.randrange(2**31),
            density_n_max=DENSITY_N_MAX,
            homogeneity_points=points,
            complex_n=[1, 2, 3, 4],
        )
    elif workload == "parseval":
        grid = [(p, q) for p in _orders(3) for q in _orders(3)]
        chosen = sorted(rng.sample(range(len(grid)), PARSEVAL_PAIRS))
        inputs["pairs"] = [[*grid[i], rng.choice(PARSEVAL_X0)] for i in chosen]
    elif workload == "reproducing":
        # n = 1 and 2 run both specs and the seed picks only the n = 3 one:
        # at n = 1, (2,0,0,1) converges a level earlier and costs a sixth of
        # (3,0,0,1), and at n = 2 the two differ by a fifth, so seed-picked
        # specs there would swing the workload's cost from seed to seed.
        checks = [[n, spec] for n in (1, 2) for spec in REPRODUCING_SPECS]
        checks.append([3, rng.choice(REPRODUCING_SPECS)])
        inputs.update(checks=checks, tol=1e-3, budget=2.0e7)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    def dyadic(lo, hi):
        return [rng.randint(lo, hi), 2 ** rng.randint(2, 6)]

    inputs.update(
        oracle_points=[[dyadic(1, 256)] + [dyadic(-256, 256) for _ in range(3)] for _ in range(6)],
        oracle_density_n=[1, 2, 3],
        oracle_newton_orders=_orders(4),
        oracle_test_specs=list(REPRODUCING_SPECS),
        oracle_tol=1e-12,
    )
    return inputs


# ----------------------------------------------------------------------
# results


def fingerprint(records):
    """Hash of (name, inputs, tolerance, passed) over every check."""
    rows = sorted(
        json.dumps([r["name"], r["inputs"], r["tolerance"], r["passed"]], sort_keys=True)
        for r in records
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def tail(samples):
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile); with fewer than eleven samples no such
    percentile exists and the maximum is returned with percentile 100.
    """
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    env = {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


# ----------------------------------------------------------------------
# running


class WorkerError(RuntimeError):
    pass


def spawn(mode, inputs_path, result_path, deadline):
    """Run one worker process to completion; returns (result, setup_s).

    The worker is killed, and waited for, if it runs past ``deadline`` (a
    ``time.monotonic()`` value).
    """
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, str(inputs_path), str(result_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker still running after {RUN_LIMIT_S} s into the run") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    return result, result["t_imported"] - t_spawn


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def run_workload(workload, seed, seconds, trace, traced_reps=1):
    """Run one workload; returns a dict with metrics, verdicts and samples.

    With ``trace`` the untraced repetitions are followed by ``traced_reps``
    traced ones; with two, their work counts must repeat exactly.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    inputs = make_inputs(workload, seed)
    input_set = inputs["input_set"]
    out = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs_path = out / "inputs.json"
    _write(inputs_path, inputs)

    problems = []
    attempted = failed = 0

    def count(records):
        nonlocal attempted, failed
        attempted += len(records)
        failed += sum(not r["passed"] for r in records)

    oracle, _ = spawn("oracle", inputs_path, out / "oracle.json", deadline)
    count(oracle["records"])

    setups = []  # raw set-up times
    setup_probes = []  # probe samples taken before and after each set-up

    def setup():
        setup_probes.append(probe.sample())
        setups.append(spawn("setup", inputs_path, out / "setup.json", deadline)[1])
        setup_probes.append(probe.sample())

    window_start = time.monotonic()
    reps = []
    durations = []
    while True:
        t0 = time.monotonic()
        # set-up is sampled across the whole window, not in one stretch of it
        for _ in range(SETUP_SPAWNS_PER_REP):
            setup()
        rep, _ = spawn("run", inputs_path, out / f"run-{len(reps)}.json", deadline)
        durations.append(time.monotonic() - t0)
        rep["slowdown"] = probe.slowdown(rep.pop("probe_samples"), probe.MIX[workload])
        reps.append(rep)
        count(rep["records"])
        if time.monotonic() - window_start + max(durations) > seconds:
            break
    while time.monotonic() - window_start + 2 * max(setups) < seconds:
        setup()

    prints = sorted({fingerprint(r["records"]) for r in reps})
    want = stored_fingerprint(workload, input_set)
    if prints != [want]:
        failed += 1
        problems.append(f"fingerprint {prints} != recorded {want} for input set {input_set}")

    walls = [r["wall_s"] for r in reps]
    # latency per check at the reference speed: the median and the tail of
    # each repetition, then the median of those over the repetitions
    p50s = [statistics.median(r["item_s"]) / r["slowdown"] for r in reps]
    tails = [tail(r["item_s"]) for r in reps]
    result = {
        "workload": workload,
        "seed": seed,
        "input_set": input_set,
        "trace": int(trace),
        "environment": environment(seed),
        "repetitions": len(reps),
        "fingerprint": prints[0] if len(prints) == 1 else prints,
        "wall_samples_s": walls,
        "wall_slowdowns": [r["slowdown"] for r in reps],
        "setup_samples_s": setups,
        "setup_probe_samples": setup_probes,
        "checks_per_repetition": len(reps[0]["item_s"]),
        "check_tail_percentile": tails[0][1],
        "end_to_end": {
            # times at the probe's reference speed (probe.py)
            "setup_s": statistics.median(setups) / probe.slowdown(setup_probes, probe.MIX["setup"]),
            "wall_s": statistics.median(r["wall_s"] / r["slowdown"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] * 1024 / 1e6 for r in reps),
        },
        "latency": {
            "check_p50_ms": 1e3 * statistics.median(p50s),
            "check_tail_ms": 1e3 * statistics.median(t / r["slowdown"] for (t, _), r in zip(tails, reps)),
        },
    }

    notes = []
    if trace:
        inputs["untraced_wall_s"] = statistics.median(walls)
        _write(inputs_path, inputs)
        traced = [spawn("trace", inputs_path, out / f"trace-{i}.json", deadline)[0] for i in range(traced_reps)]
        for t in traced:
            count(t["records"])
            if fingerprint(t["records"]) != want:
                failed += 1
                problems.append(f"traced fingerprint {fingerprint(t['records'])} != recorded {want}")
        if len(traced) == 2:
            a, b = (t["layers"] for t in traced)
            differ = [
                k for k, u in LAYER_METRICS
                if u in EXACT_UNITS and k not in EXACT_EXCLUDED and a[k] != b[k]
            ]
            if differ:
                failed += 1
                problems.append(f"traced counts differ between two runs: {differ}")
        result["layers"] = traced[0]["layers"]
        result["spans"] = traced[0]["spans"]
        notes += traced[0]["tracer_notes"]
        if result["layers"]["trace.outside_share"] >= 0.10:
            failed += 1
            problems.append("10% or more of the traced wall time lies outside every span")

    result["notes"] = notes
    result.update(attempted=attempted, failed=failed, problems=problems)
    result["correct"] = failed == 0 and not problems
    _write(out / "result.json", result)
    return result


def stored_fingerprint(workload, input_set):
    try:
        with open(FINGERPRINTS) as fh:
            return json.load(fh)["fingerprints"][workload][str(input_set)]
    except (OSError, KeyError):
        return None


# ----------------------------------------------------------------------
# output


def describe(result):
    """Human-readable lines for one workload result."""
    lines = [f"# workload {result['workload']} seed {result['seed']} (input set {result['input_set']})"
             f" trace {result['trace']}: {result['repetitions']} repetitions"]
    lines.append("environment " + json.dumps(result["environment"], sort_keys=True))
    units = dict(END_TO_END + LATENCY)
    for name, value in {**result["end_to_end"], **result["latency"]}.items():
        lines.append(f"{name:40s} {value:14.6g} {units[name]}")
    lines.append(
        f"{'fail_ratio':40s} {result['failed'] / max(result['attempted'], 1):14.6g}"
        f" ({result['failed']} of {result['attempted']} checks failed)"
    )
    lines.append(
        f"check latencies: {result['checks_per_repetition']} checks per repetition,"
        f" tail at percentile {result['check_tail_percentile']:.2f} of each repetition"
    )
    lines.append(f"fingerprint {result['fingerprint']}")
    if "layers" in result:
        units = dict(LAYER_METRICS)
        for name, value in result["layers"].items():
            lines.append(f"{name:40s} {value:14.6g} {units[name]}")
        lines.append("span                                   calls      total_s       self_s")
        for name, row in sorted(result["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            if row["calls"]:
                lines.append(f"{name:34s} {row['calls']:10d} {row['total_s']:12.4f} {row['self_s']:12.4f}")
    for p in result["problems"]:
        lines.append(f"PROBLEM: {p}")
    for n in result["notes"]:
        lines.append(f"note: {n}")
    return lines


def summary(result):
    if result["trace"]:
        units, values = dict(LAYER_METRICS), result["layers"]
    else:
        units, values = dict(END_TO_END), result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no qszego sources at {PACKAGE}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json") as fh:
            seconds = json.load(fh)["run_seconds"]

    try:
        if args.workload:
            result = run_workload(args.workload, args.seed, seconds, args.trace)
            print("\n".join(describe(result)))
            print(json.dumps(summary(result)))
            return 0
        # one traced run per workload: its untraced repetitions give the
        # end-to-end metrics, its two traced ones the per-layer metrics and
        # the check that their work counts repeat exactly
        results = []
        for workload in WORKLOAD_NAMES:
            result = run_workload(workload, args.seed, seconds, 1, traced_reps=2)
            print("\n".join(describe(result)), flush=True)
            results.append(result)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{r['workload']}.{k}": {"value": v, "unit": units[k]}
            for r in results
            for units, values in ((dict(END_TO_END), r["end_to_end"]), (dict(LAYER_METRICS), r["layers"]))
            for k, v in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
