"""Named verification suites aggregating the individual checks.

Each suite returns a list of :class:`CheckReport`; the CLI serializes them
as JSON lines and exits nonzero when any report fails.  Every suite is
deterministic for a fixed seed and budget.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import verify
from .geometry import (
    GroupElement,
    SiegelPoint,
    boundary_param,
    boundary_unparam,
    cayley,
    cayley_inv,
    dilate,
    dilate_element,
    group_inverse,
    group_mul,
    identity_element,
    rho_length,
    rotate,
    translate,
)
from .hypercomplex import (
    OCTONION_TRIPLES,
    QUATERNION_TRIPLES,
    Hypercomplex,
    associator,
    mult_table,
)
from .kernel import (
    KernelOrder,
    PiScaledKernel,
    cauchy_kernel,
    complex_szego_closed_form,
    szego_density,
    szego_nu,
)
from .polyfrac import HyperFrac, RadialFraction, RatPoly
from .quadrature import (
    ExpDecay,
    SqrtPiRational,
    exponential_moment_closed_form,
    fourier_newton,
    gamma_half,
    integrate_r3,
    parseval_identity_check,
)
from .report import CheckReport

SUITE_NAMES = ("all", "algebra", "kernel", "geometry", "props", "reproducing", "octonion")


def _rand_exact(rng, dim, span=9):
    return Hypercomplex([rng.randint(-span, span) for _ in range(dim)])


def _rand_float(rng, dim):
    return Hypercomplex([rng.uniform(-1.0, 1.0) for _ in range(dim)], exact=False)


def _report_counterexamples(name, inputs, bad, count):
    return CheckReport.from_flag(
        name=name,
        inputs=dict(inputs, checked=count),
        passed=not bad,
        lhs="exact identity",
        rhs=bad if bad else "holds",
        n_evals=count,
    )


# ----------------------------------------------------------------------


def algebra_suite(seed=0):
    rng = random.Random(seed)
    reports = []

    bad = []
    for dim, triples in ((4, QUATERNION_TRIPLES), (8, OCTONION_TRIPLES)):
        table = mult_table(dim)
        for a, b, c in triples:
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                if table[x][y] != (z, 1) or table[y][x] != (z, -1):
                    bad.append((dim, x, y))
        for i in range(dim):
            if table[0][i] != (i, 1) or table[i][0] != (i, 1):
                bad.append((dim, 0, i))
            if i and table[i][i] != (0, -1):
                bad.append((dim, i, i))
    reports.append(_report_counterexamples("mult-table-generators", {}, bad, 7 * 3 * 2 + 32))

    for dim in (4, 8):
        bad = []
        for _ in range(2000):
            a, b = _rand_exact(rng, dim), _rand_exact(rng, dim)
            if (a * b).norm_sq() != a.norm_sq() * b.norm_sq():
                bad.append((a.to_text(), b.to_text()))
        reports.append(
            _report_counterexamples("norm-multiplicativity", {"dim": dim}, bad, 2000)
        )

    for dim in (4, 8):
        bad = []
        for _ in range(10_000):
            a, b = _rand_exact(rng, dim, span=5), _rand_exact(rng, dim, span=5)
            if (a * b).conj() != b.conj() * a.conj():
                bad.append((a.to_text(), b.to_text()))
        reports.append(
            _report_counterexamples("conjugation-antiautomorphism", {"dim": dim}, bad, 10_000)
        )

    bad = []
    for _ in range(1000):
        a, b, c = (_rand_exact(rng, 4) for _ in range(3))
        if (a * b) * c != a * (b * c):
            bad.append((a.to_text(), b.to_text(), c.to_text()))
    reports.append(_report_counterexamples("quaternion-associativity", {}, bad, 1000))

    bad = []
    for _ in range(1000):
        x, y = _rand_exact(rng, 8), _rand_exact(rng, 8)
        if not associator(x, x, y).is_zero() or not associator(x.conj(), x, y).is_zero():
            bad.append((x.to_text(), y.to_text()))
    reports.append(_report_counterexamples("octonion-alternativity", {}, bad, 1000))

    bad = []
    one4, one8 = Hypercomplex.from_real(4, 1), Hypercomplex.from_real(8, 1)
    for _ in range(200):
        for dim, one in ((4, one4), (8, one8)):
            a = _rand_exact(rng, dim)
            if a.is_zero():
                continue
            if a * a.inverse() != one or a.inverse() * a != one:
                bad.append(a.to_text())
    reports.append(_report_counterexamples("two-sided-inverse", {}, bad, 400))

    return reports


# ----------------------------------------------------------------------


def kernel_suite(seed=0):
    rng = random.Random(seed)
    reports = []

    for n in range(1, 4):
        density = szego_density(KernelOrder(n))
        ok = density.body.dirac("left").is_zero()
        reports.append(
            CheckReport.from_flag(
                "density-dirac-annihilation", {"n": n}, ok, lhs="D s", rhs="0"
            )
        )

        deg_target = -(2 * n + 3)
        sym_ok = all(
            c.is_zero() or c.num.homogeneous_degree() == 2 * c.k + deg_target
            for c in density.body.comps
        )
        nus = np.array([rng.uniform(-2, 2) for _ in range(4 * 25)]).reshape(25, 4)
        nus = nus[np.sum(nus * nus, axis=1) >= 0.1]
        base = density.eval_array(nus)
        norm = np.maximum(np.sqrt(np.sum(base * base, axis=1)), 1e-300)
        worst = 0.0
        for t in (0.5, 2.0, 5.0):
            dev = np.max(np.abs(density.eval_array(t * nus) * t ** (2 * n + 3) - base), axis=1)
            worst = max(worst, float(np.max(dev / norm)))
        reports.append(
            CheckReport(
                name="density-homogeneity",
                inputs={"n": n, "degree": deg_target},
                lhs="eval(s, t nu) t^(2n+3)",
                rhs="eval(s, nu)",
                abs_deviation=worst,
                rel_deviation=worst,
                tolerance=1e-12,
                passed=sym_ok and worst <= 1e-12,
                n_evals=100,
            )
        )

    e4 = cauchy_kernel(4)
    reports.append(
        CheckReport.from_flag(
            "cauchy-kernel-regular", {}, e4.body.dirac("left").is_zero(), lhs="D E", rhs="0"
        )
    )

    for n in range(1, 5):
        density = szego_density(KernelOrder(n, m=2))
        x0, x1 = RatPoly.variable(2, 0), RatPoly.variable(2, 1)
        re_p, im_p = RatPoly.const(2, 1), RatPoly.zero(2)
        for _ in range(n + 1):
            re_p, im_p = re_p * x0 - im_p * (-x1), re_p * (-x1) + im_p * x0
        closed = PiScaledKernel(
            Fraction(2 ** (n - 1) * math.factorial(n)),
            -(n + 1),
            HyperFrac((RadialFraction(re_p, n + 1), RadialFraction(im_p, n + 1))),
        )
        reports.append(
            CheckReport.from_flag(
                "unified-complex-density",
                {"n": n},
                density.scaled_equal(closed),
                lhs="(-2/pi)^n derivative route",
                rhs="2^(n-1) n! pi^-(n+1) nu^-(n+1)",
            )
        )
        nus = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(100)]
        nus = [nu for nu in nus if abs(nu) >= 0.1]
        worst = 0.0
        for nu, (re, im) in zip(nus, density.eval_array([(nu.real, nu.imag) for nu in nus]).tolist()):
            w = complex_szego_closed_form(n, nu)
            worst = max(worst, abs(complex(re, im) - w) / abs(w))
        reports.append(
            CheckReport(
                name="complex-closed-form-crosscheck",
                inputs={"n": n},
                lhs="density eval",
                rhs="closed form",
                abs_deviation=worst,
                rel_deviation=worst,
                tolerance=1e-12,
                passed=worst <= 1e-12,
                n_evals=100,
            )
        )

    # invariance of the full kernel under the three automorphisms (n = 1)
    def rand_interior():
        q1 = _rand_float(rng, 4)
        h = rng.uniform(0.2, 2.0)
        vert = Hypercomplex(
            [float(q1.norm_sq()) + h, rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)],
            exact=False,
        )
        return SiegelPoint((q1,), vert)

    samples = []
    for _ in range(40):
        q, w = rand_interior(), rand_interior()
        delta = rng.uniform(0.5, 2.0)
        u = _rand_float(rng, 4)
        u = u * (1.0 / abs(u))
        h = GroupElement(
            (_rand_float(rng, 4),),
            tuple(rng.uniform(-1, 1) for _ in range(3)),
        )
        samples.append((q, w, delta, u, h))

    def kernel(pairs):
        """S(q, w) for each pair (q, w), one row each, from one density evaluation."""
        return szego_density(1).eval_array([szego_nu(q, w).comps for q, w in pairs])

    s_qw = kernel((q, w) for q, w, *_ in samples)
    # each entry should equal s_qw: conj S(w, q), delta^10 S(delta q, delta w), ...
    transformed = {
        "hermitian": kernel((w, q) for q, w, *_ in samples) * [1.0, -1.0, -1.0, -1.0],
        "dilation": kernel((dilate(d, q), dilate(d, w)) for q, w, d, *_ in samples)
        * np.array([[d**10] for _, _, d, *_ in samples]),
        "rotation": kernel((rotate((u,), q), rotate((u,), w)) for q, w, _, u, _ in samples),
        "translation": kernel((translate(h, q), translate(h, w)) for q, w, *_, h in samples),
    }
    norm = np.maximum(np.sqrt(np.sum(s_qw * s_qw, axis=1)), 1e-300)
    worst = {key: float(np.max(np.max(np.abs(v - s_qw), axis=1) / norm)) for key, v in transformed.items()}
    for key, tol in (("hermitian", 1e-12), ("dilation", 1e-10), ("rotation", 1e-10), ("translation", 1e-10)):
        reports.append(
            CheckReport(
                name=f"kernel-invariance-{key}",
                inputs={"n": 1, "pairs": 40},
                lhs="transformed kernel",
                rhs="kernel",
                abs_deviation=worst[key],
                rel_deviation=worst[key],
                tolerance=tol,
                passed=worst[key] <= tol,
                n_evals=160,
            )
        )

    reports.append(verify.kernel_decay_check(1, seed=seed))
    return reports


# ----------------------------------------------------------------------


def geometry_suite(seed=0):
    rng = random.Random(seed)
    reports = []

    for kind, dim, tn, n in (
        ("quaternionic", 4, 3, 1),
        ("quaternionic", 4, 3, 2),
        ("octonionic", 8, 7, 1),
    ):
        def rand_el():
            return GroupElement(
                tuple(_rand_exact(rng, dim, 4) for _ in range(n)),
                tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(tn)),
            )

        bad = []
        ident = identity_element(kind, n)
        for _ in range(1000):
            a, b, c = rand_el(), rand_el(), rand_el()
            if group_mul(group_mul(a, b), c) != group_mul(a, group_mul(b, c)):
                bad.append("associativity")
                break
        for _ in range(100):
            a = rand_el()
            if group_mul(a, ident) != a or group_mul(ident, a) != a:
                bad.append("identity")
                break
            if group_mul(a, group_inverse(a)) != ident:
                bad.append("inverse")
                break
        reports.append(
            _report_counterexamples(
                "group-axioms", {"kind": kind, "n": n}, bad, 1100
            )
        )

    reports.append(verify.action_compatibility_check(seed=seed))

    bad = []
    for _ in range(200):
        h = GroupElement(
            (_rand_exact(rng, 4, 4),),
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(3)),
        )
        p = SiegelPoint((_rand_exact(rng, 4, 4),), _rand_exact(rng, 4, 4))
        if translate(h, p).height() != p.height():
            bad.append("quaternionic")
        ho = GroupElement(
            (_rand_exact(rng, 8, 4),),
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(7)),
        )
        po = SiegelPoint((_rand_exact(rng, 8, 4),), _rand_exact(rng, 8, 4))
        if translate(ho, po).height() != po.height():
            bad.append("octonionic")
    reports.append(_report_counterexamples("translation-height-invariance", {}, bad, 400))

    bad = []
    for _ in range(200):
        h = GroupElement(
            (_rand_exact(rng, 4, 4),),
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(3)),
        )
        if boundary_unparam(boundary_param(h)) != h:
            bad.append(str(h))
    reports.append(_report_counterexamples("boundary-parameterization-roundtrip", {}, bad, 200))

    nrng = np.random.default_rng(seed)
    worst_round = 0.0
    inside = True
    for _ in range(10_000):
        tau1 = Hypercomplex(nrng.uniform(-1, 1, 8), exact=False)
        height = float(nrng.uniform(0.05, 3.0))
        vert = np.concatenate([[float(tau1.norm_sq()) + height], nrng.uniform(-2, 2, 7)])
        p = SiegelPoint((tau1,), Hypercomplex(vert, exact=False))
        ball = cayley(p)
        if ball.norm_sq_sum() >= 1.0:
            inside = False
        back = cayley_inv(ball)
        dev = max(
            max(abs(a - b) for a, b in zip(back.horizontal[0].comps, p.horizontal[0].comps)),
            max(abs(a - b) for a, b in zip(back.vertical.comps, p.vertical.comps)),
        )
        scale = max(1.0, abs(p.vertical))
        worst_round = max(worst_round, dev / scale)
    reports.append(
        CheckReport(
            name="cayley-roundtrip",
            inputs={"samples": 10_000},
            lhs="cayley_inv(cayley(tau))",
            rhs="tau",
            abs_deviation=worst_round,
            rel_deviation=worst_round,
            tolerance=1e-12,
            passed=inside and worst_round <= 1e-12,
            n_evals=10_000,
        )
    )

    worst_bd = 0.0
    for _ in range(500):
        tau1 = Hypercomplex(nrng.uniform(-1, 1, 8), exact=False)
        vert = np.concatenate([[float(tau1.norm_sq())], nrng.uniform(-2, 2, 7)])
        p = SiegelPoint((tau1,), Hypercomplex(vert, exact=False))
        worst_bd = max(worst_bd, abs(cayley(p).norm_sq_sum() - 1.0))
    reports.append(
        CheckReport(
            name="cayley-boundary-to-sphere",
            inputs={"samples": 500},
            lhs="|sigma|^2 on the boundary",
            rhs=1.0,
            abs_deviation=worst_bd,
            rel_deviation=worst_bd,
            tolerance=1e-10,
            passed=worst_bd <= 1e-10,
            n_evals=500,
        )
    )

    bad = []
    for _ in range(300):
        h = GroupElement(
            (_rand_float(rng, 4),),
            tuple(rng.uniform(-4, 4) for _ in range(3)),
        )
        if abs(rho_length(dilate_element(3.0, h)) - 3.0 * rho_length(h)) > 1e-12 * max(
            1.0, rho_length(h)
        ):
            bad.append("dilation")
        if rho_length(group_inverse(h)) != rho_length(h):
            bad.append("inverse")
    reports.append(_report_counterexamples("rho-homogeneity", {}, bad, 600))

    return reports


# ----------------------------------------------------------------------


def props_suite(seed=0):
    rng = random.Random(seed)
    reports = []

    bad = []
    for twice in range(1, 21):
        lhs = gamma_half(twice) * gamma_half(twice + 1)
        rhs = gamma_half(1) * gamma_half(2 * twice) * SqrtPiRational(Fraction(2) ** (1 - twice))
        if lhs != rhs:
            bad.append(twice)
    reports.append(_report_counterexamples("gamma-duplication", {}, bad, 20))

    worst = 0.0
    count = 0
    tuples = []
    for l0 in range(4):
        for l1 in range(0, 4 - l0, 2):
            for l2 in range(0, 4 - l0 - l1, 2):
                for l3 in range(0, 4 - l0 - l1 - l2, 2):
                    tuples.append((l0, l1, l2, l3))
    for _ in range(5):
        tuples.append(
            (
                rng.randint(0, 2),
                2 * rng.randint(0, 1),
                2 * rng.randint(0, 1),
                2 * rng.randint(0, 1),
            )
        )
    for a in (1.0, 2.0, 4.0):
        for l0, l1, l2, l3 in tuples:
            exact = exponential_moment_closed_form(a, l0, l1, l2, l3).to_float()

            def f(pts, l0=l0, l1=l1, l2=l2, l3=l3, a=a):
                r = np.linalg.norm(pts, axis=1)
                return (
                    r**l0
                    * pts[:, 0] ** l1
                    * pts[:, 1] ** l2
                    * pts[:, 2] ** l3
                    * np.exp(-a * r)
                )

            res = integrate_r3(f, ExpDecay(a), tol=1e-8, abs_tol=1e-12 * abs(exact))
            worst = max(worst, abs(res.value - exact) / abs(exact))
            count += 1
    reports.append(
        CheckReport(
            name="exponential-moment-consistency",
            inputs={"tuples": len(tuples), "a_values": [1, 2, 4]},
            lhs="spherical quadrature",
            rhs="Gamma closed form",
            abs_deviation=worst,
            rel_deviation=worst,
            tolerance=1e-6,
            passed=worst <= 1e-6,
            n_evals=count,
        )
    )

    multi = [
        (p0, p1, p2, p3)
        for p0 in range(3)
        for p1 in range(3 - p0)
        for p2 in range(3 - p0 - p1)
        for p3 in range(3 - p0 - p1 - p2)
    ]
    failures = []
    count = 0
    for x0 in (0.5, 1.0):
        for p in multi:
            for q in multi:
                rep = parseval_identity_check(p, q, x0)
                count += 1
                if not rep.passed:
                    failures.append({"p": p, "q": q, "x0": x0, "rel": rep.rel_deviation})
    reports.append(
        _report_counterexamples(
            "parseval-identity-grid", {"max_order": 2}, failures, count
        )
    )

    for n in (1, 2, 3):
        reports.append(verify.coefficient_system_check(n))

    reports.append(verify.closed_form_agreement_check())

    lhs, rhs = fourier_newton(1.0, 1.0), math.pi * math.exp(-2 * math.pi)
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    reports.append(
        CheckReport(
            name="fourier-profile-value",
            inputs={"x0": 1, "rho": 1},
            lhs=lhs,
            rhs=rhs,
            abs_deviation=abs(lhs - rhs),
            rel_deviation=rel,
            tolerance=1e-14,
            passed=rel <= 1e-14,
        )
    )
    return reports


# ----------------------------------------------------------------------


def octonion_suite(seed=0):
    reports = []
    corpus = verify.cr_corpus(seed=seed + 11)

    agreement = []
    implication = []
    true_class = false_class = 0
    for name, f in corpus:
        rep = verify.composed_analyticity_check(f, n_random=8, seed=seed)
        if not rep.passed:
            agreement.append(name)
        if rep.inputs["cr_system"]:
            true_class += 1
        else:
            false_class += 1
        if rep.inputs["cr_system"] and not rep.inputs["universal_alpha"]:
            implication.append(name)
    reports.append(
        _report_counterexamples(
            "composed-analyticity-corpus",
            {"size": len(corpus), "true_class": true_class, "false_class": false_class},
            agreement,
            len(corpus),
        )
    )
    reports.append(
        _report_counterexamples(
            "stein-weiss-implies-analyticity", {"size": len(corpus)}, implication, len(corpus)
        )
    )

    bad = []
    cases = verify.slice_regularity_corpus()
    for name, func, alpha in cases:
        if not verify.slice_regularity_check(func, alpha):
            bad.append((name, alpha.to_text()))
    reports.append(_report_counterexamples("slice-regularity-corpus", {}, bad, len(cases)))

    for p in (6.0 / 7.0, 1.0, 2.0):
        bad = []
        for name, f in verify.o_analytic_corpus():
            rep = verify.subharmonicity_check(f, p, n_points=500, seed=seed)
            if not rep.passed:
                bad.append(name)
        reports.append(
            _report_counterexamples(
                "subharmonicity", {"p": p, "points": 500}, bad, 5
            )
        )
    return reports


# ----------------------------------------------------------------------


def reproducing_suite(n=1, tol=1e-3, budget=2.0e7):
    reports = []
    for t in ((2, 0, 0, 1), (3, 0, 0, 1)):
        spec = verify.TestFunctionSpec(n, t)
        reports.append(verify.reproducing_check(spec, tol=tol, budget=budget))
    return reports


# ----------------------------------------------------------------------


def run_suite(name, n=1, tol=1e-3, budget=2.0e7, seed=0):
    """Run one named suite (or all of them); reports sorted by check name."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    reports = []
    if name in ("all", "algebra"):
        reports += algebra_suite(seed=seed)
    if name in ("all", "kernel"):
        reports += kernel_suite(seed=seed)
    if name in ("all", "geometry"):
        reports += geometry_suite(seed=seed)
    if name in ("all", "props"):
        reports += props_suite(seed=seed)
    if name in ("all", "octonion"):
        reports += octonion_suite(seed=seed)
    if name in ("all", "reproducing"):
        reports += reproducing_suite(n=n, tol=tol, budget=budget)
    reports.sort(key=lambda r: (r.name, str(r.inputs)))
    return reports
