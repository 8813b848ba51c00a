"""Acceptance criteria, one test per criterion, at the pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qszego.geometry import (
    GroupElement,
    SiegelPoint,
    cayley_columns,
    group_inverse,
    group_mul,
    identity_element,
    translate_columns,
)
from qszego.hypercomplex import Hypercomplex, sum_squares
from qszego.kernel import KernelOrder, PiScaledKernel, szego_density
from qszego.polyfrac import HyperFrac, RadialFraction, RatPoly
from qszego.quadrature import (
    ExpDecay,
    SqrtPiRational,
    _sphere_level,
    exponential_moment_closed_form,
    integrate_r3,
    parseval_identity_check,
)
from qszego.verify import (
    TestFunctionSpec,
    action_compatibility_check,
    closed_form_agreement_check,
    coefficient_system_check,
    composed_analyticity_check,
    cr_corpus,
    hardy_test_function,
    hardy_test_function_closed_form,
    kernel_decay_check,
    o_analytic_corpus,
    reproducing_check,
    slice_regularity_check,
    slice_regularity_corpus,
    stein_weiss_check,
    subharmonicity_check,
)

PI = math.pi


def _report(index, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {index:2d} {name}: {status}{extra}")
    return ok


def test_criterion_01_kernel_formula():
    t0 = time.time()
    rng = random.Random(0)
    ok = True
    detail = []
    for n in range(1, 5):
        s = szego_density(KernelOrder(n))
        if not s.body.dirac("left").is_zero():
            ok = False
            detail.append(f"Dirac n={n}")
        for c in s.body.comps:
            if not c.is_zero() and c.num.homogeneous_degree() != 2 * c.k - (2 * n + 3):
                ok = False
                detail.append(f"degree n={n}")
        worst = 0.0
        for _ in range(10):
            nu = [rng.uniform(-2, 2) for _ in range(4)]
            if sum(v * v for v in nu) < 0.25:
                continue
            base = s.eval(nu)
            for t in (0.5, 2.0, 5.0):
                scaled = s.eval([t * v for v in nu])
                dev = max(
                    abs(float(a) * t ** (2 * n + 3) - float(b))
                    for a, b in zip(scaled.comps, base.comps)
                )
                worst = max(worst, dev / max(abs(base), 1e-300))
        if worst > 1e-12:
            ok = False
            detail.append(f"homogeneity n={n} dev={worst:.1e}")
    elapsed = time.time() - t0
    assert _report(1, "kernel formula (Dirac null + homogeneity, n=1..4)", ok,
                   f"{elapsed:.1f}s {';'.join(detail)}")
    assert elapsed < 60


def test_criterion_02_unified_complex_density():
    ok = True
    for n in range(1, 5):
        s = szego_density(KernelOrder(n, m=2))
        x0, x1 = RatPoly.variable(2, 0), RatPoly.variable(2, 1)
        re_p, im_p = RatPoly.const(2, 1), RatPoly.zero(2)
        for _ in range(n + 1):
            re_p, im_p = re_p * x0 + im_p * x1, im_p * x0 - re_p * x1
        closed = PiScaledKernel(
            Fraction(2 ** (n - 1) * math.factorial(n)),
            -(n + 1),
            HyperFrac((RadialFraction(re_p, n + 1), RadialFraction(im_p, n + 1))),
        )
        if not s.scaled_equal(closed):
            ok = False
    assert _report(2, "unified m=2 density equals complex closed form (n=1..4)", ok)


def test_criterion_03_exponential_moments():
    t0 = time.time()
    base = exponential_moment_closed_form(1, 0, 0, 0, 0)
    ok = base == SqrtPiRational(Fraction(8), 2)
    worst_even = 0.0
    worst_odd = 0.0
    count = 0
    for a in (1.0, 2.0, 4.0):
        for l0 in range(5):
            for l1 in range(5 - l0):
                for l2 in range(5 - l0 - l1):
                    for l3 in range(5 - l0 - l1 - l2):
                        exact = exponential_moment_closed_form(a, l0, l1, l2, l3)
                        count += 1

                        def f(x1, x2, x3, sign=1.0):
                            # product chains: the sign of v flips exactly with x_i's
                            r = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
                            v = np.exp(-a * r)
                            for x, k in ((r, l0), (x1, l1), (x2, l2), (x3, l3)):
                                for _ in range(k):
                                    v = v * x
                            return np.abs(v) if sign < 0 else v

                        parity = ((-1) ** l1, (-1) ** l2, (-1) ** l3)
                        if exact.is_zero():
                            val, _ = _sphere_level(f, ExpDecay(a), 48, 16, 16, parity)
                            scale, _ = _sphere_level(lambda *x: f(*x, -1.0), ExpDecay(a), 48, 16, 16, (1, 1, 1))
                            worst_odd = max(worst_odd, abs(val) / max(scale, 1e-300))
                        else:
                            want = exact.to_float()
                            res = integrate_r3(
                                f, ExpDecay(a), parity, tol=1e-8, abs_tol=abs(want) * 1e-10
                            )
                            worst_even = max(worst_even, abs(res.value - want) / abs(want))
    ok = ok and worst_even <= 1e-6 and worst_odd <= 1e-10
    elapsed = time.time() - t0
    assert _report(
        3,
        "exponential moments closed form vs quadrature (l <= 4, a in {1,2,4})",
        ok,
        f"{count} tuples, even dev {worst_even:.1e}, odd dev {worst_odd:.1e}, {elapsed:.0f}s",
    )
    assert elapsed < 60


def test_criterion_04_parseval_identity():
    t0 = time.time()
    multi = [
        (p0, p1, p2, p3)
        for p0 in range(4)
        for p1 in range(4 - p0)
        for p2 in range(4 - p0 - p1)
        for p3 in range(4 - p0 - p1 - p2)
    ]
    assert len(multi) == 35
    failures = []
    count = 0
    for x0 in (0.5, 1.0):
        for p in multi:
            for q in multi:
                rep = parseval_identity_check(p, q, x0)
                count += 1
                if not rep.passed:
                    failures.append((p, q, x0, rep.rel_deviation))
    elapsed = time.time() - t0
    assert _report(
        4,
        "Parseval identity for all derivative pairs (orders <= 3)",
        not failures,
        f"{count} pairs, {elapsed:.0f}s" + (f", first failure {failures[0]}" if failures else ""),
    )
    assert elapsed < 300


def test_criterion_05_coefficient_system():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3):
        rep = coefficient_system_check(n)
        ok = ok and rep.passed
    elapsed = time.time() - t0
    assert _report(5, "coefficient system exact (n=1,2,3, grid {0,1,2}^3)", ok, f"{elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_06_test_function_closed_form():
    rep = closed_form_agreement_check()
    spec = TestFunctionSpec(1, (2, 0, 0, 1))
    origin = SiegelPoint((Hypercomplex.zero(4),), Hypercomplex.from_real(4, 1))
    want = Hypercomplex((0, 0, 0, Fraction(5, 8)))
    ok = (
        rep.passed
        and hardy_test_function(spec, origin) == want
        and hardy_test_function_closed_form(spec) == want
    )
    assert _report(
        6,
        "test-function Gamma closed form exact (all parity specs, order <= 6)",
        ok,
        f"{rep.inputs['specs_checked']} specs",
    )


def test_criterion_07_reproducing_property():
    t0 = time.time()
    ok = True
    details = []
    for t in ((2, 0, 0, 1), (3, 0, 0, 1)):
        rep = reproducing_check(TestFunctionSpec(1, t), tol=1e-3, budget=2e7)
        ok = ok and rep.passed
        details.append(f"t={t} rel={rep.rel_deviation:.1e}")
    elapsed = time.time() - t0
    assert _report(
        7, "reproducing property at rel 1e-3 (n=1)", ok, f"{'; '.join(details)}, {elapsed:.0f}s"
    )
    assert elapsed < 900


def test_criterion_08_geometry_suite():
    t0 = time.time()
    rng = random.Random(1)
    ok = True
    notes = []

    for kind, dim, tn, n in (
        ("quaternionic", 4, 3, 1),
        ("quaternionic", 4, 3, 2),
        ("octonionic", 8, 7, 1),
    ):
        ident = identity_element(kind, n)

        def rand_el():
            return GroupElement(
                tuple(
                    Hypercomplex([rng.randint(-4, 4) for _ in range(dim)]) for _ in range(n)
                ),
                tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(tn)),
            )

        for _ in range(1000):
            a, b, c = rand_el(), rand_el(), rand_el()
            if group_mul(group_mul(a, b), c) != group_mul(a, group_mul(b, c)):
                ok = False
                notes.append(f"associativity {kind} n={n}")
                break
        a = rand_el()
        if group_mul(a, ident) != a or group_mul(a, group_inverse(a)) != ident:
            ok = False
            notes.append(f"identity/inverse {kind} n={n}")

    # 500 pairs (h, g) of float elements, in columns: h's omega and t, then
    # g's; the point is boundary_param(g) = (g.omega, |g.omega|^2 + e.t)
    cols = np.array([[rng.uniform(-2, 2) for _ in range(14)] for _ in range(500)]).T
    g_omega = tuple(cols[7:11])
    p = ((g_omega,), (sum_squares(g_omega),) + tuple(cols[11:14]))
    (moved,), vertical = translate_columns((tuple(cols[:4]),), tuple(cols[4:7]), *p)
    worst_height = float(np.max(np.abs(vertical[0] - sum_squares(moved))))
    if worst_height > 1e-12:
        ok = False
        notes.append(f"height dev {worst_height:.1e}")

    # the draws of 10,000 points drawn one at a time: tau1, the height, Im tau2
    draws = np.random.default_rng(2).uniform(
        [-1.0] * 8 + [0.05] + [-2.0] * 7, [1.0] * 8 + [3.0] + [2.0] * 7, (10_000, 16)
    )
    tau1 = tuple(draws[:, :8].T)
    tau2 = (sum_squares(tau1) + draws[:, 8],) + tuple(draws[:, 9:].T)
    sigma1, sigma2 = cayley_columns(tau1, tau2)
    strictly_inside = bool(np.all(sum_squares(sigma1) + sum_squares(sigma2) < 1.0))
    back1, back2 = cayley_columns(sigma1, sigma2, inverse=True)
    dev = np.max(np.abs(np.array(back1 + back2) - np.array(tau1 + tau2)), axis=0)
    worst_round = float(np.max(dev / np.maximum(1.0, np.sqrt(sum_squares(tau2)))))
    if not strictly_inside or worst_round > 1e-12:
        ok = False
        notes.append(f"cayley dev {worst_round:.1e} inside={strictly_inside}")

    compat = action_compatibility_check(seed=3)
    verdicts = compat.inputs["verdicts"]
    if len(verdicts) != 4 or not compat.passed:
        ok = False
        notes.append(f"compatibility {verdicts}")

    elapsed = time.time() - t0
    assert _report(
        8,
        "geometry and group suite (axioms, height, Cayley, conventions)",
        ok,
        f"verdicts={verdicts}, {elapsed:.0f}s" + ("; " + "; ".join(notes) if notes else ""),
    )


def test_criterion_09_octonionic_propositions():
    t0 = time.time()
    ok = True
    notes = []

    corpus = cr_corpus()
    if len(corpus) < 20:
        ok = False
        notes.append("corpus too small")
    true_class = false_class = 0
    for name, f in corpus:
        rep = composed_analyticity_check(f)
        if not rep.passed:
            ok = False
            notes.append(f"disagreement {name}")
        if rep.inputs["cr_system"]:
            true_class += 1
        else:
            false_class += 1
        sw_ok, _ = stein_weiss_check(f)
        if sw_ok and not (rep.inputs["universal_alpha"] and rep.inputs["cr_system"]):
            ok = False
            notes.append(f"implication {name}")
    if not (true_class and false_class):
        ok = False
        notes.append("one verdict class missing")

    for name, func, alpha in slice_regularity_corpus():
        if not slice_regularity_check(func, alpha):
            ok = False
            notes.append(f"slice {name}")

    for p in (6.0 / 7.0, 1.0, 2.0):
        for name, f in o_analytic_corpus():
            rep = subharmonicity_check(f, p, n_points=1000, seed=4)
            if not rep.passed:
                ok = False
                notes.append(f"subharmonic {name} p={p:.3f}")

    elapsed = time.time() - t0
    assert _report(
        9,
        "composed analyticity, slice regularity, subharmonicity",
        ok,
        f"corpus {len(corpus)} ({true_class}+/{false_class}-), {elapsed:.0f}s"
        + ("; " + "; ".join(notes[:3]) if notes else ""),
    )


def test_criterion_10_projection_kernel_estimates():
    t0 = time.time()
    rep = kernel_decay_check(1, samples=100_000, seed=5)
    elapsed = time.time() - t0
    ratios = rep.lhs["ratios"]
    assert _report(
        10,
        "projection kernel size estimates stable across shells",
        rep.passed,
        f"ratios K={ratios['K']:.3f} dy={ratios['dK_dy']:.3f} dt={ratios['dK_dt']:.3f}, "
        f"dilation dev {rep.lhs['dilation_dev']:.1e}, {elapsed:.0f}s",
    )
    assert elapsed < 120
