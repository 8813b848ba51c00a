"""Named verification suites aggregating the individual checks.

Each suite returns a list of :class:`CheckReport`; the CLI serializes them
as JSON lines and exits nonzero when any report fails.  Every suite is
deterministic for a fixed seed and budget.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np

from . import verify
from .geometry import (
    _PRINTED_CONVENTION,
    GroupElement,
    SiegelPoint,
    boundary_param,
    boundary_unparam,
    cayley_columns,
    dilate_columns,
    dilate_element,
    group_inverse,
    group_mul_columns,
    homogeneous_dim,
    nu_columns,
    rho_length,
    rotate_columns,
    translate,
    translate_columns,
)
from .hypercomplex import (
    _PRODUCTS,
    OCTONION_TRIPLES,
    QUATERNION_TRIPLES,
    Hypercomplex,
    conj,
    mult_table,
    sum_squares,
)
from .kernel import (
    KernelOrder,
    PiScaledKernel,
    cauchy_kernel,
    complex_szego_closed_form,
    density_closed_form,
    szego_density,
)
from .polyfrac import HyperFrac, RadialFraction, RatPoly
from .quadrature import (
    ExpDecay,
    SqrtPiRational,
    exponential_moment_closed_form,
    gamma_half,
    integrate_r3,
    parseval_identity_check,
)
from .report import CheckReport, UsageError
from .verify import (
    _differ,
    _element_columns,
    _elements_differ,
    _multi_indices,
    _rand_exact,
    _rand_fraction,
    _randint,
    _randints,
)

SUITE_NAMES = ("all", "algebra", "kernel", "geometry", "props", "reproducing", "octonion", "exact")


# The sampled checks run on blocks of at most this many samples, which
# bounds their memory; the draws of a block are those of drawing its samples
# one at a time.
SAMPLE_BLOCK = 1000
# bounds of the uniform draws, per column: tau1, the height (round trip
# only), then Im tau2
_ROUNDTRIP_LOW = [-1.0] * 8 + [0.05] + [-2.0] * 7
_ROUNDTRIP_HIGH = [1.0] * 8 + [3.0] + [2.0] * 7
_BOUNDARY_LOW = [-1.0] * 8 + [-2.0] * 7
_BOUNDARY_HIGH = [1.0] * 8 + [2.0] * 7


# bounds of the 28 uniform draws of one pair of the kernel invariance checks
_INVARIANCE_POINT = [(-1, 1)] * 4 + [(0.2, 2.0)] + [(-1, 1)] * 3
_INVARIANCE_BOUNDS = _INVARIANCE_POINT * 2 + [(0.5, 2.0)] + [(-1, 1)] * 11


def _blocks(total):
    """Sizes of the blocks of at most SAMPLE_BLOCK samples that make up ``total``."""
    return [min(SAMPLE_BLOCK, total - start) for start in range(0, total, SAMPLE_BLOCK)]


def _row_deviation(got, want):
    """The largest max|got - want| of a row, over the norm of that row of ``want`` (at least 1e-300)."""
    norm = np.maximum(np.sqrt(np.sum(want * want, axis=1)), 1e-300)
    return float(np.max(np.max(np.abs(got - want), axis=1) / norm))


def _exact_columns(rng, size, factors, dim, span=9):
    """The int64 component columns of ``size`` samples of ``factors``
    elements each, one tuple of ``dim`` columns per factor, drawn as
    ``_rand_exact(rng, dim, span)`` draws them sample by sample."""
    draws = _randints(rng, [(-span, span)], size * factors * dim).reshape(size, factors, dim)
    return [tuple(draws[:, f, i] for i in range(dim)) for f in range(factors)]


def _failing_samples(failing, *factors):
    """The to_text() of each factor, per sample where ``failing`` holds, in sample order."""
    return [
        tuple(Hypercomplex([int(c[row]) for c in f]).to_text() for f in factors)
        for row in np.flatnonzero(failing)
    ]


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

    # The sampled identities run on int64 component columns, one block of
    # samples at a time, through the product, conjugate and sum of squares
    # that Hypercomplex runs.  They are exact: the components lie in [-9, 9]
    # and there are at most three factors, so no intermediate exceeds
    # 8 * (8 * 81) * 9 = 46,656 (that of (xx)y), nor a squared norm
    # 8 * 648^2 < 3.4e6, far below 2^63.
    for dim in (4, 8):
        mul, bad = _PRODUCTS[dim], []
        for size in _blocks(2000):
            a, b = _exact_columns(rng, size, 2, dim)
            bad += _failing_samples(sum_squares(mul(a, b)) != sum_squares(a) * sum_squares(b), a, b)
        reports.append(
            _report_counterexamples("norm-multiplicativity", {"dim": dim}, bad, 2000)
        )

    for dim in (4, 8):
        mul, bad = _PRODUCTS[dim], []
        for size in _blocks(10_000):
            a, b = _exact_columns(rng, size, 2, dim, span=5)
            bad += _failing_samples(_differ(conj(mul(a, b)), mul(conj(b), conj(a))), a, b)
        reports.append(
            _report_counterexamples("conjugation-antiautomorphism", {"dim": dim}, bad, 10_000)
        )

    mul, bad = _PRODUCTS[4], []
    for size in _blocks(1000):
        a, b, c = _exact_columns(rng, size, 3, 4)
        bad += _failing_samples(_differ(mul(mul(a, b), c), mul(a, mul(b, c))), a, b, c)
    reports.append(_report_counterexamples("quaternion-associativity", {}, bad, 1000))

    mul, bad = _PRODUCTS[8], []
    for size in _blocks(1000):
        x, y = _exact_columns(rng, size, 2, 8)
        xy, xc = mul(x, y), conj(x)
        # the associators (x, x, y) and (conj x, x, y)
        failing = _differ(mul(mul(x, x), y), mul(x, xy)) | _differ(mul(mul(xc, x), y), mul(xc, xy))
        bad += _failing_samples(failing, x, y)
    reports.append(_report_counterexamples("octonion-alternativity", {}, bad, 1000))

    # a a^-1 = a^-1 a = 1 with a^-1 = conj(a) / |a|^2, multiplied through by
    # |a|^2: a conj(a) = conj(a) a = |a|^2, on a quaternion then an octonion
    # per sample (a zero sample, which has no inverse, passes)
    draws = _randints(rng, [(-9, 9)], 200 * 12).reshape(200, 12)
    samples, failing = (draws[:, :4], draws[:, 4:]), []
    for sample in samples:
        a, mul = tuple(sample.T), _PRODUCTS[sample.shape[1]]
        scalar = (sum_squares(a),) + (0,) * (len(a) - 1)
        failing.append(_differ(mul(a, conj(a)), scalar) | _differ(mul(conj(a), a), scalar))
    # in sample order, the quaternion before the octonion
    rows = np.argwhere(np.stack(failing, axis=1))
    bad = [Hypercomplex(samples[k][row].tolist()).to_text() for row, k in rows]
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
        sym_ok = density.body.degree() == deg_target
        nus = np.array([rng.uniform(-2, 2) for _ in range(4 * 25)]).reshape(25, 4)
        nus = nus[np.sum(nus * nus, axis=1) >= 0.1]
        base = density.eval_array(nus)
        worst = max(
            _row_deviation(density.eval_array(t * nus) * t ** (2 * n + 3), base) for t in (0.5, 2.0, 5.0)
        )
        reports.append(
            CheckReport.within(
                "density-homogeneity", {"n": n, "degree": deg_target}, worst, 1e-12,
                ok=sym_ok, lhs="eval(s, t nu) t^(2n+3)", rhs="eval(s, nu)", n_evals=100,
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
            re_p, im_p = _PRODUCTS[2]((re_p, im_p), (x0, -x1))
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
            CheckReport.within(
                "complex-closed-form-crosscheck", {"n": n}, worst, 1e-12,
                lhs="density eval", rhs="closed form", n_evals=100,
            )
        )

    # invariance of the full kernel under the three automorphisms (n = 1), on
    # columns of 40 pairs; per pair, in order: q', the height and Im q_2 of
    # q, the same of w, delta, the rotation u, then omega' and t
    cols = np.array([[rng.uniform(lo, hi) for lo, hi in _INVARIANCE_BOUNDS] for _ in range(40)]).T

    def interior(c):
        return (tuple(c[:4]),), (sum_squares(c[:4]) + c[4],) + tuple(c[5:8])

    q, w, delta = interior(cols[:8]), interior(cols[8:16]), cols[16]
    inv = 1.0 / np.sqrt(sum_squares(cols[17:21]))
    u = tuple(c * inv for c in cols[17:21])
    omega, t = (tuple(cols[21:25]),), tuple(cols[25:28])

    def kernel(a, b):
        """S(a, b) for the columns of the points a and b, one row per pair."""
        return szego_density(1).eval_array(np.stack(nu_columns(*a, *b), axis=-1))

    s_qw = kernel(q, w)
    # each entry should equal s_qw: conj S(w, q), delta^Q S(delta q, delta w)
    # with Q = 10 the homogeneous dimension, ...
    transformed = {
        "hermitian": kernel(w, q) * [1.0, -1.0, -1.0, -1.0],
        "dilation": kernel(dilate_columns(delta, *q), dilate_columns(delta, *w))
        * np.array([[d ** homogeneous_dim(1)] for d in delta.tolist()]),
        "rotation": kernel(rotate_columns((u,), *q), rotate_columns((u,), *w)),
        "translation": kernel(translate_columns(omega, t, *q), translate_columns(omega, t, *w)),
    }
    worst = {key: _row_deviation(v, s_qw) for key, v in transformed.items()}
    for key, tol in (("hermitian", 1e-12), ("dilation", 1e-10), ("rotation", 1e-10), ("translation", 1e-10)):
        reports.append(
            CheckReport.within(
                f"kernel-invariance-{key}", {"n": 1, "pairs": 40}, worst[key], tol,
                lhs="transformed kernel", rhs="kernel", n_evals=160,
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
        # The axioms run on int64 columns of the samples dilated by 6,
        # [6 omega, 36 t]: the dilation is an automorphism of the group law
        # (every t term has degree 2), so an axiom holds on a sample exactly
        # when it holds on its image, whose t denominators (at most 3) clear.
        # With |omega| <= 24 and |t| <= 216 no intermediate exceeds about 3e4.
        # one element draws its nd = n * dim components in [-4, 4], then per
        # t component a numerator in [-6, 6] and a denominator in [1, 3]
        nd = n * dim
        ranges = [(-4, 4)] * nd + [(-6, 6), (1, 3)] * tn

        def rand_draws(rows, elements=1):
            """``rows`` samples of ``elements`` elements dilated by 6, shape
            (rows, elements, nd + tn): 6 times their nd components, then 36
            times their t components."""
            draws = _randints(rng, ranges * elements, rows).reshape(rows, elements, -1)
            draws[..., :nd] *= 6
            # in place: each t component over the first of its two draws' columns
            draws[..., nd : nd + tn] = draws[..., nd::2] * (36 // draws[..., nd + 1 :: 2])
            return draws[..., : nd + tn]

        def mul(x, y, conv=_PRINTED_CONVENTION[kind]):
            return group_mul_columns(*x, *y, conv)

        # 1000 triples in two blocks: the octonionic draws of a block (66
        # int64 columns) take 264 kB, and a larger freed array would raise
        # glibc's dynamic mmap threshold, so that the density builds after
        # the suite keep more memory resident
        bad = []
        for _ in range(2):
            draws = rand_draws(500, 3)
            a, b, c = (_element_columns(draws[:, f], n, dim) for f in range(3))
            if np.any(_elements_differ(mul(mul(a, b), c), mul(a, mul(b, c)))):
                bad = ["associativity"]

        # [a][0] = [0][a] = a, then [a][a^-1] = 0, with a^-1 = [-omega, -t]
        state = rng.getstate()
        draws = rand_draws(100)[:, 0]
        a, inverse = _element_columns(draws, n, dim), _element_columns(-draws, n, dim)
        zero = (((0,) * dim,) * n, (0,) * tn)
        identity = _elements_differ(mul(a, zero), a) | _elements_differ(mul(zero, a), a)
        failing = identity | _elements_differ(mul(a, inverse), zero)
        if np.any(failing):
            first = int(np.argmax(failing))
            bad.append("identity" if identity[first] else "inverse")
            # the draws stop at the first failing sample
            rng.setstate(state)
            rand_draws(first + 1)
        reports.append(_report_counterexamples("group-axioms", {"kind": kind, "n": n}, bad, 1100))

    reports.append(verify.action_compatibility_check(seed=seed))

    bad = []
    for _ in range(200):
        for kind, dim in (("quaternionic", 4), ("octonionic", 8)):
            h = GroupElement(
                (_rand_exact(rng, dim, 4),),
                tuple(Fraction(_randint(rng, -5, 5)) for _ in range(dim - 1)),
            )
            p = SiegelPoint((_rand_exact(rng, dim, 4),), _rand_exact(rng, dim, 4))
            if translate(h, p).height() != p.height():
                bad.append(kind)
    reports.append(_report_counterexamples("translation-height-invariance", {}, bad, 400))

    bad = []
    for _ in range(200):
        h = GroupElement(
            (_rand_exact(rng, 4, 4),),
            tuple(Fraction(_randint(rng, -5, 5)) for _ in range(3)),
        )
        if boundary_unparam(boundary_param(h)) != h:
            bad.append(str(h))
    reports.append(_report_counterexamples("boundary-parameterization-roundtrip", {}, bad, 200))

    nrng = np.random.default_rng(seed)
    worst_round = 0.0
    inside = True
    for size in _blocks(10_000):
        # per row: tau1 in [-1, 1]^8, the height, then Im tau2 in [-2, 2]^7
        draws = nrng.uniform(_ROUNDTRIP_LOW, _ROUNDTRIP_HIGH, (size, 16))
        tau1 = tuple(draws[:, :8].T)
        tau2 = (sum_squares(tau1) + draws[:, 8],) + tuple(draws[:, 9:].T)
        sigma1, sigma2 = cayley_columns(tau1, tau2)
        if np.any(sum_squares(sigma1) + sum_squares(sigma2) >= 1.0):
            inside = False
        back1, back2 = cayley_columns(sigma1, sigma2, inverse=True)
        dev = np.max(np.abs(np.array(back1 + back2) - np.array(tau1 + tau2)), axis=0)
        scale = np.maximum(1.0, np.sqrt(sum_squares(tau2)))
        worst_round = max(worst_round, float(np.max(dev / scale)))
    reports.append(
        CheckReport.within(
            "cayley-roundtrip", {"samples": 10_000}, worst_round, 1e-12,
            ok=inside, lhs="cayley_inv(cayley(tau))", rhs="tau", n_evals=10_000,
        )
    )

    worst_bd = 0.0
    for size in _blocks(500):
        draws = nrng.uniform(_BOUNDARY_LOW, _BOUNDARY_HIGH, (size, 15))
        tau1 = tuple(draws[:, :8].T)
        sigma1, sigma2 = cayley_columns(tau1, (sum_squares(tau1),) + tuple(draws[:, 8:].T))
        worst_bd = max(worst_bd, float(np.max(np.abs(sum_squares(sigma1) + sum_squares(sigma2) - 1.0))))
    reports.append(
        CheckReport.within(
            "cayley-boundary-to-sphere", {"samples": 500}, worst_bd, 1e-10,
            lhs="|sigma|^2 on the boundary", rhs=1.0, n_evals=500,
        )
    )

    bad = []
    for _ in range(300):
        h = GroupElement(
            (Hypercomplex([_rand_fraction(rng, 4, 4) for _ in range(4)]),),
            tuple(_rand_fraction(rng, 16, 4) for _ in range(3)),
        )
        if abs(rho_length(dilate_element(3, h)) - 3.0 * rho_length(h)) > 1e-12 * max(
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
    converged = True
    tuples = [t for t in _multi_indices(3) if not any(v % 2 for v in t[1:])]
    for _ in range(5):
        tuples.append((_randint(rng, 0, 2), *(2 * _randint(rng, 0, 1) for _ in range(3))))
    for a in (1.0, 2.0, 4.0):
        for l0, l1, l2, l3 in tuples:
            exact = exponential_moment_closed_form(a, l0, l1, l2, l3).to_float()

            def f(x1, x2, x3, l0=l0, l1=l1, l2=l2, l3=l3, a=a):
                r = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
                return r**l0 * x1**l1 * x2**l2 * x3**l3 * np.exp(-a * r)

            res = integrate_r3(f, ExpDecay(a), (-1) ** l1, tol=1e-8, abs_tol=1e-12 * abs(exact))
            worst = max(worst, abs(res.value - exact) / abs(exact))
            converged = converged and res.converged
            count += 1
    reports.append(
        CheckReport.within(
            "exponential-moment-consistency", {"tuples": len(tuples), "a_values": [1, 2, 4]}, worst, 1e-6,
            ok=converged, lhs="spherical quadrature", rhs="Gamma closed form", n_evals=count,
        )
    )

    multi = _multi_indices(2)
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
    return reports


# ----------------------------------------------------------------------


def octonion_suite(seed=0):
    reports = []
    corpus = verify.cr_corpus(seed=seed + 11)

    agreement = []
    implication = []
    true_class = false_class = 0
    for name, f in corpus:
        rep = verify.composed_analyticity_check(f)
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


def reproducing_suite(n, tol, budget):
    reports = []
    for t in ((2, 0, 0, 1), (3, 0, 0, 1)):
        spec = verify.TestFunctionSpec(n, t)
        reports.append(verify.reproducing_check(spec, tol=tol, budget=budget))
    return reports


# ----------------------------------------------------------------------


def exact_suite():
    """Exact identities with no float step: the density's Gegenbauer closed
    form, from which its floats are taken, equals the derivative the paper
    defines, at n = 1..8."""
    return [
        CheckReport.from_flag(
            "density-closed-form", {"n": n}, density_closed_form(n) == szego_density(KernelOrder(n)).body,
            lhs="Gegenbauer closed form", rhs="d0^(2n) of the Cauchy kernel",
        )
        for n in range(1, 9)
    ]


# ----------------------------------------------------------------------


def run_suite(name, n, tol, budget, seed):
    """Run one named suite (or all of them); returns ``(reports, elapsed)``.

    The reports are sorted by check name, and those of the exact suite,
    which runs last, follow the others in order, so a new exact report adds
    lines at the end; ``elapsed`` maps each suite that ran to its wall time
    in seconds, in the order the suites ran.  A suite
    that raises adds one failing ``suite-error`` report, whose ``error``
    field holds the exception's type and message, and the other suites
    still run.  A ``UsageError`` still raises: a budget too small for two
    boundary refinement levels, or an ``n`` outside the Hardy range.  Only
    the reproducing suite reads ``n``, ``tol`` and ``budget``, so it runs
    first: a usage error ends the call before any other suite has run.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    suites = {
        "reproducing": lambda: reproducing_suite(n=n, tol=tol, budget=budget),
        "algebra": lambda: algebra_suite(seed=seed),
        "kernel": lambda: kernel_suite(seed=seed),
        "geometry": lambda: geometry_suite(seed=seed),
        "props": lambda: props_suite(seed=seed),
        "octonion": lambda: octonion_suite(seed=seed),
        "exact": exact_suite,
    }
    reports, appended, elapsed = [], [], {}
    for suite, run in suites.items():
        if name not in ("all", suite):
            continue
        start = time.perf_counter()
        out = appended if suite == "exact" else reports
        try:
            out += run()
        except UsageError:
            raise
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            out.append(CheckReport.from_flag("suite-error", {"suite": suite}, False, error=error))
        elapsed[suite] = time.perf_counter() - start
    reports.sort(key=lambda r: (r.name, str(r.inputs)))
    return reports + appended, elapsed
