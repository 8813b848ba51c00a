"""The seeded draws of the checks and suites, and the rule that every integer
draw in the package goes through them."""

import ast
import hashlib
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qszego
from qszego import hypercomplex, suites, verify
from qszego.geometry import (
    GroupElement,
    SiegelPoint,
    group_inverse,
    group_mul,
    group_mul_with_convention,
    identity_element,
    translate,
)
from qszego.hypercomplex import Hypercomplex, associator
from qszego.polyfrac import HyperFrac, RatPoly
from qszego.verify import (
    _rand_exact,
    _rand_fraction,
    _randint,
    _randints,
)

SOURCES = sorted(Path(qszego.__file__).parent.glob("*.py"))


def _random_rational_hypercomplex(rng, dim):
    """An element with components drawn as ``_rand_fraction(rng, 3, 3)``."""
    return Hypercomplex([_rand_fraction(rng, 3, 3) for _ in range(dim)])


@pytest.mark.parametrize("span", [4, 5, 9])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_rand_exact_draws_as_randint(span, seed):
    # the draws of geometry_suite's group elements (components, then t
    # components on the spans -6..6 over 1..3 and -5..5) and the stream left
    # behind are those of randint
    fast, reference = random.Random(seed), random.Random(seed)
    for dim in (4, 8) * 50:
        expected = Hypercomplex([reference.randint(-span, span) for _ in range(dim)])
        assert _rand_exact(fast, dim, span) == expected
        for low, high in ((-6, 6), (1, 3), (-5, 5)):
            assert _randint(fast, low, high) == reference.randint(low, high)
    assert fast.getstate() == reference.getstate()


def _reference_random_functions(rng):
    """cr_corpus's random functions, drawn with randint and randrange."""
    funcs = []
    for _ in range(8):
        polys = []
        for _ in range(8):
            terms = {}
            for _ in range(3):
                key = [0] * 8
                for _ in range(rng.randint(0, 3)):
                    key[rng.randrange(8)] += 1
                terms[tuple(key)] = terms.get(tuple(key), 0) + rng.randint(-3, 3)
            polys.append(RatPoly(8, terms))
        funcs.append(HyperFrac.from_polys(tuple(polys)))
    return funcs


def _recording_random(monkeypatch, module):
    """Make ``module.random.Random`` record each generator it makes; returns the list."""
    made = []

    def recorded(s):
        made.append(random.Random(s))
        return made[-1]

    monkeypatch.setattr(module, "random", SimpleNamespace(Random=recorded))
    return made


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_seeded_draws_follow_the_randint_stream(seed, monkeypatch):
    # rationals draw the numerator, then the denominator, as
    # Fraction(randint(-span, span), randint(1, den)) does
    fast, reference = random.Random(seed), random.Random(seed)
    for span, den in ((3, 3), (3, 2), (6, 3)):
        for _ in range(50):
            expected = Fraction(reference.randint(-span, span), reference.randint(1, den))
            assert _rand_fraction(fast, span, den) == expected
    for dim in (4, 8) * 25:
        expected = Hypercomplex(
            [Fraction(reference.randint(-3, 3), reference.randint(1, 3)) for _ in range(dim)]
        )
        assert _random_rational_hypercomplex(fast, dim) == expected
    # the dilated draws of the group checks: numerator and denominator
    # drawn in bulk, times a scale that clears every denominator
    for span, den, scale in ((3, 3, 6), (3, 2, 36), (3, 3, 36), (6, 3, 36)):
        expected = [scale * _rand_fraction(reference, span, den) for _ in range(50)]
        draws = _randints(fast, [(-span, span), (1, den)], 50)
        assert (draws[:, 0] * (scale // draws[:, 1])).tolist() == expected
        assert all(e.denominator == 1 for e in expected)
    assert fast.getstate() == reference.getstate()

    # cr_corpus draws its random functions from its own generator
    made = _recording_random(monkeypatch, verify)
    corpus = verify.cr_corpus(seed)
    reference = random.Random(seed)
    expected = _reference_random_functions(reference)
    assert [f for name, f in corpus if name.startswith("random-")] == expected
    assert len(made) == 1 and made[0].getstate() == reference.getstate()


def test_every_integer_draw_goes_through_the_verify_helpers():
    # a randint or randrange call would draw off the helpers' stream, and
    # a second copy of a helper could drift from the first
    calls, helpers = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("randint", "randrange")
            ):
                calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef) and node.name in (
                "_randint",
                "_randints",
                "_rand_exact",
                "_rand_fraction",
            ):
                helpers.append((path.name, node.name))
    assert calls == []
    assert sorted(helpers) == [
        ("verify.py", "_rand_exact"),
        ("verify.py", "_rand_fraction"),
        ("verify.py", "_randint"),
        ("verify.py", "_randints"),
    ]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_bulk_draws_are_the_scalar_draws(seed):
    # values and the stream left behind, including a one-value range
    for low, high in ((-9, 9), (-5, 5), (-4, 4), (1, 3), (0, 0)):
        for count in (0, 1, 160_000):
            bulk, scalar = random.Random(seed), random.Random(seed)
            got = _randints(bulk, [(low, high)], count)
            assert got.dtype == np.int64 and got.shape == (count, 1)
            assert got[:, 0].tolist() == [_randint(scalar, low, high) for _ in range(count)]
            assert bulk.getstate() == scalar.getstate()
    # mixed ranges, drawn row by row: the group-law rows, ranges of other bit
    # lengths, and ranges of 32 bits, each over several rounds of words
    for ranges in (
        [(-4, 4)] * 8 + [(-6, 6), (1, 3)] * 7,
        [(-3, 3), (1, 2), (-3, 3), (1, 3)],
        [(0, 0), (-9, 9), (1, 1000), (5, 6)],
        [(0, 2**31 - 1), (1, 3), (-2**30, 2**30), (0, 0)],
    ):
        for rows in (0, 1, 7, 5_000):
            bulk, scalar = random.Random(seed), random.Random(seed)
            got = _randints(bulk, ranges, rows)
            assert got.dtype == np.int64 and got.shape == (rows, len(ranges))
            assert got.tolist() == [[_randint(scalar, low, high) for low, high in ranges] for _ in range(rows)]
            assert bulk.getstate() == scalar.getstate()
    # a wider range is not one shifted word per candidate
    with pytest.raises(ValueError, match=r"wider than 2\*\*32"):
        _randints(random.Random(seed), [(1, 3), (0, 2**32)], 1)


# sha256 of repr(getstate()) of the suite's generator after a passing run
_SUITE_STREAMS = {
    ("algebra_suite", 0): "cf7f0f888a86a21650e02ea4d4597c0ceb3fea4f553d085dcbfbb290b29f184f",
    ("algebra_suite", 7): "dff1d07bddcd060f6c9976c713975389d59d7d4c8635231e74b9539a65035e2e",
    ("geometry_suite", 0): "a35ef0f8700d7cbe200dd5b177c91b91937a689b6cdbaeffc28188f4858ef5d4",
    ("geometry_suite", 7): "fa2919f62e7758d1b44fbbc83e9acbb9f02c5a2983a013f50584b0aec81f1462",
}


@pytest.mark.parametrize("suite, seed", sorted(_SUITE_STREAMS))
def test_suites_keep_their_draws(suite, seed, monkeypatch):
    # a passing report does not show its samples, so the stream is pinned:
    # every check draws as many values, in the same order, as the scalar loops
    made = _recording_random(monkeypatch, suites)
    assert all(r.passed for r in getattr(suites, suite)(seed))
    assert len(made) == 1
    assert hashlib.sha256(repr(made[0].getstate()).encode()).hexdigest() == _SUITE_STREAMS[suite, seed]


def _scalar_counterexamples(seed):
    """The rhs of algebra_suite's sampled integer identities, keyed by name and
    dim, from scalar loops over Hypercomplex values on the suite's draws."""
    rng = random.Random(seed)
    found = {}
    for dim in (4, 8):
        bad = []
        for _ in range(2000):
            a, b = _rand_exact(rng, dim), _rand_exact(rng, dim)
            if (a * b).norm_sq() != a.norm_sq() * b.norm_sq():
                bad.append((a.to_text(), b.to_text()))
        found["norm-multiplicativity", dim] = bad
    for dim in (4, 8):
        bad = []
        for _ in range(10_000):
            a, b = _rand_exact(rng, dim, span=5), _rand_exact(rng, dim, span=5)
            if (a * b).conj() != b.conj() * a.conj():
                bad.append((a.to_text(), b.to_text()))
        found["conjugation-antiautomorphism", dim] = bad
    bad = []
    for _ in range(1000):
        a, b, c = (_rand_exact(rng, 4) for _ in range(3))
        if (a * b) * c != a * (b * c):
            bad.append((a.to_text(), b.to_text(), c.to_text()))
    found["quaternion-associativity", None] = bad
    bad = []
    for _ in range(1000):
        x, y = _rand_exact(rng, 8), _rand_exact(rng, 8)
        if not associator(x, x, y).is_zero() or not associator(x.conj(), x, y).is_zero():
            bad.append((x.to_text(), y.to_text()))
    found["octonion-alternativity", None] = bad
    bad = []
    one4, one8 = Hypercomplex.from_real(4, 1), Hypercomplex.from_real(8, 1)
    for _ in range(200):
        for dim, one in ((4, one4), (8, one8)):
            a = _rand_exact(rng, dim)
            if a.is_zero():
                continue
            if a * a.inverse() != one or a.inverse() * a != one:
                bad.append(a.to_text())
    found["two-sided-inverse", None] = bad
    return {key: bad or "holds" for key, bad in found.items()}


def _scalar_group_axioms(rng):
    """The rhs of geometry_suite's group-axioms reports, from scalar loops over
    GroupElement values on the suite's draws from ``rng``."""
    found = []
    for kind, dim, tn, n in (("quaternionic", 4, 3, 1), ("quaternionic", 4, 3, 2), ("octonionic", 8, 7, 1)):

        def rand_el():
            return GroupElement(
                tuple(Hypercomplex([_randint(rng, -4, 4) for _ in range(dim)]) for _ in range(n)),
                tuple(_rand_fraction(rng, 6, 3) for _ in range(tn)),
            )

        bad = []
        for _ in range(1000):
            a, b, c = rand_el(), rand_el(), rand_el()
            if group_mul(group_mul(a, b), c) != group_mul(a, group_mul(b, c)) and not bad:
                bad.append("associativity")
        ident = identity_element(kind, n)
        for _ in range(100):
            a = rand_el()
            if group_mul(a, ident) != a or group_mul(ident, a) != a:
                bad.append("identity")
                break
            if group_mul(a, group_inverse(a)) != ident:
                bad.append("inverse")
                break
        found.append(bad or "holds")
    return found


def _scalar_action_verdicts(rng):
    """The verdicts of action_compatibility_check, from scalar loops over
    GroupElement and SiegelPoint values on its draws from ``rng``."""
    verdicts = {}
    for dim, tn, kind in ((4, 3, "quaternionic"), (8, 7, "octonionic")):

        def rand_el():
            return GroupElement(
                (_random_rational_hypercomplex(rng, dim),), tuple(_rand_fraction(rng, 3, 2) for _ in range(tn))
            )

        for convention in ("minus_conj_beta_alpha", "plus_conj_alpha_beta"):
            ok = True
            for _ in range(40):
                a, b = rand_el(), rand_el()
                p = SiegelPoint((_random_rational_hypercomplex(rng, dim),), _random_rational_hypercomplex(rng, dim))
                if translate(a, translate(b, p)) != translate(group_mul_with_convention(a, b, convention), p):
                    ok = False
                    break
            verdicts[f"{kind}:{convention}"] = ok
    return verdicts


@pytest.mark.parametrize("dim, check", [(8, "octonion-alternativity"), (4, "quaternion-associativity")])
def test_column_checks_catch_a_wrong_product_and_report_it_as_the_scalar_loop(dim, check, monkeypatch):
    # e1 e2 = -e3 in place of e3: a product that is no longer alternative
    # (dim 8) or associative (dim 4), in which a conj(a) is no longer real,
    # so inverses fail, in the algebra and in the group of that dimension,
    # and -2 Im(conj(beta) alpha) is no longer 2 Im(conj(alpha) beta)
    table = [list(row) for row in hypercomplex._TABLES[dim]]
    k, sign = table[1][2]
    table[1][2] = (k, -sign)
    monkeypatch.setitem(hypercomplex._TABLES, dim, tuple(tuple(row) for row in table))
    monkeypatch.setitem(hypercomplex._PRODUCTS, dim, hypercomplex._make_product(dim))
    kind = "quaternionic" if dim == 4 else "octonionic"
    for seed in (0, 7):
        reports = {(r.name, r.inputs.get("dim")): r for r in suites.algebra_suite(seed)}
        assert not reports[check, None].passed and not reports["two-sided-inverse", None].passed
        expected = _scalar_counterexamples(seed)
        assert {key: reports[key].rhs for key in expected} == expected

        # the stream of geometry_suite when it reaches the action check, and
        # that of the action check after it
        with pytest.MonkeyPatch.context() as patch:
            made, action_made = _recording_random(patch, suites), _recording_random(patch, verify)
            at_action, action_check = [], verify.action_compatibility_check

            def recorded_action_check(seed):
                at_action.append(made[0].getstate())
                return action_check(seed)

            patch.setattr(verify, "action_compatibility_check", recorded_action_check)
            reports = suites.geometry_suite(seed)
        groups = [r for r in reports if r.name == "group-axioms"]
        assert [r.inputs["kind"] != kind for r in groups] == [r.passed for r in groups]
        rng = random.Random(seed)
        assert [r.rhs for r in groups] == _scalar_group_axioms(rng)
        assert at_action == [rng.getstate()]
        (action,) = [r for r in reports if r.name == "action-compatibility"]
        rng = random.Random(seed)
        assert action.lhs == _scalar_action_verdicts(rng)
        assert action.lhs[f"{kind}:minus_conj_beta_alpha"] is False
        assert action_made[0].getstate() == rng.getstate()


class _BoundedBits:
    """A generator stub whose ``getrandbits`` returns 0 and raises after 10 draws."""

    def __init__(self):
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > 10:
            raise RuntimeError("drew again and again from an empty range")
        return 0


@pytest.mark.parametrize("low, high", [(1, 0), (5, -5), (0, -1)])
def test_randint_rejects_an_empty_range_before_drawing(low, high):
    # randint raises ValueError on an empty range; _randint raises the same
    # error, and draws nothing first, so the stream of valid draws is kept
    rng = _BoundedBits()
    with pytest.raises(ValueError, match="empty range"):
        _randint(rng, low, high)
    with pytest.raises(ValueError, match="empty range"):
        _randints(rng, [(0, 9), (low, high)], 5)
    assert rng.calls == 0
    with pytest.raises(ValueError, match="empty range"):
        random.Random(0).randint(low, high)


def test_rand_fraction_rejects_an_empty_denominator_range():
    # the numerator is drawn, then the denominator range [1, 0] is empty
    rng = _BoundedBits()
    with pytest.raises(ValueError, match="empty range"):
        _rand_fraction(rng, 3, 0)
    assert rng.calls == 1
