"""The seeded draws of the checks and suites, and the rule that every integer
draw in the package goes through them."""

import ast
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import qszego
from qszego import verify
from qszego.hypercomplex import Hypercomplex
from qszego.polyfrac import HyperFrac, RatPoly
from qszego.verify import _rand_exact, _rand_fraction, _randint, _random_rational_hypercomplex

SOURCES = sorted(Path(qszego.__file__).parent.glob("*.py"))


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
    assert fast.getstate() == reference.getstate()

    # cr_corpus draws its random functions from its own generator
    made = []

    def recorded(s):
        made.append(random.Random(s))
        return made[-1]

    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=recorded))
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
                "_rand_exact",
                "_rand_fraction",
            ):
                helpers.append((path.name, node.name))
    assert calls == []
    assert sorted(helpers) == [
        ("verify.py", "_rand_exact"),
        ("verify.py", "_rand_fraction"),
        ("verify.py", "_randint"),
    ]


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
    assert rng.calls == 0
    with pytest.raises(ValueError, match="empty range"):
        random.Random(0).randint(low, high)


def test_rand_fraction_rejects_an_empty_denominator_range():
    # the numerator is drawn, then the denominator range [1, 0] is empty
    rng = _BoundedBits()
    with pytest.raises(ValueError, match="empty range"):
        _rand_fraction(rng, 3, 0)
    assert rng.calls == 1
