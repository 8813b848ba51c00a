"""Helpers of the named verification suites."""

import random

import pytest

from qszego.hypercomplex import Hypercomplex
from qszego.suites import _rand_exact, _randint


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
