"""Helpers of the named verification suites."""

import random

import pytest

from qszego.hypercomplex import Hypercomplex
from qszego.suites import _rand_exact


@pytest.mark.parametrize("span", [4, 5, 9])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_rand_exact_draws_as_randint(span, seed):
    # the draws and the stream left behind are those of randint
    fast, reference = random.Random(seed), random.Random(seed)
    for dim in (4, 8) * 50:
        expected = Hypercomplex([reference.randint(-span, span) for _ in range(dim)])
        assert _rand_exact(fast, dim, span) == expected
    assert fast.random() == reference.random()
