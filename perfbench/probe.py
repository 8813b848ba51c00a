"""Speed probe: frozen reference kernels timed while a workload runs.

The host's speed drifts by up to 1.8x over seconds to minutes (other
tenants share its cores), and the drift is invisible from inside: process
CPU time slows with wall time.  So every measured process also times small
fixed kernels that never change with the package, and the benchmark divides
each measured time by how much slower than their reference times those
kernels ran meanwhile.  The kernels copy the inner loops of the workloads,
because the drift slows pure-Python and numpy code by different amounts:

* ``poly``: products of sparse polynomials over ``Fraction`` in
  dict-of-exponent-tuples form, as ``RatPoly.__mul__`` does (``exact``);
* ``small``: numpy evaluation of a 20-term polynomial at 576 points, the
  size of one spherical-rule integrand call (``parseval``);
* ``large``: the same at 20,000 points, the size of one boundary-rule level
  (``reproducing``); it also tracks the import of ``qszego`` (``setup_s``),
  which reads files and loads numpy's extension modules.

``MIX`` weights the kernels per measurement.  ``slowdown`` is the mean over
the samples of a process of the weighted time ratio, so 1.0 is the speed at
which ``REFERENCE_S`` was measured (the fastest level of the reference
machine), and a time divided by it is the time at that speed.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np


def _poly_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            c = ca * cb
            acc = out.get(k)
            if acc is None:
                out[k] = c
            else:
                acc = acc + c
                if acc:
                    out[k] = acc
                else:
                    del out[k]
    return out


def _poly_eval(terms, x):
    out = np.zeros(x.shape[:-1])
    for k, c in terms.items():
        term = np.full(x.shape[:-1], float(c))
        for i, e in enumerate(k):
            if e == 1:
                term = term * x[..., i]
            elif e:
                term = term * x[..., i] ** e
        out += term
    return out


_LINEAR = {
    (1, 0, 0, 0): Fraction(1),
    (0, 1, 0, 0): Fraction(3, 2),
    (0, 0, 1, 0): Fraction(1),
    (0, 0, 0, 1): Fraction(-1, 3),
}
_CUBIC = _poly_mul(_poly_mul(_LINEAR, _LINEAR), _LINEAR)  # 20 terms
_rng = np.random.default_rng(20121019)
_SMALL = _rng.uniform(-1, 1, size=(576, 4))
_LARGE = _rng.uniform(-1, 1, size=(20000, 4))


def _poly():
    p = _LINEAR
    for _ in range(6):
        p = _poly_mul(p, _LINEAR)


def _small():
    for _ in range(3):
        _poly_eval(_CUBIC, _SMALL)


def _large():
    _poly_eval(_CUBIC, _LARGE)


KERNELS = {"poly": _poly, "small": _small, "large": _large}

# First percentile of 3,000 timings of each kernel on the reference machine
# (2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = {"poly": 3.12e-3, "small": 0.963e-3, "large": 7.67e-3}

# Kernel weights per measurement, chosen so that the weighted kernels slow
# down as much as the measured code does when the host's speed drifts.
MIX = {
    "exact": {"poly": 1.0},
    "parseval": {"poly": 1 / 3, "small": 2 / 3},
    "reproducing": {"large": 1.0},
    "setup": {"large": 1.0},
}


def sample():
    """One timing of every kernel, in seconds."""
    times = {}
    for name, fn in KERNELS.items():
        t0 = perf_counter()
        fn()
        times[name] = perf_counter() - t0
    return times


def slowdown(samples, mix):
    """Mean weighted time ratio of the samples to the reference times."""
    ratios = [sum(w * s[k] / REFERENCE_S[k] for k, w in mix.items()) for s in samples]
    return sum(ratios) / len(ratios)
