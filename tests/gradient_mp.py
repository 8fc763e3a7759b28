"""The gradient constant C_d = max over a >= 0 of g(a) = h(a, min(a, b*(a))),
h(a, b) = 2 (2 + a + k b) a exp(-a^2 - k b^2), k = d - 1,
b*(a) = 1 / ((2 + a) + sqrt((2 + a)^2 + 2k)), in 200-bit mpmath: the
reference for `bounds.tight_gradient_constant`. The maximiser is the root
of g' (found numerically, by the secant-type Anderson solver), not a
golden-section search as in the library. Only the tests import mpmath."""

import functools

import pytest

PREC = 200


@functools.lru_cache(maxsize=None)
def mp_gradient_constant(d: int):
    """C_d as an mpmath number carrying PREC bits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(PREC):
        k = mpmath.mpf(d - 1)

        def g(a):
            c = 2 + a
            b = min(a, 1 / (c + mpmath.sqrt(c * c + 2 * k)))
            return 2 * (c + k * b) * a * mpmath.exp(-a * a - k * b * b)

        a = mpmath.findroot(
            lambda a: mpmath.diff(g, a), (mpmath.mpf("0.6"), mpmath.mpf("0.9")),
            solver="anderson",
        )
        return g(a)
