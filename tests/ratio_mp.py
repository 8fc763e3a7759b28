"""The ratio lemma's supremum m_n = x - 1/(2x), x^2 = W(n / (2 sqrt e)) + 1/2,
in 200-bit mpmath: the reference for `bounds.ratio_lemma_sup`. Only the
tests import mpmath; the library never does."""

import functools

import numpy as np
import pytest

PREC = 200


def mp_sup(n: int):
    """m_n as an mpmath number carrying PREC bits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(PREC):
        w = mpmath.lambertw(mpmath.mpf(int(n)) / (2 * mpmath.sqrt(mpmath.e)))
        x = mpmath.sqrt(w + mpmath.mpf(0.5))
        return x - 1 / (2 * x)


@functools.lru_cache(maxsize=None)
def sup_floats(n_max: int) -> np.ndarray:
    """m_n rounded to the nearest float, for n = 1..n_max (read only)."""
    out = np.array([float(mp_sup(n)) for n in range(1, n_max + 1)])
    out.flags.writeable = False
    return out
