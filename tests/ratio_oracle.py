"""The ratio-lemma check as softmatch computed it before the bucketed
ascent: a per-n Python loop of scalar golden-section searches and one
batched ascent over the padded n_max x n_max matrix. Kept unchanged as a
parity oracle for `probes.check_ratio_lemma`."""

import math

import numpy as np

from softmatch.bounds import ratio_lemma_bound
from softmatch.streams import stream


def _golden_max(f, lo: float, hi: float, iters: int = 90) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return max(f((a + b) / 2.0), fc, fd)


def ratio_vectors(n_max: int, grid: int, restarts: int, seed: int, ascent_iters: int):
    """(ns, reduction, ascent): the per-n maxima of both methods."""
    ns = np.arange(1, n_max + 1)
    reduction = np.empty(n_max)
    for i, n in enumerate(ns):
        x_hi = math.sqrt(math.log(max(n, 2)) + 2.0) + 1.0
        xs = np.linspace(0.0, x_hi, grid)
        e = np.exp(-xs * xs)
        vals = n * xs * e / (1.0 + n * e)
        j = int(np.argmax(vals))
        lo = xs[max(j - 1, 0)]
        hi = xs[min(j + 1, grid - 1)]

        def g(x, n=n):
            ex = math.exp(-x * x)
            return n * x * ex / (1.0 + n * ex)

        reduction[i] = _golden_max(g, lo, hi)

    # batched projected gradient ascent on f(z) for every n at once; rows of
    # the matrix hold z for one n, padded with inactive entries
    rng = stream(seed, 0)
    ascent = np.zeros(n_max)
    mask = np.arange(n_max)[None, :] < ns[:, None]
    for r in range(restarts):
        z = rng.uniform(0.0, 2.5, size=(n_max, n_max))
        z *= mask
        step = 0.25
        for _ in range(ascent_iters):
            e = np.exp(-z * z) * mask
            s0 = e.sum(axis=1)
            s1 = (z * e).sum(axis=1)
            f = s1 / (1.0 + s0)
            grad = e * (1.0 - 2.0 * z * z + 2.0 * z * f[:, None]) / (1.0 + s0)[:, None]
            z = np.maximum(z + step * grad, 0.0)
            z *= mask
        e = np.exp(-z * z) * mask
        vals = (z * e).sum(axis=1) / (1.0 + e.sum(axis=1))
        ascent = np.maximum(ascent, vals)
    return ns, reduction, ascent


def oracle_report(ns, reduction, ascent) -> dict:
    """The report check_ratio_lemma built from the per-n maxima."""
    bound = np.array([ratio_lemma_bound(int(n)) for n in ns])
    return {
        "n_max": len(ns),
        "max_violation_reduction": float((reduction - bound).max()),
        "max_violation_ascent": float((ascent - bound).max()),
        "max_ascent_excess": float((ascent - reduction).max()),
        "all_within_bound": bool(
            np.all(reduction <= bound + 1e-9) and np.all(ascent <= bound + 1e-9)
        ),
        "ascent_consistent": bool(np.all(ascent <= reduction + 1e-6)),
        "worst_n_reduction": int(ns[int(np.argmax(reduction - bound))]),
    }
