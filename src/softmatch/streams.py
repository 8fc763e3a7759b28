"""Splittable, counter-based random streams.

All randomness flows from one user seed; independent substreams are derived
from (seed, *key) through SeedSequence spawn keys on top of the Philox
counter-based generator. Per-trial streams make probe results reproducible
bit for bit and independent of any execution order.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInput


def check_seed(seed: int) -> int:
    """The seed as an int; SeedSequence takes no negative entropy."""
    seed = int(seed)
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    return seed


def stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
