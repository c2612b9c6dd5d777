"""Float sums that mean the same on every Python: from 3.12 on, ``sum()``
adds exact floats with compensation, so code that decides or reports a
result sums floats with :func:`ordered_sum` or :func:`ordered_sums`
instead."""

from __future__ import annotations

import numpy as np


def ordered_sum(values) -> float:
    """Left-to-right sum from ``0.0``: what ``sum()`` computes up to
    Python 3.11, on any interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def ordered_sums(terms) -> np.ndarray:
    """Left-to-right sums along the last axis, bitwise a Python loop from
    ``0.0``: ``cumsum`` adds in order, and the final ``+ 0.0`` turns the
    one case where the two differ (every term ``-0.0``) into the loop's
    ``0.0``.  Zero padding past a row's end therefore changes nothing,
    and an empty row sums to ``0.0``."""
    terms = np.asarray(terms, dtype=np.float64)
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1])
    return terms.cumsum(axis=-1)[..., -1] + 0.0
