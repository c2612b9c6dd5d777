"""A pytest plugin that runs the whole session under CPython 3.12's
``sum()``.

From 3.12 on, ``sum()`` adds exact ``float`` items with Neumaier
compensation, so a result that sums floats with it can differ in its
last bit between Python versions.  Loaded with ``-p sum312`` (``tests``
on ``PYTHONPATH``), as ``make test-sum312`` runs the fast suite, this
module patches :func:`sum_python_312` over ``builtins.sum`` from
configure to unconfigure, so every ``==`` suite shows on any Python that
no result depends on which ``sum()`` ran.  Imported as a plain module,
it patches nothing.
"""

from __future__ import annotations

import builtins
import math

_saved_sums = []


def sum_python_312(iterable, /, start=0):
    """``sum()`` as CPython 3.12 computes it: exact ``float`` items are
    added with Neumaier compensation, added back at the end (or before
    the first item that is neither an int nor an exact float, from which
    on items are added one by one, as ``np.float64`` items are)."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in it:
        result = result + item
    return result


def pytest_configure(config):
    _saved_sums.append(builtins.sum)
    builtins.sum = sum_python_312


def pytest_unconfigure(config):
    builtins.sum = _saved_sums.pop()
