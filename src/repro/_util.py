"""Small shared helpers used across the package.

Time convention: the whole library measures *time in milliseconds* and
*query load in queries per second (QPS)*.  The helpers here centralize the
conversions so no module hand-rolls a ``/ 1000.0``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

MS_PER_SECOND = 1000.0


def qps_to_per_ms(qps: float) -> float:
    """Convert a query load in queries/second to a rate in queries/ms."""
    return qps / MS_PER_SECOND


def per_ms_to_qps(rate: float) -> float:
    """Convert a rate in queries/ms to a query load in queries/second."""
    return rate * MS_PER_SECOND


def validate_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def validate_non_negative(name: str, value: float) -> float:
    """Return ``value`` if >= 0, else raise ``ValueError``."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def validate_probability(name: str, value: float) -> float:
    """Return ``value`` if in [0, 1], else raise ``ValueError``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def is_sorted_strict(values: Sequence[float]) -> bool:
    """True when ``values`` is strictly increasing."""
    return all(a < b for a, b in zip(values, values[1:]))


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``samples`` for ``q`` in [0, 100].

    A tiny, dependency-free replica of ``numpy.percentile`` used on code
    paths that deal in plain Python lists (e.g. the online metrics of the
    simulator), where converting to an array per call would dominate.
    """
    if not samples:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def mean(samples: Iterable[float]) -> float:
    """Arithmetic mean; raises ``ValueError`` on an empty iterable."""
    total = 0.0
    count = 0
    for value in samples:
        total += value
        count += 1
    if count == 0:
        raise ValueError("mean of empty sequence")
    return total / count


def exact_count_sum(counts: Mapping[float, int]) -> float:
    """``sum(value * n)`` over ``counts``, exactly rounded once.

    The result is the float nearest the exact sum — the value
    ``math.fsum`` returns over every value repeated ``n`` times — so it
    does not depend on the order in which the values were counted.  The
    exact arithmetic costs one rational product per distinct value.
    """
    return float(sum(Fraction(value) * n for value, n in counts.items()))


def format_pct(value: float, digits: int = 2) -> str:
    """Format a fraction in [0, 1] as a percentage string, e.g. ``'1.23%'``."""
    return f"{value * 100.0:.{digits}f}%"
