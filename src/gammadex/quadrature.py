"""Adaptive Gauss-Kronrod quadrature on finite intervals.

A 7-point Gauss / 15-point Kronrod pair drives globally adaptive
bisection: the interval with the largest error estimate is split until
the summed estimate meets the tolerance.  Kronrod nodes are interior,
so integrable endpoint singularities (beta densities with shape < 1)
never get evaluated at the singular point, but they cost extra
subdivisions near the endpoint and the error estimate there can fall
below the actual error; a caller that needs the bound maps the
singularity away first.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError

__all__ = ["QuadResult", "integrate"]

# G7K15 abscissae and weights (positive half; QUADPACK values).
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XK[:7], _XK[7:][::-1], _XK[6::-1]])  # ascending, 15 nodes
_WEIGHTS_K = np.concatenate([_WK[:7], _WK[7:][::-1], _WK[6::-1]])
# Gauss nodes sit at the odd Kronrod positions 1, 3, ..., 13.
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:3], _WG[3:][::-1], _WG[2::-1]])


_ABS_TOL = 1e-10
_REL_TOL = 1e-10
_MAX_INTERVALS = 5000


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_bound: float
    intervals: int


def _rule(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """K15 estimate over [a, b] and its error estimate."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    # On sliver intervals a node can round onto an endpoint, where a
    # singular integrand is infinite; keep nodes strictly interior.
    x = np.clip(x, np.nextafter(a, b), np.nextafter(b, a))
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape or not np.all(np.isfinite(y)):
        raise NumericError(f"integrand returned non-finite values on [{a}, {b}]")
    k = half * float(_WEIGHTS_K @ y)
    g = half * float(_WEIGHTS_G @ y)
    delta = abs(k - g)
    return k, min(delta, (200.0 * delta) ** 1.5)


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> QuadResult:
    """Integral of the vectorized ``f`` over [a, b].

    Raises ``NumericError`` when the error bound still exceeds the
    tolerance at ``_MAX_INTERVALS`` subintervals.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise DomainError(f"need a finite interval with a < b, got [{a}, {b}]")

    val, err = _rule(f, a, b)
    heap: list[tuple[float, int, float, float, float]] = [(-err, 0, a, b, val)]
    frozen: list[tuple[float, float]] = []  # (value, error) of unsplittable slivers
    tick = 1

    while True:
        total = math.fsum([item[4] for item in heap] + [v for v, _ in frozen])
        total_err = math.fsum([-item[0] for item in heap] + [e for _, e in frozen])
        if total_err <= max(_ABS_TOL, _REL_TOL * abs(total)):
            return QuadResult(total, total_err, len(heap) + len(frozen))
        if not heap or len(heap) + len(frozen) >= _MAX_INTERVALS:
            raise NumericError(
                f"quadrature did not converge: error {total_err:.3e} with "
                f"{len(heap) + len(frozen)} intervals on [{a}, {b}]"
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # No representable interior point left; its error is final.
            frozen.append((val, -neg_err))
            continue
        for left, right in ((lo, mid), (mid, hi)):
            val, err = _rule(f, left, right)
            heapq.heappush(heap, (-err, tick, left, right, val))
            tick += 1
