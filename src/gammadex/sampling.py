"""Gamma, beta, and Dirichlet variate generation over RngStream.

Gamma variates use the Marsaglia-Tsang squeeze method: with
d = alpha - 1/3 and c = 1/sqrt(9d), candidates d*(1 + c*z)^3 from a
standard normal z are accepted when u < 1 - 0.0331 z^4 or
log(u) < z^2/2 + d(1 - v + log v).  Shapes below one are generated at
alpha + 1 and scaled by u^(1/alpha).  Normals come from Box-Muller
pairs, so the number of uniforms consumed is a deterministic function
of the acceptance pattern and sequences replay exactly.

Beta and Dirichlet variates are gamma ratios: X/(X+Y) for Beta(a, b),
and a normalized vector of i.i.d. gammas for the symmetric Dirichlet.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, SizeError
from .gamma_forms import GammaParams, _require_n
from .rng import RngStream

__all__ = [
    "standard_normals",
    "gamma_variate",
    "gamma_variates",
    "beta_variate",
    "beta_variates",
    "dirichlet_variate",
    "dirichlet_variates",
]

# Cap on refill passes of a rejection loop; hitting it means the PRNG or
# the parameters are broken in a way worth a loud diagnostic.
_MAX_REJECTION_ROUNDS = 10_000


def standard_normals(rng: RngStream, size: int) -> np.ndarray:
    """size i.i.d. N(0, 1) variates via Box-Muller."""
    size = int(size)
    if size == 0:
        return np.empty(0)
    pairs = (size + 1) // 2
    u = rng.uniforms(2 * pairs)
    # 1 - u lies in (0, 1], keeping the log finite.
    r = np.sqrt(-2.0 * np.log1p(-u[:pairs]))
    theta = (2.0 * np.pi) * u[pairs:]
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:size]


def _gamma_unit_rate(rng: RngStream, alpha: float, size: int) -> np.ndarray:
    """size gamma(alpha, rate=1) variates, alpha >= 1, Marsaglia-Tsang."""
    d = alpha - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(size)
    filled = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        if filled >= size:
            return out
        m = size - filled
        z = standard_normals(rng, m)
        w = 1.0 - rng.uniforms(m)  # (0, 1], safe under log
        v = 1.0 + c * z
        v *= v * v
        pos = v > 0.0
        z2 = z * z
        accept = pos & (w < 1.0 - 0.0331 * z2 * z2)
        slow = pos & ~accept
        if slow.any():
            vs = v[slow]
            accept[slow] = np.log(w[slow]) < 0.5 * z2[slow] + d * (1.0 - vs + np.log(vs))
        vals = d * v[accept]
        out[filled : filled + vals.size] = vals
        filled += vals.size
    raise NumericError(
        f"gamma rejection sampler exhausted {_MAX_REJECTION_ROUNDS} passes (alpha={alpha})"
    )


def _gamma_draw(rng: RngStream, alpha: float, rate: float, size: int) -> np.ndarray:
    if alpha >= 1.0:
        out = _gamma_unit_rate(rng, alpha, size)
    else:
        out = _gamma_unit_rate(rng, alpha + 1.0, size)
        boost = 1.0 - rng.uniforms(size)  # (0, 1]
        out *= boost ** (1.0 / alpha)
    out /= rate
    return out


def gamma_variates(rng: RngStream, params: GammaParams, size: int) -> np.ndarray:
    """size i.i.d. gamma(shape=alpha, rate) variates, strictly positive."""
    size = int(size)
    if size < 0:
        raise SizeError(f"size must be non-negative, got {size}")
    if size == 0:
        return np.empty(0)
    out = _gamma_draw(rng, params.alpha, params.rate, size)
    # Subnormal underflow to exact zero is possible for tiny shapes;
    # regenerate those slots rather than emit an invalid variate.
    for _ in range(_MAX_REJECTION_ROUNDS):
        bad = np.flatnonzero(out <= 0.0)
        if bad.size == 0:
            return out
        out[bad] = _gamma_draw(rng, params.alpha, params.rate, bad.size)
    raise NumericError(f"gamma sampler kept underflowing to zero (alpha={params.alpha})")


def gamma_variate(rng: RngStream, params: GammaParams) -> float:
    """One gamma variate."""
    return float(gamma_variates(rng, params, 1)[0])


def beta_variates(rng: RngStream, a: float, b: float, size: int) -> np.ndarray:
    """size i.i.d. Beta(a, b) variates via the gamma-beta relationship."""
    x = gamma_variates(rng, GammaParams(a), size)
    y = gamma_variates(rng, GammaParams(b), size)
    return x / (x + y)


def beta_variate(rng: RngStream, a: float, b: float) -> float:
    """One Beta(a, b) variate."""
    return float(beta_variates(rng, a, b, 1)[0])


def dirichlet_variates(rng: RngStream, alpha: float, n: int, size: int) -> np.ndarray:
    """(size, n) matrix of symmetric Dirichlet(alpha, ..., alpha) draws.

    Rows are normalized i.i.d. gamma vectors: entries in (0, 1), each row
    summing to one up to rounding.
    """
    n = _require_n(n, 2, "dirichlet dimension")
    g = gamma_variates(rng, GammaParams(alpha), int(size) * n).reshape(int(size), n)
    return g / g.sum(axis=1, keepdims=True)


def dirichlet_variate(rng: RngStream, alpha: float, n: int) -> np.ndarray:
    """One length-n symmetric Dirichlet draw."""
    return dirichlet_variates(rng, alpha, n, 1)[0]
