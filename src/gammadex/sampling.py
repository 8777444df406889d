"""Gamma, beta, and Dirichlet variate generation over RngStream.

Three shapes of the verification grid are drawn by exact constructions,
one uniform per variate and no rejection.  At shape one the gamma law is
the exponential, -log(1 - u) by inversion, and at shape two it is the
Erlang sum of two exponentials, -log((1 - u1)(1 - u2)).  At shape one
half, a Box-Muller pair gives two independent Gamma(1/2) variates,
E cos^2(theta) and E sin^2(theta), as E = r^2/2 ~ Gamma(1) and
cos^2(theta) ~ Beta(1/2, 1/2) (Lukacs): each is a halved squared normal,
Z^2/2.  Every other shape uses the Marsaglia-Tsang squeeze method: with
d = alpha - 1/3 and c = 1/sqrt(9d), candidates d*(1 + c*z)^3 from a
standard normal z are accepted when u < 1 - 0.0331 z^4 or
log(u) < z^2/2 + d(1 - v + log v).  Shapes below one are generated at
alpha + 1 and scaled by u^(1/alpha).  Normals come from Box-Muller
pairs, so the number of uniforms consumed is a deterministic function
of the acceptance pattern and sequences replay exactly.  A pair's cosine
and sine of theta = 2 pi u come from one tangent of the half angle,
t = tan(pi u): cos = (1 - t)(1 + t)/(1 + t^2) and sin = 2t/(1 + t^2),
with r/(1 + t^2) formed first.  numpy runs tan in one SIMD loop where the
CPU has one, and sin and cos through scalar libm; at u = 1/2, t stays
finite because fl(pi/2) is below pi/2.  Each rejection
round takes all its uniforms in one request and is evaluated in
cache-sized slices, with the same result as one pass over the round.

Each variate is drawn once, never redrawn: a shape below ``MIN_SHAPE``,
where draws round to 0, is a ``DomainError``, and a 0 from an allowed
shape raises ``NumericError``.  At shape one a 0 comes only from u = 0,
at shape two only from two uniforms of 0, and at shape one half from a
radius uniform of 0 or, in a sine half, an angle uniform of 0: at most
2^-52 per variate, about the resolution ``MIN_SHAPE`` is set at.

Beta and Dirichlet variates are gamma ratios: X/(X+Y) for Beta(a, b),
and a normalized vector of i.i.d. gammas for the symmetric Dirichlet.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, SizeError
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

# Smallest shape the gamma sampler takes.  A draw rounds to 0 below 2^-1075,
# and P(G < x) ~ x^alpha/Gamma(alpha + 1) for small x, so P(a draw rounds to
# 0) ~ 2^(-1075 alpha).  At most 2^-53 per variate, the resolution of one
# uniform, needs alpha >= 53/1075, about 0.0493.
MIN_SHAPE = 53 / 1075

# Cap on refill passes of a rejection loop; hitting it means the PRNG or
# the parameters are broken in a way worth a loud diagnostic.
_MAX_REJECTION_ROUNDS = 10_000

# Candidates per slice of a Marsaglia-Tsang round: even, so Box-Muller pairs
# stay whole, and small enough that a slice's buffers stay in cache.  Much
# smaller slices cost more Python time per variate, which holds the GIL.
_CHUNK = 1 << 15


def _box_muller(radius_u: np.ndarray, angle_u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the normals of the uniform pairs (radius_u[i], angle_u[i]).

    Pair i gives out[2i] = r cos(theta) and out[2i + 1] = r sin(theta), with
    r = sqrt(-2 log(1 - radius_u[i])) and theta = 2 pi angle_u[i].  Both come
    from one tangent of the half angle, t = tan(pi angle_u[i]):
    cos(theta) = (1 - t)(1 + t)/(1 + t^2) and sin(theta) = 2t/(1 + t^2).
    r/(1 + t^2) is formed first, so no product of t^2 and r overflows, and
    (1 - t)(1 + t) keeps its relative accuracy near t = +-1, where 1 - t^2
    would not.  At angle_u = 1/2, fl(pi/2) is below pi/2, so t = 1.6e16
    stays finite and the pair is (-r, 1.2e-16 r), as sin(fl(pi)) gives.
    ``out`` may be the buffer that holds the uniforms: they are read before
    it is written.
    """
    r = np.negative(radius_u)
    np.log1p(r, out=r)  # 1 - u lies in (0, 1], keeping the log finite
    r *= -2.0
    np.sqrt(r, out=r)
    t = np.multiply(angle_u, np.pi)
    np.tan(t, out=t)  # one SIMD loop where numpy has one, unlike sin and cos
    rh = np.multiply(t, t)
    rh += 1.0
    np.divide(r, rh, out=rh)  # r_h = r/(1 + t^2)
    sin = np.multiply(rh, t, out=out[1::2])
    sin *= 2.0  # r_h (2t), as doubling is exact
    cos = np.subtract(1.0, t, out=out[0::2])
    cos *= rh
    t += 1.0
    cos *= t  # (1 - t) r_h (1 + t)
    return out


def standard_normals(rng: RngStream, size: int) -> np.ndarray:
    """size i.i.d. N(0, 1) variates via Box-Muller.

    The ceil(size/2) pairs take 2*ceil(size/2) uniforms: every radius
    uniform first, then every angle uniform.
    """
    size = int(size)
    if size == 0:
        return np.empty(0)
    pairs = (size + 1) // 2
    u = rng.uniforms(2 * pairs)
    return _box_muller(u[:pairs], u[pairs:], np.empty(2 * pairs))[:size]


def _gamma_unit_rate(rng: RngStream, alpha: float, size: int) -> np.ndarray:
    """size gamma(alpha, rate=1) variates, alpha >= 1, Marsaglia-Tsang.

    A rejection round of m candidates takes its uniforms in one request:
    the 2*ceil(m/2) uniforms of ``standard_normals(rng, m)``, then m
    acceptance uniforms.  The round is evaluated in slices of ``_CHUNK``
    candidates, in place in slice-sized buffers that stay in cache, and
    accepted values are appended in candidate order.  Slices start at even
    candidates, so no Box-Muller pair is split, and the output is bit for
    bit that of one pass over the whole round.
    """
    d = alpha - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(size)
    z_buf, w_buf, v_buf, t_buf = np.empty((4, min(_CHUNK, size + 1)))
    filled = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        if filled >= size:
            return out
        m = size - filled
        pairs = (m + 1) // 2
        u = rng.uniforms(2 * pairs + m)
        for start in range(0, m, _CHUNK):
            k = min(_CHUNK, m - start)
            p0, p1 = start // 2, (start + k + 1) // 2
            z = _box_muller(u[p0:p1], u[pairs + p0 : pairs + p1], z_buf[: 2 * (p1 - p0)])[:k]
            w = np.subtract(1.0, u[2 * pairs + start : 2 * pairs + start + k], out=w_buf[:k])
            v = np.multiply(z, c, out=v_buf[:k])
            v += 1.0
            t = np.multiply(v, v, out=t_buf[:k])
            v *= t
            pos = v > 0.0
            z2 = np.multiply(z, z, out=z)
            np.multiply(z2, 0.0331, out=t)
            t *= z2
            np.subtract(1.0, t, out=t)
            accept = w < t
            accept &= pos
            # indices, not a mask: the slow test sees a few percent of candidates
            slow = np.flatnonzero(pos ^ accept)  # pos & ~accept, as accept implies pos
            if slow.size:  # w lies in (0, 1], safe under log
                vs = v[slow]
                accept[slow] = np.log(w[slow]) < 0.5 * z2[slow] + d * (1.0 - vs + np.log(vs))
            vals = v[accept]
            np.multiply(vals, d, out=out[filled : filled + vals.size])
            filled += vals.size
    raise NumericError(
        f"gamma rejection sampler exhausted {_MAX_REJECTION_ROUNDS} passes (alpha={alpha})"
    )


def gamma_variates(rng: RngStream, params: GammaParams, size: int) -> np.ndarray:
    """size i.i.d. gamma(shape=alpha, rate) variates; alpha >= ``MIN_SHAPE``.

    Three shapes take one uniform per variate, in one request, and no
    rejection:

    * alpha = 1/2: Z^2/2 of the normals of ceil(size/2) Box-Muller pairs,
      2*ceil(size/2) uniforms.  Every pair's cosine half comes first, then
      every pair's sine half, so the two draws of one radius lie
      ceil(size/2) apart.  Side by side, a sample of two consecutive draws
      would have a Gini, Theil or Atkinson index that depends on the angle
      alone, untouched by the radius.
    * alpha = 1: the exponential, -log(1 - u) from exactly ``size`` uniforms.
    * alpha = 2: -log((1 - u_j)(1 - u_(size + j))) for variate j, from 2*size
      uniforms.

    Any other alpha > 1 is Marsaglia-Tsang, and alpha < 1 is drawn at
    alpha + 1 and scaled by u^(1/alpha) from ``size`` more uniforms.  A
    variate of 0 raises ``NumericError``.
    """
    alpha = params.alpha
    if alpha < MIN_SHAPE:
        raise DomainError(f"gamma sampler needs alpha >= {MIN_SHAPE:.6g}, got {alpha}")
    size = int(size)
    if size < 0:
        raise SizeError(f"size must be non-negative, got {size}")
    if size == 0:
        return np.empty(0)
    if alpha == 0.5:
        # Z^2/2 = E cos^2(theta) and E sin^2(theta), E = r^2/2 ~ Gamma(1) and
        # cos^2(theta) ~ Beta(1/2, 1/2): Lukacs' pair of Gamma(1/2) variates
        pairs = (size + 1) // 2
        u = rng.uniforms(2 * pairs)
        z = _box_muller(u[:pairs], u[pairs:], u)
        out = np.empty(2 * pairs)
        np.multiply(z[0::2], z[0::2], out=out[:pairs])  # every cosine half,
        np.multiply(z[1::2], z[1::2], out=out[pairs:])  # then every sine half
        out *= 0.5
        out = out[:size]
    elif alpha in (1.0, 2.0):
        # Erlang(k), -log of the product of k complements: at k = 2 variate
        # j takes uniforms j and size + j
        k = int(alpha)
        u = rng.uniforms(k * size)
        np.subtract(1.0, u, out=u)  # exact, as u is a multiple of 2^-53; (0, 1]
        # a product is still in (0, 1], as it is at most either factor
        out = u if k == 1 else np.multiply(u[:size], u[size:])
        np.log(out, out=out)
        np.negative(out, out=out)
    elif alpha > 1.0:
        out = _gamma_unit_rate(rng, alpha, size)
    else:
        out = _gamma_unit_rate(rng, alpha + 1.0, size)
        boost = rng.uniforms(size)
        np.subtract(1.0, boost, out=boost)  # (0, 1]
        boost **= 1.0 / alpha
        out *= boost
    out /= params.rate
    if not out.all():
        raise NumericError(f"a gamma variate rounded to 0 (alpha={alpha}, rate={params.rate})")
    return out


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
