"""Closed-form Carnot-Caratheodory distance on H^n, independent of hcalc.

hcalc's group law is

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' - 2(<a, b'> - <b, a'>)),

so a horizontal curve gains height -4 times the signed area its projection
sweeps: |c| = 4 * area.  Length minimizers project to circular arcs (Gaveau,
Acta Math. 1977).  An arc of half-angle theta over a chord D has length
D theta / sin(theta) and cuts off the area D^2 (theta - sin theta cos theta)
/ (4 sin^2 theta), so in this normalisation

    d(0, (p, c)) = D theta / sin(theta),  where  (theta - sin theta cos theta)
                                                 / sin^2(theta) = |c| / D^2,

for D = |p| > 0, and d = sqrt(pi |c|) (a full circle) for D = 0.  The
distance depends only on D and |c|, so the same formula holds for every n.

Nothing here imports hcalc: the brackets workload checks hcalc against it.
"""

from __future__ import annotations

import math

import numpy as np

# Relative slack allowed between a bracket end and the reference distance.
# The reference itself is accurate to about 1e-14 relative; the slack only
# absorbs that and the rounding of the bracket's own float arithmetic.
REL_SLACK = 1e-9

_HALF_PI = 0.5 * math.pi


def _area_excess(theta: np.ndarray) -> np.ndarray:
    """theta - sin(theta) cos(theta) = (u - sin u) / 2 with u = 2 theta, without cancellation."""
    u = 2.0 * theta
    u2 = u * u
    # u - sin u = u^3/3! - u^5/5! + ... ; for u <= 0.1 the terms through u^13 reach full precision
    series = u * u2 * (1 / 6 - u2 * (1 / 120 - u2 * (1 / 5040 - u2 * (1 / 362880 - u2 * (1 / 39916800 - u2 / 6227020800)))))
    return 0.5 * np.where(u > 0.1, u - np.sin(u), series)


def _bisect(f, hi: np.ndarray) -> np.ndarray:
    """Per-element root in (0, hi] of f, negative below the root and positive above.

    Halves every interval until its midpoint rounds onto an end, which is the
    last representable bit of the root.
    """
    lo = np.zeros_like(hi)
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        open_ = (mid > lo) & (mid < hi)
        if not np.any(open_):
            break
        below = f(mid) < 0.0
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)
    return 0.5 * (lo + hi)


def cc_norm(D, c) -> np.ndarray:
    """d(0, z) for points z with projection norm ``D`` and height ``c``; vectorized."""
    D = np.asarray(D, dtype=float)
    c = np.abs(np.asarray(c, dtype=float))
    if np.any(D < 0.0) or not (np.all(np.isfinite(D)) and np.all(np.isfinite(c))):
        raise ValueError("need finite projection norms D >= 0 and finite heights")
    D, c = np.broadcast_arrays(D, c)
    bulge = (D > 0.0) & (c > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(bulge, c / (D * D), 0.0)
    out = np.where(D == 0.0, np.sqrt(math.pi * c), D)
    shallow = bulge & (r <= _HALF_PI)
    if np.any(shallow):
        # theta in (0, pi/2]: (theta - sin cos) / sin^2 increases from 0 to pi/2
        rs = r[shallow]
        theta = _bisect(lambda t: _area_excess(t) - rs * np.sin(t) ** 2, np.full(rs.shape, _HALF_PI))
        out[shallow] = D[shallow] * theta / np.sin(theta)
    steep = bulge & (r > _HALF_PI)
    if np.any(steep):
        # theta = pi - phi with phi in (0, pi/2); solving for phi keeps
        # sin(theta) = sin(phi) exact when theta is close to pi
        rs = r[steep]
        phi = _bisect(lambda p: rs * np.sin(p) ** 2 - (math.pi - p + np.sin(p) * np.cos(p)), np.full(rs.shape, _HALF_PI))
        out[steep] = D[steep] * (math.pi - phi) / np.sin(phi)
    return out


def mul(x, y) -> np.ndarray:
    """Group product in hcalc's convention over the trailing axis.

    Arrays of Fractions (``dtype=object``) give the exact product.
    """
    x, y = np.asarray(x), np.asarray(y)
    n = (x.shape[-1] - 1) // 2
    cross = np.sum(x[..., :n] * y[..., n : 2 * n], axis=-1) - np.sum(x[..., n : 2 * n] * y[..., :n], axis=-1)
    out = x + y
    out[..., -1] = x[..., -1] + y[..., -1] - 2 * cross
    return out


def inv(x) -> np.ndarray:
    return -np.asarray(x)


def dilate(r, x) -> np.ndarray:
    x = np.asarray(x)
    out = r * x
    out[..., -1] = r * r * x[..., -1]
    return out


def distance(x, y) -> np.ndarray:
    """d(x, y) = d(0, x^-1 y) by left invariance."""
    z = np.asarray(mul(inv(x), y), dtype=float)
    return cc_norm(np.linalg.norm(z[..., :-1], axis=-1), z[..., -1])
