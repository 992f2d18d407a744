"""Carnot-Caratheodory distance brackets.

Every query returns a bracket [lower, upper].  The lower bound combines the
projection norm and the square-root bound on the height,

    d(z) >= max(|p(z)|, sqrt(|c|)),

both exact.  Upper bounds come in two kinds.

Brackets with a witness, :func:`cc_upper` and :func:`cc_bounds`, stay
polylines: the upper bound is the measured length of an explicit witness
curve, a planar circular arc joining the projections whose lifted height
closes on the target (projections of length minimizers are circular arcs).
The arc is an inscribed polyline whose bulge is the fitted start of the
closed form's root, stretched across the chord until its enclosed area, and
hence the lifted height, is the target's: the end misses it only by the
rounding of the lift, eps times its partial sums where p(z) lies on a
coordinate axis and about eps D^2 elsewhere, where the lift's terms cancel.
The returned upper bound is the actual polyline length and therefore always
certified by the witness.  The route stays plain knot and row arrays until
it is measured on its rows translated to x, the way :func:`horizontal_length`
measures a path; then one :class:`HorizontalPath` is built.  The chain's
area coefficient, which gives the stretch, takes a series where its two
sines would cancel.  The route computes x^-1 y, D = |p(z)| and c once, and
:func:`cc_bounds` takes its lower end from them.  The route's scalars, the
fitted bulge, its clip and the start height, stay Python floats: on one
pair, numpy's cost per call would exceed their arithmetic.

Norms follow one rule, :func:`hcalc.curves._root_sum_squares`: the square
root of the sum of squares, except on rows whose squares over- or
underflow, which take hypot.  Ordinary rows keep the bits of the square
root, and a pair 1e-162 or 2e300 apart still gets its length.  The lower
bound, |p(z)| and every chord and length of a witness go through it.  A
bracket whose lower end exceeds the witness length (relatively, by more
than 1e-12) is refused: that is a witness collapsed in rounding.

Witness-free upper values, :func:`cc_upper_value_batch` and everything built
on it, are the certified closed form.  Length minimizers project to circular
arcs (Gaveau 1977), so for D = |p(z)| > 0 and height c

    d(z) = D theta / sin(theta),  where  (theta - sin theta cos theta) / sin^2 theta = |c| / D^2,

and d(z) = sqrt(pi |c|) when D = 0.  :func:`_gaveau_upper` accepts an end of
the root only where the sign of the bracketing function exceeds a bound on
its evaluation error, and rounds the mapped value outward, so the value is
never below d and exceeds it by at most about 1e-14 relative for n <= 3.
The bounds assume ``np.sin`` and ``np.cos`` are within two units in the last
place.  :func:`_gaveau_end` starts Newton from a fitted polynomial within
3.1e-5 of the root, takes two steps aimed just past the certificate's
threshold, and checks once: three evaluations per row.  An end that fails
the check is widened by 4 eps, then by doubling amounts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import (
    HorizontalPath,
    _chords,
    _length,
    _root_sum_squares,
    horizontal_length,
)
from .group import (
    _row_sums,
    group_dim,
    group_inv,
    group_mul,
    horizontal_point,
    project,
    random_directions,
    require_unit,
    vertical,
)

__all__ = [
    "VECTOR_FIELD_LIP",
    "DistanceBounds",
    "Ball",
    "cc_lower_batch",
    "cc_upper",
    "cc_bounds",
    "cc_upper_quick",
    "cc_upper_value_batch",
    "CertificationError",
    "holder_fit",
    "angle_fit",
    "distance_pansu_check",
]

# Euclidean Lipschitz constant of unit horizontal fields: the gradient of the
# vertical component of E(x) has norm exactly 2*omega(E).
VECTOR_FIELD_LIP = 2.0


@dataclass(frozen=True)
class DistanceBounds:
    """Bracket for a Carnot-Caratheodory distance with an optional witness."""

    lower: float
    upper: float
    witness: Optional[HorizontalPath] = None

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        if self.lower < 0 or self.upper < 0:
            raise ValueError("bounds must be nonnegative")
        # relative only: a witness that collapsed in rounding has length 0
        if self.lower > self.upper * (1 + 1e-12):
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")
        if self.witness is not None:
            length = horizontal_length(self.witness)
            scale = max(1.0, self.upper)
            if abs(length - self.upper) > 1e-10 * scale:
                raise ValueError("witness length does not certify the upper bound")


@dataclass(frozen=True)
class Ball:
    """Euclidean ball region descriptor used by the sampling estimators."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not np.isfinite(self.center).all():
            raise ValueError("center must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be finite and positive")

    @property
    def n(self) -> int:
        return group_dim(self.center)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        dim = self.center.shape[-1]
        v = rng.standard_normal((size, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        radii = self.radius * rng.random(size) ** (1.0 / dim)
        return self.center + radii[:, None] * v


def _lower(z: np.ndarray) -> np.ndarray:
    # max(|p(z)|, sqrt|c(z)|) over the last axis: the one formula of both lower bounds
    return np.maximum(_norm(project(z)), np.sqrt(np.abs(vertical(z))))


def cc_lower_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Certified lower bound max(|p(z)|, sqrt|c(z)|) of z = x^-1 y, for each row."""
    return _lower(group_mul(group_inv(x), y))


@functools.cache
def _chain_series(m: int) -> tuple:
    """Coefficients of m sin(u/m) - sin u = sum over k >= 1 of (-1)^(k+1) (1 - m^-2k) u^(2k+1) / (2k+1)!,
    k = 9 down to 1, for Horner's rule in u^2."""
    return tuple((-1) ** (k + 1) * (1.0 - float(m) ** (-2 * k)) / math.factorial(2 * k + 1) for k in range(9, 0, -1))


def _chain_area_coeff_scalar(theta: float, m: int) -> float:
    """Enclosed area of the inscribed m-chain over a unit chord, bulge theta:
    (m sin(u/m) - sin u) / (8 sin^2 theta) with u = 2 theta.

    For u <= 1 the difference is the series of :func:`_chain_series` through
    u^19, whose next term is below 1e-19 of the sum; subtracting the sines
    there would cancel, by a relative 6 eps / u^2.  Below u = 1e-8 the
    terms past u^3 and the curvature of sin theta move the coefficient by
    less than 1e-16 relative, so it is (1 - m^-2) theta / 6.  For m >= 16
    the series alternates with decreasing terms, so the coefficient is at
    least ((1 - m^-2) / 6 - 1 / 120) u^3 / (8 theta^2) > 0.156 theta.
    """
    u = 2.0 * theta
    if u < 1e-8:
        return _chain_series(m)[-1] * theta
    s = math.sin(theta)
    if u > 1.0:
        return (m * math.sin(u / m) - math.sin(u)) / (8.0 * s * s)
    u2 = u * u
    acc = 0.0
    for c in _chain_series(m):
        acc = acc * u2 + c
    return u * u2 * acc / (8.0 * s * s)


def _chain_size(theta: float) -> int:
    """Segments m of the arc chain of bulge theta: one per 0.02 of bulge, within [16, 1024]."""
    return min(max(math.ceil(theta / 0.02), 16), 1024)


def _arc_chain_2d(D: float, theta: float, m: int) -> np.ndarray:
    """Vertices of the inscribed arc chain from (0,0) to (D,0), bulge up.

    Written relative to the chord so small bulges do not cancel against a
    distant circle center.  ``theta`` is positive: :func:`_arc_witness`
    passes at least r = 4 ratio > 0 on the shallow branch, pi/2 on the steep one.
    """
    # np.linspace(-theta, theta, m + 1), bit for bit
    alphas = np.arange(m + 1.0) * (2.0 * theta / m) - theta
    alphas[-1] = theta
    s = math.sin(theta)
    pts = np.empty((m + 1, 2))
    pts[:, 0] = 0.5 * D * (1.0 + np.sin(alphas) / s)
    pts[:, 1] = (D / s) * np.sin(0.5 * (alphas + theta)) * np.sin(0.5 * (theta - alphas))
    pts[0] = 0.0
    pts[-1] = D, 0.0
    return pts


_CIRCLE_M = 1024


@functools.cache
def _circle_trig(sgn: float):
    """cos and sin of the circle's angles pi + sgn k 2 pi / m, k = 0..m, read-only.

    Every circle of an orientation scales the same pair, so it is computed once.
    """
    angles = math.pi + sgn * np.arange(_CIRCLE_M + 1) * (2.0 * math.pi / _CIRCLE_M)
    tables = np.cos(angles), np.sin(angles)
    for table in tables:
        table.flags.writeable = False
    return tables


def _circle_chain_2d(c: float) -> np.ndarray:
    """Closed _CIRCLE_M-gon through the origin whose lift climbs by c: it encloses -c / 4 counterclockwise."""
    area = -c / 4.0
    k = 0.5 * _CIRCLE_M * math.sin(2.0 * math.pi / _CIRCLE_M)
    rho = math.sqrt(abs(area) / k)
    if rho < 2.0**-500:
        # c / 4 or the quotient may have rounded as a subnormal; scaling c by
        # 2^200 is exact, and for a quotient that stayed normal gives its bits
        rho = math.sqrt(abs(c) * 2.0**200 / 4.0 / k) * 2.0**-100
    cos, sin = _circle_trig(1.0 if area >= 0 else -1.0)
    pts = np.empty((_CIRCLE_M + 1, 2))
    pts[:, 0] = rho + rho * cos
    pts[:, 1] = 0.0 + rho * sin
    pts[0] = 0.0
    pts[-1] = 0.0
    return pts


def _embed_chain(chain: np.ndarray, w: np.ndarray, D: float) -> np.ndarray:
    """Embed a 2d chain into the symplectic plane spanned by w/D and J(w/D), D = |w|."""
    n = len(w) // 2
    if D == 0.0:
        w_hat = np.zeros(2 * n)
        w_hat[0] = 1.0
    else:
        w_hat = w / D
    j_w = np.concatenate([-w_hat[n:], w_hat[:n]])
    return chain[:, :1] * w_hat + chain[:, 1:] * j_w


# below this ratio the witness goes straight: the chord misses the height by
# 4 ratio D^2, far below the rounding of the heights, about eps D^2.  A bulge
# that small (theta is about 6 ratio) builds its rows from D / sin(theta),
# which overflows once D^3 / |c| passes about 1e308, and a ratio that
# underflowed to 0 has no bulge at all
_BULGE_FLOOR = math.pi * 2.0**-91


def _arc_witness(w: np.ndarray, D: float, c: float):
    """Knots and projected rows, relative to the start, of the witness whose
    projection is an inscribed circular arc closing on z = (w, c) != 0, D = |w|.

    The bulge theta is :func:`_gaveau_start` at r = |c| / D^2 = 4 ratio,
    clipped to its bracket (pi - phi on the steep branch): the fitted start of
    the closed form's Newton, within 3.1e-5 of the root of Gaveau's equation.  The inscribed chain of that bulge is then
    stretched perpendicular to the chord by ratio over its area coefficient.
    A stretch multiplies the enclosed area by its factor, so the area is
    ratio D^2 = |c| / 4 and the lift closes on the height up to its own
    rounding; the sign of the factor turns the chain to the
    side the height's sign needs.  The length is measured, so the bound is
    certified for any theta, and the length is stationary at the root, so
    the error of theta costs only second-order length.
    """
    # below D = 1.5e-162, D * D is 0: go straight and close with the circle
    ratio = abs(c / 4.0) / (D * D) if D * D > 0.0 else math.inf
    if D == 0.0:
        chain = _circle_chain_2d(c)
    elif c == 0.0 or ratio < _BULGE_FLOOR:
        chain = np.array([[0.0, 0.0], [D, 0.0]])
    elif ratio > 1e10:
        # theta = pi - phi loses phi in floats; go straight to the projection,
        # then close the height with a full circle (out-and-back chord encloses nothing)
        circle = _circle_chain_2d(c) + np.array([D, 0.0])
        chain = np.vstack([[[0.0, 0.0]], circle])
    else:
        r = 4.0 * ratio
        steep = r > 0.5 * math.pi
        t, lo, hi = _gaveau_start(r, steep)
        t = float(min(max(t, lo), hi))
        theta = math.pi - t if steep else t
        m = _chain_size(theta)
        chain = _arc_chain_2d(D, theta, m)
        chain[:, 1] *= math.copysign(ratio / _chain_area_coeff_scalar(theta, m), c)
    rel = _embed_chain(chain, w, D)
    steps = _chords(rel)
    knots = np.empty(len(rel))
    knots[0] = 0.0
    np.cumsum(steps, out=knots[1:])
    knots[-1] = np.add.reduce(steps)
    return knots, rel


class _Upper(tuple):
    """``(length, witness)`` of :func:`cc_upper`, carrying ``lower``: max(D, sqrt|c|) of the same x^-1 y."""

    def __new__(cls, length: float, witness: HorizontalPath, lower: float):
        upper = super().__new__(cls, (length, witness))
        upper.lower = lower
        return upper


def cc_upper(x: np.ndarray, y: np.ndarray):
    """Certified upper bound with its witness curve.

    The witness is the circular arc of :func:`_arc_witness`, whose lift
    closes on the height (the full circle when the projections coincide).
    Returns ``(length, witness)`` where ``length`` is the measured length of
    the returned path.  The route is measured on its rows translated to x,
    as the witness's are (translation moves their last bits), and one path
    is built, directly at x, with the start height
    :meth:`HorizontalPath.left_translate` would give the route built at 0.
    A point with a coordinate that is not finite raises ValueError("points
    must be finite"); a relative position, a length or a lift that is not
    finite in floats means no witness exists at x, and raises
    ValueError("path data must be finite").
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("points must be finite")
    # what overflows or turns NaN here is caught by the finiteness checks
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        z = group_mul(group_inv(x), y)
        w, c = z[:-1], float(z[-1])
        D = float(_norm(w[None])[0])
        px = x[:-1]
        if not (math.isfinite(D) and math.isfinite(c)):
            raise ValueError("path data must be finite")
        # cc_lower_batch's max(|p(z)|, sqrt|c|) on the same z, bit for bit
        lower = max(D, math.sqrt(abs(c)))
        if D == 0.0 and c == 0.0:
            return _Upper(0.0, HorizontalPath(np.array([0.0, 1.0]), np.stack([px] * 2), float(x[-1])), lower)
        knots, rel = _arc_witness(w, D, c)
        planar = rel + px
        length = _length(planar)
        if not math.isfinite(length):
            raise ValueError("path data must be finite")
        # the route starts at 0, so its start translated by x has height x_c + 0.0:
        # the cross terms of the group law are products with (signed) zeros;
        # the path refuses a lift that is not finite
        witness = HorizontalPath(knots, planar, float(x[-1]) + 0.0)
    return _Upper(length, witness, lower)


def cc_bounds(x: np.ndarray, y: np.ndarray) -> DistanceBounds:
    """Distance bracket with witness; the core comparison primitive.

    The upper end is :func:`cc_upper`'s witness length.  The lower end is
    :func:`cc_lower_batch`'s, bit for bit, read from the x^-1 y, D and c that
    :func:`cc_upper`'s route has already computed.
    """
    upper = cc_upper(x, y)
    return DistanceBounds(upper.lower, *upper)


class CertificationError(ArithmeticError):
    """A closed-form distance bound whose certificate could not be met in floats."""


_EPS = float(np.finfo(float).eps)
# r = |c| / D^2 at or below this: theta <= 1.5 r, so d / D - 1 < r^2 / 2 < eps / 500
_R_FLAT = 2.0**-30
# r at or above this: D <= 2^-50 sqrt(|c|), and d >= sqrt(pi |c|) - D, so
# D + sqrt(pi |c|) exceeds d by a factor below 1 + 2^-49
_R_STEEP = 2.0**100
_NEWTON_STEPS = 2
_WIDENINGS = 64
# Newton aims at F = _AIM err, past the certificate's threshold F = err by
# err / 2, several times the actual rounding of F, so the first check passes
_AIM = 1.5
_ROOM = 2.0**-40
# Fitted starts, highest power first: near-minimax relative fits of degree 6
# (Lawson's reweighted least squares) to 40-digit mpmath roots on 600
# Chebyshev nodes, made once.  theta* / r as a polynomial in r^2 on
# (0, pi/2], within 3.1e-5 relative, and phi* / (2 pi / (1 + sqrt(1 + 4 pi r)))
# as a polynomial in 1 / sqrt(r) on [pi/2, inf), within 2.2e-6 relative
_SHALLOW_START = (0.001276831035091879, -0.012488771570860691, 0.052571765765575026, -0.13152163753814175,
                  0.24414585249287302, -0.4479010784667969, 1.4999538100569525)
_STEEP_START = (0.520472228587783, -1.1241988859529637, 0.6801070995620567, -0.4823749460302364,
                0.5690591191266884, 0.2818180391882896, 1.0000021346148513)


def _area_excess(theta: np.ndarray):
    """theta - sin(theta) cos(theta) = (u - sin u) / 2 at u = 2 theta, and a bound on its error.

    For u <= 1 the Taylor series through u^19, whose next term is below 1e-19
    of the sum, avoids the cancellation of u - sin u.
    """
    u = 2.0 * theta
    u2 = u * u
    small = u <= 1.0
    series = u * u2 * (1 / 6 - u2 * (1 / 120 - u2 * (1 / 5040 - u2 * (1 / 362880 - u2 * (
        1 / 39916800 - u2 * (1 / 6227020800 - u2 * (1 / 1307674368000 - u2 * (
            1 / 355687428096000 - u2 / 121645100408832000))))))))
    area = 0.5 * np.where(small, series, u - np.sin(u))
    return area, 8.0 * _EPS * np.where(small, area, theta)


def _gaveau_terms(t: np.ndarray, r: np.ndarray, steep: bool, r_err: float):
    """``(F, err, step)`` at t = theta (shallow branch) or t = phi = pi - theta (steep).

    F = (theta - sin theta cos theta) - r sin^2 theta increases with theta
    and vanishes at the root, so F > err, with err a bound on the evaluation
    error of F, certifies that theta is at or above the root.  ``step`` is
    the Newton step, in the direction of t, of
    (theta - sin theta cos theta - _AIM err) / sin^2 theta - r, a convex
    increasing function of theta up to the slow variation of err.  ``r_err``
    bounds the relative error of r.
    """
    s, co = np.sin(t), np.cos(t)
    if steep:
        area = (math.pi - t) + s * co
        area_err = 8.0 * _EPS * area
        co = -co  # cos(theta)
    else:
        area, area_err = _area_excess(t)
    rs2 = r * s * s
    F = area - rs2
    err = area_err + (r_err + 8.0 * _EPS) * rs2
    step = (F - _AIM * err) * s / (2.0 * (s * s * s - co * area))
    return F, err, step if steep else -step


def _polyval(coeffs: tuple, x):
    """``np.polyval(coeffs, x)`` bit for bit, by its own recurrence from 0 x, on a float or an array."""
    acc = 0.0 * x
    for c in coeffs:
        acc = acc * x + c
    return acc


def _gaveau_start(r: np.ndarray, steep: bool):
    """``(t, lo, hi)``: the fitted start of Newton and the bracket that clips its iterates (see :func:`_gaveau_end`).

    ``r`` is an array of rows or one float, and each row gets the same bits either way.
    """
    if steep:
        base = 2.0 * math.pi / (1.0 + np.sqrt(1.0 + 4.0 * math.pi * r))
        return base * _polyval(_STEEP_START, 1.0 / np.sqrt(r)), base * (1.0 - _ROOM), 0.5 * math.pi
    return r * _polyval(_SHALLOW_START, r * r), r, np.minimum(1.5 * r, 0.5 * math.pi) * (1.0 + _ROOM)


def _gaveau_end(r: np.ndarray, steep: bool, r_err: float) -> np.ndarray:
    """Certified end of the root of Gaveau's equation for each r.

    theta >= theta* on the shallow branch (r <= pi/2), phi <= phi* = pi - theta*
    on the steep one; either way the mapped length is an upper bound.
    Newton starts from the fitted approximation of the root (``_SHALLOW_START``,
    ``_STEEP_START``), and every iterate is clipped to a bracket of it:
    theta* lies in [r, min(1.5 r, pi/2)] and phi* in
    [2 pi / (1 + sqrt(1 + 4 pi r)), pi/2].  The bracket's end on the certified
    side is moved out by ``_ROOM``, since the root meets it as r -> 0 and
    r -> inf and the aimed end lies some tens of eps beyond the root.  From
    within 3.1e-5 of the root, ``_NEWTON_STEPS`` = 2 steps aimed at
    F = ``_AIM`` err reach the certified side, so a row costs three
    evaluations of :func:`_gaveau_terms`.  Where the certificate still fails
    the end is widened by 4 eps, then by doubling amounts.
    """
    t, lo, hi = _gaveau_start(r, steep)
    t = np.clip(t, lo, hi)
    for _ in range(_NEWTON_STEPS):
        t = np.clip(t + _gaveau_terms(t, r, steep, r_err)[2], lo, hi)
    todo = np.arange(len(t))
    widen = 4.0 * _EPS
    for _ in range(_WIDENINGS):
        F, err, _ = _gaveau_terms(t[todo], r[todo], steep, r_err)
        todo = todo[~(F > err)]
        if todo.size == 0:
            return t
        t[todo] = t[todo] / (1.0 + widen) if steep else t[todo] * (1.0 + widen)
        widen *= 2.0
    raise CertificationError(f"no certified root end for r = {r[todo[0]]!r}")


def _gaveau_upper(D: np.ndarray, c: np.ndarray, rel_err: float) -> np.ndarray:
    """Certified upper end of d(0, z) from D = |p(z)| and c = |height of z|.

    ``rel_err`` bounds the relative error of D.  Every value is rounded
    outward by 1 + rel_err + 8 eps, except c = 0, where d = D and the value
    is D itself, as in the lower bound.  D = 0 gives sqrt(pi |c|).
    """
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        r = (c / D) / D
    slack = 1.0 + (rel_err + 8.0 * _EPS)
    # sqrt(pi) sqrt(|c|) keeps its precision where pi |c| would be subnormal
    out = np.where(r <= _R_FLAT, D, D + math.sqrt(math.pi) * np.sqrt(c)) * slack
    shallow = (r > _R_FLAT) & (r <= 0.5 * math.pi)
    for steep, branch in ((False, shallow), (True, (r > 0.5 * math.pi) & (r < _R_STEEP))):
        if np.any(branch):
            t = _gaveau_end(r[branch], steep, 2.0 * rel_err)
            out[branch] = D[branch] * (((math.pi - t) if steep else t) / np.sin(t)) * slack
    flat = c == 0.0
    out[flat] = D[flat]
    return out


def _norm(p: np.ndarray) -> np.ndarray:
    """|p| over the last axis; rows whose squares over- or underflow use hypot."""
    with np.errstate(over="ignore", under="ignore"):
        return _root_sum_squares(np.vecdot(p, p), p)


def cc_upper_value_batch(z: np.ndarray) -> np.ndarray:
    """Vectorized witness-free upper bound of d(z, 0): the certified closed form.

    Each row gets the value a one-row call gives it.  Non-finite rows raise.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if not np.all(np.isfinite(z)):
        raise ValueError("points must be finite")
    p = project(z)
    # |p| from 2n squares is within 2n eps of its value
    return _gaveau_upper(_norm(p), np.abs(vertical(z)), p.shape[-1] * _EPS)


def cc_upper_quick(z: np.ndarray) -> np.ndarray:
    """Closed-form upper bound of d(z, 0); vectorized, no witness.

    min of the two-leg route length and a straight move to kill the
    projection followed by the optimal vertical circle.
    """
    z = np.asarray(z, dtype=float)
    p = project(z)
    c = np.abs(z[..., -1])
    # squares of large coordinates overflow to inf, which the routes below
    # handle; they are not errors.  Where the two-leg route does not exist
    # it comes out inf or NaN, and fmin takes the split route: D = 0 gives
    # 0 * inf, an underflowed D^4 gives c^2 / 0 = inf (or 0 / 0), and
    # overflowed squares give inf (or inf / inf).  At c = 0 both routes, or
    # the split route alone, are D itself.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        D = np.sqrt(_row_sums(p * p))
        return np.asarray(np.fmin(D * np.sqrt(1.0 + c * c / (D * D * D * D)), D + np.sqrt(math.pi * c)))


def holder_fit(region: Ball, samples: int, seed: int) -> float:
    """Smallest constant making both Euclidean comparison inequalities hold.

    Uses the conservative side of each bracket: |x-y|/C <= lower and
    upper <= C |x-y|^(1/2) over all sampled pairs.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for a constant fit")
    rng = np.random.default_rng(seed)
    xs = region.sample(rng, samples)
    ys = region.sample(rng, samples)
    e = np.linalg.norm(xs - ys, axis=1)
    keep = e > 0.0
    lo = cc_lower_batch(xs[keep], ys[keep])
    up = cc_upper_value_batch(group_mul(group_inv(xs[keep]), ys[keep]))
    return max(
        1.0,
        float(np.max(e[keep][lo > 0.0] / lo[lo > 0.0])) if np.any(lo > 0.0) else 1.0,
        float(np.max(up / np.sqrt(e[keep]))),
    )


# the divergence fit samples each curve pair at _ANGLE_GRID times evenly over
# [-1, 1], zero left out
_ANGLE_GRID = 33


def angle_fit(trials: int, seed: int, n: int = 1) -> float:
    """Fit the divergence constant for curves leaving a common point.

    Generates pairs (g, h) of unit-speed horizontal lines with g(0) = h(0)
    and projected derivatives within A of each other, and fits the smallest
    C >= 1 with d(g(t), h(t)) <= C sqrt(A) |t| over the sample, measuring
    d by its certified upper bound.  The trials are drawn as arrays: every
    A, then every direction of h, then every perturbation.
    """
    rng = np.random.default_rng(seed)
    ts = np.linspace(-1.0, 1.0, _ANGLE_GRID)
    ts = ts[ts != 0.0]
    A = 10.0 ** rng.uniform(-4, 0, trials)
    h_dirs = random_directions(rng, trials, n)
    pert = rng.standard_normal((trials, 2 * n))
    pert -= np.vecdot(pert, h_dirs)[:, None] * h_dirs
    norm = np.linalg.norm(pert, axis=-1)
    keep = norm != 0.0
    h_dirs = h_dirs[keep]
    g_dirs = h_dirs + A[keep, None] * pert[keep] / norm[keep, None]
    g_dirs /= np.linalg.norm(g_dirs, axis=-1, keepdims=True)
    offsets = np.linalg.norm(g_dirs - h_dirs, axis=-1)
    keep = offsets != 0.0
    if not np.any(keep):
        return 1.0
    # straight pairs: worst observed case is two lines at angle min(offset, 1)
    ga, ha = (ts[:, None] * horizontal_point(dirs[keep])[:, None, :] for dirs in (g_dirs, h_dirs))
    ups = cc_upper_value_batch(group_mul(group_inv(ga), ha).reshape(-1, 2 * n + 1)).reshape(-1, len(ts))
    scales = np.sqrt(np.minimum(offsets[keep], 1.0))[:, None] * np.abs(ts)
    return max(1.0, float(np.max(ups / scales)))


@dataclass
class DistancePansuReport:
    """Per-sample first-order expansion check of d near a horizontal point."""

    inequality_margins: np.ndarray
    residuals: np.ndarray


def distance_pansu_check(u_dir: np.ndarray, z_samples: np.ndarray) -> DistancePansuReport:
    """Check d(u z) >= d(u) + <z, u> and that the expansion residual decays.

    ``u_dir`` must be a unit horizontal direction; the checked point is
    u = u_dir embedded at height zero so d(u) = 1.  Residuals are measured
    conservatively from the distance brackets and normalized by the lower
    bracket of d(z).
    """
    u_dir = require_unit(np.asarray(u_dir, dtype=float))
    z_samples = np.atleast_2d(np.asarray(z_samples, dtype=float))
    if z_samples.shape[0] == 0:
        raise ValueError("empty sample set")
    u = horizontal_point(u_dir)
    uz = group_mul(u, z_samples)
    ip = np.vecdot(project(z_samples), u_dir)
    origin = np.zeros_like(u)
    lo = cc_lower_batch(origin, uz)
    up = cc_upper_value_batch(uz)
    dz_lo = cc_lower_batch(origin, z_samples)
    margins = lo - (1.0 + ip)
    worst = np.maximum(np.maximum(up - (1.0 + ip), (1.0 + ip) - lo), 0.0)
    return DistancePansuReport(margins, worst / np.maximum(dz_lo, 1e-300))
