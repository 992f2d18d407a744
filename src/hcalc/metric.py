"""Carnot-Caratheodory distance brackets.

Every query returns a bracket [lower, upper].  The lower bound combines the
projection norm and the square-root bound on the height,

    d(z) >= max(|p(z)|, sqrt(|c|)),

both exact.  Upper bounds come in two kinds.

Brackets with a witness, :func:`cc_upper` and :func:`cc_bounds`, stay
polylines: the upper bound is the measured length of an explicit witness
curve, either the two-leg construction of :func:`hcalc.curves.gamma_y`, or a
planar circular arc joining the projections whose lifted height closes
exactly on the target (projections of length minimizers are circular arcs,
so this family contains near-optimal competitors).  Arcs are realized as
inscribed polylines whose bulge is solved so that the polygonal enclosed
area, and hence the lifted height, is exact; the returned upper bound is
the actual polyline length and therefore always certified by the witness.
Candidates stay plain knot and row arrays until one wins: :func:`cc_upper`
measures each on its rows translated to x, the way :func:`horizontal_length`
measures a path, and builds one :class:`HorizontalPath` for the winner.
The bulge is found by bisection in plain floats, :func:`_solve_bulge_scalar`,
which stops at the bisection's fixed point.

Witness-free upper values, :func:`cc_upper_value_batch` and everything built
on it, are the certified closed form.  Length minimizers project to circular
arcs (Gaveau 1977), so for D = |p(z)| > 0 and height c

    d(z) = D theta / sin(theta),  where  (theta - sin theta cos theta) / sin^2 theta = |c| / D^2,

and d(z) = sqrt(pi |c|) when D = 0.  :func:`_gaveau_upper` finds theta by a
few Newton steps, accepts an end only where the sign of the bracketing
function exceeds a bound on its evaluation error, and rounds the mapped
value outward, so the value is never below d and exceeds it by at most
about 1e-14 relative for n <= 3.  The bounds assume ``np.sin`` and ``np.cos``
are within two units in the last place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curves import _GAMMA_KNOTS, HorizontalPath, _chords, _gamma_rows, _interpolate, _length, horizontal_length
from .group import (
    group_dim,
    group_inv,
    group_mul,
    horizontal_point,
    project,
    require_unit,
    vertical,
)

__all__ = [
    "VECTOR_FIELD_LIP",
    "DistanceBounds",
    "ConstantsEstimate",
    "Ball",
    "cc_lower",
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
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        if self.lower < 0 or self.upper < 0:
            raise ValueError("bounds must be nonnegative")
        if self.lower > self.upper * (1 + 1e-12) + 1e-15:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")
        if self.witness is not None:
            length = horizontal_length(self.witness)
            scale = max(1.0, self.upper)
            if abs(length - self.upper) > 1e-10 * scale:
                raise ValueError("witness length does not certify the upper bound")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class ConstantsEstimate:
    """Fitted comparison constants, tagged with the region that produced them.

    ``c_holder`` compares the distance with the Euclidean one on a compact
    set, ``c_angle`` controls the divergence of curves with close directions.
    """

    c_holder: float = 1.0
    c_angle: float = 1.0
    region: str = ""
    samples: int = 0

    def __post_init__(self):
        for name in ("c_holder", "c_angle"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class Ball:
    """Euclidean ball region descriptor used by the sampling estimators."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def n(self) -> int:
        return group_dim(self.center)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        dim = self.center.shape[-1]
        v = rng.standard_normal((size, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        radii = self.radius * rng.random(size) ** (1.0 / dim)
        return self.center + radii[:, None] * v

    def describe(self) -> str:
        return f"ball(r={self.radius:g}, n={self.n})"


def _lower(z: np.ndarray) -> np.ndarray:
    # max(|p(z)|, sqrt|c(z)|) over the last axis: the one formula of both lower bounds
    return np.maximum(_norm(project(z)), np.sqrt(np.abs(vertical(z))))


def cc_lower(x: np.ndarray, y: np.ndarray) -> float:
    """Certified lower bound max(|p(x)-p(y)|, sqrt(|height of x^-1 y|))."""
    return float(_lower(group_mul(group_inv(np.asarray(x, float)), np.asarray(y, float))[None])[0])


def cc_lower_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`cc_lower` for each row, bit for bit."""
    return _lower(group_mul(group_inv(x), y))


def _chain_area_coeff_scalar(theta: float, m: int) -> float:
    # enclosed area of the inscribed m-chain over a unit chord, bulge theta
    if theta < 1e-6:
        return theta * (1.0 - 1.0 / (m * m)) / 6.0
    s = math.sin(theta)
    return (m * math.sin(2.0 * theta / m) - math.sin(2.0 * theta)) / (8.0 * s * s)


def _solve_bulge_scalar(area_over_d2: float, m: int, iters: int = 90) -> float:
    """Solve the inscribed chain's area coefficient = area_over_d2 on (0, pi) by bisection.

    Each step is a function of ``(lo, hi)`` alone, so once a step leaves
    them unchanged every later step does too, and stopping there returns
    exactly the value after ``iters`` steps.  The interval closes on
    adjacent doubles after about 53 steps for ratios near 1 and 85 steps at
    1e-10; below about 1e-11 all ``iters`` steps run.
    """
    lo, hi = 0.0, math.pi - 1e-12
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _chain_area_coeff_scalar(mid, m) < area_over_d2:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


def _arc_chain_2d(D: float, theta: float, m: int) -> np.ndarray:
    """Vertices of the inscribed arc chain from (0,0) to (D,0), bulge up.

    Written relative to the chord so small bulges do not cancel against a
    distant circle center.
    """
    if theta <= 0.0:
        return np.array([[0.0, 0.0], [D, 0.0]])
    alphas = np.linspace(-theta, theta, m + 1)
    s = math.sin(theta)
    xs = 0.5 * D * (1.0 + np.sin(alphas) / s)
    ys = (D / s) * np.sin(0.5 * (alphas + theta)) * np.sin(0.5 * (theta - alphas))
    pts = np.stack([xs, ys], axis=1)
    pts[0] = [0.0, 0.0]
    pts[-1] = [D, 0.0]
    return pts


def _circle_chain_2d(area: float, m: int) -> np.ndarray:
    """Closed m-gon through the origin enclosing ``area`` counterclockwise."""
    rho = math.sqrt(abs(area) / (0.5 * m * math.sin(2.0 * math.pi / m)))
    sgn = 1.0 if area >= 0 else -1.0
    angles = math.pi + sgn * np.arange(m + 1) * (2.0 * math.pi / m)
    pts = np.array([rho, 0.0]) + rho * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts[0] = [0.0, 0.0]
    pts[-1] = [0.0, 0.0]
    return pts


def _ccw_area(chain: np.ndarray) -> float:
    x, y = chain[:, 0], chain[:, 1]
    return 0.5 * float(np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1]))


def _embed_chain(chain: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Embed a 2d chain into the symplectic plane spanned by w/|w| and J(w/|w|)."""
    D = np.linalg.norm(w)
    if D == 0.0:
        e1 = np.zeros(2 * n)
        e1[0] = 1.0
        w_hat = e1
    else:
        w_hat = w / D
    j_w = np.concatenate([-w_hat[n:], w_hat[:n]])
    return chain[:, :1] * w_hat + chain[:, 1:] * j_w


def _arc_witness(z: np.ndarray, n: int):
    """Knots and projected rows, relative to the start, of the witness whose
    projection is an inscribed circular arc closing on z."""
    w = project(z)
    D = float(np.linalg.norm(w))
    c = float(vertical(z))
    target_ccw = -c / 4.0
    if D == 0.0:
        chain = _circle_chain_2d(target_ccw, 1024) if c != 0.0 else np.zeros((2, 2))
    elif c == 0.0:
        chain = np.array([[0.0, 0.0], [D, 0.0]])
    elif (ratio := abs(target_ccw) / (D * D)) > 1e10:
        # bulge saturates in float; go straight to the projection, then close
        # the height with a full circle (out-and-back chord encloses nothing)
        circle = _circle_chain_2d(target_ccw, 1024) + np.array([D, 0.0])
        chain = np.vstack([[[0.0, 0.0]], circle])
    else:
        theta0 = _solve_bulge_scalar(ratio, 64)
        m = min(max(math.ceil(theta0 / 0.02), 16), 1024)
        chain = _arc_chain_2d(D, _solve_bulge_scalar(ratio, m), m)
        if (target_ccw < 0.0) == (_ccw_area(chain) > 0.0):
            chain[:, 1] *= -1.0
    rel = _embed_chain(chain, w, n)
    steps = _chords(rel)
    total = float(np.sum(steps))
    if total == 0.0:
        knots = np.array([0.0, 1.0])
    else:
        knots = np.concatenate([[0.0], np.cumsum(steps)])
        knots[-1] = total
    return knots, rel


def _shortest_route(x: np.ndarray, y: np.ndarray):
    """``(length, (knots, rel))`` of the shorter of the arc and two-leg routes from x to y.

    ``rel`` holds the projected rows relative to p(x); the route is None
    when x == y.  Lengths are measured on the rows translated to p(x), as
    the witness's are: translation moves their last bits.
    """
    z = group_mul(group_inv(x), y)
    D = float(np.linalg.norm(project(z)))
    c = float(vertical(z))
    if D == 0.0 and c == 0.0:
        return 0.0, None
    px = project(x)
    candidates = [_arc_witness(z, group_dim(x))]
    if D > 0.0:
        candidates.append((_GAMMA_KNOTS, _gamma_rows(z)))
    best = None
    for knots, rel in candidates:
        length = _length(rel + px)
        if not math.isfinite(length):
            raise ValueError("path data must be finite")
        if best is None or length < best[0]:
            best = (length, (knots, rel))
    return best


def cc_upper(x: np.ndarray, y: np.ndarray):
    """Certified upper bound with its witness curve.

    Takes the shorter of the two-leg route and the exactly-closing circular
    arc (the full circle when the projections coincide) and returns
    ``(length, witness)`` where ``length`` is the measured length of the
    returned path.  One path is built per witness, directly at x, with the
    start height :meth:`HorizontalPath.left_translate` would give the
    route built at 0.  :func:`_shortest_route` gives the same length
    without building a path.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    length, route = _shortest_route(x, y)
    if route is None:
        trivial = HorizontalPath(np.array([0.0, 1.0]), np.stack([project(x)] * 2), float(vertical(x)))
        return 0.0, trivial
    knots, rel = route
    # the start of HorizontalPath(knots, rel, 0.0), signed zeros included; its height is 0
    start = np.append(_interpolate(knots, rel, knots[0]), 0.0)
    return length, HorizontalPath(knots, rel + project(x), group_mul(x, start)[-1])


def cc_bounds(x: np.ndarray, y: np.ndarray) -> DistanceBounds:
    """Distance bracket with witness; the core comparison primitive."""
    upper, witness = cc_upper(x, y)
    return DistanceBounds(cc_lower(x, y), upper, witness)


class CertificationError(ArithmeticError):
    """A closed-form distance bound whose certificate could not be met in floats."""


_EPS = float(np.finfo(float).eps)
# r = |c| / D^2 at or below this: theta <= 1.5 r, so d / D - 1 < r^2 / 2 < eps / 500
_R_FLAT = 2.0**-30
# r at or above this: D <= 2^-50 sqrt(|c|), and d >= sqrt(pi |c|) - D, so
# D + sqrt(pi |c|) exceeds d by a factor below 1 + 2^-49
_R_STEEP = 2.0**100
_NEWTON_STEPS = 6
_WIDENINGS = 64


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
    the Newton step of (theta - sin theta cos theta) / sin^2 theta - r, a
    convex increasing function of theta, in the direction of t.  ``r_err``
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
    step = F * s / (2.0 * (s * s * s - co * area))
    return F, area_err + (r_err + 8.0 * _EPS) * rs2, step if steep else -step


def _gaveau_end(r: np.ndarray, steep: bool, r_err: float) -> np.ndarray:
    """Certified end of the root of Gaveau's equation for each r.

    theta >= theta* on the shallow branch (r <= pi/2), phi <= phi* = pi - theta*
    on the steep one; either way the mapped length is an upper bound.
    Newton starts on that side of a bracket of the root: theta* lies in
    [r, min(1.5 r, pi/2)] and phi* in [2 pi / (1 + sqrt(1 + 4 pi r)), pi/2].
    Where the certificate fails the end is widened geometrically.
    """
    if steep:
        lo, hi = 2.0 * math.pi / (1.0 + np.sqrt(1.0 + 4.0 * math.pi * r)), 0.5 * math.pi
        t = lo
    else:
        lo, hi = r, np.minimum(1.5 * r, 0.5 * math.pi)
        t = hi
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
        sq = np.vecdot(p, p)
    D = np.sqrt(sq)
    # from tiny / eps up, what squares lose to underflow is below eps^2 of the sum
    odd = ~((sq >= np.finfo(float).tiny / _EPS) & (sq < np.inf))
    if np.any(odd):
        D[odd] = np.hypot.reduce(p[odd], axis=-1)
    return D


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
    D = np.linalg.norm(project(z), axis=-1)
    c = np.abs(vertical(z))
    with np.errstate(divide="ignore", invalid="ignore"):
        legs = D * np.sqrt(1.0 + (c * c) / (D * D * D * D))
    legs = np.where(D > 0.0, legs, np.inf)
    split_route = D + np.sqrt(math.pi * c)
    return np.where(c == 0.0, D, np.minimum(legs, split_route))


def holder_fit(region: Ball, samples: int, seed: int) -> ConstantsEstimate:
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
    c_fit = max(
        1.0,
        float(np.max(e[keep][lo > 0.0] / lo[lo > 0.0])) if np.any(lo > 0.0) else 1.0,
        float(np.max(up / np.sqrt(e[keep]))),
    )
    return ConstantsEstimate(c_holder=c_fit, region=region.describe(), samples=samples)


def angle_fit(
    speed_bound: float,
    trials: int,
    seed: int,
    n: int = 1,
    t_span: float = 1.0,
    grid: int = 33,
) -> ConstantsEstimate:
    """Fit the divergence constant for curves leaving a common point.

    Generates pairs (g, h) with g(0) = h(0), speeds <= speed_bound and
    projected derivatives within A of each other, and fits the smallest
    C >= 1 with d(g(t), h(t)) <= C sqrt(A) |t| over the sample, measuring
    d by its certified upper bound.
    """
    if speed_bound < 1.0:
        raise ValueError("speed bound below 1 leaves no unit directions")
    rng = np.random.default_rng(seed)
    ts = np.linspace(-t_span, t_span, grid)
    ts = ts[ts != 0.0]
    rel, scales = [], []
    for _ in range(trials):
        A = 10.0 ** rng.uniform(-4, 0)
        h_dir = rng.standard_normal(2 * n)
        h_dir /= np.linalg.norm(h_dir)
        pert = rng.standard_normal(2 * n)
        pert -= (pert @ h_dir) * h_dir
        norm = np.linalg.norm(pert)
        if norm == 0.0:
            continue
        g_dir = h_dir + A * pert / norm
        g_dir /= np.linalg.norm(g_dir)
        offset = float(np.linalg.norm(g_dir - h_dir))
        if offset == 0.0:
            continue
        # straight pair: worst observed case is two lines at angle min(offset, 1)
        ga = ts[:, None] * horizontal_point(g_dir)
        ha = ts[:, None] * horizontal_point(h_dir)
        rel.append(group_mul(group_inv(ga), ha))
        scales.append(math.sqrt(min(offset, 1.0)) * np.abs(ts))
    c_fit = 1.0
    if rel:
        ups = cc_upper_value_batch(np.concatenate(rel)).reshape(len(rel), len(ts))
        c_fit = max(c_fit, float(np.max(ups / np.stack(scales))))
    return ConstantsEstimate(c_angle=c_fit, region=f"speed<={speed_bound:g}, n={n}", samples=trials)


@dataclass
class DistancePansuReport:
    """Per-sample first-order expansion check of d near a horizontal point."""

    inequality_margins: np.ndarray
    residuals: np.ndarray
    scales: np.ndarray
    passed: bool = field(default=False)


def distance_pansu_check(u_dir: np.ndarray, z_samples: np.ndarray, tol: float = 1e-9) -> DistancePansuReport:
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
    residuals = worst / np.maximum(dz_lo, 1e-300)
    scales = cc_upper_value_batch(z_samples)
    passed = bool(np.all(margins >= -tol))
    return DistancePansuReport(margins, residuals, scales, passed)
