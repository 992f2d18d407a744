"""Directional derivatives, Lipschitz estimation and Pansu-derivative residuals.

Scalar fields are real functions on the group evaluated in batches: the
callable receives an array of shape ``(m, 2n+1)`` and returns ``(m,)``.
Every input, a lone point of shape ``(2n+1,)`` included, reaches it as the
rows of one such array (a lone point is a one-row batch), so a point's
value has the same bits whatever the shape of the call it comes in.

Derivative estimators use symmetric difference quotients along horizontal
lines over one read-only step schedule, :data:`DEFAULT_STEPS`, with
Richardson extrapolation, and report an error bar from the successive
quotient levels; on a ladder of four or more levels, a quotient sequence
that grows twice in a row is flagged as diverging instead of being
extrapolated.  One column-wise ladder serves a single point, a batch of
points and a batch of curves; a curve near its domain end keeps the steps
that fit, at least three.

Pairs are compared by one relation, :func:`compare_pairs`, with its
constants :data:`K` = 8 and :data:`T_GRID` fixed beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .group import (
    HLinearMap,
    group_inv,
    group_mul,
    dilate,
    koranyi_norm,
    require_unit,
    vector_at,
)
from .metric import Ball, cc_lower_batch, cc_upper_quick, cc_upper_value_batch
from .curves import PathBatch

__all__ = [
    "ScalarField",
    "hlinear_field",
    "koranyi_gauge_field",
    "vertical_coordinate_field",
    "cc_distance_field",
    "lattice_max",
    "lattice_min",
    "DEFAULT_STEPS",
    "DerivativeEstimate",
    "directional_derivative",
    "directional_derivative_batch",
    "curve_directional_consistency_batch",
    "lipschitz_estimate",
    "PansuReport",
    "pansu_residual",
    "MeanValueInstance",
    "MeanValueHypothesisError",
    "MeanValueSearchError",
    "mean_value_search",
    "line_increments",
    "PairComparison",
    "K",
    "T_GRID",
    "compare_pairs",
]


@dataclass(frozen=True)
class ScalarField:
    """Real function on the group, with an optional certified Lipschitz bound.

    ``declared_lip`` bounds |f(x)-f(y)| / d(x,y); sampled difference
    quotients against upper distance brackets must never exceed it.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    declared_lip: Optional[float] = None
    label: str = ""

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rows = np.asarray(self.eval(x.reshape(-1, x.shape[-1])), dtype=float)
        return rows.reshape(x.shape[:-1])

    def shifted(self, coeffs: np.ndarray) -> "ScalarField":
        """Field plus the homomorphism x -> <p(x), coeffs>."""
        coeffs = np.asarray(coeffs, dtype=float)
        base = self.eval
        lip = None if self.declared_lip is None else self.declared_lip + float(np.linalg.norm(coeffs))
        return ScalarField(
            lambda x: np.asarray(base(x), dtype=float) + np.vecdot(x[..., :-1], coeffs),
            declared_lip=lip,
            label=f"{self.label}+linear" if self.label else "shifted",
        )


def hlinear_field(L: HLinearMap, label: str = "") -> ScalarField:
    return ScalarField(L, declared_lip=L.lip, label=label or f"hlinear(lip={L.lip:g})")


def koranyi_gauge_field(center: Optional[np.ndarray] = None) -> ScalarField:
    """Gauge distance from a center point.  No certified CC-Lipschitz bound.

    ``center`` of shape (m, 2n+1) gives each of m columns its own center:
    the field then reads batches laid out as a column-wise ladder lays out
    its points, row i belonging to column i mod m.
    """
    if center is None:
        return ScalarField(koranyi_norm, label="koranyi")
    c = np.asarray(center, dtype=float)
    return ScalarField(lambda x: koranyi_norm(group_mul(group_inv(c), x.reshape((-1,) + c.shape))).ravel(), label="koranyi@c")


def vertical_coordinate_field() -> ScalarField:
    """The height coordinate.  Not CC-Lipschitz on unbounded sets."""
    return ScalarField(lambda x: x[..., -1], label="vertical")


def cc_distance_field(target: np.ndarray, max_rel_width: float = 0.5) -> ScalarField:
    """Bracket midpoint of the distance to ``target``.

    The bracket is the witness-free one, :func:`cc_lower_batch` below and
    the certified closed form :func:`cc_upper_value_batch` above, for the
    whole batch at once.  Raises when the bracket at a queried point is
    wider than ``max_rel_width`` times its midpoint, so callers never
    silently consume a poorly-determined value.
    """
    target = np.asarray(target, dtype=float)

    def ev(x: np.ndarray) -> np.ndarray:
        lower = cc_lower_batch(target, x)
        upper = cc_upper_value_batch(group_mul(group_inv(target), x))
        mid = 0.5 * (lower + upper)
        wide = np.flatnonzero(upper - lower > max_rel_width * np.maximum(mid, 1e-12))
        if wide.size:
            i = wide[0]
            raise ValueError(f"distance bracket too wide at {x[i]}: [{lower[i]}, {upper[i]}]")
        return mid

    return ScalarField(ev, label="cc-dist")


def lattice_max(*fields: ScalarField) -> ScalarField:
    lips = [f.declared_lip for f in fields]
    lip = None if any(v is None for v in lips) else max(lips)
    return ScalarField(
        lambda x: np.max(np.stack([f(x) for f in fields]), axis=0),
        declared_lip=lip,
        label="max(" + ",".join(f.label for f in fields) + ")",
    )


def lattice_min(*fields: ScalarField) -> ScalarField:
    lips = [f.declared_lip for f in fields]
    lip = None if any(v is None for v in lips) else max(lips)
    return ScalarField(
        lambda x: np.min(np.stack([f(x) for f in fields]), axis=0),
        declared_lip=lip,
        label="min(" + ",".join(f.label for f in fields) + ")",
    )


# Step schedule t_k = 2^-k for k = 6..20: robust for merely Lipschitz data.
# The ladder of every derivative, so it is read-only.
DEFAULT_STEPS = 0.5 ** np.arange(6, 21)
DEFAULT_STEPS.flags.writeable = False


@dataclass(frozen=True)
class DerivativeEstimate:
    value: float
    error: float
    diverging: bool = False

    @property
    def ok(self) -> bool:
        return not self.diverging and np.isfinite(self.value)


def _extrapolate(vp: np.ndarray, vm: np.ndarray, steps: np.ndarray):
    """Extrapolate each column's quotient ladder at its most trustworthy level.

    ``vp`` and ``vm`` hold the field values at the points at +-steps, shape
    (levels, m), for a ladder of at least three levels; returns (values,
    errors, diverging) per column.  Each value is the Richardson
    extrapolation at the level minimizing (extrapolation gap + roundoff
    noise floor), which avoids both the truncation error of coarse levels
    and the cancellation noise of the finest ones.  With four or more
    levels, growth of the quotient differences clearly above the noise floor
    at the tail is flagged as divergence and widens the error bar.
    """
    q = (vp - vm) / (2.0 * steps[:, None])
    diffs = np.abs(np.diff(q, axis=0))
    rich = (4.0 * q[1:] - q[:-1]) / 3.0
    scale = np.maximum(np.max(np.abs(vp), axis=0), np.max(np.abs(vm), axis=0))
    base = 1e-15 * (1.0 + np.max(np.abs(q), axis=0))
    floors = np.maximum(4.0 * np.finfo(float).eps * np.maximum(scale, 1.0) / steps[:, None], base)
    diverging = np.zeros(q.shape[1], dtype=bool)
    if len(diffs) >= 3:
        diverging = (diffs[-1] > diffs[-2]) & (diffs[-2] > diffs[-3]) & (diffs[-1] > 8.0 * floors[-1])
    scores = np.abs(np.diff(rich, axis=0)) + 2.0 * floors[2:]
    k = np.argmin(scores, axis=0) + 1
    cols = np.arange(q.shape[1])
    errors = np.maximum(scores[k - 1, cols], base)
    errors = np.where(diverging, np.maximum(errors, diffs[-1]), errors)
    return rich[k, cols], errors, diverging


def _line_ladder(f: ScalarField, xs: np.ndarray, directions: np.ndarray):
    """:func:`_extrapolate` of the ladder along each row's line, one column per row of ``xs``."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    shift = DEFAULT_STEPS[:, None, None] * vector_at(np.atleast_2d(np.asarray(directions, dtype=float)), xs)
    return _extrapolate(f(xs + shift), f(xs - shift), DEFAULT_STEPS)


def directional_derivative(f: ScalarField, x: np.ndarray, direction: np.ndarray) -> DerivativeEstimate:
    """Derivative of f at x along the horizontal line of a unit direction.

    Symmetric quotients over :data:`DEFAULT_STEPS`, Richardson order-2
    extrapolation, error bar from the last extrapolation gap: the
    one-column case of :func:`directional_derivative_batch`, bit for bit.
    """
    direction = require_unit(np.asarray(direction, dtype=float))
    values, errors, diverging = _line_ladder(f, x, direction)
    return DerivativeEstimate(float(values[0]), float(errors[0]), bool(diverging[0]))


def directional_derivative_batch(f: ScalarField, xs: np.ndarray, directions: np.ndarray):
    """Vectorized derivative estimates: returns (values, errors, diverging)."""
    return _line_ladder(f, xs, directions)


def curve_directional_consistency_batch(f: ScalarField, g: PathBatch, h: PathBatch, at: np.ndarray) -> dict:
    """Compare (f o g)' and (f o h)' at a common parameter, column by column.

    Column j compares path j of g and h at at[j].  The curves must pass
    through the same point with the same derivative there; the derivative
    of f along either must then agree, and a column is consistent when the
    two agree within their combined error bars.  Each check raises when any
    column fails it.  A column whose domain cuts :data:`DEFAULT_STEPS`
    short keeps the (at least three) steps that fit; the field sees every
    column at each step some column keeps.  Returns the report's entries as
    arrays over the columns.
    """
    steps = DEFAULT_STEPS
    pg, ph = g.eval(at[:, None])[:, 0], h.eval(at[:, None])[:, 0]
    scale = np.fmax(1.0, np.max(np.abs(pg), axis=-1))  # Python max's reading of a NaN
    if not (np.abs(pg - ph) <= 1e-9 * scale[:, None]).all():
        raise ValueError("curves do not meet at the common parameter")
    dg = g.derivative(at[:, None])[:, 0]
    dh = h.derivative(at[:, None])[:, 0]
    if not (np.abs(dg - dh) <= 1e-9 * np.fmax(1.0, np.max(np.abs(dg), axis=-1))[:, None]).all():
        raise ValueError("curve derivatives differ at the common parameter")
    # stay inside both domains
    max_step = np.minimum.reduce([at - g.t_min, g.t_max - at, at - h.t_min, h.t_max - at])
    fits = steps <= max_step[:, None]
    if (np.count_nonzero(fits, axis=1) < 3).any():
        raise ValueError("parameter too close to a domain endpoint")
    used = fits.any(axis=0)
    plus, minus = at[:, None] + steps[used], at[:, None] - steps[used]
    values = [(f(p.eval(plus).swapaxes(0, 1)), f(p.eval(minus).swapaxes(0, 1))) for p in (g, h)]
    value, error = np.empty((2, len(at))), np.empty((2, len(at)))
    for kept in np.unique(fits, axis=0):
        cols, levels = np.flatnonzero((fits == kept).all(axis=1)), kept[used]
        for k, (vp, vm) in enumerate(values):
            value[k, cols], error[k, cols] = _extrapolate(vp[levels][:, cols], vm[levels][:, cols], steps[kept])[:2]
    gap = np.abs(value[0] - value[1])
    budget = error[0] + error[1]
    return {
        "deriv_along_g": value[0],
        "deriv_along_h": value[1],
        "gap": gap,
        "error_budget": budget,
        "consistent": gap <= budget * 4.0 + 1e-12,
    }


def lipschitz_estimate(
    f: ScalarField,
    region: Ball,
    samples: int,
    directions: int,
    seed: int = 0,
) -> dict:
    """Sampled two-sided Lipschitz gauge of a field.

    ``pair_sup`` takes difference quotients against upper distance brackets
    (never overestimates the true constant); ``dir_sup`` is the largest
    sampled directional derivative.  Both converge to the same constant.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    rng = np.random.default_rng(seed)
    xs = region.sample(rng, samples)
    ys = region.sample(rng, samples)
    fx, fy = f(xs), f(ys)
    pair_sup = 0.0
    z = group_mul(group_inv(xs), ys)
    uppers = cc_upper_quick(z)
    mask = uppers > 1e-12
    pair_sup = float(np.max(np.abs(fx - fy)[mask] / uppers[mask])) if np.any(mask) else 0.0
    pts = region.sample(rng, directions)
    dirs = rng.standard_normal((directions, 2 * region.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    values, errors, diverging = directional_derivative_batch(f, pts, dirs)
    usable = ~diverging
    dir_sup = float(np.max(np.abs(values[usable]))) if np.any(usable) else 0.0
    report = {
        "pair_sup": pair_sup,
        "dir_sup": dir_sup,
        "declared_lip": f.declared_lip,
        "max_error_bar": float(np.max(errors)),
        "diverging_fraction": float(np.mean(diverging)),
    }
    return report


@dataclass
class PansuReport:
    """Sup difference-quotient residuals of a candidate derivative, per radius."""

    radii: np.ndarray
    residuals: np.ndarray
    tol: float = 1e-3

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.residuals = np.asarray(self.residuals, dtype=float)
        if np.any(np.diff(self.radii) >= 0):
            raise ValueError("radii must be strictly decreasing")
        if np.any(self.residuals < 0):
            raise ValueError("residuals must be nonnegative")

    @property
    def accepted(self) -> bool:
        return bool(self.residuals[-1] <= self.tol)


def sample_unit_ball(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Rejection-sample points with certified distance bound <= 1.

    Uses the closed-form upper bound of the distance to the origin, so no
    inadmissible point can slip in and inflate a supremum.
    """
    out = []
    while sum(len(o) for o in out) < count:
        cand = rng.uniform(-1.0, 1.0, size=(4 * count, 2 * n + 1))
        keep = cand[cc_upper_quick(cand) <= 1.0]
        out.append(keep)
    return np.vstack(out)[:count]


def pansu_residual(
    f: ScalarField,
    x: np.ndarray,
    L: HLinearMap,
    radii: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4),
    dir_samples: int = 256,
    seed: int = 0,
    tol: float = 1e-3,
) -> PansuReport:
    """Scaled residuals sup_w |f(x dil_t(w)) - f(x) - t L(w)| / t per radius t.

    The sup runs over sampled w certified to lie in the unit distance ball.
    The candidate is accepted as the derivative at x when the residual at
    the smallest radius falls below ``tol``.
    """
    x = np.asarray(x, dtype=float)
    n = (x.shape[-1] - 1) // 2
    rng = np.random.default_rng(seed)
    ws = sample_unit_ball(rng, n, dir_samples)
    f_x = float(f(x))
    lw = L(ws)
    radii = np.asarray(sorted(radii, reverse=True), dtype=float)
    pts = group_mul(x, dilate(radii[:, None], ws))
    res = np.max(np.abs(f(pts) - f_x - radii[:, None] * lw), axis=1) / radii
    return PansuReport(radii, res, tol=tol)


class MeanValueHypothesisError(ValueError):
    """A named hypothesis of the mean-value search is violated."""

    def __init__(self, name: str, detail: str = ""):
        self.hypothesis = name
        super().__init__(f"hypothesis violated: {name}" + (f" ({detail})" if detail else ""))


class MeanValueSearchError(RuntimeError):
    """No grid point satisfies both conclusions; carries the best candidate."""

    def __init__(self, best_tau: float, detail: str = ""):
        self.best_tau = best_tau
        super().__init__(f"no admissible grid point found; best candidate tau={best_tau}" + (f"; {detail}" if detail else ""))


@dataclass
class MeanValueInstance:
    """Grid data for the mean-value derivative search.

    ``grid`` is uniform; ``phi`` and ``psi`` are sampled on it.  The scalar
    parameters must satisfy |zeta| < s < rho, 0 < v < 1/32, phi = psi
    outside [-s, s], a linearization bound for psi at 0 with slope error
    sigma*L, a lower bound on rho and an upper bound on sigma in terms of
    the gap |phi(zeta) - psi(zeta)|.
    """

    grid: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    s: float
    zeta: float
    rho: float
    v: float
    sigma: float
    L: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        if len(self.grid) < 9:
            raise ValueError("grid must be uniform with at least 9 points")
        h = np.diff(self.grid)
        if not (math.isfinite(h[0]) and h[0] != 0.0):
            raise ValueError(f"grid step must be finite and nonzero, got {h[0]}")
        # relative only: every step within 1e-9 of the first, whatever its size
        if not np.all(np.abs(h - h[0]) <= 1e-9 * abs(h[0])):
            raise ValueError("grid must be uniform with at least 9 points")
        if self.phi.shape != self.grid.shape or self.psi.shape != self.grid.shape:
            raise ValueError("phi and psi must be sampled on the grid")

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def index_of(self, t: float) -> int:
        i = int(round((t - self.grid[0]) / self.step))
        if not (0 <= i < len(self.grid)) or abs(self.grid[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"{t} is not a grid point")
        return i


def _window(grid: np.ndarray, bound: float, closed: bool) -> tuple:
    """``(start, stop)`` with ``grid[start:stop]`` the points g of a strictly
    monotone grid with |g| <= bound (``closed``) or |g| < bound; start may
    exceed stop, an empty window.  ``bound`` is not NaN."""
    left, right = ("left", "right") if closed else ("right", "left")
    if grid[0] < grid[-1]:
        return int(np.searchsorted(grid, -bound, left)), int(np.searchsorted(grid, bound, right))
    m, rising = len(grid), grid[::-1]
    return m - int(np.searchsorted(rising, bound, right)), m - int(np.searchsorted(rising, -bound, left))


def _central_diff(vals: np.ndarray, h: float, start: int, stop: int) -> np.ndarray:
    """Central differences of ``vals`` at the indices start..stop-1, one-sided at its two ends."""
    lo = max(start - 1, 0)
    return np.gradient(vals[lo : stop + 1], h)[start - lo : stop - lo] if start < stop else np.empty(0)


def _same(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """``np.allclose(a, b, rtol=0, atol=atol)``: within atol, or equal (equal infinities included)."""
    with np.errstate(invalid="ignore"):
        return bool(np.all((np.abs(a - b) <= atol) | (a == b)))


def _check_hypotheses(inst: MeanValueInstance, margin: float = 1e-9):
    if not (abs(inst.zeta) < inst.s < inst.rho):
        raise MeanValueHypothesisError("|zeta| < s < rho")
    if not (0.0 < inst.v < 1.0 / 32.0):
        raise MeanValueHypothesisError("0 < v < 1/32")
    h = inst.step
    lip_sum = float(np.max(np.abs(np.diff(inst.phi))) + np.max(np.abs(np.diff(inst.psi)))) / h
    if lip_sum > inst.L * (1.0 + 1e-9):
        raise MeanValueHypothesisError("Lip(phi) + Lip(psi) <= L", f"{lip_sum} > {inst.L}")
    # the points with |g| >= s - 1e-12 are those off the open window
    start, stop = _window(inst.grid, inst.s - 1e-12, closed=False)
    phi, psi = inst.phi, inst.psi
    if not (_same(phi[:start], psi[:start], 1e-12) and _same(phi[stop:], psi[stop:], 1e-12)):
        raise MeanValueHypothesisError("phi = psi outside [-s, s]")
    iz = inst.index_of(inst.zeta)
    gap = float(inst.phi[iz] - inst.psi[iz])
    if gap == 0.0:
        raise MeanValueHypothesisError("phi(zeta) != psi(zeta)")
    i0 = inst.index_of(0.0)
    psi_p0 = float(_central_diff(inst.psi, h, i0, i0 + 1)[0])
    within = slice(*_window(inst.grid, inst.rho, closed=True))
    lin_err = np.abs(inst.psi[within] - inst.psi[i0] - inst.grid[within] * psi_p0)
    bound = inst.sigma * inst.L * np.abs(inst.grid[within]) + margin
    if np.any(lin_err > bound):
        raise MeanValueHypothesisError("|psi(t) - psi(0) - t psi'(0)| <= sigma L |t|")
    rho_floor = inst.s * math.sqrt(inst.s * inst.L / (inst.v * abs(gap)))
    if inst.rho < rho_floor - margin:
        raise MeanValueHypothesisError("rho >= s sqrt(sL / (v |gap|))", f"{inst.rho} < {rho_floor}")
    sigma_cap = inst.v**3 * (gap / (inst.s * inst.L)) ** 2
    if inst.sigma > sigma_cap + margin:
        raise MeanValueHypothesisError("sigma <= v^3 (gap / (sL))^2", f"{inst.sigma} > {sigma_cap}")
    return gap, psi_p0, i0, iz


def mean_value_search(inst: MeanValueInstance, exclude: Optional[set] = None) -> float:
    """Find tau in (-s, s) away from zeta with a large phi derivative.

    Verifies every hypothesis first (raising a named error on failure),
    then returns a grid point tau whose grid index is not in ``exclude``
    (indices off the grid are ignored, a non-integral entry raises
    ``ValueError``) and whose central difference
    derivative satisfies

        phi'(tau) >= psi'(0) + v |phi(zeta) - psi(zeta)| / s

    and for which every grid increment obeys

        |(phi(tau+t) - phi(tau)) - (psi(t) - psi(0))|
            <= 4 (1 + 20 v) sqrt((phi'(tau) - psi'(0)) L) |t|.

    Candidates are tried in order of decreasing derivative; if none passes,
    the best-derivative candidate is reported in the raised error.  Only
    the window |t| < s is differenced, and each increment test reads its
    grid stretch as slices.
    """
    gap, psi_p0, i0, iz = _check_hypotheses(inst)
    grid, phi, psi, m = inst.grid, inst.phi, inst.psi, len(inst.grid)
    start, stop = _window(grid, inst.s, closed=False)
    stop = max(start, stop)
    phi_p = _central_diff(phi, inst.step, start, stop)
    interior = np.ones(stop - start, dtype=bool)
    # read as floats, so that a fractional entry shows instead of truncating onto an index
    excluded = np.fromiter(exclude or (), dtype=float)
    fractional = excluded[excluded != np.floor(excluded)]
    if len(fractional):
        raise ValueError(f"exclude must hold integer grid indices, got {sorted(fractional.tolist())}")
    interior[excluded[(excluded >= start) & (excluded < stop)].astype(np.int64) - start] = False
    if start <= iz < stop:
        interior[iz - start] = False
    need = psi_p0 + inst.v * abs(gap) / inst.s
    cand = np.flatnonzero(interior & (phi_p >= need))
    if len(cand) == 0:
        # np.argmax over the whole grid, -inf off the window: index 0 unless the window beats -inf
        j = int(np.argmax(np.concatenate([[-np.inf], np.where(interior, phi_p, -np.inf)])))
        raise MeanValueSearchError(float(grid[start + j - 1 if j else 0]),
                                   "no grid point reaches the derivative lower bound")
    order = cand[np.argsort(-phi_p[cand])]
    for j in order:
        idx = start + j
        slope = 4.0 * (1.0 + 20.0 * inst.v) * math.sqrt((phi_p[j] - psi_p0) * inst.L)
        # align phi(tau + t) with psi(t): t = grid[k] - grid[i0] for k in lo..hi-1
        lo, hi, shift = max(0, i0 - idx), min(m, m + i0 - idx), idx - i0
        lhs = np.abs((phi[lo + shift : hi + shift] - phi[idx]) - (psi[lo:hi] - psi[i0]))
        if np.all(lhs <= slope * np.abs(grid[lo:hi] - grid[i0]) + 1e-12):
            return float(grid[idx])
    raise MeanValueSearchError(float(grid[start + order[0]]), "derivative bound reached but increment bound failed")


def line_increments(f: ScalarField, x: np.ndarray, direction: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Increments f(x + t E(x)) - f(x) over the grid, for a point or a batch of points.

    ``E`` is the horizontal field with frame coefficients ``direction``; the
    result has shape ``x.shape[:-1] + t_grid.shape``.
    """
    x = np.asarray(x, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    pts = x[..., None, :] + t_grid[:, None] * vector_at(direction, x)[..., None, :]
    return f(pts) - f(x)[..., None]


class PairComparison(NamedTuple):
    """Outcome of :func:`compare_pairs`, one entry per candidate.

    ``verdict`` is True, False or None (undecided); ``reason`` is "" for an
    accepted candidate, else "diverging", "ordering", "increment" or
    "indeterminate"; ``required_sigma`` is the smallest sigma that makes the
    increment bound hold against the conservative gap (inf when the
    derivatives decide first).  ``value`` and ``star`` are the derivative
    estimates the comparison used.
    """

    verdict: np.ndarray
    required_sigma: np.ndarray
    reason: np.ndarray
    value: np.ndarray
    star: DerivativeEstimate


# The constants of the relation: K = 8 on the t grid t = ±2^-1, ..., ±2^-10 and
# ±0.05, ±0.15, ..., ±0.95, increasing; sorted in Python, since np.unique
# imports numpy.ma, which the import would then pay for
K = 8.0
_TS = np.array(sorted({*(0.5 ** np.arange(1, 11)).tolist(), *np.linspace(0.05, 0.95, 10).tolist()}))
T_GRID = np.concatenate([-_TS[::-1], _TS])
T_GRID.flags.writeable = False  # shared by every comparison


def compare_pairs(
    f: ScalarField,
    star: tuple,
    xs: np.ndarray,
    directions: np.ndarray,
    sigma: float = 0.0,
    lip: float = 1.0,
) -> PairComparison:
    """The increment-constrained ordering star <=_sigma candidate, per candidate.

    ``star`` is a (point, unit direction) pair and each candidate is a row of
    ``xs`` with the matching row of ``directions``.  With gap the derivative
    of f along the candidate minus that along the star, a candidate is
    accepted (True) when gap >= 0 and the line increments along the star
    direction differ by at most

        K (sigma + (gap * lip)^(1/4)) |t|

    for every t of :data:`T_GRID`, with K = :data:`K`.  The maximizer takes
    lip = 1 and its own sigma; the envelope check of the iteration takes
    sigma = 0 and lip = Lip(f).  Derivatives are :func:`directional_derivative`
    estimates, whose error bars make the answer three-valued: a gap within
    them counts as zero for acceptance, the verdict is False only when the
    ordering or the bound fails even for the optimistic gap, and None
    otherwise.  A diverging derivative estimate (of the star or of the
    candidate) gives None.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if lip is None or lip < 0:
        raise ValueError("need a nonnegative Lipschitz bound")
    x_star, e_star = np.asarray(star[0], float), require_unit(np.asarray(star[1], float))
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    directions = require_unit(np.atleast_2d(np.asarray(directions, dtype=float)))
    d_star = directional_derivative(f, x_star, e_star)
    values, errors, diverging = directional_derivative_batch(f, xs, directions)
    gap = values - d_star.value
    slack = errors + d_star.error
    diverging = diverging | d_star.diverging
    ordering = ~diverging & (gap < -slack)
    reason = np.where(diverging, "diverging", np.where(ordering, "ordering", "")).astype("<U13")
    required = np.full(len(xs), np.inf)
    live = np.flatnonzero(~diverging & ~ordering)
    if len(live):
        lhs = np.abs(line_increments(f, xs[live], e_star, T_GRID) - line_increments(f, x_star, e_star, T_GRID))
        t_abs = np.abs(T_GRID)
        # np.float_power rounds like the scalar power; the SIMD ``**`` may not
        lo = np.float_power(np.maximum(gap[live] - slack[live], 0.0) * lip, 0.25)[:, None]
        hi = np.float_power(np.maximum(gap[live] + slack[live], 0.0) * lip, 0.25)[:, None]
        nz = t_abs > 0.0  # t = 0 bounds no sigma
        required[live] = np.max(lhs[:, nz] / (K * t_abs[nz]) - lo, axis=1, initial=0.0)
        accepted = np.all(lhs <= K * (sigma + lo) * t_abs + 1e-12, axis=1)
        beyond = np.any(lhs > K * (sigma + hi) * t_abs + 1e-12, axis=1)
        reason[live] = np.where(accepted, "", np.where(beyond, "increment", "indeterminate"))
    verdict = np.full(len(xs), None, dtype=object)
    verdict[reason == ""] = True
    verdict[(reason == "ordering") | (reason == "increment")] = False
    return PairComparison(verdict, required, reason, values, d_star)
