"""Horizontal curves as exactly-lifted planar polylines.

A path stores knot parameters, the projected positions at the knots (linear
in between) and the height at the first knot.  The height elsewhere is not
stored: on a straight projected segment the lift identity

    c'(t) = 2 sum_i (g_i'(t) g_{n+i}(t) - g_{n+i}'(t) g_i(t))

has a constant integrand, so the height increment of each segment is the
closed form 2(<da, b_j> - <db, a_j>) and horizontality is exact by
construction rather than approximate.

Besides plain lifting this module builds the two special constructions used
everywhere downstream: the two-leg curve joining 0 to an arbitrary point
with controlled speed and direction (``gamma_y``), and the modification of
a horizontal line so that it detours through a prescribed nearby point
while keeping its speed within 1 + eta*delta (``modify_line``).

Both constructions also run on a batch of inputs at once, with leading
axes on every array.  A :class:`PathBatch` holds such a batch: each path
has its own knots, passes the checks of :class:`HorizontalPath` and gets
the bits of its own :class:`HorizontalPath` wherever it is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .group import (
    _row_sums,
    as_exact,
    dilate,
    group_dim,
    group_inv,
    group_mul,
    horizontal_point,
    project,
    require_unit,
)

__all__ = [
    "HorizontalPath",
    "PathBatch",
    "lift_heights",
    "lift_planar",
    "horizontal_length",
    "lipschitz_constant",
    "gamma_y",
    "ModifyLineParams",
    "modify_line",
    "delta_cap",
    "MODIFY_DELTA_DIVISOR",
]

# Proven admissibility threshold for the line modification: delta < eta / 1632.
MODIFY_DELTA_DIVISOR = 1632.0


def delta_cap(eta):
    """Largest admissible detour parameter for a given speed slack eta; broadcasts over arrays of eta."""
    if np.any(np.less_equal(eta, 0)):
        raise ValueError("eta must be positive")
    return np.minimum(eta / MODIFY_DELTA_DIVISOR, 0.5)


def lift_heights(planar: np.ndarray, c0) -> np.ndarray:
    """Heights at the knots of the horizontal lift of a polyline starting at height c0.

    ``planar`` holds one projected row per knot along axis -2, as floats or
    as an object array of fractions; leading axes are a batch of polylines,
    and ``c0`` broadcasts against their heights.  Each segment adds
    2(<da, b_j> - <db, a_j>).
    """
    n = planar.shape[-1] // 2
    d = planar[..., 1:, :] - planar[..., :-1, :]  # np.diff's differences
    head = planar[..., :-1, :]
    # da * b_j beside db * a_j, each summed over its n columns
    prod = d * np.concatenate([head[..., n:], head[..., :n]], axis=-1)
    sums = _row_sums(prod.reshape(prod.shape[:-1] + (2, n)))
    heights = np.zeros_like(planar[..., 0])
    np.cumsum(2 * (sums[..., 0] - sums[..., 1]), axis=-1, out=heights[..., 1:])
    return c0 + heights


# Piecewise-linear evaluation.  ``vertices`` holds one row per knot along
# axis -2 (projection, then height); leading axes are a batch of paths.
# Knots of shape (K,) are shared by the whole batch.  Knots of shape
# (..., K) give each path its own, and t then holds one row of parameters
# per path, shape (..., T).  HorizontalPath and the batched checks of the
# suites both evaluate through these, so a batch gets the bits of one path
# at a time.


def _lift_vertices(planar: np.ndarray, c0) -> np.ndarray:
    """Knot rows (projection, height) of the lift of ``planar`` starting at height c0."""
    return np.concatenate([planar, lift_heights(planar, c0)[..., None]], axis=-1)


def _checked_vertices(knots: np.ndarray, planar: np.ndarray, c0) -> np.ndarray:
    """:func:`_lift_vertices` after the checks of every path's data.

    Leading axes are a batch of paths and ``c0`` holds one start height per
    path; a batch raises the message of the first check any path fails.
    """
    # a NaN knot passes this test and fails the next one
    if ((knots[..., 1:] - knots[..., :-1]) <= 0).any():
        raise ValueError("knots must be strictly increasing")
    if not (np.isfinite(knots).all() and np.isfinite(planar).all()):
        raise ValueError("path data must be finite")
    n = planar.shape[-1] // 2
    if planar.shape[-1] != 2 * n or n < 1:
        raise ValueError("planar rows must have even length >= 2")
    # what overflows in the lift is caught by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        vertices = _lift_vertices(planar, c0 if isinstance(c0, float) else np.expand_dims(c0, -1))
    # a running sum that overflowed stays inf or NaN, so the last height tells
    if not np.isfinite(vertices[..., -1, -1]).all():
        raise ValueError("path data must be finite")
    return vertices


def _segment(knots: np.ndarray, t):
    """Index of the segment holding t: the one starting at t on a knot, the last one at the end."""
    if knots.ndim == 1:
        j = np.searchsorted(knots, t, side="right")
    else:  # searchsorted's count, path by path
        j = np.count_nonzero(knots[..., None, :] <= t[..., None], axis=-1)
    return np.clip(j - 1, 0, knots.shape[-1] - 2)


def _segment_ends(knots: np.ndarray, vertices: np.ndarray, t):
    """Knots and vertices at both ends of the segment holding t."""
    j = _segment(knots, t)
    if knots.ndim == 1:
        return knots[j], knots[j + 1], np.take(vertices, j, axis=-2), np.take(vertices, j + 1, axis=-2)
    pick = np.take_along_axis
    return pick(knots, j, -1), pick(knots, j + 1, -1), pick(vertices, j[..., None], -2), pick(vertices, j[..., None] + 1, -2)


def _interpolate(knots: np.ndarray, vertices: np.ndarray, t) -> np.ndarray:
    """Point at parameter t, for t in [knots[0], knots[-1]]."""
    k0, k1, lo, hi = _segment_ends(knots, vertices, t)
    u = (t - k0) / (k1 - k0)
    return lo + np.expand_dims(u, -1) * (hi - lo)


def _difference_quotient(knots: np.ndarray, vertices: np.ndarray, t) -> np.ndarray:
    """Derivative on the segment holding t (see :func:`_segment`)."""
    k0, k1, lo, hi = _segment_ends(knots, vertices, t)
    return (hi - lo) / np.expand_dims(k1 - k0, -1)


_TINY_SQUARES = np.finfo(float).tiny / np.finfo(float).eps


def _root_sum_squares(sq: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|p| over the last axis of a batch, given ``sq``, the sum of its squares there.

    sqrt(sq), except on rows whose squares over- or underflow, which take
    hypot: from tiny / eps up, what the squares lose to underflow is below
    eps^2 of the sum, so every other row keeps sqrt's bits.
    """
    D = np.sqrt(sq)
    fine = (sq >= _TINY_SQUARES) & (sq < np.inf)
    if not fine.all():
        odd = ~fine
        D[odd] = np.hypot.reduce(p[odd], axis=-1)
    return D


def _chords(planar: np.ndarray) -> np.ndarray:
    """Euclidean length of each projected segment, by the rule of :func:`_root_sum_squares`."""
    d = planar[..., 1:, :] - planar[..., :-1, :]
    # the squares and their sum are np.linalg.norm's
    with np.errstate(over="ignore", under="ignore"):
        return _root_sum_squares(_row_sums(d * d), d)


def _segment_speeds(knots: np.ndarray, planar: np.ndarray) -> np.ndarray:
    return _chords(planar) / np.diff(knots)


def _length(planar: np.ndarray) -> float:
    """Horizontal length of the lift of one projected polyline."""
    return float(np.add.reduce(_chords(planar)))


@dataclass(frozen=True)
class HorizontalPath:
    """Piecewise-linear projected path with its exact height lift.

    ``knots`` are strictly increasing parameters, ``planar`` the projected
    positions at the knots (shape ``(len(knots), 2n)``), ``c0`` the height at
    ``knots[0]``.  ``rational`` optionally carries the same data as exact
    fractions when the path was built from rational inputs.
    """

    knots: np.ndarray
    planar: np.ndarray
    c0: float
    rational: Optional[tuple] = None  # (knots, planar rows, c0) as Fractions

    def __post_init__(self):
        knots = np.atleast_1d(np.asarray(self.knots, dtype=float))
        planar = np.asarray(self.planar, dtype=float)
        if planar.ndim != 2 or planar.shape[0] != knots.shape[0]:
            raise ValueError("planar must have one row per knot")
        if knots.shape[0] < 2:
            raise ValueError("a path needs at least two knots")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "planar", planar)
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "_vertices", _checked_vertices(knots, planar, self.c0))

    @property
    def n(self) -> int:
        return self.planar.shape[1] // 2

    @property
    def t_min(self) -> float:
        return float(self.knots[0])

    @property
    def t_max(self) -> float:
        return float(self.knots[-1])

    @property
    def heights(self) -> np.ndarray:
        """Exact lifted height at each knot."""
        return self._vertices[:, -1]

    def eval(self, t) -> np.ndarray:
        """Point on the path at parameter t (clamped to the domain)."""
        t = np.asarray(t, dtype=float)
        return _interpolate(self.knots, self._vertices, np.clip(t, self.knots[0], self.knots[-1]))

    def __call__(self, t) -> np.ndarray:
        return self.eval(t)

    def derivative(self, t):
        """Derivative vector at t and whether t sits on a knot.

        At a knot the right-hand derivative is returned (left-hand at the
        final knot); the flag marks that the two-sided derivative may fail.
        """
        t = float(t)
        if not (self.knots[0] <= t <= self.knots[-1]):
            raise ValueError("parameter outside the path domain")
        at_knot = bool(np.any(np.isclose(self.knots, t, rtol=0.0, atol=1e-14)))
        return _difference_quotient(self.knots, self._vertices, t), at_knot

    def segment_speeds(self) -> np.ndarray:
        """Projected speed of each linear segment."""
        return _segment_speeds(self.knots, self.planar)

    def start(self) -> np.ndarray:
        return self.eval(self.knots[0])

    def end(self) -> np.ndarray:
        return self.eval(self.knots[-1])

    def left_translate(self, g: np.ndarray) -> "HorizontalPath":
        """Path t -> g * path(t).  Preserves lengths, speeds and horizontality."""
        g = np.asarray(g, dtype=float)
        if group_dim(g) != self.n:
            raise ValueError("dimension mismatch in translation")
        new_c0 = group_mul(g, self.start())[-1]
        return HorizontalPath(self.knots, self.planar + project(g), new_c0)

    def to_json(self) -> dict:
        return {"knots": self.knots.tolist(), "planar": self.planar.tolist(), "c0": self.c0}


class PathBatch(NamedTuple):
    """Paths with equally many knots as arrays, one path per leading index.

    ``knots`` has shape (..., K) and ``vertices`` holds the knot rows
    (projection, height), shape (..., K, 2n+1).  Parameters come one row
    per path, shape (..., T).  Each path gets the bits of its own
    :class:`HorizontalPath`.
    """

    knots: np.ndarray
    vertices: np.ndarray

    @classmethod
    def lift(cls, knots, planar, c0) -> "PathBatch":
        """The lifted paths, after the checks of :class:`HorizontalPath`."""
        return cls(knots, _checked_vertices(knots, planar, c0))

    @property
    def planar(self) -> np.ndarray:
        return self.vertices[..., :-1]

    @property
    def t_min(self) -> np.ndarray:
        return self.knots[..., 0]

    @property
    def t_max(self) -> np.ndarray:
        return self.knots[..., -1]

    def eval(self, t) -> np.ndarray:
        """Points at parameters t (clamped to each path's domain), shape (..., T, 2n+1)."""
        return _interpolate(self.knots, self.vertices, np.clip(t, self.knots[..., :1], self.knots[..., -1:]))

    def derivative(self, t) -> np.ndarray:
        """Derivative vectors at t, right-hand on a knot, as :meth:`HorizontalPath.derivative`."""
        if not ((self.knots[..., :1] <= t) & (t <= self.knots[..., -1:])).all():
            raise ValueError("parameter outside the path domain")
        return _difference_quotient(self.knots, self.vertices, t)

    def left_translate(self, g: np.ndarray) -> "PathBatch":
        """Paths t -> g * path(t), one g per path, as :meth:`HorizontalPath.left_translate`."""
        start = self.eval(self.knots[..., :1])[..., 0, :]
        return PathBatch.lift(self.knots, self.planar + project(g)[..., None, :], group_mul(g, start)[..., -1])


def lift_planar(planar: np.ndarray, base: np.ndarray) -> HorizontalPath:
    """Lift a planar polyline to the horizontal curve starting at ``base``.

    ``base`` must project onto the first vertex; the height along the lift
    follows the segmentwise closed form of the lift identity.
    """
    planar = np.asarray(planar, dtype=float)
    base = np.asarray(base, dtype=float)
    if planar.ndim != 2 or planar.shape[0] < 2:
        raise ValueError("need a polyline with at least two vertices")
    if planar.shape[1] + 1 != base.shape[-1]:
        raise ValueError("dimension mismatch between polyline and base point")
    if not np.allclose(base[:-1], planar[0], rtol=0.0, atol=1e-9 * max(1.0, float(np.max(np.abs(planar))))):
        raise ValueError("base point does not project onto the first vertex")
    return HorizontalPath(_chord_knots(planar), planar, float(base[-1]))


def _chord_knots(planar: np.ndarray) -> np.ndarray:
    """Knots of :func:`lift_planar`: chord length from 0, a zero-length step
    counting 1e-9 of the longest (1 if every step is 0).  Leading axes are a batch."""
    steps = _chords(planar)
    longest = np.max(steps, axis=-1, keepdims=True)
    steps = np.where(steps == 0.0, np.where(longest > 0, longest * 1e-9, 1.0), steps)
    knots = np.zeros(planar.shape[:-1])
    np.cumsum(steps, axis=-1, out=knots[..., 1:])
    return knots


def horizontal_length(path: HorizontalPath) -> float:
    """Horizontal length, i.e. Euclidean length of the projected polyline."""
    return _length(path.planar)


def lipschitz_constant(path: HorizontalPath) -> float:
    """Lipschitz constant with respect to the Carnot-Caratheodory distance.

    Equals the maximal projected segment speed.
    """
    return float(np.max(path.segment_speeds()))


def _line_knots(x, direction, t0, t1):
    """Knots (..., 2), planar rows (..., 2, 2n) and start height (...) of the
    horizontal lines t -> x + t E(x) on [t0, t1]; broadcasts."""
    t0, t1 = np.expand_dims(t0, -1), np.expand_dims(t1, -1)
    p = project(x)
    planar = np.stack([p + t0 * direction, p + t1 * direction], axis=-2)
    c0 = group_mul(x, t0 * horizontal_point(direction))[..., -1]
    return np.concatenate([t0, t1], axis=-1), planar, c0


# The knot data of gamma_y and modify_line is rational whenever the inputs
# are (no square roots enter it), so covers can recover the exact lines a
# constructed curve travels along.
def _exact_payload(knots, rows, c0) -> tuple:
    """The ``rational`` field of a path: (knots, planar rows, c0) as Fractions."""
    return (
        tuple(Fraction(t) for t in knots),
        tuple(tuple(Fraction(v) for v in row) for row in rows),
        Fraction(c0),
    )


_GAMMA_KNOTS = np.array([0.0, 0.5, 1.0])
_GAMMA_KNOTS.flags.writeable = False  # shared by every two-leg path


def _gamma_rows(y: np.ndarray) -> np.ndarray:
    """Planar knot rows (0, midpoint, p(y)) of the two-leg curve, float or exact.

    Leading axes of ``y`` are a batch; the rows run along axis -2.  In
    floats, a point whose squares |p(y)|^2 over- or underflow, whose
    midpoint overflows, or whose midpoint's c-term underflows (|p(y)| c or
    c / |p(y)| below the normal floats, c != 0) raises a ``ValueError``
    that says so.
    """
    n = group_dim(y)
    a, b, c = y[..., :n], y[..., n : 2 * n], y[..., -1:]
    if not np.any(y[..., :-1] != 0, axis=-1).all():
        raise ValueError("gamma_y is undefined for points with zero projection")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        L2 = np.vecdot(a, a, keepdims=True) + np.vecdot(b, b, keepdims=True)
        mid = np.concatenate([a - b * c / L2, b + a * c / L2], axis=-1) / 2
    if y.dtype != object:  # exact rows neither round nor overflow
        if not np.isfinite(y).all():
            raise ValueError("gamma_y needs finite coordinates")
        if not (L2 < np.inf).all():
            raise ValueError("gamma_y needs |p(y)|^2 as a float, but the squares of p(y) overflow")
        if not (L2 >= np.finfo(float).tiny).all():
            raise ValueError("gamma_y needs |p(y)|^2 as a normal float, but the squares of p(y) underflow")
        if not np.isfinite(mid).all():
            raise ValueError("the midpoint of gamma_y overflows: p(y) c / |p(y)|^2 exceeds the floats")
        # the c-term p(y) c / |p(y)|^2 keeps its bits to a few eps only where
        # |p(y)| c and c / |p(y)| are normal; below, it rounds away (to 0 at worst)
        with np.errstate(over="ignore"):
            D, h = np.sqrt(L2), np.abs(c)
            lost = (h != 0) & ((D * h < np.finfo(float).tiny) | (h / D < np.finfo(float).tiny))
        if lost.any():
            raise ValueError("gamma_y needs |p(y)| c and c / |p(y)| as normal floats, but the midpoint's c-term underflows")
    rows = np.zeros(mid.shape[:-1] + (3, 2 * n), dtype=mid.dtype)
    rows[..., 1, :] = mid
    rows[..., 2, :] = y[..., :-1]
    return rows


def gamma_y(y, rational: bool = False) -> HorizontalPath:
    """Two-leg horizontal curve on [0, 1] joining 0 to y, for p(y) != 0.

    The projected midpoint is (a - b c / L^2, b + a c / L^2) / 2 with
    L = |p(y)|, which makes the lifted height land exactly on c at t = 1.
    Its speed never exceeds L (1 + c^2/L^4 + 4 c^2/L^2)^(1/2) and each leg's
    derivative stays within (c/L)(1 + 4 L^2)^(1/2) of (a, b, 0).

    With ``rational=True`` the knot rows are computed exactly from the
    exact values of y, and the returned path carries them as fractions.
    """
    if not rational:
        return HorizontalPath(_GAMMA_KNOTS, _gamma_rows(np.asarray(y, dtype=float)), 0.0)
    rows = _gamma_rows(as_exact(y))
    return HorizontalPath(_GAMMA_KNOTS, rows, 0.0, rational=_exact_payload((0, Fraction(1, 2), 1), rows, 0))


@dataclass(frozen=True)
class ModifyLineParams:
    """Inputs of the line modification.

    The detour target is x * delta_r(u); ``delta`` controls how far the
    detour spreads along the line (half-width s = r / delta) and must stay
    below ``delta_cap(eta)`` for the speed bound 1 + eta*delta to be
    guaranteed.  ``cc_bound_of_u`` is a certified upper bound on d(u, 0),
    which must not exceed 1.
    """

    x: np.ndarray
    u: np.ndarray
    direction: np.ndarray
    r: float
    delta: float
    eta: float
    cc_bound_of_u: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=float))
        _require_modifiable(self.direction, self.r, self.delta, self.eta, self.cc_bound_of_u)

    @property
    def s(self) -> float:
        return self.r / self.delta

    @property
    def zeta(self) -> float:
        return float(self.r * np.dot(project(self.u), self.direction))


def _require_modifiable(direction, r, delta, eta=None, cc_bound_of_u=None) -> None:
    """The checks of the modification's inputs, over a batch of rows.

    A unit direction and 0 < r < delta; with ``eta``, also delta below
    delta_cap(eta) and a finite certified bound on d(u, 0) of at most 1.
    A batch raises the message of the first check any row fails, quoting
    the first such row's values.
    """
    require_unit(direction)
    if not np.all(np.less(0.0, r) & np.less(r, delta)):
        raise ValueError("need 0 < r < delta")
    if eta is None:
        return
    cap = delta_cap(eta)
    bad = ~(delta < cap)
    if bad.any():
        raise ValueError(f"delta must be below {_first_bad(bad, cap):.3g} = delta_cap(eta)")
    # a NaN bound fails no comparison, so finiteness is checked first
    bad = ~np.isfinite(cc_bound_of_u) | (cc_bound_of_u > 1.0 + 1e-12)
    if bad.any():
        raise ValueError(f"u must come with a finite certified distance bound <= 1, got {_first_bad(bad, cc_bound_of_u)}")


def _first_bad(bad, values):
    """The entry of ``values`` at the first row that ``bad`` marks."""
    return np.broadcast_to(values, np.shape(bad)).ravel()[np.argmax(np.ravel(bad))]


def modify_line(params: ModifyLineParams, span: Optional[float] = None, rational: bool = False):
    """Modify the line t -> x + t E(x) to pass through x * delta_r(u).

    Returns ``(path, zeta)`` where the path agrees with the line for
    |t| >= s = r/delta, equals x * delta_r(u) at parameter
    zeta = r <u, E(0)>, has speed at most 1 + eta*delta and projected
    derivative within O(delta) of p(E) away from the knots.  The detour is
    assembled from two translated, reparametrized two-leg curves, one for
    each side of the target.

    ``span`` extends the straight tails to [-span, span] (default 2s).
    With ``rational=True`` the construction runs on the exact values of the
    inputs and the exact knot data is attached to the returned path.
    """
    x, u, E, r, s, zeta = params.x, params.u, params.direction, params.r, params.s, params.zeta
    if span is None:
        span = 2.0 * s
    if span <= s:
        raise ValueError("span must exceed s")
    if rational:
        x, u, E = as_exact(x), as_exact(u), as_exact(E)
        r, span = Fraction(r), Fraction(span)
        s = r / Fraction(params.delta)
        zeta = r * (project(u) @ E)
    knots, rows, c0 = _modified_line_knots(x, u, E, r, s, zeta, span)
    payload = _exact_payload(knots, rows, c0) if rational else None
    return HorizontalPath(knots, rows, c0, rational=payload), float(zeta)


def _modified_line_knots(x, u, E, r, s, zeta, span):
    """Knot parameters (..., 7), planar rows (..., 7, 2n) and start height (...) of modified lines.

    Float or exact.  Leading axes are a batch of lines, with one r, s, zeta
    and span each; one line is the batch with no leading axes.
    """
    e0 = horizontal_point(E)
    s_e0 = np.expand_dims(s, -1) * e0
    span_E = np.expand_dims(span, -1) * E
    target = group_mul(s_e0, dilate(r, u))
    back = group_mul(dilate(r, group_inv(u)), s_e0)
    for chord in (project(target), project(back)):
        if np.any(np.vecdot(chord, chord) == 0):
            raise ValueError("degenerate modification: detour chord has zero projection")
    rows1 = _gamma_rows(target)  # relative to x * (-s E(0))
    rows2 = _gamma_rows(back)  # relative to x * delta_r(u)
    base_left = project(group_mul(x, -s_e0))[..., None, :]
    base_mid = project(group_mul(x, dilate(r, u)))[..., None, :]
    px = project(x)
    rows = np.concatenate(
        [(px - span_E)[..., None, :], base_left + rows1, base_mid + rows2[..., 1:, :], (px + span_E)[..., None, :]],
        axis=-2,
    )
    knots = np.stack(np.broadcast_arrays(-span, -s, (zeta - s) / 2, zeta, (zeta + s) / 2, s, span), axis=-1)
    c0 = group_mul(x, -np.expand_dims(span, -1) * e0)[..., -1][()]
    return knots, rows, c0


def _modified_line_batch(x, u, direction, r, delta, zeta, span=None, eta=None, cc_bound_of_u=None) -> PathBatch:
    """Modified lines as one batch, each row with the bits of its own path.

    Rows pass the checks of :class:`ModifyLineParams` when ``eta`` is given.
    Without it, only a unit direction and 0 < r < delta are checked: no cap
    on delta, so such a row has NO admissibility guarantee and serves only
    to probe how far past the proven threshold the speed bound keeps
    holding.  ``zeta`` is each row's r <p(u), E>, and ``span`` defaults to 2s.
    """
    _require_modifiable(direction, r, delta, eta, cc_bound_of_u)
    s = r / delta
    return PathBatch.lift(*_modified_line_knots(x, u, direction, r, s, zeta, 2.0 * s if span is None else span))
