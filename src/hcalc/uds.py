"""Truncated tube-cover model of the set of rational horizontal lines.

The ambient construction is a countable intersection of open sets, each a
union of metric tubes around all horizontal lines through rational data.
Here everything is finite and explicit: a deterministic enumeration of
lines (rational base point, primitive integer direction), clipped to a
box, with per-line tube radii r_{k,i} = c_k / 2^(i+1) where the level
constant c_k is solved so that an analytic bound on the total tube volume
is at most 2^-k.  The constants are non-increasing in k by construction
(c_k = min(c_k, c_{k-1})), so r_{k,i} <= r_{j,i} for j < k: a point within
r_{k,i} of some line is within r_{j,i} of it at every shallower level.
Membership in every tube union up to level k is therefore membership at
level k alone, one comparison against the level-k radii.  It is decided
over the (point, line) pairs whose planar point-to-segment distance, a
lower bound of the distance, is within the radius.  A cell index finds
those pairs: the query points are sorted along a Z-order cell grid into
groups of at most 16, each inside a ball, and only the pairs of a group
whose ball comes within reach of a segment are tested point by point, a
bounded number of pairs at a time (see :meth:`Cover.upper_distances`).

Bases and directions are exact fractions; geometry queries convert to
floats, except that points given as fractions are tested for incidence
exactly, so points lying on an enumerated line are members at every level
regardless of how small the radii get.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .curves import HorizontalPath, lift_heights
from .metric import cc_upper_quick
from .group import _row_sums, group_inv, group_mul

__all__ = [
    "RationalLine",
    "stereographic_unit",
    "unit_preimage",
    "rationalize_direction",
    "enumerate_lines",
    "Box",
    "Cover",
    "lines_of_path",
    "wilson_interval",
]


def _canonical_direction(h: Sequence[int]) -> tuple:
    g = 0
    for v in h:
        g = math.gcd(g, abs(int(v)))
    if g == 0:
        raise ValueError("direction must be nonzero")
    h = tuple(int(v) // g for v in h)
    for v in h:
        if v != 0:
            return h if v > 0 else tuple(-w for w in h)
    raise ValueError("direction must be nonzero")


@dataclass(frozen=True)
class RationalLine:
    """Horizontal line through an exact rational base with rational direction.

    ``direction`` is stored as a primitive integer vector (content 1, first
    nonzero entry positive); the line is t -> base + t * E(base) where E is
    the horizontal field with these frame coefficients.  The base is stored
    with its projection orthogonal to the direction, which makes the pair a
    canonical key for the line as a point set.  The exact direction vector
    is kept from construction: it is constant along the line, so moving the
    base to its canonical point leaves it unchanged.
    """

    base: tuple
    direction: tuple

    def __post_init__(self):
        direction = _canonical_direction(self.direction)
        base = tuple(Fraction(v) for v in self.base)
        if len(base) != len(direction) + 1:
            raise ValueError("base must have length 2n+1 for a 2n direction")
        n = len(direction) // 2
        vec = self._vector(base, direction, n)
        h2 = sum(v * v for v in direction)
        t_star = -sum(base[i] * direction[i] for i in range(2 * n)) / h2
        base = tuple(base[i] + t_star * vec[i] for i in range(2 * n + 1))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "_vec", vec)

    @staticmethod
    def _vector(base: tuple, direction: tuple, n: int) -> tuple:
        a, b = base[:n], base[n : 2 * n]
        v_c = 2 * (
            sum(Fraction(direction[i]) * b[i] for i in range(n))
            - sum(Fraction(direction[n + i]) * a[i] for i in range(n))
        )
        return tuple(Fraction(d) for d in direction) + (v_c,)

    @property
    def n(self) -> int:
        return len(self.direction) // 2

    def vector(self) -> tuple:
        """Exact direction vector of the line in R^{2n+1} (constant along it)."""
        return self._vec

    def base_float(self) -> np.ndarray:
        return np.array([float(v) for v in self.base])

    def vector_float(self) -> np.ndarray:
        return np.array([float(v) for v in self.vector()])

    def point_at(self, t: Fraction) -> tuple:
        vec = self.vector()
        return tuple(self.base[i] + t * vec[i] for i in range(len(self.base)))

    def incidence_parameter(self, point: Sequence) -> Optional[Fraction]:
        """Exact parameter t with base + t*vector == point, or None."""
        pt = tuple(Fraction(v) for v in point)
        if len(pt) != len(self.base):
            return None
        vec = self.vector()
        t = None
        for i in range(len(vec)):
            if vec[i] != 0:
                t = (pt[i] - self.base[i]) / vec[i]
                break
        if t is None:
            return None
        return t if all(self.base[i] + t * vec[i] == pt[i] for i in range(len(vec))) else None


def stereographic_unit(q: Sequence) -> tuple:
    """Exact rational unit vector in R^m from a rational point in R^{m-1}."""
    q = tuple(Fraction(v) for v in q)
    s = sum(v * v for v in q)
    return tuple(2 * v / (s + 1) for v in q) + ((s - 1) / (s + 1),)


def unit_preimage(e: np.ndarray) -> np.ndarray:
    """Float stereographic preimage of a unit vector with e[-1] != 1."""
    e = np.asarray(e, dtype=float)
    return e[:-1] / (1.0 - e[-1])


def rationalize_direction(direction: np.ndarray, tol: float) -> tuple:
    """Exact rational unit direction within ``tol`` of a float unit direction.

    Round-trips through the stereographic chart, growing the denominator
    budget until the image is close enough.  Directions that are already
    exactly rational-unit are returned unchanged.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    e = np.asarray(direction, dtype=float)
    exact = tuple(Fraction(float(v)).limit_denominator(10**9) for v in e)
    if sum(v * v for v in exact) == 1 and all(abs(float(v) - w) <= 1e-15 for v, w in zip(exact, e)):
        return exact
    flip = e[-1] > 0  # keep the chart away from its pole
    target = -e if flip else e
    q = unit_preimage(target)
    for denom in (10, 100, 10**4, 10**6, 10**9, 10**12):
        qr = tuple(Fraction(float(v)).limit_denominator(denom) for v in q)
        cand = stereographic_unit(qr)
        img = np.array([float(v) for v in cand])
        if np.linalg.norm(img - target) <= tol:
            return tuple(-v for v in cand) if flip else cand
    raise ValueError("could not rationalize the direction to the requested tolerance")


def _fractions_up_to(height: int) -> list:
    vals = {Fraction(0)}
    for q in range(1, height + 1):
        for p in range(1, height + 1):
            vals.add(Fraction(p, q))
            vals.add(Fraction(-p, q))
    return sorted(vals)


def _complexity(v: Fraction) -> int:
    return max(abs(v.numerator), v.denominator)


def enumerate_lines(height: int, n: int = 1) -> Iterator[RationalLine]:
    """Deterministic enumeration of rational horizontal lines.

    Lines are produced in increasing complexity levels: at level l every
    line representable with base numerators/denominators and integer
    direction entries bounded by l (and not representable at level l-1)
    appears.  Within a level the order is by canonical direction, then by
    canonical base.  Every line of a direction comes from that direction
    alone, so the generator builds, sorts and yields one direction's batch
    at a time and holds no more than that batch (plus the keys already
    seen).  Consume lazily; the count grows combinatorially with the level.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    seen = set()
    for level in range(1, height + 1):
        fracs = _fractions_up_to(level)
        dirs = set()
        for h in product(range(-level, level + 1), repeat=2 * n):
            if any(h):
                dirs.add(_canonical_direction(h))
        for d in sorted(dirs):
            at_level = max(abs(v) for v in d) == level
            batch = []
            for base in product(fracs, repeat=2 * n + 1):
                if not at_level and max(_complexity(v) for v in base) != level:
                    continue
                line = RationalLine(base, d)
                key = (line.direction, line.base)
                if key not in seen:
                    seen.add(key)
                    batch.append(line)
            batch.sort(key=lambda l: l.base)
            yield from batch


@dataclass(frozen=True)
class Box:
    """Axis-aligned box region, the clip region of covers and MC sampling."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("need lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def cube(cls, half_width: float, n: int) -> "Box":
        dim = 2 * n + 1
        return cls(-half_width * np.ones(dim), half_width * np.ones(dim))

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(size, len(self.lo)))

    def clip_line(self, base: np.ndarray, vec: np.ndarray):
        """Parameter interval where the line stays inside the box, or None."""
        t0, t1 = -np.inf, np.inf
        for b, v, lo, hi in zip(base, vec, self.lo, self.hi):
            if v == 0.0:
                if not (lo <= b <= hi):
                    return None
                continue
            a, b2 = (lo - b) / v, (hi - b) / v
            t0, t1 = max(t0, min(a, b2)), min(t1, max(a, b2))
        if not (np.isfinite(t0) and np.isfinite(t1)) or t0 >= t1:
            return None
        return float(t0), float(t1)


def wilson_interval(hits: int, n: int, z: float = 1.959963984540054) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need at least one sample")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# Points per group of the pair finder's cell index, and the most (group or
# point, line) pairs it tests at once.
_CELL_POINTS = 16
_PAIR_BLOCK = 1 << 15
# Each level's constant is solved against this share of its volume budget 2^-k.
_VOLUME_SAFETY = 0.99
# A refined pair scans its segment at _REFINE_GRID evenly spaced parameters,
# then takes _REFINE_GOLDEN golden-section steps around the best of them.
_REFINE_GRID = 33
_REFINE_GOLDEN = 60


def _unit_ball_volume_bound(n: int) -> float:
    # metric unit ball sits inside {|p| <= 1} x {|c| <= 1}
    return 2.0 * math.pi**n / math.factorial(n)


class Cover:
    """Nested tube covers around a finite enumeration of rational lines.

    ``radii_constants[k-1]`` is the level-k constant c_k; line i at level k
    has tube radius c_k / 2^(i+1).  The constants are solved against an
    analytic volume bound (covering each tube by metric balls), so the
    total level-k tube volume is at most 2^-k by construction.
    """

    def __init__(self, lines: Sequence[RationalLine], depth: int, clip: Box, meta: Optional[dict] = None):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if not lines:
            raise ValueError("need at least one line")
        self.clip = clip
        self.depth = depth
        self.meta = dict(meta or {})
        self.n = lines[0].n
        kept = []
        for line in lines:
            if line.n != self.n:
                raise ValueError("mixed dimensions in line enumeration")
            base, vec = line.base_float(), line.vector_float()
            span = clip.clip_line(base, vec)
            if span is not None:
                kept.append((line, span, base, vec))
        if not kept:
            raise ValueError("no line meets the clip box")
        self.lines, spans, bases, vecs = zip(*kept)
        self.spans, self._bases, self._vecs = np.asarray(spans), np.stack(bases), np.stack(vecs)
        # integer directions: the squares and their sums are exact
        self.lengths = (self.spans[:, 1] - self.spans[:, 0]) * np.linalg.norm(self._vecs[:, :-1], axis=1)
        self.radii_constants = []
        prev = math.inf
        for k, c in enumerate(self._solve_constants(2.0 ** -np.arange(1, depth + 1) * _VOLUME_SAFETY), start=1):
            c = min(float(c), prev)
            while self.volume_bound(c) > 2.0**-k:
                c *= 0.999
            self.radii_constants.append(c)
            prev = c

    def volume_bound(self, c: float) -> float:
        """Analytic upper bound of the total tube volume for constant c."""
        return float(self._volume_bounds(np.array([c]))[0])

    def _volume_bounds(self, cs: np.ndarray) -> np.ndarray:
        """:meth:`volume_bound` for each constant of ``cs``, bit for bit."""
        q = 2 * self.n + 2
        v_ball = _unit_ball_volume_bound(self.n)
        radii = np.ldexp(cs[:, None], -(np.arange(len(self.lines)) + 1))
        lengths = np.broadcast_to(self.lengths, radii.shape)
        ball = (1.5 * radii) ** q
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            terms = (lengths / radii + 1.0) * ball * v_ball
        # Where lengths/radii overflows (or radii is 0), ball has underflowed:
        # (L/r + 1)(1.5r)^q = 1.5 L (1.5r)^(q-1) + (1.5r)^q has no factor that overflows.
        bad = ~np.isfinite(terms)
        terms[bad] = (1.5 * lengths[bad] * (1.5 * radii[bad]) ** (q - 1) + ball[bad]) * v_ball
        return np.sum(terms, axis=1)

    def _solve_constants(self, targets: np.ndarray) -> np.ndarray:
        """Largest constant with volume bound at most each target: one geometric
        bisection for all targets, each stopping at its own fixed point."""
        lo, hi = np.full(len(targets), 1e-300), np.full(len(targets), 1e9)
        live = np.arange(len(targets))
        for _ in range(300):
            mid = np.sqrt(lo[live] * hi[live])
            # fixed point: the interval cannot shrink any further
            moving = (mid != lo[live]) & (mid != hi[live])
            live, mid = live[moving], mid[moving]
            if not len(live):
                break
            over = self._volume_bounds(mid) > targets[live]
            hi[live[over]] = mid[over]
            lo[live[~over]] = mid[~over]
        return lo

    def radii(self, level: int) -> np.ndarray:
        self._check_level(level)
        return np.ldexp(self.radii_constants[level - 1], -(np.arange(len(self.lines)) + 1))

    def _check_level(self, level: int):
        if not (1 <= level <= self.depth):
            raise ValueError(f"level {level} exceeds constructed depth {self.depth}")

    # -- distance machinery ------------------------------------------------

    def _planar_lower(self, pts: np.ndarray, pi: np.ndarray, li: np.ndarray) -> np.ndarray:
        """Float planar point-to-segment distances per (point, line) pair, a
        distance lower bound up to rounding."""
        h = self._vecs[li, :-1]
        p = pts[pi, :-1] - self._bases[li, :-1]
        t = _row_sums(p * h) / _row_sums(h * h)
        t = np.clip(t, self.spans[li, 0], self.spans[li, 1])
        d = pts[pi, :-1] - (self._bases[li, :-1] + t[:, None] * h)
        return np.sqrt(_row_sums(d * d))  # np.linalg.norm's sum of squares

    def _cell_order(self, planar: np.ndarray) -> np.ndarray:
        """Permutation of the points in Z-order of a cell grid.

        The grid spans the points' bounding box within the clip box (points
        outside it fall in the boundary cells), with 2^bits cells per axis.
        Interleaving the cell coordinates' bits makes every run of the order
        spatially compact, however unevenly the points are spread.
        """
        dim = planar.shape[1]
        bits = min(10, 62 // dim)
        lo = np.maximum(planar.min(axis=0), self.clip.lo[:-1])
        width = np.minimum(planar.max(axis=0), self.clip.hi[:-1]) - lo
        scale = 2.0**bits / np.where(width > 0.0, width, np.inf)
        cells = np.clip((planar - lo) * scale, 0, 2**bits - 1).astype(np.int64)
        # spread[v] holds the bits of v `dim` places apart
        spread = np.zeros(2**bits, dtype=np.int64)
        for bit in range(bits):
            spread |= ((np.arange(2**bits) >> bit) & 1) << (bit * dim)
        code = np.zeros(len(planar), dtype=np.int64)
        for j in range(dim):
            code |= spread[cells[:, j]] << j
        return np.argsort(code)

    def _candidate_pairs(self, pts: np.ndarray, needed: np.ndarray):
        """(point, line) index pairs whose :meth:`_planar_lower` is at most
        ``needed`` of the line, in no particular order, found through the
        cell index; :meth:`upper_distances` states the group bound and its
        rounding slack."""
        m, lines = len(pts), len(self.lines)
        if not m:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        size = min(_CELL_POINTS, m)
        groups = -(-m // size)
        # slot (g, k) holds the k-th point of group g in cell order; the last
        # group is padded with its last point, which ``real`` masks out
        order = self._cell_order(pts[:, :-1]) if m > size else np.arange(m)
        slot = order[np.minimum(np.arange(groups * size), m - 1)].reshape(groups, size)
        real = (np.arange(groups * size) < m).reshape(groups, size)
        coords = pts[slot, :-1].transpose(2, 0, 1)  # one (groups, size) array per axis
        centre = 0.5 * coords.min(axis=2) + 0.5 * coords.max(axis=2)
        radius = np.sqrt(np.max(sum((x - c[:, None]) ** 2 for x, c in zip(coords, centre)), axis=1))
        norm = np.sqrt(sum(x * x for x in coords))
        b, h = self._bases[:, :-1].T, self._vecs[:, :-1].T
        b2, h2, bh = np.sum(b * b, axis=0), np.sum(h * h, axis=0), np.sum(b * h, axis=0)
        reach = np.sqrt(b2) + np.max(np.abs(self.spans), axis=1) * np.sqrt(h2)

        def close(qq, qh, li, r, length):
            # squared distance to the segment, expanded: |q|^2 - 2 t q.h + t^2 |h|^2
            t = np.clip(qh / h2[li], self.spans[li, 0], self.spans[li, 1])
            d2 = qq - t * (2.0 * qh - t * h2[li])
            bound = needed[li] + r + length + reach[li]
            # not d2 > ...: a NaN from overflowing squares keeps the pair
            return ~(d2 > (needed[li] + r) ** 2 + 1e-12 * bound * bound)

        pairs = [np.empty((2, 0), dtype=np.intp)]
        per_block, step = max(1, _PAIR_BLOCK // lines), max(1, _PAIR_BLOCK // size)
        for g0 in range(0, groups, per_block):
            c = centre[:, g0 : g0 + per_block].T
            c2 = np.sum(c * c, axis=1)[:, None]
            r = radius[g0 : g0 + per_block, None]
            gi, li = np.nonzero(close(c2 + b2 - 2.0 * (c @ b), c @ h - bh, np.arange(lines), r, np.sqrt(c2)))
            gi += g0
            for k in range(0, len(gi), step):
                g, l = gi[k : k + step], li[k : k + step, None]
                q = [x[g] - y[l] for x, y in zip(coords, b)]
                qq = sum(x * x for x in q)
                qh = sum(x * y[l] for x, y in zip(q, h))
                rows, cols = np.nonzero(close(qq, qh, l, 0.0, norm[g]) & real[g])
                pi, lj = slot[g[rows], cols], l[rows, 0]
                keep = self._planar_lower(pts, pi, lj) <= needed[lj]
                pairs.append(np.stack([pi[keep], lj[keep]]))
        return tuple(np.concatenate(pairs, axis=1))

    def _refine_pairs(self, pts: np.ndarray, pi: np.ndarray, li: np.ndarray) -> np.ndarray:
        """Minimize the quick distance bound over the segment, per pair.

        All flagged (point, line) pairs advance through the grid scan and
        golden-section refinement together, as array operations: one call
        for the whole grid, and one for both probes of each golden step.
        """
        m = len(pi)
        p = pts[pi]
        bases, vecs = self._bases[li], self._vecs[li]
        t0s, t1s = self.spans[li, 0], self.spans[li, 1]

        def val(ts):
            line_pts = bases + ts.reshape(-1, m)[:, :, None] * vecs
            return cc_upper_quick(group_mul(group_inv(line_pts), p))

        us = np.linspace(0.0, 1.0, _REFINE_GRID)
        vals = val((t0s + us[:, None] * (t1s - t0s)).ravel())
        j = np.argmin(vals, axis=0)
        best = vals[j, np.arange(m)]
        a = t0s + us[np.maximum(j - 1, 0)] * (t1s - t0s)
        b = t0s + us[np.minimum(j + 1, _REFINE_GRID - 1)] * (t1s - t0s)
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        fc, fd = val(np.concatenate([c, d]))
        for _ in range(_REFINE_GOLDEN):
            left = fc < fd
            b = np.where(left, d, b)
            a = np.where(left, a, c)
            c = b - gr * (b - a)
            d = a + gr * (b - a)
            fc, fd = val(np.concatenate([c, d]))
        return np.minimum(best, np.minimum(fc, fd))

    def upper_distances(self, pts: np.ndarray, needed: np.ndarray) -> np.ndarray:
        """Per (point, line) upper distance, ``inf`` where no pair was refined.

        A pair is refined only where the float planar point-to-segment
        distance :meth:`_planar_lower`, a lower bound of the distance, does
        not exceed the per-line ``needed`` radius.  The pairs are found
        through a cell index, in three stages:

        1. The points are sorted in Z-order of a cell grid and cut into
           groups of at most ``_CELL_POINTS``; each group lies in the ball
           of radius r around the centre c of its bounding box.
        2. A group meets a line when the squared distance from c to the
           segment, expanded as |q|^2 - 2 t q.h + t^2 |h|^2 with q = c - b,
           is at most (needed + r)^2 + 1e-12 S^2, where
           S = needed + r + |c| + |b| + max|t| |h|.  By the triangle
           inequality every point of the group within ``needed`` of the
           segment leaves c within needed + r of it.  The rounding errors of
           the expansion, of the point's and the centre's distances and of
           r add up to less than 20 (2n+4) units of 2^-53 times S^2; the
           slack is about 9,000 units, so for every n below 200 no pair the
           exact test accepts is lost.  A centre whose squares overflow
           keeps all its pairs.
        3. The points of each surviving (group, line) pair take the same
           test with r = 0 and their own |p|, then :meth:`_planar_lower`
           itself.  Stages 2 and 3 each handle at most ``_PAIR_BLOCK``
           pairs at a time, so their memory does not grow with the query.

        Membership at level k needs only ``needed = radii(k)``, as radii never
        grow with the level (see the module docstring).  The dense (points,
        lines) result suits few points, such as the maximizer's ball centre;
        :meth:`contains_batch` builds none.  Raises ``ValueError`` on points
        of the wrong length or with a non-finite coordinate.
        """
        pts = self._query_points(pts)
        needed = np.asarray(needed, dtype=float)
        out = np.full((len(pts), len(self.lines)), np.inf)
        pi, li = self._candidate_pairs(pts, needed)
        if len(pi):
            out[pi, li] = self._refine_pairs(pts, pi, li)
        return out

    # -- queries -------------------------------------------------------------

    def _query_points(self, pts) -> np.ndarray:
        """``pts`` as a float batch of shape (m, 2n+1); ``ValueError`` on any
        other point length or on a non-finite coordinate."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2 * self.n + 1:
            raise ValueError(f"points of this cover have length {2 * self.n + 1}, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        return pts

    def contains(self, x, level: int) -> bool:
        """Point lies in every tube union up to ``level`` (certified side).

        Accepts a float array, or fractions as a sequence or an object array;
        exact inputs that lie on an enumerated line are members at every level.
        Raises ``ValueError`` on a point of the wrong length or a non-finite one.
        """
        self._check_level(level)
        x = np.asarray(x)
        pt = self._query_points(x.astype(float)[None, :])
        if x.dtype == object:
            for i, line in enumerate(self.lines):
                t = line.incidence_parameter(x)
                if t is not None and self.spans[i, 0] - 1e-12 <= float(t) <= self.spans[i, 1] + 1e-12:
                    return True
        return bool(self.contains_batch(pt, level)[0])

    def contains_batch(self, pts: np.ndarray, level: int) -> np.ndarray:
        """Per point: an upper distance to some line is within its level radius.

        Radii never grow with the level, so this is membership at every level
        up to ``level`` (see the module docstring).  The pairs of
        :meth:`upper_distances` at the level's radii reduce straight into the
        membership vector, with no dense (points, lines) matrix.
        """
        self._check_level(level)
        pts = self._query_points(pts)
        radii = self.radii(level)
        member = np.zeros(len(pts), dtype=bool)
        pi, li = self._candidate_pairs(pts, radii)
        if len(pi):
            member[pi[self._refine_pairs(pts, pi, li) <= radii[li]]] = True
        return member

    def cover_measure_mc(self, level: int, region: Box, n_samples: int, seed: int):
        """Monte-Carlo volume of the level-``level`` tube union inside region.

        Returns (volume estimate, (ci_lo, ci_hi)) with a 95% binomial
        confidence interval, in absolute volume units.
        """
        if n_samples < 1000:
            raise ValueError("need at least 1000 samples")
        self._check_level(level)
        rng = np.random.default_rng(seed)
        hits = 0
        chunk = 20000
        done = 0
        while done < n_samples:
            take = min(chunk, n_samples - done)
            pts = region.sample(rng, take)
            hits += int(np.sum(self.contains_batch(pts, level)))
            done += take
        lo, hi = wilson_interval(hits, n_samples)
        vol = region.volume
        return (hits / n_samples) * vol, (lo * vol, hi * vol)

    def curve_in_cover(self, path: HorizontalPath, level: int, samples: int = 64) -> bool:
        """All sampled points of the path are members at ``level``.

        Paths carrying exact rational knot data are sampled at rational
        parameters and tested by exact incidence, so curves assembled from
        enumerated lines pass at every constructed level.
        """
        self._check_level(level)
        if path.rational is not None:
            _, rows, c0 = path.rational
            rows = np.array(rows, dtype=object)
            vertices = np.column_stack([rows, lift_heights(rows, c0)])
            per_seg = max(2, samples // (len(rows) - 1))
            for a, b in zip(vertices, vertices[1:]):
                for step in range(per_seg + 1):
                    if not self.contains(a + Fraction(step, per_seg) * (b - a), level):
                        return False
            return True
        ts = np.unique(np.concatenate([path.knots, np.linspace(path.t_min, path.t_max, samples)]))
        return bool(np.all(self.contains_batch(path.eval(ts), level)))

    def manifest(self) -> dict:
        bounds = [self.volume_bound(c) for c in self.radii_constants]
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError(f"non-finite tube volume bound in {bounds}")
        return {
            "n": self.n,
            "depth": self.depth,
            "line_count": len(self.lines),
            "clip_lo": self.clip.lo.tolist(),
            "clip_hi": self.clip.hi.tolist(),
            "radii_constants": [float(c) for c in self.radii_constants],
            "volume_targets": [2.0**-k for k in range(1, self.depth + 1)],
            "volume_bounds": bounds,
            "tube_model": "metric neighborhoods of clipped line segments",
            # construction is deterministic: no randomness enters the build
            "seed": None,
            **self.meta,
        }

    def save_manifest(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)

    @classmethod
    def build(
        cls,
        n: int = 1,
        height: int = 8,
        depth: int = 12,
        clip_half_width: float = 10.0,
        max_lines: int = 256,
        extra_lines: Iterable[RationalLine] = (),
    ) -> "Cover":
        """Cover over the first ``max_lines`` enumerated lines plus extras.

        ``extra_lines`` are prepended (they receive the largest tube radii),
        deduplicated against the enumeration.
        """
        lines = list(extra_lines)
        n_extra = len(lines)
        seen = {(l.direction, l.base) for l in lines}
        target = max(max_lines, len(lines))
        for line in enumerate_lines(height, n):
            if len(lines) >= target:
                break
            key = (line.direction, line.base)
            if key not in seen:
                seen.add(key)
                lines.append(line)
        meta = {"height": height, "max_lines": max_lines, "extra_lines": n_extra}
        return cls(lines, depth, Box.cube(clip_half_width, n), meta=meta)


def lines_of_path(path: HorizontalPath) -> list:
    """Exact rational lines supporting each segment of a rational path."""
    if path.rational is None:
        raise ValueError("path carries no exact rational knot data")
    _, rows, c0 = path.rational
    heights = lift_heights(np.array(rows, dtype=object), c0)
    out = []
    for j in range(len(rows) - 1):
        diff = [b - a for a, b in zip(rows[j], rows[j + 1])]
        if all(v == 0 for v in diff):
            continue
        denom_lcm = 1
        for v in diff:
            denom_lcm = denom_lcm * v.denominator // math.gcd(denom_lcm, v.denominator)
        ints = [int(v * denom_lcm) for v in diff]
        base = tuple(rows[j]) + (heights[j],)
        out.append(RationalLine(base, tuple(ints)))
    return out
