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
Membership then drops the pairs whose relative height, affine along the
line, stays above the squared radius wherever the projection could be
within it (see :meth:`Cover._may_reach`), and needs only one pair per point
within its radius, so the pairs of a point that the grid scan of the
refinement already places inside a tube skip the golden section.  The same
route, taken once at the level-1 radii, gives every point its deepest
level, so one query answers membership at all levels
(:meth:`Cover.deepest_levels`).

The volume bound covers the tube of line i, of length L_i and radius
r_i = c 2^-(i+1), by L_i / r_i + 1 metric balls of radius 1.5 r_i, each of
volume at most v (1.5 r_i)^q with q = 2n+2 and v = 2 pi^n / n!.  Summed
over the lines, that is V(c) = v 1.5^q (A c^(q-1) + B c^q) with
A = sum L_i 2^-(i+1)(q-1) and B = sum 2^-(i+1)q, two sums a cover takes
once and exactly.  One float bisection solves every level's constant
against 0.99 2^-k; each level is then certified in exact arithmetic, with
pi rounded up, as V(c_k) <= 2^-k, and :meth:`Cover.volume_bound` is that
exact V rounded up to a float.  Depths up to 1074 build, 2^-1074 being the
last target that is a float.

Bases and directions are exact, held as Python integers: a rational point
whose entries share a denominator q is an integer point under the dilation
that scales the projection by q and the height by q^2, and lines are
enumerated, keyed and tested for incidence in those integers.  ``Fraction``
is only a boundary format, for input and for the exact views of a line.
Geometry queries convert to floats, except that points given as fractions
are tested for incidence exactly, so points lying on an enumerated line are
members at every level regardless of how small the radii get.
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
from .group import _row_sums, group_mul

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


def _common(ratios: Iterable[tuple]) -> tuple:
    """``(numerators, d)``: the fractions a / b of the pairs ``ratios`` over their least common denominator d."""
    ratios = list(ratios)
    den = math.lcm(*(b for _, b in ratios))
    return tuple(a * (den // b) for a, b in ratios), den


def _exact_point(values: Sequence) -> tuple:
    """``(proj, den, height, hden)``: a rational point (ints, fractions or floats)
    in integers, its projection over one least common denominator."""
    proj, den = _common(Fraction(v).as_integer_ratio() for v in values[:-1])
    return (proj, den, *Fraction(values[-1]).as_integer_ratio())


def _omega(h: tuple, p: tuple) -> int:
    """<h_a, p_b> - <h_b, p_a>; a line of direction h through p / d has vector height 2 omega / d."""
    n = len(h) // 2
    return sum(h[i] * p[n + i] - h[n + i] * p[i] for i in range(n))


class RationalLine:
    """Horizontal line through an exact rational base with rational direction.

    ``direction`` is stored as a primitive integer vector (content 1, first
    nonzero entry positive); the line is t -> base + t * E(base) where E is
    the horizontal field with these frame coefficients.  The base is the
    point whose projection is orthogonal to the direction, held as integers
    over one reduced denominator for the projection and one for the height;
    ``key`` collects them, a key for the line as a point set.  ``base``,
    :meth:`vector` and :meth:`point_at` are exact fractions, and the float
    views divide the integers, which rounds correctly.
    """

    __slots__ = ("direction", "key", "_proj", "_den", "_height", "_hden", "_twist", "_base")

    def __init__(self, base: Sequence, direction: Sequence[int]):
        direction = _canonical_direction(direction)
        if len(direction) % 2:
            raise ValueError(f"direction must have even length 2n, got length {len(direction)}")
        if len(base) != len(direction) + 1:
            raise ValueError("base must have length 2n+1 for a 2n direction")
        proj, den, height, hden = _exact_point(base)
        h2, s = sum(v * v for v in direction), sum(p * v for p, v in zip(proj, direction))
        # the canonical base is base + t* vector, t* = -<p, h> / |h|^2, and the
        # vector's height is 2 omega(h, p) / den
        canon = tuple(p * h2 - s * v for p, v in zip(proj, direction))
        shift = 2 * hden * s * _omega(direction, proj)
        self._set(direction, canon, den * h2, height * den * den * h2 - shift, hden * den * den * h2)

    @classmethod
    def _canonical(cls, direction: tuple, proj: tuple, den: int, height: int, hden: int) -> "RationalLine":
        """The line of a primitive ``direction`` through its canonical base (proj / den, height / hden)."""
        line = object.__new__(cls)
        line._set(direction, proj, den, height, hden)
        return line

    def _set(self, direction: tuple, proj: tuple, den: int, height: int, hden: int) -> None:
        g, gh = math.gcd(den, *proj), math.gcd(height, hden)
        self.direction, self._proj, self._den = direction, tuple(p // g for p in proj), den // g
        self._height, self._hden = height // gh, hden // gh
        self._twist = 2 * _omega(direction, self._proj)
        self.key = (direction, self._proj, self._den, self._height, self._hden)
        self._base = None

    @property
    def n(self) -> int:
        return len(self.direction) // 2

    @property
    def base(self) -> tuple:
        if self._base is None:
            self._base = tuple(Fraction(p, self._den) for p in self._proj) + (Fraction(self._height, self._hden),)
        return self._base

    def vector(self) -> tuple:
        """Exact direction vector of the line in R^{2n+1} (constant along it)."""
        return tuple(Fraction(v) for v in self.direction) + (Fraction(self._twist, self._den),)

    def base_float(self) -> np.ndarray:
        return np.array([p / self._den for p in self._proj] + [self._height / self._hden])

    def vector_float(self) -> np.ndarray:
        return np.array([float(v) for v in self.direction] + [self._twist / self._den])

    def point_at(self, t: Fraction) -> tuple:
        return tuple(b + t * v for b, v in zip(self.base, self.vector()))

    def incidence_parameter(self, point: Sequence) -> Optional[Fraction]:
        """Exact parameter t with base + t*vector == point, or None."""
        return self._incidence(*_exact_point(point)) if len(point) == len(self.direction) + 1 else None

    def _incidence(self, proj: tuple, den: int, height: int, hden: int) -> Optional[Fraction]:
        """:meth:`incidence_parameter` of (proj / den, height / hden), by cross-multiplication:
        with q the line's denominator, z = q proj - den base_proj must be
        parallel to h, and t = z_k / (den q h_k) at the first nonzero h_k."""
        q, h = self._den, self.direction
        z = [q * p - den * b for p, b in zip(proj, self._proj)]
        k = next(i for i, v in enumerate(h) if v)
        if any(zi * h[k] != z[k] * hi for zi, hi in zip(z, h)):
            return None
        # height / hden == _height / _hden + t twist / q, times hden _hden den q^2 h_k
        scale = den * q * q * h[k]
        if height * self._hden * scale != hden * (self._height * scale + z[k] * self._twist * self._hden):
            return None
        return Fraction(z[k], den * q * h[k])


def _stereographic(proj: tuple, den: int) -> tuple:
    """``(numerators, s)``: the stereographic unit image of proj / den over one denominator s."""
    p2, d2 = sum(v * v for v in proj), den * den
    return tuple(2 * v * den for v in proj) + (p2 - d2,), p2 + d2


def stereographic_unit(q: Sequence) -> tuple:
    """Exact rational unit vector in R^m from a rational point in R^{m-1}."""
    nums, s = _stereographic(*_common(Fraction(v).as_integer_ratio() for v in q))
    return tuple(Fraction(v, s) for v in nums)


def unit_preimage(e: np.ndarray) -> np.ndarray:
    """Float stereographic preimage of a unit vector with e[-1] != 1."""
    e = np.asarray(e, dtype=float)
    return e[:-1] / (1.0 - e[-1])


def _limit_denominator(x: float, max_den: int) -> tuple:
    """``Fraction(x).limit_denominator(max_den)`` as (numerator, denominator), by the same continued fraction."""
    num, den = float(x).as_integer_ratio()
    if den <= max_den:
        return num, den
    p0, q0, p1, q1, n, d = 0, 1, 1, 0, num, den
    while q0 + (n // d) * q1 <= max_den:
        a = n // d
        p0, q0, p1, q1, n, d = p1, q1, p0 + a * p1, q0 + a * q1, d, n - a * d
    k = (max_den - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # the nearer of the two bounds, p1 / q1 on a tie
    return (p1, q1) if abs(p1 * den - num * q1) * q2 <= abs(p2 * den - num * q2) * q1 else (p2, q2)


def _rational_unit(direction: np.ndarray, tol: float) -> tuple:
    """:func:`rationalize_direction` as ``(numerators, d)`` over one denominator d."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    e = np.asarray(direction, dtype=float)
    exact = [_limit_denominator(v, 10**9) for v in e]
    nums, den = _common(exact)
    if sum(v * v for v in nums) == den * den and all(abs(a / b - w) <= 1e-15 for (a, b), w in zip(exact, e)):
        return nums, den
    flip = e[-1] > 0  # keep the chart away from its pole
    target = -e if flip else e
    q = unit_preimage(target)
    for denom in (10, 100, 10**4, 10**6, 10**9, 10**12):
        nums, s = _stereographic(*_common(_limit_denominator(v, denom) for v in q))
        if np.linalg.norm(np.array([v / s for v in nums]) - target) <= tol:
            return (tuple(-v for v in nums) if flip else nums), s
    raise ValueError("could not rationalize the direction to the requested tolerance")


def rationalize_direction(direction: np.ndarray, tol: float) -> tuple:
    """Exact rational unit direction within ``tol`` of a float unit direction.

    Round-trips through the stereographic chart, growing the denominator
    budget until the image is close enough.  Directions that are already
    exactly rational-unit are returned unchanged.
    """
    nums, den = _rational_unit(direction, tol)
    return tuple(Fraction(v, den) for v in nums)


def enumerate_lines(height: int, n: int = 1) -> Iterator[RationalLine]:
    """Deterministic enumeration of rational horizontal lines.

    Lines are produced in increasing complexity levels: at level l every
    line representable with base numerators/denominators and integer
    direction entries bounded by l (and not representable at level l-1)
    appears.  Within a level the order is by canonical direction, then by
    canonical base.  Every line of a direction comes from that direction
    alone, so the generator sorts and yields one direction's batch at a
    time and holds no more than that batch (plus the keys already seen).
    Consume lazily; the count grows combinatorially with the level.  With
    base entries scaled by L = lcm(1..height), the canonical bases of a
    direction h are integers in units of 1/(L |h|^2) on the projection and
    1/(L^2 |h|^2) in height: sorted, they are in base order, and equal ones
    are the same line.  A line object is built only when it is yielded.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    scale = math.lcm(*range(1, height + 1))
    seen = {}
    for level in range(1, height + 1):
        # (L v, complexity of v) for v = p/q with |p|, q <= level, in increasing order
        span = range(-level, level + 1)
        vals = sorted({p * scale // q: max(abs(p), q) // math.gcd(p, q) for q in range(1, level + 1) for p in span}.items())
        for d in sorted({_canonical_direction(h) for h in product(span, repeat=2 * n) if any(h)}):
            h2 = sum(v * v for v in d)
            heights = [c * scale * h2 for c, _ in vals]
            top_heights = [c * scale * h2 for c, cx in vals if cx == level]
            at_level = max(abs(v) for v in d) == level
            done = seen.setdefault(d, set())
            batch = []
            for point in product(vals, repeat=2 * n):
                proj = tuple(v for v, _ in point)
                s = sum(p * v for p, v in zip(proj, d))
                canon = tuple(p * h2 - s * v for p, v in zip(proj, d))
                shift = 2 * s * _omega(d, proj)
                # below the level, only bases with an entry of complexity l are new
                for c in heights if at_level or max(cx for _, cx in point) == level else top_heights:
                    key = (canon, c - shift)
                    if key not in done:
                        done.add(key)
                        batch.append(key)
            for canon, c in sorted(batch):
                yield RationalLine._canonical(d, canon, scale * h2, c, scale * scale * h2)


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

    def clip_lines(self, bases: np.ndarray, vecs: np.ndarray) -> tuple:
        """``(spans, meets)`` for the lines base + t vec, one per row: the
        parameter interval (t0, t1) where each line stays inside the box, and
        whether it has one (a finite interval of positive length).

        Coordinate by coordinate, t0 grows to the entry time and t1 shrinks
        to the exit time, with the choices of Python's ``max`` and ``min``; a
        zero component keeps the line only if its base lies within the slab.
        """
        t0, t1 = np.full(len(bases), -np.inf), np.full(len(bases), np.inf)
        meets = np.ones(len(bases), dtype=bool)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for b, v, lo, hi in zip(bases.T, vecs.T, self.lo, self.hi):
                flat = v == 0.0
                meets &= ~flat | ((lo <= b) & (b <= hi))
                a, b2 = (lo - b) / v, (hi - b) / v
                enter, leave = np.where(b2 < a, b2, a), np.where(b2 > a, b2, a)
                t0 = np.where(~flat & (enter > t0), enter, t0)
                t1 = np.where(~flat & (leave < t1), leave, t1)
        meets &= np.isfinite(t0) & np.isfinite(t1) & ~(t0 >= t1)
        return np.stack([t0, t1], axis=1), meets


def wilson_interval(hits: int, n: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054  # the 97.5% standard normal quantile
    if n <= 0:
        raise ValueError("need at least one sample")
    if not 0 <= hits <= n:
        raise ValueError(f"hits must lie in [0, n] = [0, {n}], got {hits}")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# Points per group of the pair finder's cell index, and the most (group or
# point, line) pairs it tests at once.
_CELL_POINTS = 16
_PAIR_BLOCK = 1 << 14
# Each level's constant is solved against this share of its volume budget 2^-k.
_VOLUME_SAFETY = 0.99
# 2^-1074, the least subnormal, is the last volume target that is a float.
_MAX_DEPTH = 1074
# A refined pair scans its segment at _REFINE_GRID evenly spaced parameters,
# then takes _REFINE_GOLDEN golden-section steps around the best of them.
_REFINE_GRID = 33
_REFINE_GOLDEN = 60


def _unit_ball_volume_bound(n: int) -> Fraction:
    # metric unit ball sits inside {|p| <= 1} x {|c| <= 1}; float pi is below
    # pi, so it is rounded up
    return 2 * Fraction(math.nextafter(math.pi, math.inf)) ** n / math.factorial(n)


class Cover:
    """Nested tube covers around a finite enumeration of rational lines.

    ``radii_constants[k-1]`` is the level-k constant c_k; line i at level k
    has tube radius c_k / 2^(i+1), rounded down to a float.  The constants
    are solved against an analytic volume bound V (covering each tube by
    metric balls, see the module docstring), and every level is certified
    in exact arithmetic: V(c_k) <= 2^-k, or the build raises ``ValueError``
    naming the level.  Depths from 1 to 1074 build.  Tube membership is
    :meth:`contains_batch` at one level and :meth:`deepest_levels` at all
    of them, both through the pruned pairs of :meth:`_deepest`.
    """

    def __init__(self, lines: Sequence[RationalLine], depth: int, clip: Box, meta: Optional[dict] = None):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth > _MAX_DEPTH:
            raise ValueError(f"depth must be at most {_MAX_DEPTH}, the last level whose target 2^-k is a float, "
                             f"got {depth}")
        if not lines:
            raise ValueError("need at least one line")
        self.clip = clip
        self.depth = depth
        self.meta = dict(meta or {})
        self.n = lines[0].n
        if any(line.n != self.n for line in lines):
            raise ValueError("mixed dimensions in line enumeration")
        bases = np.array([line.base_float() for line in lines])
        vecs = np.array([line.vector_float() for line in lines])
        spans, meets = clip.clip_lines(bases, vecs)
        if not meets.any():
            raise ValueError("no line meets the clip box")
        self.lines = tuple(line for line, keep in zip(lines, meets) if keep)
        self.spans, self._bases, self._vecs = spans[meets], bases[meets], vecs[meets]
        # integer directions: the squares and their sums are exact
        self.lengths = (self.spans[:, 1] - self.spans[:, 0]) * np.linalg.norm(self._vecs[:, :-1], axis=1)
        self._closed_form()
        self.radii_constants = np.minimum.accumulate(self._solve_constants(depth)).tolist()
        for k, c in enumerate(self.radii_constants, start=1):
            if not self.volume_bound(c) <= math.ldexp(1.0, -k):
                raise ValueError(f"level {k}: the tube volume bound of constant {c!r} exceeds 2^-{k}")

    def volume_bound(self, c: float) -> float:
        """Analytic upper bound of the total tube volume for constant c: V(c)
        in exact arithmetic, with pi rounded up, rounded up to a float."""
        if not (math.isfinite(c) and c >= 0.0):
            raise ValueError(f"constant must be finite and >= 0, got {c}")
        c = Fraction(c)
        v = self._scale * c ** (2 * self.n + 1) * (self._a + self._b * c)
        f = float(v)
        return f if v <= f else math.nextafter(f, math.inf)

    def _closed_form(self) -> None:
        """Sum A = sum L_i 2^-(i+1)(q-1) and B = sum 2^-(i+1)q, q = 2n+2, of
        V(c) = v 1.5^q (A c^(q-1) + B c^q), and the factor v 1.5^q, exactly."""
        q, m = 2 * self.n + 2, len(self.lines)
        # each term is an integer over a power of two: (numerator, exponent)
        terms = [(num, den.bit_length() - 1 + i * (q - 1)) for i, (num, den) in
                 enumerate((length.as_integer_ratio() for length in self.lengths.tolist()), start=1)]
        top = max(e for _, e in terms)
        self._a = Fraction(sum(num << (top - e) for num, e in terms), 1 << top)
        self._b = Fraction((1 << m * q) - 1, ((1 << q) - 1) << m * q)
        self._scale = _unit_ball_volume_bound(self.n) * Fraction(3, 2) ** q

    def _solve_constants(self, depth: int) -> np.ndarray:
        """Per level k up to ``depth``, the largest constant c whose float
        V(c) 2^k is at most ``_VOLUME_SAFETY``: one geometric bisection for all
        levels, each stopping at its own fixed point.  With c = f 2^e, f in
        [1/2, 1), V(c) 2^k is v 1.5^q f^(q-1) (A + B c) scaled by 2^(e(q-1) + k),
        so no factor underflows."""
        scale, a, b, q = float(self._scale), float(self._a), float(self._b), 2 * self.n + 2
        ks = np.arange(1, depth + 1)
        lo, hi = np.full(depth, 1e-300), np.full(depth, 1e9)
        live = np.arange(depth)
        for _ in range(300):
            prod = lo[live] * hi[live]
            # below the normal range the product loses bits, down to 0 (from
            # constants under 3e-146 on); the product of the roots does not
            mid = np.where(prod >= np.finfo(float).tiny, np.sqrt(prod), np.sqrt(lo[live]) * np.sqrt(hi[live]))
            # fixed point: the interval cannot shrink any further
            moving = (mid != lo[live]) & (mid != hi[live])
            live, mid = live[moving], mid[moving]
            if not len(live):
                break
            f, e = np.frexp(mid)
            over = np.ldexp(scale * f ** (q - 1) * (a + b * mid), e * (q - 1) + ks[live]) > _VOLUME_SAFETY
            hi[live[over]] = mid[over]
            lo[live[~over]] = mid[~over]
        return lo

    def radii(self, level: int) -> np.ndarray:
        """Tube radii at a level, each at most the exact c_k 2^-(i+1): below
        the normal range ldexp rounds to nearest, so a radius that rounded up
        steps one ulp toward 0 (the test ldexp(r, i+1) > c_k is exact)."""
        self._check_level(level)
        c, shifts = self.radii_constants[level - 1], np.arange(1, len(self.lines) + 1)
        r = np.ldexp(c, -shifts)
        return np.where(np.ldexp(r, shifts) > c, np.nextafter(r, 0.0), r)

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
        # column by column: numpy reduces a short axis of many rows one row at a time
        lo = np.maximum([x.min() for x in planar.T], self.clip.lo[:-1])
        width = np.minimum([x.max() for x in planar.T], self.clip.hi[:-1]) - lo
        # capped: a width below float resolution would make it inf, and 0 inf NaN
        scale = np.minimum(2.0**bits / np.where(width > 0.0, width, np.inf), np.finfo(float).max)
        cells = np.clip((planar - lo) * scale, 0, 2**bits - 1).astype(np.int64)
        # spread[v] holds the bits of v `dim` places apart
        spread = np.zeros(2**bits, dtype=np.int64)
        for bit in range(bits):
            spread |= ((np.arange(2**bits) >> bit) & 1) << (bit * dim)
        code = np.zeros(len(planar), dtype=np.int64)
        for j in range(dim):
            code |= spread[cells[:, j]] << j
        return np.argsort(code)

    # far points overflow squares here and in the two methods it calls: a NaN
    # keeps a pair where a test reads "not above", an inf drops it
    @np.errstate(over="ignore", invalid="ignore")
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
        # numpy reduces a short inner axis one row at a time: reduce over the outer one
        by_slot = np.ascontiguousarray(coords.transpose(2, 0, 1))
        centre = 0.5 * by_slot.min(axis=0) + 0.5 * by_slot.max(axis=0)
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

        def nonzero(mask):
            # np.nonzero's (row, column) pairs in its row-major order
            return np.divmod(np.flatnonzero(mask), mask.shape[1])

        pairs = [np.empty((2, 0), dtype=np.intp)]
        per_block, step = max(1, _PAIR_BLOCK // lines), max(1, _PAIR_BLOCK // size)
        for g0 in range(0, groups, per_block):
            c = centre[:, g0 : g0 + per_block].T
            c2 = np.sum(c * c, axis=1)[:, None]
            r = radius[g0 : g0 + per_block, None]
            gi, li = nonzero(close(c2 + b2 - 2.0 * (c @ b), c @ h - bh, np.arange(lines), r, np.sqrt(c2)))
            gi += g0
            for k in range(0, len(gi), step):
                g, l = gi[k : k + step], li[k : k + step, None]
                q = [x[g] - y[l] for x, y in zip(coords, b)]
                qq = sum(x * x for x in q)
                qh = sum(x * y[l] for x, y in zip(q, h))
                rows, cols = nonzero(close(qq, qh, l, 0.0, norm[g]) & real[g])
                pi, lj = slot[g[rows], cols], l[rows, 0]
                keep = self._planar_lower(pts, pi, lj) <= needed[lj]
                pairs.append(np.stack([pi[keep], lj[keep]]))
        return tuple(np.concatenate(pairs, axis=1))

    def _refine_pairs(self, pts: np.ndarray, pi: np.ndarray, li: np.ndarray, settle: Optional[np.ndarray] = None,
                      slack: float = 0.0) -> np.ndarray:
        """Minimize the quick distance bound over the segment, per pair.

        All flagged (point, line) pairs advance through the grid scan and
        golden-section refinement together, as array operations: one call
        for the whole grid, and one for both probes of each golden step.
        With per-line radii ``settle``, the pairs of a point with some pair
        whose grid best satisfies ``best + slack <= settle[li]`` skip the
        golden section and keep their grid value, which the refinement could
        only lower: a test ``dist + s <= settle`` with 0 <= s <= slack is
        then true for the point either way.
        """
        p, nbases, vecs = pts[pi], -self._bases[li], self._vecs[li]
        t0s, t1s = self.spans[li, 0], self.spans[li, 1]

        def val(ts):
            # x^-1 p for x = b + t v: -b - t v rounds as -(b + t v) does, up to
            # the sign of an exact zero, which the quick bound squares away
            return cc_upper_quick(group_mul(nbases - ts[:, :, None] * vecs, p))

        us = np.linspace(0.0, 1.0, _REFINE_GRID)
        vals = val(t0s + us[:, None] * (t1s - t0s))
        j = np.argmin(vals, axis=0)
        best = vals[j, np.arange(len(pi))]
        a = t0s + us[np.maximum(j - 1, 0)] * (t1s - t0s)
        b = t0s + us[np.minimum(j + 1, _REFINE_GRID - 1)] * (t1s - t0s)
        refine = slice(None)
        if settle is not None:
            settled = np.zeros(len(pts), dtype=bool)
            settled[pi[best + slack <= settle[li]]] = True
            refine = ~settled[pi]
            if not refine.any():
                return best
        # val reads the pairs still refined
        p, nbases, vecs, a, b = p[refine], nbases[refine], vecs[refine], a[refine], b[refine]
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        # the probes c = b - gr (b - a) and d = a + gr (b - a), as the rows of cd
        cd = np.empty((2, len(a)))
        for step in range(_REFINE_GOLDEN + 1):
            if step:
                left = fc < fd
                b = np.where(left, cd[1], b)
                a = np.where(left, a, cd[0])
            w = gr * (b - a)
            np.subtract(b, w, out=cd[0])
            np.add(a, w, out=cd[1])
            fc, fd = val(cd)
        best[refine] = np.minimum(best[refine], np.minimum(fc, fd))
        return best

    def _may_reach(self, pts: np.ndarray, pi: np.ndarray, li: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Per (point, line) pair: False where a lower bound of the distance
        puts the point outside its tube, so that no value :meth:`_refine_pairs`
        takes along the segment is within ``radii[li]``.

        For x(t) = b + t v and the point p, z(t) = x(t)^-1 p has projection
        P(t) = p - b - t h (h the direction) and, by the group law, the
        height C(t) = C0 + t C1 with C0 = p_c - b_c + 2 w(b, p) and
        C1 = -v_c + 2 w(h, p), where w(u, y) = <u_a, y_b> - <u_b, y_a> on the
        projections.  The quick bound of z is at least max(|P|, sqrt|C|): its
        split route is |P| + sqrt(pi |C|) and its two-leg route
        sqrt(|P|^2 + C^2 / |P|^2) >= sqrt(2 |C|), margins of sqrt(2) and
        sqrt(pi) over sqrt|C| that its own rounding does not use up.  As
        |P(t)| >= |h| |t - t_c|, t_c the parameter nearest p, a value within
        rho needs some t in W = [t0, t1] and [t_c - rho / |h|, t_c + rho / |h|]
        with |C(t)| <= rho^2.  C is affine, so the least |C| on W is at an end
        of W, or 0 where C changes sign.  The pair is dropped where W is empty,
        or where C has one sign at both ends and exceeds rho^2 there.

        Slack, in the style of :meth:`upper_distances`' stage 2: with
        T = max(|t0|, |t1|) and S = 1e-100 + rho + |p| + |b| + T |h| +
        sqrt|p_c| + sqrt|b_c| (|p| and |b| of the projections), every term
        of a height computed here or by :meth:`_refine_pairs` at a parameter
        of the segment is at most S^2, and so is |C1| times the rounding of
        a window end or of a parameter of the refinement.  Each side rounds
        within 20 (2n + 4) units of 2^-53 times S^2 on the height, and times
        S on |P|; W is widened to (rho + 1e-12 S) / |h| and the height bound
        is rho^2 + 1e-12 S^2, about 9,000 units, so for every n below 200 no
        pair whose refinement could meet its radius is dropped.  The floor
        1e-100 keeps the slack above the absolute error of squares that
        underflow.  A NaN from overflowing products keeps the pair.
        """
        n, p, b, v, rho = self.n, pts[pi], self._bases[li], self._vecs[li], radii[li]
        pp, bp, h = p[:, :-1], b[:, :-1], v[:, :-1]
        t0, t1 = self.spans[li, 0], self.spans[li, 1]

        def w(u, y):
            return _row_sums(u[:, :n] * y[:, n:]) - _row_sums(u[:, n:] * y[:, :n])

        with np.errstate(over="ignore", invalid="ignore"):
            c0 = p[:, -1] - b[:, -1] + 2.0 * w(bp, pp)
            c1 = 2.0 * w(h, pp) - v[:, -1]
            hn = np.sqrt(_row_sums(h * h))
            s = (1e-100 + rho + np.sqrt(_row_sums(pp * pp)) + np.sqrt(_row_sums(bp * bp))
                 + np.maximum(np.abs(t0), np.abs(t1)) * hn + np.sqrt(np.abs(p[:, -1])) + np.sqrt(np.abs(b[:, -1])))
            tc = _row_sums((pp - bp) * h) / (hn * hn)
            half = (rho + 1e-12 * s) / hn
            w0, w1 = np.maximum(t0, tc - half), np.minimum(t1, tc + half)
            e0, e1 = c0 + w0 * c1, c0 + w1 * c1
            out = (w0 > w1) | ((e0 * e1 > 0.0) & (np.minimum(np.abs(e0), np.abs(e1)) > rho * rho + 1e-12 * s * s))
        return ~out

    def upper_distances(self, pts: np.ndarray, needed: np.ndarray, slack: Optional[float] = None) -> np.ndarray:
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
           keeps all its pairs.  Overflow warns nothing, in any stage: a
           NaN keeps its pair for the next test, an infinite distance drops it.
        3. The points of each surviving (group, line) pair take the same
           test with r = 0 and their own |p|, then :meth:`_planar_lower`
           itself.  Stages 2 and 3 each handle at most ``_PAIR_BLOCK``
           pairs at a time, so their memory does not grow with the query.

        Membership at level k needs only ``needed = radii(k)``, as radii never
        grow with the level (see the module docstring).  The dense (points,
        lines) result suits few points, such as the maximizer's ball centre;
        :meth:`contains_batch` and :meth:`deepest_levels` build none.  With a
        ``slack``, a point whose grid scan already gives some line
        ``dist + slack <= needed`` keeps its grid values, upper distances no
        smaller than the refined ones (see :meth:`_refine_pairs`); other
        points are refined in full.
        Raises ``ValueError`` on points of the wrong length or with a
        non-finite coordinate, on ``needed`` other than one finite radius
        >= 0 per line, and on a ``slack`` that is not finite and >= 0.
        """
        pts = self._query_points(pts)
        needed = np.asarray(needed, dtype=float)
        if needed.shape != (len(self.lines),) or not np.all(np.isfinite(needed) & (needed >= 0.0)):
            raise ValueError(
                f"needed must hold one finite radius >= 0 per line, shape ({len(self.lines)},), got shape {needed.shape}"
            )
        if slack is not None and not (math.isfinite(slack) and slack >= 0.0):
            raise ValueError(f"slack must be finite and >= 0, got {slack}")
        out = np.full((len(pts), len(self.lines)), np.inf)
        pi, li = self._candidate_pairs(pts, needed)
        if len(pi):
            out[pi, li] = self._refine_pairs(pts, pi, li, None if slack is None else needed, slack or 0.0)
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
        if x.dtype == object and self._on_a_line(_exact_point(x)):
            return True
        return bool(self.contains_batch(pt, level)[0])

    def _on_a_line(self, point: tuple) -> bool:
        """An exact point, as :func:`_exact_point` gives it, lies on the clipped
        segment of some line (with 1e-12 slack on the parameter)."""
        for line, (t0, t1) in zip(self.lines, self.spans):
            t = line._incidence(*point)
            if t is not None and t0 - 1e-12 <= float(t) <= t1 + 1e-12:
                return True
        return False

    def contains_batch(self, pts: np.ndarray, level: int) -> np.ndarray:
        """Per point: an upper distance to some line is within its level radius.

        Radii never grow with the level, so this is membership at every level
        up to ``level`` (see the module docstring): the points whose
        :meth:`deepest_levels` reach ``level``, found by the same pruned
        pairs, taken at the level's own radii.
        """
        self._check_level(level)
        return self._deepest(self._query_points(pts), level, level) == level

    def deepest_levels(self, pts: np.ndarray) -> np.ndarray:
        """Per point, the deepest level k whose tube union contains it, 0 if
        none does: the point is a member at every level up to k and at none
        deeper (see :meth:`contains_batch`).  One query answers every
        level, with no dense (points, lines) matrix.
        """
        return self._deepest(self._query_points(pts), 1, self.depth)

    def _deepest(self, pts: np.ndarray, first: int, last: int) -> np.ndarray:
        """Per point, the deepest level from ``first`` to ``last`` within
        whose radius some upper distance falls, ``first - 1`` where none does.

        The pairs of :meth:`upper_distances` at the level-``first`` radii
        that :meth:`_may_reach` keeps, those a height lower bound does not
        put outside their tube, are refined and reduce straight into the
        levels.  The dropped pairs could not have met their radius, so the
        levels are those refining every pair gives.  A point with a pair
        whose grid scan is already within its level-``last`` radius is at
        ``last`` whatever the golden section would give its pairs.
        """
        radii = self.radii(first)
        deepest = np.full(len(pts), first - 1)
        pi, li = self._candidate_pairs(pts, radii)
        reach = self._may_reach(pts, pi, li, radii)
        pi, li = pi[reach], li[reach]
        if len(pi):
            dist = self._refine_pairs(pts, pi, li, settle=self.radii(last))
            # radii never grow with the level: once no pair is within its level-k radius, none is deeper
            for k in range(first, last + 1):
                within = dist <= self.radii(k)[li]
                if not within.any():
                    break
                deepest[pi[within]] = k
        return deepest

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
            # the vertices in integers: projections over den, heights over hden
            proj, den = _common(Fraction(v).as_integer_ratio() for row in rows for v in row)
            hts, hden = _common(Fraction(v).as_integer_ratio() for v in lift_heights(np.array(rows, dtype=object), c0))
            dim = len(rows[0])
            vertices = [proj[i * dim : (i + 1) * dim] + (c,) for i, c in enumerate(hts)]
            per_seg = max(2, samples // (len(rows) - 1))
            den, hden = den * per_seg, hden * per_seg
            off = []  # the samples on no line, tested in floats
            for a, b in zip(vertices, vertices[1:]):
                for k in range(per_seg + 1):
                    # a + (k / per_seg) (b - a)
                    v = [(per_seg - k) * x + k * y for x, y in zip(a, b)]
                    if not self._on_a_line((v[:-1], den, v[-1], hden)):
                        off.append([x / den for x in v[:-1]] + [v[-1] / hden])
            return not off or bool(np.all(self.contains_batch(np.array(off), level)))
        ts = np.unique(np.concatenate([path.knots, np.linspace(path.t_min, path.t_max, samples)]))
        return bool(np.all(self.contains_batch(path.eval(ts), level)))

    def manifest(self) -> dict:
        bounds = [self.volume_bound(c) for c in self.radii_constants]
        return {
            "n": self.n,
            "depth": self.depth,
            "line_count": len(self.lines),
            "clip_lo": self.clip.lo.tolist(),
            "clip_hi": self.clip.hi.tolist(),
            "radii_constants": [float(c) for c in self.radii_constants],
            "volume_targets": [2.0**-k for k in range(1, self.depth + 1)],
            "volume_bounds": bounds,
            # per level, the tubes whose float radius underflows to 0
            "zero_radius_lines": [int(np.sum(self.radii(k) == 0.0)) for k in range(1, self.depth + 1)],
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
        seen = {l.key for l in lines}
        target = max(max_lines, len(lines))
        for line in enumerate_lines(height, n):
            if len(lines) >= target:
                break
            if line.key not in seen:
                seen.add(line.key)
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
        ends, _ = _common(Fraction(v).as_integer_ratio() for v in rows[j] + rows[j + 1])
        diff = [b - a for a, b in zip(ends, ends[len(rows[j]) :])]
        if any(diff):
            out.append(RationalLine(tuple(rows[j]) + (heights[j],), tuple(diff)))
    return out
