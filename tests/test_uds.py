import functools
import math
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcalc import uds
from hcalc.curves import ModifyLineParams, gamma_y, modify_line
from hcalc.group import group_mul
from hcalc.uds import (
    Box,
    Cover,
    RationalLine,
    enumerate_lines,
    lines_of_path,
    rationalize_direction,
    stereographic_unit,
    wilson_interval,
)

from test_uds_cover_reference import _ref_upper_distances


@functools.cache
def _small_covers():
    return {n: Cover.build(n=n, height=2, depth=6, max_lines=48) for n in (1, 2, 3)}


@pytest.fixture(scope="module")
def cover():
    return Cover.build(n=1, height=2, depth=12, max_lines=48)


class TestRationalLine:
    def test_direction_canonicalization(self):
        line = RationalLine((0, 0, 0), (-2, -4))
        assert line.direction == (1, 2)
        with pytest.raises(ValueError):
            RationalLine((0, 0, 0), (0, 0))

    def test_base_reduction_is_canonical(self):
        a = RationalLine((0, 0, 0), (1, 0))
        b = RationalLine((Fraction(5), 0, 0), (1, 0))
        assert a.base == b.base and a.direction == b.direction

    def test_incidence(self):
        line = RationalLine((0, Fraction(1, 2), 0), (1, 0))
        t = line.incidence_parameter(line.point_at(Fraction(3, 7)))
        assert t == Fraction(3, 7)
        assert line.incidence_parameter((Fraction(0), Fraction(1, 3), Fraction(0))) is None

    def test_vector_is_constant_along_the_line(self):
        line = RationalLine((1, 2, 3), (2, 1))
        v0 = line.vector()
        shifted = RationalLine(line.point_at(Fraction(5, 3)), line.direction)
        assert shifted.vector() == v0
        assert shifted.base == line.base  # same canonical representative

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kept_vector_equals_the_one_recomputed_at_the_base(self, n):
        # the vector is the horizontal field at the canonical base, and a line
        # built from an uncanonical base gets the field there, the same vector
        for line in islice(enumerate_lines(2, n), 0, 400, 7):
            assert line.vector() == _horizontal_field(line.base, line.direction)
        rng = np.random.default_rng(n)
        for _ in range(50):
            base = tuple(Fraction(int(v), int(d)) for v, d in zip(rng.integers(-9, 10, 2 * n + 1), rng.integers(1, 9, 2 * n + 1)))
            direction = [int(v) for v in rng.integers(-4, 5, 2 * n)]
            direction[0] = direction[0] or 1
            line = RationalLine(base, tuple(direction))
            assert line.vector() == _horizontal_field(line.base, line.direction)
            assert line.vector() == _horizontal_field(base, line.direction)

    def test_odd_length_direction_is_rejected(self):
        # it built an n = 1 line and dropped base[3], or an n = 0 line
        with pytest.raises(ValueError, match="even length"):
            RationalLine((1, 2, 3, 4), (1, 2, 3))
        with pytest.raises(ValueError, match="even length"):
            RationalLine((0, 0), (1,))


class TestStereographic:
    def test_exact_unit(self):
        q = stereographic_unit([Fraction(1, 2)])
        assert q == (Fraction(4, 5), Fraction(-3, 5))
        assert sum(v * v for v in q) == 1

    def test_pythagorean_family(self):
        for t in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 4)):
            img = stereographic_unit([t])
            assert sum(v * v for v in img) == 1

    def test_rationalize_roundtrip(self):
        e = np.array([1.0, 1.0]) / np.sqrt(2.0)
        q = rationalize_direction(e, 1e-4)
        assert sum(v * v for v in q) == 1
        assert np.linalg.norm(np.array([float(v) for v in q]) - e) <= 1e-4

    def test_rationalize_keeps_exact_input(self):
        assert rationalize_direction(np.array([0.6, 0.8]), 1e-9) == (Fraction(3, 5), Fraction(4, 5))

    def test_rationalize_slack_tolerance(self):
        q = rationalize_direction(np.array([0.6, 0.8]), 1.0)
        assert sum(v * v for v in q) == 1

    def test_rationalize_validates_tol(self):
        with pytest.raises(ValueError):
            rationalize_direction(np.array([1.0, 0.0]), 0.0)


class TestEnumeration:
    def test_axis_line_at_height_one(self):
        lines = list(enumerate_lines(1, 1))
        assert any(l.direction == (1, 0) and all(v == 0 for v in l.base) for l in lines)

    def test_counts_nondecreasing_in_height(self):
        c1 = len(list(enumerate_lines(1, 1)))
        c2 = len(list(enumerate_lines(2, 1)))
        assert 0 < c1 < c2

    def test_deterministic_order(self):
        a = [(l.direction, l.base) for _, l in zip(range(100), enumerate_lines(2, 1))]
        b = [(l.direction, l.base) for _, l in zip(range(100), enumerate_lines(2, 1))]
        assert a == b

    def test_height_validation(self):
        with pytest.raises(ValueError):
            next(enumerate_lines(0, 1))

    @pytest.mark.parametrize("n", [0, -1])
    def test_dimension_validation(self, n):
        # n = 0 yielded nothing and n = -1 raised from itertools
        with pytest.raises(ValueError, match="n must be >= 1"):
            next(enumerate_lines(3, n))
        with pytest.raises(ValueError, match="n must be >= 1"):
            Cover.build(n=n, height=2, depth=3)

    @pytest.mark.parametrize("height, n, count, directions", [
        (3, 1, 10**9, 3),  # levels 1 and 2, then the first 3 of 16 directions of level 3
        (2, 2, 2000, None),  # inside level 1, which holds 7,872 lines
        (1, 3, 10**9, 2),  # the first 2 of the 364 directions of level 1
    ])
    def test_streaming_matches_whole_level_sort(self, height, n, count, directions):
        expected = [(l.direction, l.base) for l in islice(_whole_level_lines(height, n, directions), count)]
        streamed = [(l.direction, l.base) for l in islice(enumerate_lines(height, n), len(expected))]
        assert streamed == expected

    def test_lazy_prefix_constructs_few_lines(self, monkeypatch):
        built = []
        set_line = RationalLine._set

        def counting(self, *args):
            built.append(1)
            set_line(self, *args)

        monkeypatch.setattr(RationalLine, "_set", counting)
        assert len(list(islice(enumerate_lines(8, 2), 96))) == 96
        assert len(built) <= 300  # a whole level-1 batch at n = 2 is 9,720


def _volume_reference(cover, c, pi):
    """The tube volume bound of constant c > 0 in fractions, term by term:
    sum (L_i / r_i + 1)(1.5 r_i)^q 2 pi^n / n! with r_i = c 2^-(i+1)."""
    q, c = 2 * cover.n + 2, Fraction(c)
    total = Fraction(0)
    for i, length in enumerate(cover.lengths.tolist()):
        r = c / 2 ** (i + 1)
        total += (Fraction(length) / r + 1) * (Fraction(3, 2) * r) ** q
    return 2 * pi**cover.n / math.factorial(cover.n) * total


def _assert_maximal(cover):
    """Each constant is the largest the solve can give: the volume bound just
    above it, a lower bound taken with float pi < pi, exceeds 0.99 2^-k,
    unless the constant is the previous level's."""
    prev = math.inf
    for k, c in enumerate(cover.radii_constants, start=1):
        if c != prev:
            above = Fraction(c) * (1 + Fraction(1, 10**12))
            assert _volume_reference(cover, above, Fraction(math.pi)) > Fraction(99, 100) / 2**k
        prev = c


def _random_specs():
    rng = np.random.default_rng(2024)
    specs = []
    for n in (1, 2, 3):
        for _ in range(3):
            specs.append(dict(
                n=n,
                height=int(rng.integers(1, 4)) if n < 3 else 1,
                depth=int(rng.integers(1, 41)),
                max_lines=int(rng.integers(1, 160)),
                clip_half_width=float(10.0 ** rng.uniform(0.0, 2.0)),
            ))
    return specs


class TestCover:
    def test_volume_bounds_hold_by_construction(self, cover):
        for k, c in enumerate(cover.radii_constants, start=1):
            assert cover.volume_bound(c) <= 2.0**-k

    def test_radii_shrink_with_depth(self, cover):
        rc = cover.radii_constants
        assert all(b <= a for a, b in zip(rc, rc[1:]))
        assert np.all(np.diff(cover.radii(3)) < 0)

    def test_radii_past_index_1022_are_exact_powers_of_two(self):
        # c_k / 2^(i+1) overflowed 2^(i+1) from i = 1023 on: the radii read 0
        # with an overflow warning
        line = RationalLine((0, 0, 0), (1, 0))
        big = Cover([line] * 1100, depth=2, clip=Box.cube(10.0, 1))
        scale = np.ldexp(1.0, -(np.arange(1100) + 1))
        for level, c in enumerate(big.radii_constants, start=1):
            with np.errstate(over="raise"):
                radii = big.radii(level)
            # each radius is the largest float at most c / 2^(i+1)
            exact = [Fraction(c) / 2 ** (i + 1) for i in range(1100)]
            assert all(Fraction(r) <= e < Fraction(math.nextafter(r, math.inf)) for r, e in zip(radii.tolist(), exact))
            # power-of-two scaling is exact until the radii turn subnormal
            normal = radii >= np.finfo(float).tiny
            assert np.array_equal(radii[normal], c * scale[normal])
            assert np.all(radii[1023:1050] > 0.0)

    def test_exact_rational_membership(self, cover):
        pt = cover.lines[0].point_at(Fraction(2, 9))
        assert cover.contains(pt, cover.depth)

    def test_exact_membership_of_object_arrays(self, cover):
        # fractions passed as an object ndarray take the exact-incidence path too
        for line in cover.lines:
            pt = np.array(line.point_at(Fraction(1, 7)), dtype=object)
            assert cover.contains(pt, cover.depth)

    def test_far_point_excluded(self, cover):
        assert not cover.contains(np.array([0.47, 1.93, 8.21]), 4)

    def test_nesting_is_monotone(self, cover):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, (200, 3))
        members = [cover.contains_batch(pts, k) for k in (1, 3, 6, 12)]
        for a, b in zip(members, members[1:]):
            assert np.all(b <= a)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nesting_at_every_pair_of_levels(self, n):
        # membership at level k compares against radii(k) alone; that is the
        # all-levels membership because the radii never grow with the level
        cover = Cover.build(n=n, height=2, depth=8, max_lines=48)
        pts = _random_and_near_line_points(cover, np.random.default_rng(10 + n), 800)
        members = [cover.contains_batch(pts, k) for k in range(1, cover.depth + 1)]
        for j in range(1, cover.depth + 1):
            for k in range(j + 1, cover.depth + 1):
                assert np.all(cover.radii(k) <= cover.radii(j))
                assert np.all(members[j - 1][members[k - 1]])
        assert members[0].any() and not members[0].all()

    def test_level_validation(self, cover):
        with pytest.raises(ValueError):
            cover.contains(np.zeros(3), cover.depth + 1)
        with pytest.raises(ValueError):
            cover.radii(0)

    def test_degenerate_query_points_raise(self, cover):
        nonfinite = [np.array([np.nan, 0.0, 0.0]), np.array([0.0, np.inf, 0.0]), np.array([0.0, 0.0, -np.inf])]
        for x in nonfinite:
            with pytest.raises(ValueError, match="finite"):
                cover.contains(x, 2)
            with pytest.raises(ValueError, match="finite"):
                cover.contains_batch(np.vstack([np.zeros(3), x]), 2)
            with pytest.raises(ValueError, match="finite"):
                cover.deepest_levels(x)
        for x in (np.zeros(2), np.zeros(4), np.zeros(5), np.zeros((2, 2, 3))):
            with pytest.raises(ValueError, match="length 3"):
                cover.contains(x, 2)
            with pytest.raises(ValueError, match="length 3"):
                cover.contains_batch(x, 2)
            with pytest.raises(ValueError, match="length 3"):
                cover.deepest_levels(x)
        with pytest.raises(ValueError, match="length 3"):
            cover.contains([Fraction(0), Fraction(0)], 2)

    def test_measure_mc(self, cover):
        est, (lo, hi) = cover.cover_measure_mc(6, Box.cube(2.0, 1), 5000, seed=0)
        assert 0.0 <= lo <= hi
        assert lo <= 2.0**-6  # consistent with the analytic bound
        with pytest.raises(ValueError):
            cover.cover_measure_mc(6, Box.cube(2.0, 1), 100, seed=0)

    def test_manifest_fields(self, cover, tmp_path):
        man = cover.manifest()
        assert man["depth"] == 12
        assert len(man["radii_constants"]) == 12
        out = tmp_path / "manifest.json"
        cover.save_manifest(str(out))
        assert out.exists()

    def test_build_validation(self):
        with pytest.raises(ValueError):
            Cover([], depth=3, clip=Box.cube(1.0, 1))
        with pytest.raises(ValueError):
            Cover.build(n=1, height=1, depth=0)

    def test_depths_up_to_1074_build_and_certify_every_level(self):
        # the float sum of the bound underflowed from level 794 (n = 1) and
        # 884 (n = 2), and a build refused those depths
        for n, depth in ((1, 800), (2, 900), (1, 1074)):
            cover = Cover.build(n=n, height=2, depth=depth, max_lines=16)
            assert len(cover.radii_constants) == depth
            for k, c in enumerate(cover.radii_constants, start=1):
                assert _volume_reference(cover, c, Fraction(355, 113)) <= Fraction(1, 2**k)
        with pytest.raises(ValueError, match="at most 1074"):
            Cover.build(n=1, height=2, depth=1075, max_lines=16)

    @pytest.mark.parametrize("spec", _random_specs())
    def test_every_level_is_certified_by_an_independent_sum(self, spec):
        # 355/113 > pi, so this is a stronger check than the build's own
        cover = Cover.build(**spec)
        for k, c in enumerate(cover.radii_constants, start=1):
            assert _volume_reference(cover, c, Fraction(355, 113)) <= Fraction(1, 2**k)

    @pytest.mark.parametrize("spec", _random_specs())
    def test_every_constant_is_maximal(self, spec):
        _assert_maximal(Cover.build(**spec))

    def test_constants_below_3e_146_are_solved(self):
        # the bisection's geometric mean lo * hi underflowed to 0 there, and
        # levels 618-1074 of this cover kept the constant 0
        cover = Cover.build(n=1, height=2, depth=1074, max_lines=16, clip_half_width=1e250)
        assert 0.0 < cover.radii_constants[-1] < 3e-146
        _assert_maximal(cover)

    def test_the_certificate_rounds_pi_up(self):
        # float pi is below pi, so the factor 2 pi^n / n! taken with it was
        # below the unit ball's bound
        pi_below = Fraction("3.14159265358979323846")
        for n in (1, 2, 3):
            assert uds._unit_ball_volume_bound(n) >= 2 * pi_below**n / math.factorial(n)


class TestCurveInCover:
    def test_rational_segment_passes_everywhere(self, cover):
        # a straight rational path along the first enumerated line
        from hcalc.curves import HorizontalPath

        line = cover.lines[0]
        base = line.base_float()
        vec = line.vector_float()
        rows = (tuple(line.base[:2]), tuple(line.point_at(Fraction(1))[:2]))
        path = HorizontalPath(
            np.array([0.0, 1.0]),
            np.stack([base[:2], base[:2] + vec[:2]]),
            base[-1],
            rational=((Fraction(0), Fraction(1)), rows, line.base[-1]),
        )
        assert cover.curve_in_cover(path, cover.depth)

    def test_rational_gamma_passes(self):
        g = gamma_y([1, 0, 1], rational=True)
        cov = Cover.build(n=1, height=2, depth=12, max_lines=48, extra_lines=lines_of_path(g))
        assert cov.curve_in_cover(g, 12)
        assert cov.curve_in_cover(g, 1)

    def test_rational_modified_line_passes(self):
        params = ModifyLineParams(
            x=np.zeros(3), u=np.array([0.0, 0.5, 0.0]), direction=np.array([1.0, 0.0]),
            r=2.0**-13, delta=2.0**-11, eta=1.0,
        )
        path, _ = modify_line(params, rational=True)
        cov = Cover.build(n=1, height=2, depth=12, max_lines=48, extra_lines=lines_of_path(path))
        assert cov.curve_in_cover(path, 12)

    def test_generic_far_segment_fails_at_depth(self, cover):
        from hcalc.curves import HorizontalPath

        path = HorizontalPath(
            np.array([0.0, 1.0]),
            np.array([[0.437, 1.912], [1.437, 2.912]]) + 4.1,
            7.77,
        )
        assert not cover.curve_in_cover(path, cover.depth)

    def test_lines_of_path_requires_rational_payload(self):
        g = gamma_y(np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            lines_of_path(g)


def _whole_level_lines(height, n, directions=None):
    """Reference enumeration: build every line of a level, then sort the level.

    ``directions`` keeps only the first directions, in sorted order, of the
    last level.  That level's sort puts their lines first, so the output is
    still a prefix of the full enumeration.
    """
    seen = set()
    for level in range(1, height + 1):
        fracs = sorted({Fraction(p, q) for q in range(1, level + 1) for p in range(-level, level + 1)})
        dirs = sorted({uds._canonical_direction(h) for h in product(range(-level, level + 1), repeat=2 * n) if any(h)})
        batch = []
        for d in dirs[:directions] if level == height else dirs:
            for base in product(fracs, repeat=2 * n + 1):
                if max(max(max(abs(v.numerator), v.denominator) for v in base), max(abs(v) for v in d)) != level:
                    continue
                line = RationalLine(base, d)
                key = (line.direction, line.base)
                if key not in seen:
                    seen.add(key)
                    batch.append(line)
        batch.sort(key=lambda l: (l.direction, l.base))
        yield from batch


def _horizontal_field(point, direction):
    """Reference: the horizontal field of frame coefficients ``direction`` at ``point``, exactly."""
    n = len(direction) // 2
    a, b = [Fraction(v) for v in point[:n]], [Fraction(v) for v in point[n : 2 * n]]
    height = 2 * (sum(direction[i] * b[i] for i in range(n)) - sum(direction[n + i] * a[i] for i in range(n)))
    return tuple(Fraction(v) for v in direction) + (height,)


def _planar_lower_dense(cover, pts):
    """Reference: exact planar point-to-segment distance for every (point, line)."""
    p = pts[:, None, :-1] - cover._bases[None, :, :-1]
    h = cover._vecs[:, :-1]
    h2 = np.sum(h * h, axis=1)
    t = np.sum(p * h[None, :, :], axis=2) / h2[None, :]
    t = np.clip(t, cover.spans[None, :, 0], cover.spans[None, :, 1])
    near = cover._bases[None, :, :-1] + t[:, :, None] * h[None, :, :]
    return np.linalg.norm(pts[:, None, :-1] - near, axis=2)


def _block_scan_reference(cover, pts, needed):
    """Reference: the dense block scan the cell index replaced, 1024 points
    against every line at a time, pairs sorted by point then line."""
    b, h = cover._bases[:, :-1], cover._vecs[:, :-1]
    h2 = np.sum(h * h, axis=1)
    bh = np.sum(b * h, axis=1)
    b2 = np.sum(b * b, axis=1)
    needed2 = needed * needed
    pairs = [np.empty((2, 0), dtype=np.intp)]
    for start in range(0, len(pts), 1024):
        p = pts[start : start + 1024, :-1]
        p2 = np.sum(p * p, axis=1)[:, None]
        ph, pb = p @ h.T, p @ b.T
        t = np.clip((ph - bh) / h2, cover.spans[:, 0], cover.spans[:, 1])
        scale = p2 + b2 + t * t * h2
        d2 = scale - 2.0 * pb - 2.0 * t * (ph - bh)
        pi, li = np.nonzero(d2 <= needed2 + 1e-12 * scale)
        pi += start
        keep = cover._planar_lower(pts, pi, li) <= needed[li]
        pairs.append(np.stack([pi[keep], li[keep]]))
    return tuple(np.concatenate(pairs, axis=1))


def _sorted_pairs(pairs):
    pi, li = pairs
    order = np.lexsort((li, pi))
    return pi[order].tolist(), li[order].tolist()


def _finder_clouds(cover, rng):
    """Named point clouds the cell index must handle, for a cover of any n."""
    dim = 2 * cover.n + 1
    line_pt = cover._bases[0] + 0.3 * cover._vecs[0]
    # points placed at the level-1 radius from a line, where the exact test decides
    rim = []
    for i in range(len(cover.lines)):
        step = rng.standard_normal(dim)
        step[:-1] -= (step[:-1] @ cover._vecs[i, :-1]) / (cover._vecs[i, :-1] @ cover._vecs[i, :-1]) * cover._vecs[i, :-1]
        rim.append(cover._bases[i] + cover._vecs[i] * rng.uniform(*cover.spans[i])
                   + cover.radii(1)[i] * step / np.linalg.norm(step[:-1]))
    return {
        "one cell": line_pt + 1e-9 * rng.standard_normal((300, dim)),
        "duplicates": np.vstack([np.tile(line_pt, (150, 1)), rng.uniform(-1.0, 1.0, (40, dim))]),
        "outside the clip box": np.vstack([rng.uniform(-30.0, 30.0, (400, dim)),
                                           1e6 * np.sign(rng.standard_normal((20, dim))), line_pt[None, :]]),
        "single point": line_pt[None, :],
        # one group whose centre's squares overflow: its pairs must survive
        "huge": np.vstack([line_pt, np.full(dim, 1e160), np.full(dim, 1e308)]),
        "empty": np.zeros((0, dim)),
        "near lines": _random_and_near_line_points(cover, rng, 600),
        "on the rim": np.array(rim),
    }


def _random_and_near_line_points(cover, rng, count):
    """Uniform points in a cube, plus points at offsets 1e-12..1e-1 from each line."""
    dim = 2 * cover.n + 1
    near = []
    for i in range(len(cover.lines)):
        t = rng.uniform(*cover.spans[i])
        for offset in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1):
            step = rng.standard_normal(dim)
            near.append(cover._bases[i] + t * cover._vecs[i] + offset * step / np.linalg.norm(step))
    return np.vstack([rng.uniform(-3.0, 3.0, (count, dim)), near])


def _prune_boundary_points(cover, level, rng):
    """Points x(t) w, x(t) on a line and w = (d u, s) with u a unit vector
    normal to the line's direction: at t, the relative point is w itself.
    Heights s = +-rho^2 within 3 ulps, at d = 0 and rho / 2, meet the
    prune's height bound; d = rho within 3 ulps, at s = 0 and +-rho^2 / 4,
    puts the point on the planar rim, where only t itself is within rho."""
    dim, radii = 2 * cover.n + 1, cover.radii(level)
    ulps = 1.0 + np.arange(-3, 4) * 2.0**-52
    pts = []
    for i, rho in enumerate(radii):
        h = cover._vecs[i, :-1]
        for d, s in [*product((0.0, 0.5 * rho), rho * rho * np.concatenate([ulps, -ulps])),
                     *product(rho * ulps, (0.0, 0.25 * rho * rho, -0.25 * rho * rho))]:
            u = rng.standard_normal(dim - 1)
            u -= (u @ h) / (h @ h) * h
            x = cover._bases[i] + rng.uniform(*cover.spans[i]) * cover._vecs[i]
            pts.append(group_mul(x, np.append(d * u / np.linalg.norm(u), s)))
    return np.array(pts)


def _members_per_level_reference(cover, pts, depth):
    """Reference: distances refined at the level-1 radii, one test per level;
    membership at levels 1 to ``depth``."""
    d = _ref_upper_distances(cover, pts, cover.radii(1))
    member = np.ones(len(pts), dtype=bool)
    for k in range(1, depth + 1):
        member &= np.any(d <= cover.radii(k)[None, :], axis=1)
        yield member.copy()


def _contains_per_level_reference(cover, pts, level):
    return list(_members_per_level_reference(cover, pts, level))[-1]


def _suite_cloud(cover, rng, count):
    """The ``uds`` suite's nesting cloud for a cover of any n: uniform points
    in the cube of half-width 2, and points off random lines at offsets
    1e-6..1e-1, clipped to the cube of half-width 9.9."""
    dim, half = 2 * cover.n + 1, count // 2
    far = Box.cube(2.0, cover.n).sample(rng, half)
    idx = rng.integers(0, len(cover.lines), count - half)
    ts = rng.uniform(cover.spans[idx, 0], cover.spans[idx, 1])
    near = cover._bases[idx] + ts[:, None] * cover._vecs[idx]
    near += rng.normal(scale=10.0 ** rng.uniform(-6, -1, (len(near), 1)), size=(len(near), dim))
    return np.vstack([far, np.clip(near, -9.9, 9.9)])


def _candidate_pairs_reference(cover, pts, needed, block=1 << 15):
    """Reference: the pair finder as it was with 2-D ``np.nonzero`` and blocks
    of 2^15 pairs, whose pairs and order :meth:`Cover._candidate_pairs` keeps."""
    m, lines = len(pts), len(cover.lines)
    if not m:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    size = min(uds._CELL_POINTS, m)
    groups = -(-m // size)
    order = cover._cell_order(pts[:, :-1]) if m > size else np.arange(m)
    slot = order[np.minimum(np.arange(groups * size), m - 1)].reshape(groups, size)
    real = (np.arange(groups * size) < m).reshape(groups, size)
    coords = pts[slot, :-1].transpose(2, 0, 1)
    centre = 0.5 * coords.min(axis=2) + 0.5 * coords.max(axis=2)
    radius = np.sqrt(np.max(sum((x - c[:, None]) ** 2 for x, c in zip(coords, centre)), axis=1))
    norm = np.sqrt(sum(x * x for x in coords))
    b, h = cover._bases[:, :-1].T, cover._vecs[:, :-1].T
    b2, h2, bh = np.sum(b * b, axis=0), np.sum(h * h, axis=0), np.sum(b * h, axis=0)
    reach = np.sqrt(b2) + np.max(np.abs(cover.spans), axis=1) * np.sqrt(h2)

    def close(qq, qh, li, r, length):
        t = np.clip(qh / h2[li], cover.spans[li, 0], cover.spans[li, 1])
        d2 = qq - t * (2.0 * qh - t * h2[li])
        bound = needed[li] + r + length + reach[li]
        return ~(d2 > (needed[li] + r) ** 2 + 1e-12 * bound * bound)

    pairs = [np.empty((2, 0), dtype=np.intp)]
    per_block, step = max(1, block // lines), max(1, block // size)
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
            keep = cover._planar_lower(pts, pi, lj) <= needed[lj]
            pairs.append(np.stack([pi[keep], lj[keep]]))
    return tuple(np.concatenate(pairs, axis=1))


class TestCoverInternals:
    @pytest.fixture(scope="class")
    def benchmark_covers(self):
        return [
            Cover.build(n=1, height=8, depth=12, max_lines=96),
            Cover.build(n=2, height=8, depth=12, max_lines=96),
            Cover.build(n=1, height=8, depth=12, max_lines=1100),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tube_distances_keep_every_planar_pair_that_can_reach(self, n):
        cover = Cover.build(n=n, height=2, depth=6, max_lines=48)
        pts = _random_and_near_line_points(cover, np.random.default_rng(n), 1500)
        lower = _planar_lower_dense(cover, pts)
        never = np.full(len(cover.lines), -1.0)  # settles no point
        dropped = 0
        for needed in (cover.radii(1), cover.radii(6), np.full(len(cover.lines), 1e-6), np.full(len(cover.lines), 0.25)):
            pi, li, dist = cover._tube_distances(pts, needed, never)
            got, full = np.full(lower.shape, np.nan), np.full(lower.shape, np.nan)
            got[pi, li] = dist
            planar = lower <= needed[None, :]
            full[planar] = cover._refine_pairs(pts, *np.nonzero(planar), never)
            kept = ~np.isnan(got)
            # the kept pairs are planar pairs with the bits of the full
            # refinement, and each dropped one is outside its tube
            assert kept.sum() == len(pi) and np.all(planar[kept])
            assert np.array_equal(got[kept], full[kept])
            out = planar & ~kept
            assert np.all(full[out] > np.broadcast_to(needed, lower.shape)[out])
            dropped += int(out.sum())
        assert dropped

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cell_index_finds_exactly_the_pairs_of_the_dense_test(self, n):
        cover = _small_covers()[n]
        rng = np.random.default_rng(30 + n)
        lines = len(cover.lines)
        for name, pts in _finder_clouds(cover, rng).items():
            with np.errstate(over="ignore", invalid="ignore"):
                lower = _planar_lower_dense(cover, pts)
                for needed in (cover.radii(1), cover.radii(cover.depth), np.full(lines, 1e-6), np.full(lines, 0.25)):
                    want = _sorted_pairs(np.nonzero(lower <= needed[None, :]))
                    assert _sorted_pairs(cover._candidate_pairs(pts, needed)) == want, name
                    assert _sorted_pairs(_block_scan_reference(cover, pts, needed)) == want, name

    def test_cell_index_blocks_stay_within_the_pair_budget(self, monkeypatch):
        cover = _small_covers()[2]
        pts = _random_and_near_line_points(cover, np.random.default_rng(5), 800)
        needed = np.full(len(cover.lines), 0.25)
        want = _sorted_pairs(np.nonzero(_planar_lower_dense(cover, pts) <= needed[None, :]))
        sizes = []
        original = Cover._planar_lower

        def recording(self, pts, pi, li):
            sizes.append(len(pi))
            return original(self, pts, pi, li)

        monkeypatch.setattr(Cover, "_planar_lower", recording)
        for cell_points, budget in ((1, 64), (5, 64), (16, 200), (64, 64)):
            monkeypatch.setattr(uds, "_CELL_POINTS", cell_points)
            monkeypatch.setattr(uds, "_PAIR_BLOCK", budget)
            sizes.clear()
            assert _sorted_pairs(cover._candidate_pairs(pts, needed)) == want
            assert max(sizes) <= max(budget, cell_points)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(st.floats(-12.0, 12.0), min_size=0, max_size=280),
        st.sampled_from(["level 1", "level 6", "tiny", "wide"]),
        st.integers(0, 2**32 - 1),
    )
    def test_cell_index_equals_the_dense_test_on_drawn_clouds(self, n, coords, kind, seed):
        cover = _small_covers()[n]
        dim = 2 * n + 1
        pts = np.array(coords[: len(coords) // dim * dim], dtype=float).reshape(-1, dim)
        rng = np.random.default_rng(seed)
        # repeat some points and pull some onto the lines
        if len(pts):
            pts = np.vstack([pts, pts[rng.integers(0, len(pts), len(pts) // 3)]])
            idx = rng.integers(0, len(cover.lines), len(pts) // 2)
            ts = rng.uniform(cover.spans[idx, 0], cover.spans[idx, 1])
            pts[: len(idx)] = cover._bases[idx] + ts[:, None] * cover._vecs[idx] + 1e-7 * pts[: len(idx)]
        lines = len(cover.lines)
        needed = {"level 1": cover.radii(1), "level 6": cover.radii(6),
                  "tiny": np.full(lines, 1e-6), "wide": np.full(lines, 0.25)}[kind]
        want = np.nonzero(_planar_lower_dense(cover, pts) <= needed[None, :])
        assert _sorted_pairs(cover._candidate_pairs(pts, needed)) == _sorted_pairs(want)

    def test_refine_equals_one_pair_at_a_time(self, cover):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.0, 2.0, (6, 3))
        pi, li = np.repeat(np.arange(6), 4), rng.integers(0, len(cover.lines), 24)
        never = np.full(len(cover.lines), -1.0)  # settles no point
        batched = cover._refine_pairs(pts, pi, li, never)
        single = [cover._refine_pairs(pts, pi[k : k + 1], li[k : k + 1], never)[0] for k in range(24)]
        assert batched.tolist() == single

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_contains_batch_equals_the_per_level_loop(self, n):
        cover = Cover.build(n=n, height=2, depth=8, max_lines=48)
        pts = _random_and_near_line_points(cover, np.random.default_rng(20 + n), 1500)
        for level in range(1, cover.depth + 1):
            got = cover.contains_batch(pts, level)
            assert np.array_equal(got, _contains_per_level_reference(cover, pts, level))
        assert cover.contains_batch(pts[:0], 1).shape == (0,)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_height_prune_keeps_membership_at_its_boundaries(self, n):
        cover = Cover.build(n=n, height=2, depth=12, max_lines=48)
        rng = np.random.default_rng(40 + n)
        clouds = _finder_clouds(cover, rng)
        for level in (1, 6, 12):
            pts = np.vstack([_prune_boundary_points(cover, level, rng), clouds["on the rim"], clouds["huge"]])
            with np.errstate(over="ignore", invalid="ignore"):
                got = cover.contains_batch(pts, level)
                assert np.array_equal(got, _contains_per_level_reference(cover, pts, level)), level
                # the cloud has pairs on both sides of the prune, and points on both sides of the tubes
                pi, li = cover._candidate_pairs(pts, cover.radii(level))
                reach = cover._may_reach(pts, pi, li, cover.radii(level))
            assert reach.any() and not reach.all() and got.any() and not got.all(), level

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_deepest_levels_are_the_per_level_reference(self, n):
        cover = Cover.build(n=n, height=2, depth=12, max_lines=48)
        rng = np.random.default_rng(50 + n)
        clouds = _finder_clouds(cover, rng)
        named = {
            "suite": _suite_cloud(cover, rng, 2000),
            "random and near lines": _random_and_near_line_points(cover, rng, 600),
            "ulp boundaries": np.vstack([_prune_boundary_points(cover, level, rng) for level in (1, 6, 12)]),
            "huge": clouds["huge"],
            "on the rim": clouds["on the rim"],
            "empty": clouds["empty"],
        }
        for name, pts in named.items():
            with np.errstate(over="ignore", invalid="ignore"):
                deepest = cover.deepest_levels(pts)
                for level, want in enumerate(_members_per_level_reference(cover, pts, cover.depth), start=1):
                    assert np.array_equal(deepest >= level, want), (name, level)
            assert deepest.shape == (len(pts),) and np.all((0 <= deepest) & (deepest <= cover.depth)), name
        assert len(set(cover.deepest_levels(named["ulp boundaries"]).tolist())) > 3

    def test_deepest_levels_on_the_uds_suites_cover_and_cloud(self):
        cover = Cover.build(n=1, max_lines=96)
        pts = _suite_cloud(cover, np.random.default_rng(7), 10_000)
        deepest = cover.deepest_levels(pts)
        for level, want in enumerate(_members_per_level_reference(cover, pts, cover.depth), start=1):
            assert np.array_equal(deepest >= level, want), level
        assert np.any(deepest == cover.depth) and np.any(deepest == 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_candidate_pairs_keep_the_former_pairs_in_their_order(self, n):
        cover = _small_covers()[n]
        lines = len(cover.lines)
        rng = np.random.default_rng(60 + n)
        clouds = {**_finder_clouds(cover, rng), "suite": _suite_cloud(cover, rng, 3000)}
        for name, pts in clouds.items():
            for needed in (cover.radii(1), cover.radii(cover.depth), np.full(lines, 1e-6), np.full(lines, 0.25)):
                with np.errstate(over="ignore", invalid="ignore"):
                    want = _candidate_pairs_reference(cover, pts, needed)
                got = cover._candidate_pairs(pts, needed)
                assert all(g.tolist() == w.tolist() for g, w in zip(got, want)), name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2])
    def test_far_points_are_answered_without_float_warnings(self, n):
        cover = _small_covers()[n]
        dim = 2 * n + 1
        far = np.array([[1e200] + [0.0] * (dim - 1), [1e300] * dim, [-1e308] * dim, [1e155] * dim])
        line_pt = cover._bases[0] + 0.3 * cover._vecs[0]
        pts = np.vstack([far, line_pt])
        for level in (1, cover.depth):
            assert cover.contains_batch(pts, level).tolist() == [False] * len(far) + [True]
            assert not cover.contains(far[1], level)
        assert cover.deepest_levels(pts).tolist() == [0] * len(far) + [cover.depth]
        # the far points' pairs: a NaN keeps its pair for the exact test, an infinite distance drops it
        pi, li = cover._candidate_pairs(pts, np.full(len(cover.lines), 0.25))
        assert set(pi.tolist()) == {len(far)}

    @pytest.mark.filterwarnings("error")
    def test_a_cloud_narrower_than_float_resolution_is_ordered(self):
        # 17 points, more than a cell group, whose x coordinates span 5e-324:
        # the cell scale 2^10 / width is inf
        cover = _small_covers()[1]
        pts = np.zeros((17, 3))
        pts[::2, 0] = 5e-324
        with np.errstate(over="ignore"):  # as in its one caller, _candidate_pairs
            order = cover._cell_order(pts[:, :-1])
        assert sorted(order.tolist()) == list(range(17))
        lower = _planar_lower_dense(cover, pts)
        for needed in (cover.radii(1), np.full(len(cover.lines), 0.25)):
            want = _sorted_pairs(np.nonzero(lower <= needed[None, :]))
            assert _sorted_pairs(cover._candidate_pairs(pts, needed)) == want
        assert np.array_equal(cover.contains_batch(pts, 1), _contains_per_level_reference(cover, pts, 1))

    def test_height_prune_drops_nearly_every_monte_carlo_pair(self):
        # the uds suite's cover and Monte-Carlo query: without the prune every
        # candidate pair would take the golden section
        cover = Cover.build(n=1, max_lines=96)
        pts = Box.cube(2.0, 1).sample(np.random.default_rng(0), 100_000)
        radii = cover.radii(6)
        pi, li = cover._candidate_pairs(pts, radii)
        kept = int(np.sum(cover._may_reach(pts, pi, li, radii)))
        assert len(pi) >= 1000 and kept <= 0.01 * len(pi), (kept, len(pi))

    def test_volume_bound_is_the_exact_bound_rounded_up(self, benchmark_covers):
        pi_up = Fraction(math.nextafter(math.pi, math.inf))
        rng = np.random.default_rng(4)
        for cover in benchmark_covers[:2]:
            for c in [*cover.radii_constants, *10.0 ** rng.uniform(-300, 9, 8), 1e-300, 1e9]:
                exact, bound = _volume_reference(cover, c, pi_up), cover.volume_bound(c)
                assert math.nextafter(bound, 0.0) < exact <= bound
            assert cover.volume_bound(0.0) == 0.0
            for bad in (math.nan, math.inf, -1.0):
                with pytest.raises(ValueError, match="finite and >= 0"):
                    cover.volume_bound(bad)

    def test_zero_radius_lines_are_reported_per_level(self, benchmark_covers):
        for cover in benchmark_covers:
            zeros = cover.manifest()["zero_radius_lines"]
            assert zeros == [int(np.sum(cover.radii(k) == 0)) for k in range(1, cover.depth + 1)]
        assert benchmark_covers[2].manifest()["zero_radius_lines"][0] == 29

    def test_radii_never_exceed_the_certified_radius(self, benchmark_covers):
        # below the normal range ldexp rounds to nearest, so it can round
        # above c_k 2^-(i+1), the radius the volume certificate covers
        for cover in benchmark_covers:
            for k in range(1, cover.depth + 1):
                c = Fraction(cover.radii_constants[k - 1])
                assert all(Fraction(r) <= c / 2 ** (i + 1) for i, r in enumerate(cover.radii(k).tolist()))

    def test_volume_bounds_finite_when_radii_go_subnormal(self, benchmark_covers):
        cover = benchmark_covers[2]
        bounds = cover.manifest()["volume_bounds"]
        assert all(math.isfinite(b) and b <= 2.0**-k for k, b in enumerate(bounds, start=1))

    def test_manifest_rejects_a_nonfinite_bound(self, cover):
        broken = Cover(list(cover.lines), depth=2, clip=cover.clip)
        broken.radii_constants[1] = math.nan
        with pytest.raises(ValueError):
            broken.manifest()


def test_box_geometry():
    box = Box.cube(2.0, 1)
    assert box.volume == pytest.approx(64.0)
    spans, meets = box.clip_lines(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 5.0]]), np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    assert spans[0].tolist() == [-2.0, 2.0] and meets.tolist() == [True, False]
    with pytest.raises(ValueError):
        Box(np.zeros(3), np.zeros(3))


def test_wilson_interval():
    lo, hi = wilson_interval(0, 1000)
    assert 0.0 <= lo < 1e-12 and 0.0 < hi < 0.01
    lo2, hi2 = wilson_interval(500, 1000)
    assert 0.45 < lo2 < 0.5 < hi2 < 0.55
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_wilson_interval_rejects_hits_outside_the_sample():
    # both raised "math domain error"
    for hits in (-1, 1001):
        with pytest.raises(ValueError, match="hits must lie in"):
            wilson_interval(hits, 1000)
    assert wilson_interval(1000, 1000)[1] >= 1.0 - 1e-12
