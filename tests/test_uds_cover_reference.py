"""The cover build and membership of ``hcalc.uds`` against the code they replaced.

The ``_ref_*`` definitions below are the former implementations, kept
verbatim in behaviour: the quick distance bound with its masks, the per-line
box clip and the pair refinement that always runs its golden section.  The
current code must give the same bits, spans and verdicts.
"""

import math

import numpy as np
import pytest

from hcalc import metric, uds
from hcalc.group import _row_sums, group_inv, group_mul, project
from hcalc.uds import Box, Cover


def _ref_cc_upper_quick(z):
    z = np.asarray(z, dtype=float)
    p = project(z)
    c = np.abs(z[..., -1])
    with np.errstate(over="ignore", invalid="ignore"):
        D = np.sqrt(_row_sums(p * p))
        D4 = D * D * D * D
        legs = np.full(D.shape, np.inf)
        np.divide(c * c, D4, out=legs, where=D4 > 0.0)
        np.multiply(D, np.sqrt(1.0 + legs), out=legs, where=D > 0.0)
        np.fmin(legs, D + np.sqrt(math.pi * c), out=legs)
    return np.where(c == 0.0, D, legs)


def _ref_clip_line(box, base, vec):
    t0, t1 = -np.inf, np.inf
    for b, v, lo, hi in zip(base, vec, box.lo, box.hi):
        if v == 0.0:
            if not (lo <= b <= hi):
                return None
            continue
        a, b2 = (lo - b) / v, (hi - b) / v
        t0, t1 = max(t0, min(a, b2)), min(t1, max(a, b2))
    if not (np.isfinite(t0) and np.isfinite(t1)) or t0 >= t1:
        return None
    return float(t0), float(t1)


def _ref_refine_pairs(cover, pts, pi, li):
    m = len(pi)
    p = pts[pi]
    bases, vecs = cover._bases[li], cover._vecs[li]
    t0s, t1s = cover.spans[li, 0], cover.spans[li, 1]

    def val(ts):
        line_pts = bases + ts.reshape(-1, m)[:, :, None] * vecs
        return _ref_cc_upper_quick(group_mul(group_inv(line_pts), p))

    us = np.linspace(0.0, 1.0, uds._REFINE_GRID)
    vals = val((t0s + us[:, None] * (t1s - t0s)).ravel())
    j = np.argmin(vals, axis=0)
    best = vals[j, np.arange(m)]
    a = t0s + us[np.maximum(j - 1, 0)] * (t1s - t0s)
    b = t0s + us[np.minimum(j + 1, uds._REFINE_GRID - 1)] * (t1s - t0s)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = val(np.concatenate([c, d]))
    for _ in range(uds._REFINE_GOLDEN):
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        fc, fd = val(np.concatenate([c, d]))
    return np.minimum(best, np.minimum(fc, fd))


def _ref_upper_distances(cover, pts, needed):
    """Per (point, line) upper distance, ``inf`` off the pairs of
    :meth:`Cover._candidate_pairs` at ``needed``: each pair refined in full,
    none dropped by the height bound."""
    out = np.full((len(pts), len(cover.lines)), np.inf)
    pi, li = cover._candidate_pairs(pts, needed)
    if len(pi):
        out[pi, li] = _ref_refine_pairs(cover, pts, pi, li)
    return out


def _ref_contains_batch(cover, pts, level):
    radii = cover.radii(level)
    member = np.zeros(len(pts), dtype=bool)
    pi, li = cover._candidate_pairs(pts, radii)
    if len(pi):
        member[pi[_ref_refine_pairs(cover, pts, pi, li) <= radii[li]]] = True
    return member


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.view(np.uint64).tolist()


# -- the quick bound ------------------------------------------------------------


def _special_rows(n, rng):
    d = 2 * n + 1
    rows = [rng.standard_normal((40, d)) * 10.0 ** rng.integers(-6, 6, (40, 1))]
    c_zero = rng.standard_normal((8, d))
    c_zero[:, -1] = [0.0, -0.0] * 4
    d_zero = np.zeros((6, d))
    d_zero[:, -1] = [0.0, -0.0, 1e-320, 1.0, -3.5, 1e300]
    d4_under = rng.standard_normal((8, d))
    d4_under[:, :-1] *= 1e-90  # D > 0, D^4 = 0
    d4_under[:4, -1] *= 1e-170  # and c^2 = 0 with c > 0
    c2_over = rng.standard_normal((8, d))
    c2_over[:, -1] *= 1e200  # c^2 overflows, D^4 finite
    both_over = rng.standard_normal((8, d)) * 1e160  # D^4 and c^2 overflow
    d4_over = rng.standard_normal((8, d))
    d4_over[:, :-1] *= 1e100  # D^4 overflows, c^2 finite
    return np.concatenate(rows + [c_zero, d_zero, d4_under, c2_over, both_over, d4_over])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quick_bound_keeps_the_bits_of_the_masked_one(n):
    z = _special_rows(n, np.random.default_rng(90 + n))
    expected = _ref_cc_upper_quick(z)
    assert _bits(metric.cc_upper_quick(z)) == _bits(expected)
    assert _bits(metric.cc_upper_quick(z.reshape(2, -1, z.shape[-1]))) == _bits(expected.reshape(2, -1))
    for row, want in zip(z, expected):
        got = metric.cc_upper_quick(row)
        assert isinstance(got, np.ndarray) and _bits(got) == _bits(np.asarray(want))


# -- the box clip -------------------------------------------------------------


def _clip_cases(n, rng):
    d = 2 * n + 1
    bases = rng.uniform(-3.0, 3.0, (400, d))
    vecs = rng.standard_normal((400, d)) * rng.integers(0, 2, (400, d))  # zero components
    vecs[:, 0] = np.where(vecs[:, :-1].any(axis=1), vecs[:, 0], 1.0)
    # bases on a face, inside and outside the slab of a zero component, and
    # lines that pass far from the box
    bases[::5, 0] = 2.0
    bases[1::5, 1] = -2.0
    bases[2::5, -1] = 7.0
    vecs[3::5, 1] = 0.0
    bases[3::5, 1] = rng.choice([-2.0, 2.0, 0.5, 2.5], len(bases[3::5]))
    bases[4::5, :-1] += 50.0
    return bases, vecs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clip_lines_matches_the_per_line_clip(n):
    box = Box(-2.0 * np.ones(2 * n + 1), np.array([2.0] * (2 * n) + [3.0]))
    bases, vecs = _clip_cases(n, np.random.default_rng(30 + n))
    spans, meets = box.clip_lines(bases, vecs)
    missed = 0
    for base, vec, span, meet in zip(bases, vecs, spans, meets):
        ref = _ref_clip_line(box, base, vec)
        assert meet == (ref is not None)
        if ref is None:
            missed += 1
        else:
            assert _bits(span) == _bits(ref)
    assert 0 < missed < len(bases)


def test_clip_lines_keeps_the_sign_of_a_zero_entry_time():
    box = Box.cube(2.0, 1)
    # entry times -0.0 and +0.0, alone and tied across two coordinates
    bases = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [2.0, -2.0, 0.0], [-2.0, 2.0, 0.0]])
    vecs = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 1.0], [-1.0, 1.0, 0.0], [1.0, -1.0, 0.5]])
    spans, meets = box.clip_lines(bases, vecs)
    for base, vec, span in zip(bases, vecs, spans):
        assert _bits(span) == _bits(_ref_clip_line(box, base, vec))
    assert meets.all()


# -- membership ---------------------------------------------------------------


def _query_points(cover, rng, count):
    d = 2 * cover.n + 1
    far = rng.uniform(-2.0, 2.0, (count, d))
    li = rng.integers(0, len(cover.lines), count)
    t = rng.uniform(cover.spans[li, 0], cover.spans[li, 1])
    near = cover._bases[li] + t[:, None] * cover._vecs[li]
    near += rng.standard_normal((count, d)) * 10.0 ** rng.uniform(-7.0, -1.0, (count, 1))
    return np.concatenate([far, near])


@pytest.mark.parametrize("spec", [
    dict(n=1, height=8, depth=12, max_lines=96),
    dict(n=2, height=3, depth=12, max_lines=96),
    dict(n=3, height=1, depth=8, max_lines=40),
])
def test_skipped_refinement_gives_the_same_verdicts(spec):
    cover = Cover.build(**spec)
    pts = _query_points(cover, np.random.default_rng(spec["n"]), 1500)
    for level in range(1, cover.depth + 1, 3):
        assert np.array_equal(cover.contains_batch(pts, level), _ref_contains_batch(cover, pts, level))


@pytest.mark.parametrize("n", [1, 2])
def test_tube_distances_keep_the_bits_of_the_full_refinement(n):
    cover = Cover.build(n=n, height=2, depth=6, max_lines=48)
    pts = _query_points(cover, np.random.default_rng(60 + n), 100)
    kept = 0
    # the height bound keeps about one pair in ten: wide tubes keep enough to compare
    for needed in (cover.radii(1) * 4.0, np.full(len(cover.lines), 0.25)):
        # negative settle radii settle no point: every kept pair is refined in full
        pi, li, dist = cover._tube_distances(pts, needed, settle=np.full(len(cover.lines), -1.0))
        assert _bits(dist) == _bits(_ref_refine_pairs(cover, pts, pi, li))
        kept += len(pi)
    assert kept > 50


def test_a_grid_that_settles_every_point_skips_the_golden_section(monkeypatch):
    cover = Cover.build(n=1, height=2, depth=6, max_lines=48)
    # points of the lines at grid parameters: the grid scan finds distance 0
    us = np.linspace(0.0, 1.0, uds._REFINE_GRID)[[3, 16, 30]]
    t = cover.spans[:, :1] + us[None, :] * (cover.spans[:, 1:] - cover.spans[:, :1])
    pts = (cover._bases[:, None, :] + t[:, :, None] * cover._vecs[:, None, :]).reshape(-1, 3)
    calls = []

    def counted(z):
        calls.append(z.shape)
        return metric.cc_upper_quick(z)

    monkeypatch.setattr(uds, "cc_upper_quick", counted)
    assert cover.contains_batch(pts, 6).all()
    assert len(calls) == 1 and calls[0][0] == uds._REFINE_GRID
    assert np.array_equal(_ref_contains_batch(cover, pts, 6), np.ones(len(pts), dtype=bool))
