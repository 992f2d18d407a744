"""The integer line data of ``hcalc.uds`` against the ``Fraction`` code it replaced.

The ``_ref_*`` definitions below are the former implementations, kept
verbatim in behaviour: every base, direction vector and incidence parameter
in exact fractions.  The integer versions must give the same lines in the
same order, the same float views bit for bit, the same keys and the same
rationalized directions.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Optional

import numpy as np
import pytest

from hcalc import uds
from hcalc.curves import ModifyLineParams, gamma_y, lift_heights, modify_line
from hcalc.uds import Cover, RationalLine, enumerate_lines, lines_of_path, rationalize_direction, stereographic_unit


@dataclass(frozen=True)
class _ref_RationalLine:
    base: tuple
    direction: tuple

    def __post_init__(self):
        direction = uds._canonical_direction(self.direction)
        base = tuple(Fraction(v) for v in self.base)
        if len(base) != len(direction) + 1:
            raise ValueError("base must have length 2n+1 for a 2n direction")
        n = len(direction) // 2
        a, b = base[:n], base[n : 2 * n]
        v_c = 2 * (sum(Fraction(direction[i]) * b[i] for i in range(n)) - sum(Fraction(direction[n + i]) * a[i] for i in range(n)))
        vec = tuple(Fraction(d) for d in direction) + (v_c,)
        h2 = sum(v * v for v in direction)
        t_star = -sum(base[i] * direction[i] for i in range(2 * n)) / h2
        object.__setattr__(self, "base", tuple(base[i] + t_star * vec[i] for i in range(2 * n + 1)))
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "_vec", vec)

    def base_float(self):
        return np.array([float(v) for v in self.base])

    def vector_float(self):
        return np.array([float(v) for v in self._vec])


def _ref_incidence_parameter(line: _ref_RationalLine, point) -> Optional[Fraction]:
    pt = tuple(Fraction(v) for v in point)
    if len(pt) != len(line.base):
        return None
    vec, t = line._vec, None
    for i in range(len(vec)):
        if vec[i] != 0:
            t = (pt[i] - line.base[i]) / vec[i]
            break
    if t is None:
        return None
    return t if all(line.base[i] + t * vec[i] == pt[i] for i in range(len(vec))) else None


def _ref_fractions_up_to(height):
    vals = {Fraction(0)}
    for q in range(1, height + 1):
        for p in range(1, height + 1):
            vals.add(Fraction(p, q))
            vals.add(Fraction(-p, q))
    return sorted(vals)


def _ref_complexity(v):
    return max(abs(v.numerator), v.denominator)


def _ref_enumerate_lines(height, n=1):
    seen = set()
    for level in range(1, height + 1):
        fracs = _ref_fractions_up_to(level)
        dirs = {uds._canonical_direction(h) for h in product(range(-level, level + 1), repeat=2 * n) if any(h)}
        for d in sorted(dirs):
            at_level = max(abs(v) for v in d) == level
            batch = []
            for base in product(fracs, repeat=2 * n + 1):
                if not at_level and max(_ref_complexity(v) for v in base) != level:
                    continue
                line = _ref_RationalLine(base, d)
                key = (line.direction, line.base)
                if key not in seen:
                    seen.add(key)
                    batch.append(line)
            batch.sort(key=lambda l: l.base)
            yield from batch


def _ref_stereographic_unit(q):
    q = tuple(Fraction(v) for v in q)
    s = sum(v * v for v in q)
    return tuple(2 * v / (s + 1) for v in q) + ((s - 1) / (s + 1),)


def _ref_rationalize_direction(direction, tol):
    if tol <= 0:
        raise ValueError("tol must be positive")
    e = np.asarray(direction, dtype=float)
    exact = tuple(Fraction(float(v)).limit_denominator(10**9) for v in e)
    if sum(v * v for v in exact) == 1 and all(abs(float(v) - w) <= 1e-15 for v, w in zip(exact, e)):
        return exact
    flip = e[-1] > 0
    target = -e if flip else e
    q = uds.unit_preimage(target)
    for denom in (10, 100, 10**4, 10**6, 10**9, 10**12):
        qr = tuple(Fraction(float(v)).limit_denominator(denom) for v in q)
        cand = _ref_stereographic_unit(qr)
        img = np.array([float(v) for v in cand])
        if np.linalg.norm(img - target) <= tol:
            return tuple(-v for v in cand) if flip else cand
    raise ValueError("could not rationalize the direction to the requested tolerance")


def _assert_same_line(line, ref):
    assert line.direction == ref.direction
    assert line.base == ref.base
    assert line.vector() == ref._vec
    assert line.base_float().tobytes() == ref.base_float().tobytes()
    assert line.vector_float().tobytes() == ref.vector_float().tobytes()


@pytest.mark.parametrize("height, n, count", [
    (8, 1, 96),  # the cover workload's builds
    (8, 2, 96),
    (8, 1, 1100),
    (2, 1, 64),  # the cover hcalc maximize builds
    (3, 2, 7_900),  # all 7,872 lines of level 1, then into level 2
    (1, 3, 1_500),  # the first directions of level 1
])
def test_enumeration_equals_the_fraction_enumeration(height, n, count):
    got = list(islice(enumerate_lines(height, n), count))
    want = list(islice(_ref_enumerate_lines(height, n), count))
    assert len(got) == len(want) == count
    for line, ref in zip(got, want):
        _assert_same_line(line, ref)


def test_lines_from_any_rational_data_get_the_key_of_their_enumerated_twin():
    rng = np.random.default_rng(0)
    enumerated = list(islice(enumerate_lines(3, 1), 400))
    keys = {line.key: line for line in enumerated}
    for line in enumerated[::7]:
        t = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9)))
        scale = int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1)
        twin = RationalLine(line.point_at(t), tuple(scale * v for v in line.direction))
        assert twin.key == line.key and keys[twin.key] is line
        _assert_same_line(twin, _ref_RationalLine(line.point_at(t), line.direction))
    # lines_of_path: the segments of rational curves, against the fraction code
    params = ModifyLineParams(x=np.zeros(3), u=np.array([0.0, 0.5, 0.0]), direction=np.array([1.0, 0.0]),
                              r=2.0**-13, delta=2.0**-11, eta=1.0)
    for path in (gamma_y([1, 0, 1], rational=True), modify_line(params, rational=True)[0]):
        found = lines_of_path(path)
        assert found
        for line in found:
            _assert_same_line(line, _ref_RationalLine(line.base, line.direction))
    # the first segment of the detour lies on the enumerated axis line
    axis = next(line for line in enumerated if line.direction == (1, 0) and not any(line.base))
    assert lines_of_path(modify_line(params, rational=True)[0])[0].key == axis.key


def test_keys_split_lines_as_the_fraction_keys_do():
    rng = np.random.default_rng(1)
    for n in (1, 2):
        bases = [tuple(Fraction(int(a), int(b)) for a, b in zip(rng.integers(-3, 4, 2 * n + 1), rng.integers(1, 4, 2 * n + 1)))
                 for _ in range(300)]
        dirs = [tuple(int(v) for v in rng.integers(-2, 3, 2 * n)) for _ in range(300)]
        pairs = [(b, d) for b, d in zip(bases, dirs) if any(d)]
        new = [RationalLine(b, d).key for b, d in pairs]
        ref = [(r.direction, r.base) for r in (_ref_RationalLine(b, d) for b, d in pairs)]
        for i in range(len(pairs)):
            for j in range(i):
                assert (new[i] == new[j]) == (ref[i] == ref[j])


def test_incidence_equals_the_fraction_incidence():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        lines = list(islice(enumerate_lines(2, n), 0, 600, 11))
        for line in lines:
            ref = _ref_RationalLine(line.base, line.direction)
            t = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 30)))
            on = line.point_at(t)
            other = lines[int(rng.integers(len(lines)))].point_at(t)
            nudged = on[:-1] + (on[-1] + Fraction(1, 10**12),)
            tilted = (on[0] + Fraction(1, 7),) + on[1:]
            floats = tuple(float(v) for v in on)
            for point in (on, other, nudged, tilted, floats, on[:-1], on + (Fraction(0),), tuple(line.base)):
                got = line.incidence_parameter(point)
                want = _ref_incidence_parameter(ref, point)
                assert got == want
            assert line.incidence_parameter(on) == t


def test_rationalize_direction_equals_the_fraction_version():
    rng = np.random.default_rng(3)
    for i in range(2000):
        dim = 2 if i % 2 else 4
        e = rng.standard_normal(dim)
        e /= np.linalg.norm(e)
        tol = 10.0 ** rng.uniform(-6, -1)
        try:
            want = _ref_rationalize_direction(e, tol)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                rationalize_direction(e, tol)
            continue
        got = rationalize_direction(e, tol)
        assert got == want
        nums, den = uds._rational_unit(e, tol)
        assert np.array([v / den for v in nums]).tobytes() == np.array([float(v) for v in want]).tobytes()
    for exact in ([0.6, 0.8], [-0.8, 0.6], [1.0, 0.0], [0.0, -1.0], [0.5, 0.5, 0.5, -0.5]):
        assert rationalize_direction(np.array(exact), 1e-9) == _ref_rationalize_direction(np.array(exact), 1e-9)


def test_limit_denominator_equals_fraction_limit_denominator():
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.standard_normal(3000), 10.0 ** rng.uniform(-12, 12, 500), [0.0, -0.5, 2.5, 1e-300, 3.5]])
    for x in values:
        for max_den in (1, 2, 10, 100, 10**4, 10**9, 10**12):
            want = Fraction(float(x)).limit_denominator(max_den)
            assert uds._limit_denominator(x, max_den) == (want.numerator, want.denominator)


def test_stereographic_unit_equals_the_fraction_version():
    rng = np.random.default_rng(5)
    for _ in range(300):
        q = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(-40, 41, 3), rng.integers(1, 30, 3))]
        for m in (1, 2, 3):
            assert stereographic_unit(q[:m]) == _ref_stereographic_unit(q[:m])


def _ref_curve_in_cover(cover, path, level, samples=64):
    _, rows, c0 = path.rational
    rows = np.array(rows, dtype=object)
    vertices = np.column_stack([rows, lift_heights(rows, c0)])
    per_seg = max(2, samples // (len(rows) - 1))
    for a, b in zip(vertices, vertices[1:]):
        for step in range(per_seg + 1):
            if not cover.contains(a + Fraction(step, per_seg) * (b - a), level):
                return False
    return True


def test_curve_in_cover_equals_the_per_sample_fraction_loop():
    base = Cover.build(n=1, height=2, depth=12, max_lines=48)
    params = ModifyLineParams(x=np.zeros(3), u=np.array([0.0, 0.5, 0.0]), direction=np.array([1.0, 0.0]),
                              r=2.0**-13, delta=2.0**-11, eta=1.0)
    paths = [gamma_y([1, 0, 1], rational=True), gamma_y([Fraction(1, 3), Fraction(2, 7), Fraction(5, 4)], rational=True),
             modify_line(params, rational=True)[0]]
    verdicts = []
    for path in paths:
        with_lines = Cover.build(n=1, height=2, depth=12, max_lines=48, extra_lines=lines_of_path(path))
        for cover in (base, with_lines):
            for level in (1, 6, 12):
                for samples in (8, 64):
                    got = cover.curve_in_cover(path, level, samples)
                    assert got == _ref_curve_in_cover(cover, path, level, samples)
                    verdicts.append(got)
    assert any(verdicts) and not all(verdicts)
