from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcalc.group import (
    HLinearMap,
    as_exact,
    dilate,
    group_inv,
    group_mul,
    horizontal_point,
    koranyi_dist,
    koranyi_norm,
    omega,
    project,
    vector_at,
)

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def h1_points(draw_len=3):
    return st.lists(coord, min_size=draw_len, max_size=draw_len).map(lambda v: np.asarray(v, float))


def test_group_law_frozen_example():
    # direct substitution: cross term -2(<a,b'> - <b,a'>) = -2
    assert np.allclose(group_mul([1, 0, 0], [0, 1, 0]), [1, 1, -2])


def test_identity_and_inverse():
    x = np.array([0.3, -1.2, 0.7])
    assert np.allclose(group_mul(x, np.zeros(3)), x)
    assert np.allclose(group_mul(x, group_inv(x)), np.zeros(3))


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        group_mul(np.zeros(3), np.zeros(5))


def test_dilation_frozen_example():
    assert np.allclose(dilate(3.0, [1, 2, 1]), [3, 6, 9])
    x = np.array([0.5, 1.5, -2.0])
    assert np.allclose(dilate(1.0, x), x)
    assert np.allclose(dilate(2.0, dilate(0.5, x)), x)


def test_dilation_rejects_nonpositive_factor():
    with pytest.raises(ValueError):
        dilate(0.0, np.zeros(3))
    with pytest.raises(ValueError):
        dilate(-1.0, np.zeros(3))


def test_vector_field_values():
    assert np.allclose(vector_at([1, 0], [0, 0, 0]), [1, 0, 0])
    assert np.allclose(vector_at([1, 0], [0, 1, 0]), [1, 0, 2])
    assert np.allclose(vector_at([0, 1], [1, 0, 0]), [0, 1, -2])


def test_koranyi_frozen_values():
    zero = np.zeros(3)
    assert koranyi_dist(zero, zero) == 0.0
    assert np.isclose(koranyi_dist(zero, [0, 0, 4]), 2.0)
    assert np.isclose(koranyi_dist(zero, [3, 4, 0]), 5.0)
    assert koranyi_norm(np.array([3, 4, 0.0])) == pytest.approx(5.0)


def test_hlinear_frozen_values():
    L = HLinearMap(1.0, np.array([1.0, 0.0]))
    assert L(np.zeros(3)) == 0.0
    for t in (-2.0, 0.5, 3.0):
        assert L(np.array([t, 0.0, 0.0])) == pytest.approx(t)
    x = np.array([0.4, -0.3, 1.1])
    assert L(dilate(2.0, x)) == pytest.approx(2.0 * L(x))


def test_hlinear_requires_unit_direction():
    with pytest.raises(ValueError):
        HLinearMap(1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        HLinearMap(-0.5, np.array([1.0, 0.0]))


def test_hlinear_from_coeffs():
    L = HLinearMap.from_coeffs(np.array([3.0, 4.0]))
    assert L.lip == pytest.approx(5.0)
    assert np.allclose(L.coeffs, [3.0, 4.0])
    zero = HLinearMap.from_coeffs(np.zeros(2))
    assert zero.lip == 0.0


@settings(max_examples=150, deadline=None)
@given(h1_points(), h1_points(), h1_points())
def test_associativity(x, y, z):
    lhs = group_mul(group_mul(x, y), z)
    rhs = group_mul(x, group_mul(y, z))
    scale = 1.0 + float(np.max(np.abs([x, y, z]))) ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(h1_points(), st.floats(min_value=0.01, max_value=20.0))
def test_dilation_homomorphism(x, r):
    lhs = dilate(r, group_mul(x, x))
    rhs = group_mul(dilate(r, x), dilate(r, x))
    scale = 1.0 + r * r * (1.0 + float(np.max(np.abs(x)))) ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(h1_points(), h1_points())
def test_projection_homomorphism(x, y):
    assert np.array_equal(project(group_mul(x, y)), project(x) + project(y))


@settings(max_examples=100, deadline=None)
@given(h1_points(), st.floats(min_value=-5, max_value=5))
def test_horizontal_line_translation_identity(x, t):
    e = np.array([0.6, 0.8])
    lhs = group_mul(x, t * horizontal_point(e))
    rhs = x + t * vector_at(e, x)
    scale = 1.0 + float(np.max(np.abs(x))) + abs(t)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_koranyi_left_invariance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        g, x, y = rng.standard_normal((3, 5))
        assert koranyi_dist(group_mul(g, x), group_mul(g, y)) == pytest.approx(
            koranyi_dist(x, y), abs=1e-10
        )


def test_omega_is_the_frame_norm():
    assert omega(np.array([3.0, 4.0])) == pytest.approx(5.0)


# -- exact (Fraction) data runs the same group law -----------------------------


def dyadic(rng, shape, bits):
    """Float array of dyadic values k / 2^bits with |k| <= 2^(bits+2)."""
    return rng.integers(-(2 ** (bits + 2)), 2 ** (bits + 2) + 1, size=shape) / 2.0**bits


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_group_laws_hold_with_equality(n):
    rng = np.random.default_rng(n)
    x, y, z = (as_exact(dyadic(rng, (40, 2 * n + 1), 20)) for _ in range(3))
    r, s = Fraction(3, 7), Fraction(25, 4)
    xy = group_mul(x, y)
    assert xy.dtype == object and all(isinstance(v, Fraction) for v in xy.ravel())
    assert np.all(group_mul(xy, z) == group_mul(x, group_mul(y, z)))
    assert np.all(group_mul(x, group_inv(x)) == 0)
    assert np.all(group_mul(group_inv(x), x) == 0)
    assert np.all(dilate(r, xy) == group_mul(dilate(r, x), dilate(r, y)))
    assert np.all(dilate(r, dilate(s, x)) == dilate(r * s, x))
    # the line through x along E is x * (t E(0)), exactly
    h = as_exact(dyadic(rng, (40, 2 * n), 20))
    t = Fraction(-7, 3)
    assert np.all(group_mul(x, t * horizontal_point(h)) == x + t * vector_at(h, x))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_float_results_round_the_exact_ones_on_few_bit_input(n):
    rng = np.random.default_rng(10 + n)
    xf, yf = dyadic(rng, (200, 2 * n + 1), 4), dyadic(rng, (200, 2 * n + 1), 4)
    hf = dyadic(rng, (200, 2 * n), 4)
    x, y, h = as_exact(xf), as_exact(yf), as_exact(hf)
    pairs = [
        (group_mul(xf, yf), group_mul(x, y)),
        (group_inv(xf), group_inv(x)),
        (dilate(0.75, xf), dilate(Fraction(3, 4), x)),
        (vector_at(hf, xf), vector_at(h, x)),
        (horizontal_point(hf), horizontal_point(h)),
        (project(xf), project(x)),
    ]
    for floats, exact in pairs:
        assert floats.dtype == np.float64
        assert np.array_equal(floats, exact.astype(float))


def _group_mul_reference(x, y):
    """Reference: the group product as written with one preallocated output."""
    x, y = np.asarray(x), np.asarray(y)
    x = x if x.dtype == object else x.astype(float, copy=False)
    y = y if y.dtype == object else y.astype(float, copy=False)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    m = x.shape[-1]
    if m < 3 or m % 2 == 0:
        raise ValueError(f"point arrays need odd trailing length >= 3, got {m}")
    n = (m - 1) // 2
    a, b = x[..., :n], x[..., n : 2 * n]
    a2, b2 = y[..., :n], y[..., n : 2 * n]
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.result_type(x, y))
    out[..., : 2 * n] = x[..., : 2 * n] + y[..., : 2 * n]
    cross = np.sum(a * b2, axis=-1) - np.sum(b * a2, axis=-1)
    out[..., -1] = x[..., -1] + y[..., -1] - 2 * cross
    return out


def _wide_floats(rng, shape):
    """Floats of magnitude 1e-300..1e150 with either sign, and signed zeros."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 150, shape)
    v[rng.random(shape) < 0.1] = 0.0
    v[rng.random(shape) < 0.1] = -0.0
    return v


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_mul_is_bitwise_the_reference(n):
    rng = np.random.default_rng(40 + n)
    d = 2 * n + 1
    shapes = [((300, d), (300, d)), ((d,), (300, d)), ((300, d), (d,)), ((4, 5, d), (4, 5, d)),
              ((4, 1, d), (5, d)), ((d,), (d,))]
    for (sx, sy), draw in product(shapes, (rng.standard_normal, lambda shape: _wide_floats(rng, shape))):
        x, y = draw(sx), draw(sy)
        got, ref = group_mul(x, y), _group_mul_reference(x, y)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    for sx, sy in shapes:
        x, y = as_exact(dyadic(rng, sx, 30)), as_exact(dyadic(rng, sy, 30))
        got, ref = group_mul(x, y), _group_mul_reference(x, y)
        assert got.shape == ref.shape and got.dtype == object
        assert got.ravel().tolist() == ref.ravel().tolist()
        assert all(type(v) is Fraction for v in got.ravel())


# group_mul sums its cross terms column by column from 128 rows on: the
# products must keep the bits of np.add.reduce's row-by-row sums there too.
@pytest.mark.parametrize("n", [1, 2, 4, 7, 8])
def test_group_mul_keeps_its_bits_on_both_sides_of_the_row_gate(n):
    rng = np.random.default_rng(70 + n)
    d = 2 * n + 1

    def reduce_reference(x, y):
        out = x + y
        out[..., -1] -= 2 * (np.add.reduce(x[..., :n] * y[..., n : 2 * n], axis=-1)
                             - np.add.reduce(x[..., n : 2 * n] * y[..., :n], axis=-1))
        return out

    for rows in (1, 127, 128, 129, 600):
        x, y = _wide_floats(rng, (rows, d)), _wide_floats(rng, (rows, d))
        assert group_mul(x, y).tobytes() == reduce_reference(x, y).tobytes()
        assert group_mul(x[0], y).tobytes() == reduce_reference(x[0], y).tobytes()
        ex, ey = as_exact(dyadic(rng, (rows, d), 30)), as_exact(dyadic(rng, (rows, d), 30))
        got = group_mul(ex, ey)
        assert got.ravel().tolist() == reduce_reference(ex, ey).ravel().tolist()
        assert all(type(v) is Fraction for v in got.ravel())


def test_group_mul_rejects_mismatched_and_even_lengths():
    for x, y in ((np.zeros(3), np.zeros(5)), (np.zeros((2, 5)), np.zeros((2, 3))),
                 (np.zeros(4), np.zeros(4)), (np.zeros((3, 2)), np.zeros((3, 2))), (np.zeros(1), np.zeros(1))):
        with pytest.raises(ValueError):
            group_mul(x, y)
        with pytest.raises(ValueError):
            _group_mul_reference(x, y)
