"""The closed-form distance the brackets workload checks hcalc against."""

import math

import numpy as np
import pytest

import reference


def _g(theta):
    return (theta - math.sin(theta) * math.cos(theta)) / math.sin(theta) ** 2


@pytest.mark.parametrize("c", [1e-12, 0.3, 1.0, -2.5, 4e6])
def test_pure_vertical_is_a_full_circle(c):
    assert reference.cc_norm(0.0, c) == pytest.approx(math.sqrt(math.pi * abs(c)), rel=1e-15)
    # continuous as the projection shrinks to zero
    assert reference.cc_norm(1e-9 * math.sqrt(abs(c)), c) == pytest.approx(math.sqrt(math.pi * abs(c)), rel=1e-8)


@pytest.mark.parametrize("D", [1e-7, 0.4, 1.0, 3e3])
def test_horizontal_is_the_projection_length(D):
    assert reference.cc_norm(D, 0.0) == D
    assert reference.cc_norm(D, 1e-12 * D * D) == pytest.approx(D, rel=1e-11)


def test_quarter_turn():
    # theta = pi/2: (pi/2 - 0) / 1 = |c| / D^2, length D (pi/2) / 1
    assert reference.cc_norm(1.0, math.pi / 2) == pytest.approx(math.pi / 2, rel=1e-15)


@pytest.mark.parametrize("theta", [1e-5, 0.02, 0.7, 1.5, 2.0, 3.0, math.pi - 1e-3, math.pi - 1e-6])
def test_arc_length_round_trip(theta):
    D = 0.75
    c = D * D * _g(theta)
    assert reference.cc_norm(D, c) == pytest.approx(D * theta / math.sin(theta), rel=1e-9)


def test_left_invariance():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        x, y, g = (rng.uniform(-2.0, 2.0, (200, 2 * n + 1)) for _ in range(3))
        d = reference.distance(x, y)
        d_moved = reference.distance(reference.mul(g, x), reference.mul(g, y))
        np.testing.assert_allclose(d_moved, d, rtol=1e-9)


@pytest.mark.parametrize("r", [1e-6, 1e-3, 0.5, 7.0, 1e3])
def test_dilation_homogeneity(r):
    rng = np.random.default_rng(6)
    z = rng.uniform(-2.0, 2.0, (300, 5))
    origin = np.zeros(5)
    np.testing.assert_allclose(reference.distance(origin, reference.dilate(r, z)), r * reference.distance(origin, z),
                               rtol=1e-12)


def test_symmetry_and_group_law_inverse():
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1.0, 1.0, (2, 100, 3))
    np.testing.assert_allclose(reference.distance(x, y), reference.distance(y, x), rtol=1e-12)
    np.testing.assert_allclose(reference.mul(x, reference.inv(x)), 0.0, atol=0.0)
