import math

import numpy as np
import pytest

from diskxray.geometry import (
    antipodal_scattering,
    chord_depth,
    chord_points,
    fanbeam_through_arrays,
    scattering,
    wrap_angle,
)

TWO_PI = 2.0 * math.pi


def test_chord_point_diameter():
    entry, centre, exit_ = chord_points(0.0, 0.0, [-1.0, 0.0, 1.0])
    assert entry == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert exit_ == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    assert abs(centre) == pytest.approx(0.0, abs=1e-15)


def test_chord_endpoints_on_the_circle():
    # s = -1 and s = 1 are the entry and exit points, 2 cos(alpha) apart, and
    # the exit point is the boundary point of the scattering relation
    rng = np.random.default_rng(5)
    beta = TWO_PI * rng.random(100)
    alpha = np.concatenate(([-math.pi / 2, 0.0, math.pi / 3, math.pi / 2], (rng.random(96) - 0.5) * math.pi))
    entry, exit_ = chord_points(beta, alpha, [-1.0, 1.0]).T
    assert np.abs(entry - np.exp(1j * beta)).max() <= 1e-15
    assert np.abs(np.abs(exit_) - 1.0).max() <= 1e-14
    assert np.abs(exit_ - np.exp(1j * scattering(beta, alpha)[0])).max() <= 1e-14
    length = np.abs(exit_ - entry)
    assert np.abs(length - 2.0 * np.cos(alpha)).max() <= 1e-14
    assert length[[0, 3]].max() <= 1e-15 and length[1] == pytest.approx(2.0) and length[2] == pytest.approx(1.0)


def test_boundary_distance_along_chord():
    # d = 1 - |z|^2 at the chord point at arc length t = cos(alpha)(1+s)
    rng = np.random.default_rng(42)
    beta = TWO_PI * rng.random(200)
    alpha = (rng.random(200) - 0.5) * math.pi * 0.98
    s = 2.0 * rng.random(200) - 1.0
    t = np.cos(alpha) * (1.0 + s)
    z = chord_points(beta, alpha, s[:, None])[:, 0]
    assert np.abs(1.0 - np.abs(z) ** 2 - chord_depth(alpha, t)).max() <= 1e-12
    assert chord_depth(alpha, t).tolist() == (t * (2.0 * np.cos(alpha) - t)).tolist()


def test_boundary_distance():
    # d is 1 at the centre of a diameter and 0 at both ends of every chord
    rng = np.random.default_rng(42)
    beta = TWO_PI * rng.random(200)
    alpha = (rng.random(200) - 0.5) * math.pi * 0.98
    assert chord_depth(0.0, 1.0) == 1.0
    assert chord_depth(alpha, 0.0).tolist() == [0.0] * 200
    assert np.abs(chord_depth(alpha, 2.0 * np.cos(alpha))).max() <= 1e-15
    assert 1.0 - abs(chord_points(0.7, 0.0, 0.0)[0]) ** 2 == pytest.approx(1.0, abs=1e-15)
    ends = chord_points(beta, alpha, [-1.0, 1.0])
    assert np.abs(1.0 - np.abs(ends) ** 2).max() <= 1e-14


def test_fanbeam_through_origin_and_radial():
    beta, alpha = fanbeam_through_arrays(0.0, 0.0, 1.1)
    assert alpha == pytest.approx(0.0, abs=1e-15)
    assert wrap_angle(beta) == pytest.approx(wrap_angle(1.1 - math.pi), abs=1e-12)
    _, alpha = fanbeam_through_arrays(0.6, 0.8, 0.8)  # direction equal to polar angle
    assert alpha == pytest.approx(0.0, abs=1e-15)


def test_fanbeam_through_formula():
    beta, alpha = fanbeam_through_arrays(0.5, 0.0, math.pi / 2)
    assert alpha == pytest.approx(math.asin(-0.5), rel=1e-14)
    assert beta == pytest.approx(math.pi / 2 - math.pi - alpha, rel=1e-12)


def test_chord_consistency_random():
    # the chord through a point, traced from its entry point, passes through it
    rng = np.random.default_rng(7)
    rho, omega, theta = np.sqrt(rng.random(1000)), TWO_PI * rng.random(1000), TWO_PI * rng.random(1000)
    beta, alpha = fanbeam_through_arrays(rho, omega, theta)
    p = rho * np.exp(1j * omega)
    t_star = np.abs(p - np.exp(1j * beta))
    assert np.all(t_star <= 2.0 * np.cos(alpha) + 1e-9)
    s = np.minimum(t_star / np.cos(alpha) - 1.0, 1.0)
    q = chord_points(beta, alpha, s[:, None])[:, 0]
    assert np.abs(q - p).max() <= 1e-12


def test_scattering_relations():
    b, a = antipodal_scattering(0.0, 0.0)
    assert wrap_angle(b) == pytest.approx(math.pi) and a == 0.0
    rng = np.random.default_rng(3)
    beta = TWO_PI * rng.random(50)
    alpha = (rng.random(50) - 0.5) * math.pi
    for relation in (scattering, antipodal_scattering):
        twice_beta, twice_alpha = relation(*relation(beta, alpha))
        assert np.abs(np.exp(1j * twice_beta) - np.exp(1j * beta)).max() <= 1e-12
        assert np.abs(twice_alpha - alpha).max() <= 1e-12
