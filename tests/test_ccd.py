import math

import numpy as np
import pytest

from diskxray import ccd
from diskxray.ccd import (
    CCDChart,
    d_R,
    fanbeam_from_interior,
    interIstar_verify,
    phi_inverse,
    phi_map,
    ss_alpha,
    ss_jacobian,
    ss_map,
    t_function,
    transfer_normal_apply,
    w_factor,
)
from diskxray.geometry import FanBeam
from diskxray.verify import murel_residual
from diskxray.xray import normal_apply
from diskxray.zernike import G_hat_eval, ZernikeIndex

CHARTS = [CCDChart(0.3, 0.9), CCDChart(-0.3, 0.9), CCDChart(0.9, 0.7), CCDChart(-1.2, 0.8)]


def test_chart_validation():
    with pytest.raises(ValueError):
        CCDChart(2.0, 0.8)  # R^2 |kappa| = 1.28
    with pytest.raises(ValueError):
        CCDChart(0.3, -1.0)
    CCDChart(0.0, 2.5)  # flat disks of any radius are fine


def test_phi_map_basics():
    for chart in CHARTS:
        assert phi_map(chart, 0.0) == 0.0
        assert abs(phi_map(chart, chart.R * np.exp(0.7j))) == pytest.approx(1.0, rel=1e-14)
    flat = CCDChart(0.0, 2.0)
    assert phi_map(flat, 1.0 + 1.0j) == pytest.approx((1.0 + 1.0j) / 2.0, rel=1e-15)
    with pytest.raises(ValueError):
        phi_map(CHARTS[0], 1.0)  # outside radius 0.9


def test_phi_inverse_round_trip():
    rng = np.random.default_rng(5)
    for chart in CHARTS:
        z = chart.R * np.sqrt(rng.random(64)) * np.exp(2j * math.pi * rng.random(64))
        back = phi_inverse(chart, phi_map(chart, z))
        assert np.abs(back - z).max() <= 1e-12
        fwd = phi_map(chart, phi_inverse(chart, z / chart.R))
        assert np.abs(fwd - z / chart.R).max() <= 1e-12


def test_w_factor():
    chart = CCDChart(0.5, 0.9)
    assert w_factor(chart, 0.0) == 1.0
    z = math.sqrt(0.5) * np.exp(0.3j)
    assert w_factor(chart, z) == pytest.approx(5.0 / 3.0, rel=1e-13)
    flat = CCDChart(0.0, 1.0)
    assert w_factor(flat, 0.5 + 0.2j) == 1.0


def test_d_R_properties():
    for chart in CHARTS:
        assert d_R(chart, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert d_R(chart, chart.R * np.exp(1.2j)) == pytest.approx(0.0, abs=1e-13)
    flat = CCDChart(0.0, 2.0)
    assert d_R(flat, 1.0) == pytest.approx(0.75, rel=1e-14)


def test_d_R_matches_composition():
    # the closed form must equal 1 - |Phi|^2 identically (this pins the
    # squared denominator)
    rng = np.random.default_rng(11)
    for chart in CHARTS:
        z = chart.R * np.sqrt(rng.random(128)) * np.exp(2j * math.pi * rng.random(128))
        composed = 1.0 - np.abs(phi_map(chart, z)) ** 2
        assert np.abs(d_R(chart, z) - composed).max() <= 1e-13


def test_ss_map_basics():
    chart = CCDChart(0.3, 0.9)
    assert ss_map(chart, FanBeam(0.4, 0.0)).alpha == 0.0
    assert ss_map(chart, FanBeam(0.4, 0.0)).beta == 0.4
    assert ss_alpha(chart, math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-14)
    assert ss_alpha(chart, -math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-14)
    flat = CCDChart(0.0, 1.0)
    alphas = np.linspace(-1.5, 1.5, 11)
    assert np.abs(ss_alpha(flat, alphas) - alphas).max() <= 1e-14
    # strictly increasing
    grid = ss_alpha(chart, np.linspace(-math.pi / 2, math.pi / 2, 41))
    assert np.all(np.diff(grid) > 0)


def test_ss_jacobian_values():
    chart = CCDChart(-0.4, 0.8)
    assert ss_jacobian(chart, 0.0) == pytest.approx(chart.c, rel=1e-14)
    assert ss_jacobian(chart, np.pi / 2) == pytest.approx(1.0 / chart.c, rel=1e-12)
    flat = CCDChart(0.0, 1.0)
    assert ss_jacobian(flat, 0.7) == pytest.approx(1.0, rel=1e-15)


def test_ss_jacobian_finite_difference():
    chart = CCDChart(0.45, 0.95)
    h = 1e-6
    for a in np.linspace(-1.4, 1.4, 15):
        fd = (ss_alpha(chart, a + h) - ss_alpha(chart, a - h)) / (2.0 * h)
        assert ss_jacobian(chart, float(a)) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("chart", CHARTS)
def test_murel_identity(chart):
    assert murel_residual(chart, (0.0, 2.1), np.linspace(-1.55, 1.55, 19)) <= 1e-12


def test_t_function_boundary_defining():
    chart = CCDChart(0.3, 0.9)
    for g in (0.0, 0.5, 2.0):
        interior = [t_function(chart, g, FanBeam(0.1, a)) for a in np.linspace(-1.5, 1.5, 11)]
        assert all(t > 0.0 for t in interior)
        assert t_function(chart, g, FanBeam(0.1, math.pi / 2)) == pytest.approx(0.0, abs=1e-12)


def test_fanbeam_from_interior_flat_matches_geometry():
    from diskxray.geometry import fanbeam_through_arrays

    chart = CCDChart(0.0, 1.0)
    p = 0.4 - 0.25j
    theta = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
    beta, alpha = fanbeam_from_interior(chart, p, theta, 5e-3)
    bwant, awant = fanbeam_through_arrays(abs(p), np.angle(p), theta)
    assert np.abs(np.exp(1j * beta) - np.exp(1j * bwant)).max() <= 1e-9
    assert np.abs(alpha - awant).max() <= 1e-9


@pytest.mark.parametrize("chart", CHARTS)
def test_fanbeam_from_interior_reversal(chart):
    # directions theta and theta+pi trace the two ends of one geodesic: the
    # reversed ray meets the boundary at incidence -alpha, and its end point
    # is where the closed-form line map ss sends the Euclidean chord
    theta = 2.0 * math.pi * np.arange(96) / 96
    beta, alpha = fanbeam_from_interior(chart, 0.31 + 0.12j, theta, 2e-3)
    assert np.abs(alpha[48:] + alpha[:48]).max() <= 1e-12
    exit_point = np.exp(1j * (beta[:48] + math.pi + 2.0 * ss_alpha(chart, alpha[:48])))
    assert np.abs(np.exp(1j * beta[48:]) - exit_point).max() <= 1e-9


def test_transfer_flat_reduction_is_exact():
    flat = CCDChart(0.0, 1.0)
    func = lambda z: np.asarray(z) ** 2 + 0.3 * np.conj(np.asarray(z))
    p = 0.25 - 0.35j
    a = transfer_normal_apply(flat, 0.7, func, p, 12, 48)
    b = normal_apply(func, 0.7, p, 12, 48)
    assert a == b  # identical code path at kappa = 0, R = 1


@pytest.mark.parametrize("chart", [CCDChart(0.3, 0.9), CCDChart(-0.3, 0.9)])
def test_transfer_eigen_structure(chart):
    g = 0.5
    scale = chart.R / (1.0 - chart.kappa * chart.R**2)
    for n, k in [(0, 0), (1, 0), (2, 1)]:
        idx = ZernikeIndex(n, k, g)

        def func(z, idx=idx):
            return np.asarray(w_factor(chart, z)) ** 2 * G_hat_eval(idx, phi_map(chart, z))

        p = 0.2 + 0.1j
        got = transfer_normal_apply(chart, g, func, p, n + 10, 4 * n + 20)
        from diskxray.svdcore import sigma_sq

        want = scale * sigma_sq(n, k, g) * w_factor(chart, p) * G_hat_eval(idx, phi_map(chart, p))
        assert abs(got - want) <= 1e-8 * abs(want)


def test_transfer_constant_times_w_sq():
    # f = w^2 maps to a multiple of w fixed by the constant-mode singular value
    chart = CCDChart(0.3, 0.9)
    g = 0.0
    from diskxray.svdcore import sigma_sq

    func = lambda z: np.asarray(w_factor(chart, z)) ** 2 + 0.0j
    for p in (0.0 + 0.0j, 0.3 - 0.2j):
        got = transfer_normal_apply(chart, g, func, p, 10, 32)
        want = chart.R / (1.0 - chart.kappa * chart.R**2) * sigma_sq(0, 0, g) * w_factor(chart, p)
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("chart", [CCDChart(0.3, 0.9), CCDChart(-0.3, 0.9)])
def test_interIstar_curved(chart):
    modes, point = [(0, 0), (1, 0), (2, 1)], 0.31 + 0.12j
    both = interIstar_verify(chart, (0.0, 0.5), modes, point)
    assert max(both) <= 1e-6
    # one fan serves every gamma: the same residuals as one call per gamma
    assert both == [r for g in (0.0, 0.5) for r in interIstar_verify(chart, [g], modes, point)]


@pytest.mark.parametrize(
    "modes, point, message",
    [
        ([(1, 2)], 0.1j, r"0 <= k <= n, got \[\(1, 2\)\]"),
        ([], 0.1j, r"0 <= k <= n, got \[\]"),
        ([(0, 0)], 0.27 + 0.11j, r"probe point \(0.27\+0.11j\) lies outside the open disk of radius 0.25"),
    ],
    ids=["k-above-n", "no-modes", "point-outside"],
)
def test_interIstar_rejects_bad_input_before_tracing(modes, point, message, monkeypatch):
    monkeypatch.setattr(ccd, "fanbeam_from_interior", lambda *args: pytest.fail("traced a fan"))
    with pytest.raises(ValueError, match=message):
        interIstar_verify(CCDChart(0.0, 0.25), [0.5], modes, point)
