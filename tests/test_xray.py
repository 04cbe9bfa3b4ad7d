import math

import numpy as np
import pytest

from diskxray.geometry import DiskPoint
from diskxray.quadrature import boundary_rule, default_orders, disk_rule, gauss_jacobi
from diskxray.specfun import ln_gamma
from diskxray.svdcore import psi_hat_values, psi_values, sigma
from diskxray.verify import eigen_residual, kernel_residual
from diskxray.xray import (
    Sinogram,
    adjoint_pairing_check,
    backproject_grid,
    forward,
    normal_apply,
    read_sinogram,
    write_sinogram,
)
from diskxray.zernike import CoefficientField, G_eval, G_hat_eval, ZernikeIndex, read_coefficients


def _ones(z):
    return np.ones_like(np.asarray(z, dtype=complex))


def _sample_points(count, seed=1, radius=0.92):
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.random(count)) * np.exp(2j * math.pi * rng.random(count))


def test_forward_constant_gamma_zero():
    rule = boundary_rule(0.0, 8, 6)
    sino = forward(_ones, 0.0, rule, 6)
    assert np.allclose(sino.values, 2.0, rtol=1e-13)


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5, 1.0, 2.0])
def test_forward_constant_moment(gamma):
    rule = boundary_rule(gamma, 8, 6)
    sino = forward(_ones, gamma, rule, 8)
    want = math.exp(0.5 * math.log(math.pi) + ln_gamma(gamma + 1.0) - ln_gamma(gamma + 1.5))
    assert np.allclose(sino.values, want, rtol=1e-13)


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.7])
def test_forward_of_basis_is_sigma_psihat(gamma):
    N = 6
    o = default_orders(N)
    rule = boundary_rule(gamma, o["beta_count"], o["s_order"])
    beta, _ = rule.grids()
    s = rule.s_nodes[None, :]
    for n, k in [(0, 0), (1, 1), (3, 1), (6, 2)]:
        idx = ZernikeIndex(n, k, gamma)
        sino = forward(lambda z, idx=idx: G_hat_eval(idx, z), gamma, rule, o["s_order"])
        want = sigma(n, k, gamma) * psi_hat_values(n, k, gamma, beta, s)
        assert np.abs(sino.values - want).max() <= 1e-10


def test_forward_rejects_nonfinite():
    rule = boundary_rule(0.0, 4, 3)

    def bad(z):
        out = np.ones_like(np.asarray(z, dtype=complex))
        out[..., 0] = np.nan
        return out

    with pytest.raises(ValueError, match="node"):
        forward(bad, 0.0, rule, 3)


def test_forward_linearity_at_nodes():
    g = 0.3
    rule = boundary_rule(g, 6, 5)
    f1 = lambda z: np.asarray(z) ** 2
    f2 = lambda z: np.conj(np.asarray(z))
    a, b = 1.7, -0.4 + 0.2j
    lhs = forward(lambda z: a * f1(z) + b * f2(z), g, rule, 6).values
    rhs = a * forward(f1, g, rule, 6).values + b * forward(f2, g, rule, 6).values
    assert np.array_equal(lhs, rhs) or np.abs(lhs - rhs).max() <= 1e-15


def test_backproject_constant():
    assert backproject_grid(lambda b, a: np.ones_like(b + a), 0.5, DiskPoint(0.3, 1.0).z, 16) == pytest.approx(
        2.0 * math.pi, rel=1e-13
    )


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0])
def test_backproject_kernel_modes(gamma):
    assert kernel_residual(gamma, 4, _sample_points(16), 64) <= 1e-11


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0])
def test_backproject_image_modes_give_G(gamma):
    pts = _sample_points(12, seed=4)
    for n in range(5):
        for k in range(n + 1):
            vals = backproject_grid(
                lambda b, a, n=n, k=k: psi_values(n, k, gamma, b, np.sin(a)), gamma, pts, 64
            )
            want = G_eval(ZernikeIndex(n, k, gamma), pts)
            assert np.abs(vals - want).max() <= 1e-10


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0, 2.0])
def test_normal_apply_constant(gamma):
    pts = _sample_points(10, seed=9)
    want = 2.0 * math.pi**1.5 * math.exp(ln_gamma(gamma + 1.0) - ln_gamma(gamma + 1.5))
    got = normal_apply(_ones, gamma, pts, 12, 32)
    assert np.abs(got - want).max() <= 1e-12 * want


def test_normal_apply_constant_gamma_zero_is_4pi():
    got = normal_apply(_ones, 0.0, DiskPoint(0.62, 0.3).z, 10, 24)
    assert got == pytest.approx(4.0 * math.pi, rel=1e-13)


def test_normal_apply_eigenfunction():
    assert eigen_residual(0.5, [(0, 0), (2, 1), (4, 0), (5, 3)], _sample_points(20, seed=12)) <= 1e-8


@pytest.mark.parametrize("gamma", [-0.95, 4.0])
def test_normal_apply_eigenfunction_extreme_weights(gamma):
    # the chord substitution keeps the quadrature exact even close to the
    # gamma -> -1 limit and for strongly vanishing weights
    assert eigen_residual(gamma, [(0, 0), (3, 1), (6, 2)], _sample_points(12, seed=21)) <= 1e-10


def test_adjoint_pairing_constant():
    rule = boundary_rule(0.0, 24, 10)
    disk = disk_rule(0.0, 12, 24)
    lhs, rhs = adjoint_pairing_check(_ones, lambda b, a: np.ones_like(b + a), 0.0, rule, disk, 10, 48)
    assert lhs == pytest.approx(2.0 * math.pi**2, rel=1e-12)
    assert rhs == pytest.approx(lhs, rel=1e-10)


def test_adjoint_pairing_svd_pair():
    g = 0.5
    N = 5
    o = default_orders(N)
    rule = boundary_rule(g, o["beta_count"], o["s_order"])
    disk = disk_rule(g, o["radial_order"], o["angular_count"])
    n, k = 3, 1
    idx = ZernikeIndex(n, k, g)
    gt = lambda b, a: psi_hat_values(n, k, g, b, np.sin(a))
    lhs, rhs = adjoint_pairing_check(
        lambda z: G_hat_eval(idx, z), gt, g, rule, disk, o["s_order"], o["beta_count"]
    )
    assert lhs == pytest.approx(sigma(n, k, g), rel=1e-10)
    assert rhs == pytest.approx(sigma(n, k, g), rel=1e-10)
    # mismatched mode pairs to zero
    gt2 = lambda b, a: psi_hat_values(4, 2, g, b, np.sin(a))
    lhs2, rhs2 = adjoint_pairing_check(
        lambda z: G_hat_eval(idx, z), gt2, g, rule, disk, o["s_order"], o["beta_count"]
    )
    assert abs(lhs2) <= 1e-11 and abs(rhs2) <= 1e-11


def test_adjoint_pairing_100_random_pairs():
    # 10 random polynomials of degree <= 8 against 10 basis factors: the two
    # quadrature pairings must agree for all 100 combinations
    g = -0.3
    N = 8
    o = default_orders(N)
    rule = boundary_rule(g, o["beta_count"], o["s_order"])
    disk = disk_rule(g, o["radial_order"], o["angular_count"])
    rng = np.random.default_rng(100)

    def make_poly(coeffs):
        def poly(z):
            z = np.asarray(z, dtype=complex)
            out = np.zeros(z.shape, dtype=complex)
            for i in range(5):
                for j in range(5):
                    out += coeffs[i, j] * z**i * np.conj(z) ** j
            return out

        return poly

    polys = [make_poly(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) for _ in range(10)]
    modes = [(int(n), int(rng.integers(0, n + 1))) for n in rng.integers(0, N + 1, size=10)]
    beta, alpha = rule.grids()
    for poly in polys:
        sino = forward(poly, g, rule, o["s_order"])
        fvals = poly(disk.z)
        for n, k in modes:
            gt = lambda b, a, n=n, k=k: psi_hat_values(n, k, g, b, np.sin(a))
            lhs = rule.pair(sino.values, gt(beta, alpha))
            rhs = disk.integrate(fvals * np.conj(backproject_grid(gt, g, disk.z, o["beta_count"])))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_sinogram_validation():
    rule = boundary_rule(0.0, 4, 3)
    with pytest.raises(ValueError, match="shape"):
        Sinogram(gamma=0.0, rule=rule, values=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="finite"):
        Sinogram(gamma=0.0, rule=rule, values=np.full((4, 3), np.nan))


def test_sinogram_file_round_trip(tmp_path):
    g = 0.25
    rule = boundary_rule(g, 6, 4)
    rng = np.random.default_rng(8)
    values = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    sino = Sinogram(gamma=g, rule=rule, values=values)
    path = tmp_path / "sino.txt"
    write_sinogram(path, sino, {"note": "test"})
    back, header = read_sinogram(path)
    assert back.gamma == g
    assert back.rule.shape == (6, 4)
    assert np.array_equal(back.values, values)
    assert header["note"] == "test"


def test_sinogram_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("gamma=0\nbeta_count=2\ns_order=2\n0,0,1.0\n")
    with pytest.raises(ValueError, match="bad.txt:4"):
        read_sinogram(path)
    path.write_text("beta_count=2\ns_order=2\n")
    with pytest.raises(ValueError, match="gamma"):
        read_sinogram(path)


_SINO_HEAD = "gamma=0\nbeta_count=2\ns_order=2\n"
_COEF_HEAD = "gamma=0\ndegree=2\n"


@pytest.mark.parametrize(
    "reader, text, match",
    [
        (read_coefficients, _COEF_HEAD + "1,0,1,0\n2,1,0,1\n1,0,2,0\n", "bad.txt:5: index \\(1, 0\\) repeats line 3"),
        (read_sinogram, _SINO_HEAD + "0,0,1,0\n0,1,1,0\n0,0,1,0\n1,0,1,0\n1,1,1,0\n", "bad.txt:6: index"),
        (read_coefficients, _COEF_HEAD + "0,0,nan,0\n", "bad.txt:3: non-finite"),
        (read_sinogram, _SINO_HEAD + "0,0,1,0\n0,1,1,-inf\n", "bad.txt:5: non-finite"),
        (read_sinogram, _SINO_HEAD + "0,0,1,0\n0,1,1,0\n1,1,1,0\n", "no row for node index \\(1, 0\\)"),
        (read_coefficients, _COEF_HEAD + "0,0,1,0\n gamma = 0.25\n", "bad.txt:4: header key 'gamma' repeats line 1"),
        (read_coefficients, "gamma=0\ndegree=abc\n", "bad.txt:2: degree=abc: invalid literal"),
        (read_coefficients, "gamma=nan\ndegree=2\n", "bad.txt:1: gamma=nan: weight exponent"),
        (read_sinogram, "beta_count=2\n\ngamma=-3\ns_order=2\n", "bad.txt:3: gamma=-3: weight exponent"),
        (read_coefficients, "gamma=0\ndegree=-1\n", "bad.txt:2: degree=-1: must be >= 0"),
        (read_sinogram, "gamma=0\nbeta_count=0\ns_order=2\n", "bad.txt:2: beta_count=0: must be >= 1"),
        (read_coefficients, "gamma=0\ndegree=3\n0,0,1,0\n3,1,0.5,=0.2\n", "bad.txt:4: could not convert"),
    ],
    ids=[
        "coefficient-repeat",
        "sinogram-repeat",
        "coefficient-nan",
        "sinogram-inf",
        "sinogram-missing-cell",
        "coefficient-header-repeat",
        "coefficient-degree-abc",
        "coefficient-gamma-nan",
        "sinogram-gamma-below-minus-one",
        "coefficient-degree-negative",
        "sinogram-beta-count-zero",
        "coefficient-row-with-equals",
    ],
)
def test_table_readers_reject_bad_rows(tmp_path, reader, text, match):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        reader(path)


def test_fields_sinograms_and_rules_are_read_only_copies():
    coeffs = np.arange(6, dtype=complex)
    field = CoefficientField(0.5, 2, coeffs)
    rule = boundary_rule(0.5, 3, 2)
    values = np.ones(rule.shape, dtype=complex)
    sino = Sinogram(gamma=0.5, rule=rule, values=values)
    disk = disk_rule(0.5, 2, 3)
    line = gauss_jacobi(3, 0.5, 0.5)
    arrays = (field.coeffs, sino.values, rule.beta, rule.s_nodes, rule.s_weights, disk.z, disk.weights, line.nodes)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7.0
    coeffs[0] = values[0, 0] = 7.0
    assert field.coeffs[0] == 0.0 and sino.values[0, 0] == 1.0
    # no attribute can be rebound either, so gamma cannot bypass its check
    for obj, attr in ((field, "gamma"), (field, "coeffs"), (sino, "gamma"), (sino, "values"), (rule, "gamma"),
                      (rule, "alpha"), (disk, "gamma"), (disk, "z"), (line, "a"), (line, "weights")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, -5)
    assert field.gamma == sino.gamma == rule.gamma == disk.gamma == line.a == 0.5
