import math

import numpy as np
import pytest

from diskxray.quadrature import default_orders, disk_rule
from diskxray.verify import ladder_bound_residual, ladder_fd_residual
from diskxray.zernike import (
    CoefficientField,
    G_eval,
    G_fourier_oracle,
    G_hat_eval,
    L_gamma_pointwise,
    ZernikeIndex,
    apply_D_omega,
    apply_L_gamma,
    d_dz,
    d_dzbar,
    disk_poly,
    g_leading_coeff,
    leading_coeff_p,
    read_coefficients,
    write_coefficients,
    zernike_norm_sq,
)

GAMMAS = [-0.9, -0.5, 0.0, 0.5, 1.0, 2.5]


def _random_points(count, radius=0.85, seed=0):
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.random(count)) * np.exp(2j * math.pi * rng.random(count))


def test_disk_poly_holomorphic_branch():
    z = 0.3 - 0.55j
    for m in range(5):
        assert disk_poly(m, 0, 0.7, z) == pytest.approx(z**m, rel=1e-13, abs=1e-15)


def test_disk_poly_one_one():
    for g in GAMMAS:
        z = 0.42 + 0.17j
        want = 1.0 + (g + 2.0) * (abs(z) ** 2 - 1.0) / (g + 1.0)
        assert disk_poly(1, 1, g, z) == pytest.approx(want, rel=1e-13)


def test_disk_poly_conjugation():
    z = -0.2 + 0.61j
    for m, l in [(0, 3), (2, 4), (1, 1), (4, 2)]:
        assert disk_poly(m, l, 0.4, z) == pytest.approx(np.conj(disk_poly(l, m, 0.4, z)), rel=1e-13)


def test_zernike_norm_sq_values():
    for g in GAMMAS:
        assert zernike_norm_sq(ZernikeIndex(0, 0, g)) == pytest.approx(math.pi / (g + 1.0), rel=1e-13)
    assert zernike_norm_sq(ZernikeIndex(1, 0, 0.0)) == pytest.approx(math.pi / 2.0, rel=1e-13)
    for n in range(6):
        for k in range(n + 1):
            assert zernike_norm_sq(ZernikeIndex(n, k, 0.0)) == pytest.approx(
                math.pi / (n + 1.0), rel=1e-13
            )


def test_leading_coeff_p():
    assert leading_coeff_p(ZernikeIndex(0, 0, 0.7)) == pytest.approx(1.0, rel=1e-14)
    for n in range(5):
        assert leading_coeff_p(ZernikeIndex(n, 0, 1.3)) == pytest.approx(1.0, rel=1e-13)
    assert leading_coeff_p(ZernikeIndex(2, 1, 0.0)) == pytest.approx(2.0, rel=1e-13)


def test_g_leading_coeff():
    assert g_leading_coeff(ZernikeIndex(0, 0, 0.9)) == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert g_leading_coeff(ZernikeIndex(1, 0, 0.0)) == pytest.approx(-1.0j, abs=1e-14)
    assert g_leading_coeff(ZernikeIndex(1, 1, 0.0)) == pytest.approx(1.0j, abs=1e-14)


def test_G_eval_constant_mode():
    for g in GAMMAS:
        for z in [0.0, 0.3 + 0.2j, -0.8j]:
            assert G_eval(ZernikeIndex(0, 0, g), z) == pytest.approx(1.0 + 0.0j, abs=1e-14)


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5, 1.0])
def test_G_eval_matches_fourier_oracle(gamma):
    pts = _random_points(3, seed=5)
    for n in range(16):
        for k in range(n + 1):
            want = G_fourier_oracle(n, k, gamma, pts, 2 * n + 8)
            got = G_eval(ZernikeIndex(n, k, gamma), pts)
            assert np.abs(got - want).max() <= 1e-10


def test_fourier_oracle_kernel_indices():
    z = 0.4 - 0.3j
    for n in range(5):
        for k in (-2, -1, n + 1, n + 2):
            assert abs(G_fourier_oracle(n, k, 0.6, z, 4 * n + 12)) <= 1e-12


def test_G_polar_equivariance():
    rng = np.random.default_rng(2)
    for n, k in [(3, 1), (5, 4), (6, 3)]:
        rho, om, delta = 0.7 * rng.random(), 2 * math.pi * rng.random(), 2 * math.pi * rng.random()
        a = G_eval(ZernikeIndex(n, k, 0.8), rho * np.exp(1j * (om + delta)))
        b = np.exp(1j * (n - 2 * k) * delta) * G_eval(ZernikeIndex(n, k, 0.8), rho * np.exp(1j * om))
        assert a == pytest.approx(b, rel=1e-12)


def test_G_hat_constant_and_linear():
    for g in GAMMAS:
        assert G_hat_eval(ZernikeIndex(0, 0, g), 0.1 + 0.2j) == pytest.approx(
            math.sqrt((g + 1.0) / math.pi), rel=1e-13
        )
    z = 0.37 - 0.21j
    assert G_hat_eval(ZernikeIndex(1, 0, 0.0), z) == pytest.approx(z * math.sqrt(2.0 / math.pi), rel=1e-13)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_orthonormality(gamma):
    N = 15
    o = default_orders(N)
    rule = disk_rule(gamma, o["radial_order"], o["angular_count"])
    idxs = [(n, k) for n in range(N + 1) for k in range(n + 1)]
    V = np.array([G_hat_eval(ZernikeIndex(n, k, gamma), rule.z) for n, k in idxs])
    gram = (V * rule.weights) @ V.conj().T
    assert np.abs(gram - np.eye(len(idxs))).max() <= 1e-10


def test_center_value_of_radial_modes():
    # |Ghat_{n,n/2}(0)| = sqrt((n+1+gamma)/pi) exactly: the leading-coefficient
    # and norm factors cancel.  This pins the sqrt(n) floor of the sup norm.
    for g in GAMMAS:
        for n in (2, 10, 24, 40):
            got = abs(G_hat_eval(ZernikeIndex(n, n // 2, g), 0.0 + 0.0j))
            assert got == pytest.approx(math.sqrt((n + 1.0 + g) / math.pi), rel=1e-12)


def test_degree_structure_along_ray():
    # restricted to a ray, G_{n,k} is a polynomial of degree n in rho
    g, n, k = 0.7, 6, 2
    idx = ZernikeIndex(n, k, g)
    theta = 0.77
    nodes = np.cos(math.pi * (2 * np.arange(n + 1) + 1) / (2 * (n + 1)))  # Chebyshev on [-1,1]
    rho_nodes = 0.5 * (nodes + 1.0)
    vals = G_eval(idx, rho_nodes * np.exp(1j * theta))
    coeff = np.polynomial.polynomial.polyfit(rho_nodes, vals.real, n) + 1j * np.polynomial.polynomial.polyfit(
        rho_nodes, vals.imag, n
    )
    rho_test = np.linspace(0.0, 1.0, 37)
    recon = np.polynomial.polynomial.polyval(rho_test, coeff)
    direct = G_eval(idx, rho_test * np.exp(1j * theta))
    assert np.abs(recon - direct).max() <= 1e-10


def test_apply_L_gamma_and_D_omega():
    g = 0.5
    f = CoefficientField.delta(g, 3, 0, 0)
    assert apply_L_gamma(f)[(0, 0)] == pytest.approx((1.0 + g) ** 2)
    f = CoefficientField.delta(0.0, 4, 3, 1)
    assert apply_L_gamma(f)[(3, 1)] == pytest.approx(16.0)
    assert np.all(apply_L_gamma(CoefficientField.zeros(g, 3)).coeffs == 0.0)
    assert apply_D_omega(CoefficientField.delta(g, 3, 2, 1))[(2, 1)] == 0.0
    assert apply_D_omega(CoefficientField.delta(g, 3, 3, 0))[(3, 0)] == pytest.approx(3.0)


def test_ladder_single_modes():
    out = d_dz(CoefficientField.delta(0.0, 2, 1, 0))
    assert out.gamma == 1.0 and out.degree == 1
    assert out[(0, 0)] == pytest.approx(1.0)  # sqrt(1*1*1)
    top = d_dz(CoefficientField.delta(0.5, 3, 3, 3))
    assert np.all(top.coeffs == 0.0)  # antiholomorphic top element
    out = d_dzbar(CoefficientField.delta(0.0, 2, 1, 1))
    assert out[(0, 0)] == pytest.approx(-1.0)
    hol = d_dzbar(CoefficientField.delta(0.7, 3, 3, 0))
    assert np.all(hol.coeffs == 0.0)  # z^n is holomorphic


def test_ladder_pointwise_consistency():
    # both sides evaluated pointwise: ladder output in the gamma+1 basis must
    # equal the derivative of the synthesis sum
    f = CoefficientField.random(0.4, 6, np.random.default_rng(9))
    assert ladder_fd_residual(f, _random_points(6, radius=0.7, seed=3)) <= 1e-7


def test_ladder_coefficient_bound():
    for g in (-0.9, -0.5, 0.0, 1.0, 2.5):
        assert ladder_bound_residual(g, 200) <= 1e-12


def test_L_gamma_pointwise_constant():
    for g in (-0.5, 0.0, 1.0):
        got = L_gamma_pointwise(lambda z: np.ones_like(np.asarray(z, dtype=complex)), g, 0.3 + 0.1j)
        assert got == pytest.approx((g + 1.0) ** 2, rel=1e-9)


def test_L_gamma_pointwise_linear():
    # degree-1 polynomial z has eigenvalue (gamma+2)^2; finite differences are
    # near-exact on it
    z0 = 0.21 - 0.33j
    got = L_gamma_pointwise(lambda z: np.asarray(z, dtype=complex), 0.0, z0)
    assert got == pytest.approx(4.0 * z0, rel=1e-9)


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.0])
def test_L_gamma_pointwise_eigenfunction(gamma):
    for n, k in [(0, 0), (2, 1), (3, 1), (5, 2)]:
        idx = ZernikeIndex(n, k, gamma)
        func = lambda z, idx=idx: G_hat_eval(idx, z)
        for z in _random_points(2, radius=0.75, seed=n + k):
            got = L_gamma_pointwise(func, gamma, z)
            want = (n + 1.0 + gamma) ** 2 * func(z)
            assert abs(got - want) <= 1e-6 * (n + 1.0 + gamma) ** 2


def test_L_gamma_pointwise_near_boundary():
    # one-sided stencils keep the constant exact even within h of the boundary
    z = 0.99998 * np.exp(0.4j)
    got = L_gamma_pointwise(lambda w: np.ones_like(np.asarray(w, dtype=complex)), 0.5, z)
    assert got == pytest.approx(2.25, rel=1e-8)


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5, 2.5])
def test_a_point_passed_alone_gets_its_batch_value(gamma):
    pts = _random_points(2000, radius=0.95, seed=17)
    dense = CoefficientField.random(gamma, 12, np.random.default_rng(11)).coeffs
    # every fifth mode (19 of 91, spread over all degrees) keeps 2000 single-point calls quick
    field = CoefficientField(gamma, 12, np.where(np.arange(dense.size) % 5 == 0, dense, 0.0))
    calls = [
        lambda z: disk_poly(9, 3, gamma, z),
        lambda z: disk_poly(2, 10, gamma, z),  # the conjugate branch
        lambda z: G_hat_eval(ZernikeIndex(12, 5, gamma), z),
        lambda z: G_eval(ZernikeIndex(11, 8, gamma), z),
        lambda z: G_fourier_oracle(12, 5, gamma, z, 40),
        field.evaluate,
    ]
    for call in calls:
        alone = [call(complex(z)) for z in pts]
        assert all(type(v) is complex for v in alone)
        assert np.array_equal(alone, call(pts))  # bit for bit, not to a tolerance


@pytest.mark.parametrize("gamma", [-0.5, 2.5])
def test_evaluate_is_independent_of_batch_size(gamma):
    # 20000 points: more than one block, and a batch whose per-mode arrays pass
    # numpy's 256 KiB threshold for reusing temporaries in place
    pts = _random_points(20000, radius=0.95, seed=17)
    field = CoefficientField.random(gamma, 12, np.random.default_rng(11))
    batch = field.evaluate(pts)
    sliced = np.concatenate([field.evaluate(pts[i : i + 1000]) for i in range(0, pts.size, 1000)])
    assert np.array_equal(sliced, batch)
    assert np.array_equal([field.evaluate(complex(z)) for z in pts[:200]], batch[:200])


def test_kernels_leave_a_read_only_point_array_alone():
    z = disk_rule(0.5, 8, 12).z
    before = z.copy()
    field = CoefficientField.random(0.5, 6, np.random.default_rng(4))
    disk_poly(3, 5, 0.5, z)
    G_hat_eval(ZernikeIndex(6, 2, 0.5), z)
    field.evaluate(z)
    assert np.array_equal(z, before) and not z.flags.writeable


def test_disk_poly_domain_error():
    with pytest.raises(ValueError, match="outside"):
        disk_poly(2, 1, 0.5, 1.2 + 0.3j)
    with pytest.raises(ValueError, match="outside"):
        G_hat_eval(ZernikeIndex(2, 1, 0.5), np.array([0.5, 1.1 + 0j]))


def test_coefficient_field_parseval():
    rng = np.random.default_rng(31)
    g, N = 0.5, 12
    f = CoefficientField.random(g, N, rng)
    o = default_orders(N)
    rule = disk_rule(g, o["radial_order"], o["angular_count"])
    vals = f.evaluate(rule.z)
    quad = rule.integrate(np.abs(vals) ** 2)
    assert quad == pytest.approx(f.norm_sq(), rel=1e-10)


def test_coefficient_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    f = CoefficientField.random(-0.25, 5, rng)
    path = tmp_path / "field.txt"
    write_coefficients(path, f)
    g = read_coefficients(path)
    assert g.gamma == f.gamma and g.degree == f.degree
    assert np.array_equal(g.coeffs, f.coeffs)  # 17 significant digits round-trip exactly


def test_coefficient_file_rejects_bad_index(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("gamma=0\ndegree=3\n2,3,1.0,0.0\n")
    with pytest.raises(ValueError, match="violates"):
        read_coefficients(path)


def test_field_validation():
    with pytest.raises(ValueError):
        CoefficientField.delta(0.0, 2, 3, 0)
    with pytest.raises(KeyError):
        CoefficientField.zeros(0.0, 2)[(1, 2)]
