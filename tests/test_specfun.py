import math
from fractions import Fraction

import numpy as np
import pytest

from diskxray.quadrature import gauss_jacobi
from diskxray.specfun import (
    as_gamma,
    beta,
    gegenbauer_L,
    gegenbauer_coefficients,
    gegenbauer_leading_coeff,
    gegenbauer_norm_sq,
    gegenbauer_table,
    jacobi_eval,
    legendre_duplication_check,
    ln_gamma,
)

GAMMAS = [-0.9, -0.5, 0.0, 0.5, 1.0, 2.0]


def test_weight_param_validation():
    assert as_gamma(0.25) == 0.25
    with pytest.raises(ValueError):
        as_gamma(-1.0)
    with pytest.raises(ValueError):
        as_gamma(-1.5)


def test_ln_gamma_known_values():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_ln_gamma_accuracy_against_scipy():
    from scipy.special import gammaln

    for x in np.geomspace(0.5, 1e6, 200):
        assert ln_gamma(float(x)) == pytest.approx(float(gammaln(x)), rel=1e-13, abs=1e-13)


def test_ln_gamma_domain():
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-2.0)


def test_beta_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-14)  # 1! 2! / 4!
    with pytest.raises(ValueError):
        beta(0.0, 1.0)


def test_jacobi_degree_zero_and_one():
    assert jacobi_eval(0, 0.3, -0.2, 0.3) == 1.0
    for g in GAMMAS:
        x = 0.37
        expected = (g + 1.0) + (g + 2.0) * (x - 1.0) / 2.0
        assert jacobi_eval(1, g, 0.0, x) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_jacobi_endpoint_binomial(gamma):
    # P_n^(a,a)(1) = C(n+a, n) with a = gamma + 1/2
    a = gamma + 0.5
    for n in range(51):
        want = math.exp(ln_gamma(n + a + 1.0) - ln_gamma(n + 1.0) - ln_gamma(a + 1.0))
        got = jacobi_eval(n, a, a, 1.0)
        assert got == pytest.approx(want, rel=1e-11)


def test_jacobi_params_validation():
    with pytest.raises(ValueError, match="nonnegative integer"):
        jacobi_eval(-1, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="must exceed -1"):
        jacobi_eval(2, -1.0, 0.0, 0.5)


def test_gegenbauer_low_degrees():
    x = np.linspace(-1.0, 1.0, 7)
    assert np.allclose(gegenbauer_L(0, 0.3, x), 1.0)
    for g in GAMMAS:
        assert np.allclose(gegenbauer_L(1, g, x), 2.0 * (g + 1.0) * x, rtol=1e-14)
    # C_2^(1)(x) = 4x^2 - 1 vanishes at x = 1/2
    assert gegenbauer_L(2, 0.0, 0.5) == pytest.approx(0.0, abs=1e-14)


def test_gegenbauer_leading_coeff():
    assert gegenbauer_leading_coeff(0, 1.3) == pytest.approx(1.0, rel=1e-14)
    assert gegenbauer_leading_coeff(1, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert gegenbauer_leading_coeff(2, 0.0) == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.7])
@pytest.mark.parametrize("n", [3, 7, 12])
def test_gegenbauer_leading_coeff_matches_recurrence(n, gamma):
    coeffs = gegenbauer_coefficients(n, gamma)
    assert coeffs[-1] == pytest.approx(gegenbauer_leading_coeff(n, gamma), rel=1e-12)


def test_gegenbauer_norm_sq_closed_forms():
    assert gegenbauer_norm_sq(0, 0.0) == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert gegenbauer_norm_sq(0, -0.5) == pytest.approx(2.0, rel=1e-14)


def test_gegenbauer_norm_sq_quadrature_oracle():
    g = 0.7
    rule = gauss_jacobi(12, g + 0.5, g + 0.5)
    vals = gegenbauer_L(3, g, rule.nodes)
    oracle = float(np.sum(vals * vals * rule.weights))
    assert gegenbauer_norm_sq(3, g) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_gegenbauer_orthogonality(gamma):
    rule = gauss_jacobi(42, gamma + 0.5, gamma + 0.5)
    table = [gegenbauer_L(n, gamma, rule.nodes) for n in range(21)]
    for n in range(21):
        for m in range(n):
            inner = float(np.sum(table[n] * table[m] * rule.weights))
            scale = math.sqrt(gegenbauer_norm_sq(n, gamma) * gegenbauer_norm_sq(m, gamma))
            assert abs(inner) <= 1e-11 * scale


@pytest.mark.parametrize("gamma", [-0.3, 0.0, 0.7, 2.0])
def test_gegenbauer_ode_exact(gamma):
    # -(1-x^2) L'' + (2g+3) x L' - n(n+2g+2) L must vanish identically;
    # exact Fraction arithmetic makes the residual literally zero.
    for n in range(31):
        c = gegenbauer_coefficients(n, gamma, exact=True)
        g = Fraction(gamma)
        res = [Fraction(0)] * (n + 1)
        for j, cj in enumerate(c):
            if j >= 2:
                res[j - 2] -= j * (j - 1) * cj  # -(1) * x^0 part of -(1-x^2) L''
            res[j] += j * (j - 1) * cj  # +x^2 part of -(1-x^2) L''
            res[j] += (2 * g + 3) * j * cj  # (2g+3) x L'
            res[j] -= n * (n + 2 * g + 2) * cj
        assert all(r == 0 for r in res), f"nonzero ODE residual at n={n}"


def test_duplication_examples():
    lhs, rhs = legendre_duplication_check(1.0)
    assert lhs == pytest.approx(1.0, rel=1e-14) and rhs == pytest.approx(1.0, rel=1e-14)
    # Gamma(2 * 1/2) = Gamma(1) = 1 on both sides; the right side collapses to
    # pi^(-1/2) * Gamma(1/2) = 1.
    lhs, rhs = legendre_duplication_check(0.5)
    assert lhs == pytest.approx(1.0, rel=1e-14)
    assert rhs == pytest.approx(1.0, rel=1e-14)
    lhs, rhs = legendre_duplication_check(3.25)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_duplication_log_grid():
    for z in np.geomspace(0.1, 100.0, 60):
        lhs = ln_gamma(2.0 * float(z))
        rhs = (
            -0.5 * math.log(math.pi)
            + (2.0 * z - 1.0) * math.log(2.0)
            + ln_gamma(float(z))
            + ln_gamma(float(z) + 0.5)
        )
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)
        if z <= 10.0:  # exponentiation amplifies the log error beyond this
            a, b = legendre_duplication_check(float(z))
            assert a == pytest.approx(b, rel=1e-13)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_gegenbauer_table_rows_equal_gegenbauer_L_bit_for_bit(gamma):
    nodes = gauss_jacobi(24, gamma + 0.5, gamma + 0.5).nodes
    for x in (nodes, np.linspace(-1.0, 1.0, 12).reshape(3, 4), 0.3 + 0.4j * nodes):
        table = gegenbauer_table(30, gamma, x)
        assert table.shape == (31,) + x.shape
        for n in range(31):
            assert np.array_equal(table[n], gegenbauer_L(n, gamma, x))
    assert np.array_equal(gegenbauer_table(0, gamma, nodes), np.ones((1, nodes.size)))
