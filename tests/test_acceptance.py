"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 9 is asserted exactly as specified; its gamma < 0 cases are marked
strict-xfail because the stated bound is provably unattainable there (see the
note in test_criterion_09 and the matching analysis in test_zernike.py:
|Ghat_{n, n/2}(0)| = sqrt((n+1+gamma)/pi), which outgrows (n+1)^(1+gamma) for
gamma < -1/2 and exceeds any constant anchored at n = 2 for all gamma < 0).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from diskxray import ccd as ccdmod
from diskxray import svdcore, verify, xray, zernike
from diskxray.quadrature import boundary_rule, default_orders
from diskxray.specfun import gegenbauer_coefficients, ln_gamma
from diskxray.zernike import CoefficientField, G_hat_eval, ZernikeIndex

SAMPLE_64 = 0.93 * np.sqrt(np.random.default_rng(2024).random(64)) * np.exp(
    2j * math.pi * np.random.default_rng(99).random(64)
)


def _report(num, name, detail):
    print(f"criterion {num:02d} PASS  {name}: {detail}")


def test_criterion_01_eigen_identity():
    t0 = time.time()
    modes = list(zernike.triangle(12).pairs())
    worst = max(verify.eigen_residual(g, modes, SAMPLE_64) for g in (-0.5, 0.0, 0.5, 1.0, 2.0))
    elapsed = time.time() - t0
    assert worst <= 1e-8
    assert elapsed <= 120.0
    _report(1, "eigen-identity", f"sup rel residual {worst:.2e} <= 1e-8 in {elapsed:.1f}s")


def test_criterion_02_gamma_zero_closed_form():
    worst = 0.0
    for n in range(101):
        for k in range(n + 1):
            s2 = svdcore.sigma_sq(n, k, 0.0)
            worst = max(worst, abs(s2 - 4.0 * math.pi / (n + 1.0)) / (4.0 * math.pi / (n + 1.0)))
    assert worst <= 1e-12
    _report(2, "gamma=0 spectrum", f"max rel error {worst:.2e} <= 1e-12 for n <= 100")


def test_criterion_03_normal_operator_on_constants():
    rng = np.random.default_rng(7)
    pts = 0.97 * np.sqrt(rng.random(50)) * np.exp(2j * math.pi * rng.random(50))
    ones = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    worst = 0.0
    for g in (-0.5, 0.0, 1.0, 2.0):
        want = 2.0 * math.pi**1.5 * math.exp(ln_gamma(g + 1.0) - ln_gamma(g + 1.5))
        got = xray.normal_apply(ones, g, pts, 16, 48)
        worst = max(worst, float(np.abs(got - want).max() / want))
    assert worst <= 1e-9
    _report(3, "normal operator on constants", f"max rel error {worst:.2e} <= 1e-9 at 50 points")


def test_criterion_04_kernel_characterization():
    worst = max(verify.kernel_residual(g, 10, SAMPLE_64, 80) for g in (-0.5, 0.0, 0.5, 1.0, 2.0))
    assert worst <= 1e-10
    _report(4, "kernel annihilation", f"sup |backprojection| {worst:.2e} <= 1e-10")


def test_criterion_05_svd_round_trip():
    g, N = 0.5, 12
    o = default_orders(N)
    rule = boundary_rule(g, o["beta_count"], o["s_order"])
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(20):
        field = CoefficientField.random(g, N, rng)
        res = svdcore.invert(svdcore.synthesize(field, rule), N)
        worst = max(worst, float(np.abs(res.field.coeffs - field.coeffs).max()))
    assert worst <= 1e-9
    worst_phys = 0.0
    for _ in range(3):
        field = CoefficientField.random(g, N, rng)
        spectral = svdcore.analyze(svdcore.synthesize(field, rule), N)
        physical = svdcore.analyze(xray.forward(field.evaluate, g, rule, o["s_order"]), N)
        worst_phys = max(worst_phys, float(np.abs(spectral - physical).max()))
    assert worst_phys <= 1e-9
    _report(
        5,
        "SVD round trip",
        f"invert.synthesize error {worst:.2e}, physical-vs-spectral {worst_phys:.2e} <= 1e-9",
    )


def test_criterion_06_functional_relation():
    worst = max(verify.funcrel_residual(g, 50) for g in (-0.9, -0.5, -0.1, 0.1, 1.0, 3.0))
    assert worst <= 1e-12
    _report(6, "functional relation", f"max rel gap {worst:.2e} <= 1e-12 for n <= 50")


def test_criterion_07_singular_value_structure():
    worst_tail = 0.0
    for g in (-0.9, -0.5, -0.1, 0.1, 1.0, 3.0):
        extremizers, spread = verify.asym_residuals(g, 300)
        assert extremizers == 0.0, f"extremizer pattern violated at gamma={g}"
        # envelope products settle into a fixed positive band: tail spread over n in [150, 300] within 25%
        worst_tail = max(worst_tail, spread)
    assert worst_tail <= 1.25
    _report(
        7,
        "singular value structure",
        f"extremizers at k in {{0, n, floor(n/2)}} for n <= 300; tail band spread {worst_tail:.3f}",
    )


def test_criterion_08_ladder_identity():
    rng = np.random.default_rng(31)
    pts = 0.7 * np.sqrt(rng.random(8)) * np.exp(2j * math.pi * rng.random(8))
    gammas = (-0.5, 0.0, 0.5, 1.5)
    worst = max(verify.ladder_fd_residual(CoefficientField.random(g, 8, rng), pts) for g in gammas)
    assert worst <= 1e-7
    assert max(verify.ladder_bound_residual(g, 200) for g in gammas) <= 1e-12
    _report(8, "derivative ladders", f"FD agreement {worst:.2e} <= 1e-7; scalar bound holds to n=200")


_LINF_CASES = [
    pytest.param(
        g,
        marks=pytest.mark.xfail(
            strict=True,
            reason=(
                "stated bound unattainable for gamma < 0: the center value "
                "|Ghat_{n,n/2}(0)| = sqrt((n+1+gamma)/pi) grows like sqrt(n), "
                "which beats (n+1)^(1+gamma) for gamma < -1/2 and exceeds the "
                "n=2-anchored constant for all gamma < 0"
            ),
        ),
    )
    if g < 0
    else g
    for g in (-0.9, -0.5, 0.0, 0.5, 1.0, 2.5)
]


@pytest.mark.parametrize("g", _LINF_CASES)
def test_criterion_09_linf_growth(g):
    # |Ghat| depends on rho only through the radial profile, so the sup over
    # the 400x400 polar grid equals the sup over its 400 radii.
    rho = np.sqrt(np.linspace(0.0, 1.0, 400))
    exponent = 1.0 + g if g <= 0 else 1.0 + 1.5 * g
    sups = {}
    for n in range(2, 41):
        best = 0.0
        for k in range(n // 2 + 1):  # k and n-k give conjugate moduli
            best = max(best, float(np.abs(G_hat_eval(ZernikeIndex(n, k, g), rho + 0.0j)).max()))
        sups[n] = best
    constant = sups[2] / 3.0**exponent
    worst = max(sups[n] / (constant * (n + 1.0) ** exponent) for n in sups)
    assert worst <= 1.0 + 1e-9
    _report(9, f"Linf growth (gamma={g:g})", f"sup ratio {worst:.6f} <= 1 with n=2-fitted constant")


def test_criterion_10_range_characterization():
    g, N = 0.3, 8
    o = default_orders(N)
    rule = boundary_rule(g, o["beta_count"], o["s_order"])
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        field = CoefficientField.random(g, N, rng)
        sino = xray.forward(field.evaluate, g, rule, o["s_order"])
        worst = max(worst, svdcore.range_defect(sino, N))
    assert worst <= 1e-9
    beta, _ = rule.grids()
    injected = svdcore.psi_hat_values(3, -1, g, beta, rule.s_nodes[None, :])
    sino = xray.Sinogram(gamma=g, rule=rule, values=injected)
    defect = svdcore.range_defect(sino, N)
    assert abs(defect - 1.0) <= 1e-9
    _report(
        10,
        "range characterization",
        f"smooth-data defect {worst:.2e} <= 1e-9; injected mode recovered at {defect:.12f}",
    )


def test_criterion_11_ccd_transfer():
    t0 = time.time()
    charts = [ccdmod.CCDChart(*c) for c in ((0.3, 0.9), (-0.3, 0.9), (0.8, 0.6), (-1.1, 0.75))]
    alphas = np.linspace(-1.55, 1.55, 21)
    murel_worst = max(verify.murel_residual(chart, alphas) for chart in charts)
    assert murel_worst <= 1e-12
    modes = list(zernike.triangle(2).pairs())
    inter_worst = max(max(ccdmod.interIstar_verify(chart, (0.0, 0.5), modes, 0.31 + 0.12j)) for chart in charts[:2])
    assert inter_worst <= 1e-6
    red = verify.flat_reduction_residual(0.5, 2, 1)
    flat = ccdmod.CCDChart(0.0, 1.0)
    func = lambda z: np.asarray(z) ** 2 + 0.1 * np.conj(np.asarray(z))
    exact = abs(
        ccdmod.transfer_normal_apply(flat, 0.7, func, 0.2 - 0.3j, 12, 40)
        - xray.normal_apply(func, 0.7, 0.2 - 0.3j, 12, 40)
    )
    assert red <= 1e-10 and exact <= 1e-12
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    _report(
        11,
        "constant-curvature transfer",
        f"murel {murel_worst:.2e} <= 1e-12; intertwining {inter_worst:.2e} <= 1e-6; "
        f"flat reduction {max(red, exact):.2e} <= 1e-10 in {elapsed:.1f}s",
    )


def test_criterion_12_ode_and_duplication():
    for g in (-0.3, 0.7, 2.0):
        gf = Fraction(g)
        for n in range(31):
            c = gegenbauer_coefficients(n, g, exact=True)
            res = [Fraction(0)] * (n + 1)
            for j, cj in enumerate(c):
                if j >= 2:
                    res[j - 2] -= j * (j - 1) * cj
                res[j] += j * (j - 1) * cj
                res[j] += (2 * gf + 3) * j * cj
                res[j] -= n * (n + 2 * gf + 2) * cj
            peak = max(abs(x) for x in c)
            assert all(abs(r) <= Fraction(1, 10**10) * peak for r in res)
    dup_worst = 0.0
    for z in np.geomspace(0.1, 100.0, 80):
        lhs = ln_gamma(2.0 * float(z))
        rhs = (
            -0.5 * math.log(math.pi)
            + (2.0 * z - 1.0) * math.log(2.0)
            + ln_gamma(float(z))
            + ln_gamma(float(z) + 0.5)
        )
        dup_worst = max(dup_worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    assert dup_worst <= 1e-13
    _report(
        12,
        "proof infrastructure",
        f"Gegenbauer ODE residual exactly zero for n <= 30; duplication {dup_worst:.2e} <= 1e-13",
    )
