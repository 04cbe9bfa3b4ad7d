"""Named verification suites aggregating the library's spectral identities.

Each suite returns a list of CheckResult rows (one per residual), so the CLI
can print one pass/fail line per check and exit nonzero on any failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ccd as ccdmod
from . import svdcore, xray, zernike
from .geometry import FanBeam
from .specfun import as_gamma

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "murel_residual", "interIstar_residual"]

SUITE_NAMES = ("eigen", "kernel", "funcrel", "asym", "ladder", "ccd", "all")

_DEFAULT_GAMMAS = {
    "eigen": (-0.5, 0.0, 0.5, 1.0, 2.0),
    "kernel": (-0.5, 0.0, 0.5, 1.0, 2.0),
    "funcrel": (-0.9, -0.5, -0.1, 0.1, 1.0, 3.0),
    "asym": (-0.9, -0.5, -0.1, 0.1, 1.0, 3.0),
    "ladder": (-0.5, 0.0, 0.5, 1.5),
    "ccd": (0.0, 0.5),
}
_DEFAULT_DEGREE = {"eigen": 8, "kernel": 10, "funcrel": 50, "asym": 300, "ladder": 8, "ccd": 2}


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  residual={self.residual:.3e}  tol={self.tolerance:.1e}"


def _sample_points(count: int, seed: int = 20240) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.9 * np.sqrt(rng.random(count)) * np.exp(2j * math.pi * rng.random(count))


def _suite_eigen(gammas, degree: int) -> list[CheckResult]:
    pts = _sample_points(32)
    out = []
    for g in gammas:
        worst = 0.0
        for n, k in zernike.triangle(degree).pairs():
            idx = zernike.ZernikeIndex(n, k, g)
            s2 = svdcore.sigma_sq(n, k, g)
            got = xray.normal_apply(
                lambda z, idx=idx: zernike.G_hat_eval(idx, z), g, pts, n + 8, 4 * n + 16
            )
            worst = max(worst, float(np.abs(got - s2 * zernike.G_hat_eval(idx, pts)).max() / s2))
        out.append(CheckResult(f"eigen gamma={g:g} N={degree}", worst, 1e-8))
    return out


def _suite_kernel(gammas, degree: int) -> list[CheckResult]:
    pts = _sample_points(64)
    out = []
    for g in gammas:
        worst = 0.0
        for n in range(degree + 1):
            for k in list(range(-3, 0)) + list(range(n + 1, n + 4)):
                vals = xray.backproject_grid(
                    lambda b, a, n=n, k=k: svdcore.psi_values(n, k, g, b, np.sin(a)),
                    g,
                    pts,
                    4 * (degree + 6) + 16,
                )
                worst = max(worst, float(np.abs(vals).max()))
        out.append(CheckResult(f"kernel gamma={g:g} N={degree}", worst, 1e-10))
    return out


def _suite_funcrel(gammas, degree: int) -> list[CheckResult]:
    out = []
    for g in gammas:
        worst = 0.0
        for n, k in zernike.triangle(degree).pairs():
            s2 = svdcore.sigma_sq(n, k, g)
            worst = max(
                worst,
                abs(svdcore.funcrel_sigma_sq(n, k, g) - s2) / s2,
                abs(svdcore.sigma_sq_beta_form(n, k, g) - s2) / s2,
            )
        out.append(CheckResult(f"funcrel gamma={g:g} N={degree}", worst, 1e-12))
    return out


def _suite_asym(gammas, degree: int) -> list[CheckResult]:
    out = []
    for g in gammas:
        rep = svdcore.asym_envelope_check(g, degree)
        out.append(CheckResult(f"asym extremizers gamma={g:g} N={degree}", 0.0 if rep.extremizers_ok else 1.0, 0.5))
        # the envelope products settle into fixed bands; measure the spread
        # over the tail n in [N/2, N] where the asymptotics have kicked in
        lo = rep.lower_env[degree // 2 - 1 :]  # the envelopes start at n = 1
        hi = rep.upper_env[degree // 2 - 1 :]
        spread = max(max(lo) / min(lo), max(hi) / min(hi))
        out.append(CheckResult(f"asym envelope-band gamma={g:g} N={degree}", spread, 1.25))
    return out


def _suite_ladder(gammas, degree: int) -> list[CheckResult]:
    rng = np.random.default_rng(3)
    pts = 0.7 * np.sqrt(rng.random(12)) * np.exp(2j * math.pi * rng.random(12))
    h = 1e-3
    out = []
    for g in gammas:
        f = zernike.CoefficientField.random(g, degree, rng)
        fz, fzb = zernike.d_dz(f), zernike.d_dzbar(f)
        worst = 0.0
        for z in pts:
            fd = {}
            for name, step in (("x", h), ("y", 1j * h)):
                d1 = (f.evaluate(z + step) - f.evaluate(z - step)) / (2.0 * h)
                d2 = (f.evaluate(z + step / 2) - f.evaluate(z - step / 2)) / h
                fd[name] = (4.0 * d2 - d1) / 3.0
            dz_fd = 0.5 * (fd["x"] - 1j * fd["y"])
            dzb_fd = 0.5 * (fd["x"] + 1j * fd["y"])
            worst = max(worst, abs(dz_fd - fz.evaluate(z)), abs(dzb_fd - fzb.evaluate(z)))
        out.append(CheckResult(f"ladder finite-difference gamma={g:g} N={degree}", worst, 1e-7))
        bound_worst = 0.0
        for n in range(0, 201):
            for k in range(n + 2):
                lhs = (g + 1.0) * (n + 1.0 - k) * (k + g + 1.0)
                bound_worst = max(bound_worst, lhs - (g + 1.0) * (n + g + 2.0) ** 2 / 4.0)
        out.append(CheckResult(f"ladder coefficient-bound gamma={g:g} n<=200", bound_worst, 0.0))
    return out


def murel_residual(chart) -> float:
    """Worst gap of the mu relation across the line map, over 13 incidence angles."""
    alphas = np.linspace(-1.5, 1.5, 13)
    return float(max(abs(np.subtract(*ccdmod.murel_check(chart, FanBeam(0.4, a)))) for a in alphas))


def interIstar_residual(chart, gamma, degree: int) -> float:
    """Worst interIstar discrepancy over the image modes n <= degree at one interior point."""
    modes = zernike.triangle(degree).pairs()
    return max(ccdmod.interIstar_verify(chart, gamma, n, k, 0.27 + 0.11j) for n, k in modes)


def _suite_ccd(gammas, degree: int, kappa: float | None, radius: float | None) -> list[CheckResult]:
    charts = (
        [ccdmod.CCDChart(kappa, radius)]
        if kappa is not None and radius is not None
        else [ccdmod.CCDChart(0.3, 0.9), ccdmod.CCDChart(-0.3, 0.9)]
    )
    out = []
    for chart in charts:
        out.append(CheckResult(f"ccd murel kappa={chart.kappa:g} R={chart.R:g}", murel_residual(chart), 1e-12))
        for g in gammas:
            out.append(
                CheckResult(
                    f"ccd interIstar kappa={chart.kappa:g} R={chart.R:g} gamma={g:g}",
                    interIstar_residual(chart, g, min(degree, 2)),
                    1e-6,
                )
            )
    flat = ccdmod.CCDChart(0.0, 1.0)
    red = ccdmod.interIstar_verify(flat, 0.5, 2, 1, 0.3 + 0.2j, 64, 5e-3)
    out.append(CheckResult("ccd kappa=0 reduction", red, 1e-10))
    return out


def run_suite(
    name: str,
    gamma: float | None = None,
    degree: int | None = None,
    kappa: float | None = None,
    radius: float | None = None,
) -> list[CheckResult]:
    """Run one named suite (or 'all'); gamma/degree override the defaults."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    names = [s for s in SUITE_NAMES if s != "all"] if name == "all" else [name]
    results: list[CheckResult] = []
    for suite in names:
        gammas = (as_gamma(gamma),) if gamma is not None else _DEFAULT_GAMMAS[suite]
        deg = degree if degree is not None else _DEFAULT_DEGREE[suite]
        if suite == "eigen":
            results += _suite_eigen(gammas, deg)
        elif suite == "kernel":
            results += _suite_kernel(gammas, deg)
        elif suite == "funcrel":
            results += _suite_funcrel(gammas, deg)
        elif suite == "asym":
            results += _suite_asym(gammas, deg)
        elif suite == "ladder":
            results += _suite_ladder(gammas, min(deg, 8))
        elif suite == "ccd":
            results += _suite_ccd(gammas, min(deg, 4), kappa, radius)
    return results
