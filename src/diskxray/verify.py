"""Named verification suites aggregating the library's spectral identities.

Each identity has one residual function, which the suites, ``ccd-verify`` and
the tests call with their own inputs.  A suite returns CheckResult rows (one per
residual), so the CLI prints one pass/fail line per check and exits nonzero on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ccd as ccdmod
from . import svdcore, xray, zernike
from .specfun import as_gamma

__all__ = [
    "CheckResult", "SUITE_NAMES", "run_suite",
    "eigen_residual", "kernel_residual", "funcrel_residual", "asym_residuals", "ladder_fd_residual",
    "ladder_bound_residual", "murel_residual", "flat_reduction_residual",
]

# suite -> (default gammas, default degree, cap on the degree)
_DEFAULTS = {
    "eigen": ((-0.5, 0.0, 0.5, 1.0, 2.0), 8, math.inf),
    "kernel": ((-0.5, 0.0, 0.5, 1.0, 2.0), 10, math.inf),
    "funcrel": ((-0.9, -0.5, -0.1, 0.1, 1.0, 3.0), 50, math.inf),
    "asym": ((-0.9, -0.5, -0.1, 0.1, 1.0, 3.0), 300, math.inf),
    "ladder": ((-0.5, 0.0, 0.5, 1.5), 8, 8),
    "ccd": ((0.0, 0.5), 2, 4),
}
SUITE_NAMES = (*_DEFAULTS, "all")


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


def eigen_residual(gamma, modes, points) -> float:
    """Worst relative residual of N Ghat = sigma^2 Ghat (N: ``xray.normal_apply``) over ``modes`` at ``points``."""
    worst = 0.0
    for n, k in modes:
        idx = zernike.ZernikeIndex(n, k, gamma)
        s2 = svdcore.sigma_sq(n, k, gamma)
        got = xray.normal_apply(lambda z, idx=idx: zernike.G_hat_eval(idx, z), gamma, points, n + 8, 4 * n + 16)
        worst = max(worst, float(np.abs(got - s2 * zernike.G_hat_eval(idx, points)).max() / s2))
    return worst


def kernel_residual(gamma, degree: int, points, theta_order: int) -> float:
    """Sup at ``points`` of the backprojected kernel modes psi_{n,k}, n <= degree, k in [-3, -1] or [n+1, n+3]."""
    worst = 0.0
    for n in range(degree + 1):
        for k in (-3, -2, -1, n + 1, n + 2, n + 3):
            vals = xray.backproject_grid(
                lambda b, a, n=n, k=k: svdcore.psi_values(n, k, gamma, b, np.sin(a)), gamma, points, theta_order
            )
            worst = max(worst, float(np.abs(vals).max()))
    return worst


def funcrel_residual(gamma, degree: int) -> float:
    """Worst relative gap, n <= degree, between sigma^2 and both the functional-relation and the beta forms."""
    worst = 0.0
    for n, k in zernike.triangle(degree).pairs():
        s2 = svdcore.sigma_sq(n, k, gamma)
        funcrel, beta_form = svdcore.funcrel_sigma_sq(n, k, gamma), svdcore.sigma_sq_beta_form(n, k, gamma)
        worst = max(worst, abs(funcrel - s2) / s2, abs(beta_form - s2) / s2)
    return worst


def asym_residuals(gamma, degree: int) -> tuple[float, float]:
    """(0 if the extremizers of sigma^2 sit where ``svdcore.asym_envelope_check`` expects, else 1; max/min
    spread of the envelope products over the tail n in [degree/2, degree], infinite if one is not positive)."""
    rep = svdcore.asym_envelope_check(gamma, degree)
    lo = rep.lower_env[degree // 2 - 1 :]  # the envelopes start at n = 1
    hi = rep.upper_env[degree // 2 - 1 :]
    positive = rep.lower_band[0] > 0.0 and rep.upper_band[0] > 0.0
    spread = max(max(lo) / min(lo), max(hi) / min(hi)) if positive else math.inf
    return (0.0 if rep.extremizers_ok else 1.0), spread


def ladder_fd_residual(field: zernike.CoefficientField, points) -> float:
    """Worst gap at ``points`` between ``d_dz``/``d_dzbar`` of ``field`` and central
    differences at steps 1e-3 and 5e-4 combined by one Richardson step."""
    h = 1e-3
    z = np.asarray(points, dtype=complex)
    steps = np.array([h, 1j * h])  # columns: x, then y
    # one evaluation on all 8 stencil points of each point: z +- step, z +- step/2
    vals = field.evaluate(z[:, None] + np.concatenate([steps, -steps, steps / 2, -steps / 2]))
    d1 = (vals[:, 0:2] - vals[:, 2:4]) / (2.0 * h)
    d2 = (vals[:, 4:6] - vals[:, 6:8]) / h
    fd = (4.0 * d2 - d1) / 3.0
    dz_fd = 0.5 * (fd[:, 0] - 1j * fd[:, 1])
    dzb_fd = 0.5 * (fd[:, 0] + 1j * fd[:, 1])
    gap_dz = np.abs(dz_fd - zernike.d_dz(field).evaluate(z))
    gap_dzb = np.abs(dzb_fd - zernike.d_dzbar(field).evaluate(z))
    return float(np.maximum(gap_dz, gap_dzb).max(initial=0.0))


def ladder_bound_residual(gamma, n_max: int) -> float:
    """Largest excess of the ladder coefficient (g+1)(n+1-k)(k+g+1) over (g+1)(n+g+2)^2/4, n <= n_max, k <= n+1."""
    g, worst = gamma, 0.0
    for n in range(0, n_max + 1):
        for k in range(n + 2):
            lhs = (g + 1.0) * (n + 1.0 - k) * (k + g + 1.0)
            worst = max(worst, lhs - (g + 1.0) * (n + g + 2.0) ** 2 / 4.0)
    return worst


def murel_residual(chart, alphas) -> float:
    """Worst gap of the mu relation across the line map over the incidence angles ``alphas``."""
    return float(np.abs(np.subtract(*ccdmod.murel_check(chart, alphas))).max())


def flat_reduction_residual(gamma, n: int, k: int) -> float:
    """interIstar discrepancy of mode (n, k) on the flat chart (kappa = 0, R = 1), where transfer is the identity."""
    [residual] = ccdmod.interIstar_verify(ccdmod.CCDChart(0.0, 1.0), [gamma], [(n, k)], 0.3 + 0.2j, 64, 5e-3)
    return residual


def _sample_points(count: int, seed: int = 20240) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.9 * np.sqrt(rng.random(count)) * np.exp(2j * math.pi * rng.random(count))


def _suite_eigen(gammas, degree: int) -> list[CheckResult]:
    pts = _sample_points(32)
    modes = list(zernike.triangle(degree).pairs())
    return [CheckResult(f"eigen gamma={g:g} N={degree}", eigen_residual(g, modes, pts), 1e-8) for g in gammas]


def _suite_kernel(gammas, degree: int) -> list[CheckResult]:
    pts, theta = _sample_points(64), 4 * (degree + 6) + 16
    return [
        CheckResult(f"kernel gamma={g:g} N={degree}", kernel_residual(g, degree, pts, theta), 1e-10) for g in gammas
    ]


def _suite_funcrel(gammas, degree: int) -> list[CheckResult]:
    return [CheckResult(f"funcrel gamma={g:g} N={degree}", funcrel_residual(g, degree), 1e-12) for g in gammas]


def _suite_asym(gammas, degree: int) -> list[CheckResult]:
    out = []
    for g in gammas:
        extremizers, spread = asym_residuals(g, degree)
        out.append(CheckResult(f"asym extremizers gamma={g:g} N={degree}", extremizers, 0.5))
        out.append(CheckResult(f"asym envelope-band gamma={g:g} N={degree}", spread, 1.25))
    return out


def _suite_ladder(gammas, degree: int) -> list[CheckResult]:
    rng = np.random.default_rng(3)
    pts = 0.7 * np.sqrt(rng.random(12)) * np.exp(2j * math.pi * rng.random(12))
    out = []
    for g in gammas:
        f = zernike.CoefficientField.random(g, degree, rng)
        out.append(CheckResult(f"ladder finite-difference gamma={g:g} N={degree}", ladder_fd_residual(f, pts), 1e-7))
        out.append(CheckResult(f"ladder coefficient-bound gamma={g:g} n<=200", ladder_bound_residual(g, 200), 0.0))
    return out


def _suite_ccd(gammas, degree: int, kappa: float | None, radius: float | None) -> list[CheckResult]:
    charts = ([ccdmod.CCDChart(kappa, radius)] if kappa is not None
              else [ccdmod.CCDChart(0.3, 0.9), ccdmod.CCDChart(-0.3, 0.9)])
    modes = list(zernike.triangle(min(degree, 2)).pairs())
    out = []
    for chart in charts:
        name = f"kappa={chart.kappa:g} R={chart.R:g}"
        out.append(CheckResult(f"ccd murel {name}", murel_residual(chart, np.linspace(-1.5, 1.5, 13)), 1e-12))
        inters = ccdmod.interIstar_verify(chart, gammas, modes, 0.27 + 0.11j)
        out += [CheckResult(f"ccd interIstar {name} gamma={g:g}", r, 1e-6) for g, r in zip(gammas, inters)]
    out.append(CheckResult("ccd kappa=0 reduction", flat_reduction_residual(0.5, 2, 1), 1e-10))
    return out


def run_suite(
    name: str,
    gamma: float | None = None,
    degree: int | None = None,
    kappa: float | None = None,
    radius: float | None = None,
) -> list[CheckResult]:
    """Run one named suite (or 'all'); gamma/degree override the defaults, and kappa and
    radius, which must come together and only for the ccd checks, replace its two charts."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    names = list(_DEFAULTS) if name == "all" else [name]
    if (kappa is None) != (radius is None):
        given, missing = ("kappa", "radius") if radius is None else ("radius", "kappa")
        raise ValueError(f"--{given} needs --{missing}: together they name one ccd chart")
    if kappa is not None and "ccd" not in names:
        raise ValueError(f"--kappa and --radius choose a ccd chart, but suite {name!r} runs no ccd checks")
    results: list[CheckResult] = []
    for suite in names:
        gammas, deg, cap = _DEFAULTS[suite]
        if gamma is not None:
            gammas = (as_gamma(gamma),)
        deg = min(deg if degree is None else degree, cap)
        chart = {"kappa": kappa, "radius": radius} if suite == "ccd" else {}
        # looked up at call time, so a wrapped _suite_<name> is the one that runs
        results += globals()[f"_suite_{suite}"](gammas, deg, **chart)
    return results
