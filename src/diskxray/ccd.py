"""Transfer of the weighted normal operator to constant-curvature disks.

A chart (kappa, R) with R^2 |kappa| < 1 carries the metric
g = (1+kappa |z|^2)^(-2) |dz|^2 on the disk of radius R (curvature 4*kappa).
The point map Phi and the line map ss conjugate its X-ray geometry into the
Euclidean unit disk; the curved normal operator is *defined* through that
conjugation, while a fixed-step RK4 geodesic integrator provides an
independent oracle for the intertwining identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import FanBeam
from .specfun import as_gamma
from .svdcore import psi_norm_sq, psi_values, sigma
from .xray import normal_apply
from .zernike import G_eval, ZernikeIndex

__all__ = [
    "CCDChart",
    "phi_map",
    "phi_inverse",
    "w_factor",
    "d_R",
    "ss_map",
    "ss_alpha",
    "ss_jacobian",
    "murel_check",
    "t_function",
    "fanbeam_from_interior",
    "transfer_normal_apply",
    "interIstar_verify",
]


@dataclass(frozen=True)
class CCDChart:
    """Constant-curvature disk parameters: metric (1+kappa|z|^2)^(-2)|dz|^2 on |z| <= R."""

    kappa: float
    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError(f"radius must be positive, got {self.R}")
        if self.R * self.R * abs(self.kappa) >= 1.0:
            raise ValueError(f"need R^2 |kappa| < 1 for a simple disk, got {self.R**2 * abs(self.kappa)}")

    @property
    def c(self) -> float:
        """Line-map slope (1 - kappa R^2) / (1 + kappa R^2)."""
        return (1.0 - self.kappa * self.R**2) / (1.0 + self.kappa * self.R**2)


def _check_inside(chart: CCDChart, z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > chart.R * (1.0 + 1e-12)):
        raise ValueError(f"point outside the disk of radius {chart.R}")
    return z


def phi_map(chart: CCDChart, z):
    """Point diffeomorphism Phi(z) = (1-kappa R^2)/(1-kappa|z|^2) * z/R onto the unit disk."""
    z = _check_inside(chart, z)
    out = (1.0 - chart.kappa * chart.R**2) / (1.0 - chart.kappa * np.abs(z) ** 2) * z / chart.R
    return out if out.ndim else complex(out)


def phi_inverse(chart: CCDChart, zeta):
    """Inverse of the point map, by the stable root of its radial quadratic.

    With u = |zeta|, the radius solves kappa R u r^2 + (1-kappa R^2) r - u R = 0,
    i.e. r = 2 u R / ((1-kappa R^2) + sqrt((1-kappa R^2)^2 + 4 kappa R^2 u^2)).
    """
    zeta = np.asarray(zeta, dtype=complex)
    if np.any(np.abs(zeta) > 1.0 + 1e-12):
        raise ValueError("point outside the closed unit disk")
    u = np.abs(zeta)
    b = 1.0 - chart.kappa * chart.R**2
    r = 2.0 * u * chart.R / (b + np.sqrt(b * b + 4.0 * chart.kappa * chart.R**2 * u * u))
    scale = np.where(u > 0.0, r / np.where(u > 0.0, u, 1.0), chart.R / b)
    out = zeta * scale
    return out if out.ndim else complex(out)


def w_factor(chart: CCDChart, z):
    """Conformal quotient w(z) = (1+kappa|z|^2)/(1-kappa|z|^2)."""
    z = _check_inside(chart, z)
    a = np.abs(z) ** 2
    out = (1.0 + chart.kappa * a) / (1.0 - chart.kappa * a)
    return out if out.ndim else float(out.real)


def d_R(chart: CCDChart, z):
    """Boundary defining function d = d_e o Phi on the radius-R disk.

    Closed form (1-|z|^2/R^2)(1-kappa^2 R^2 |z|^2)/(1-kappa|z|^2)^2; vanishes
    to first order at |z| = R and equals 1 - |Phi(z)|^2 identically.
    """
    z = _check_inside(chart, z)
    a = np.abs(z) ** 2
    k = chart.kappa
    out = (1.0 - a / chart.R**2) * (1.0 - k * k * chart.R**2 * a) / (1.0 - k * a) ** 2
    return out if out.ndim else float(out.real)


def ss_alpha(chart: CCDChart, alpha):
    """Incidence-angle component of the line map: arctan(c tan(alpha)).

    Evaluated as arctan2(c sin(alpha), cos(alpha)), which extends
    continuously to the tangent lines alpha = +-pi/2.
    """
    alpha = np.asarray(alpha, dtype=float)
    out = np.arctan2(chart.c * np.sin(alpha), np.cos(alpha))
    return out if out.ndim else float(out)


def ss_map(chart: CCDChart, fb: FanBeam) -> FanBeam:
    """Line diffeomorphism ss(beta, alpha) = (beta, arctan(c tan alpha))."""
    return FanBeam(fb.beta, ss_alpha(chart, fb.alpha))


def ss_jacobian(chart: CCDChart, alpha):
    """Jacobian ss' = d(alpha-tilde)/d(alpha) = c / (cos^2 a + c^2 sin^2 a).

    ``alpha`` is an incidence angle or array of them.  Continuous up to the
    endpoints, where it equals 1/c.
    """
    alpha = np.asarray(alpha, dtype=float)
    c = chart.c
    out = c / (np.cos(alpha) ** 2 + c * c * np.sin(alpha) ** 2)
    return out if out.ndim else float(out)


def murel_check(chart: CCDChart, fb: FanBeam) -> tuple[float, float]:
    """Both sides of the boundary-factor relation linking mu across the line map:

        mu_e o ss = sqrt((1+kappa R^2)/(1-kappa R^2)) * sqrt(ss') * mu.

    The prefactor is forced by the alpha = 0 case, where mu_e o ss = 1 and
    sqrt(ss'(0)) mu(0) = sqrt(c); statements of this identity with the
    reciprocal prefactor do not close.
    """
    lhs = math.cos(ss_alpha(chart, fb.alpha))
    pref = math.sqrt(1.0 / chart.c)
    rhs = pref * math.sqrt(ss_jacobian(chart, fb.alpha)) * math.cos(fb.alpha)
    return lhs, rhs


def t_function(chart: CCDChart, gamma, fb: FanBeam) -> float:
    """Boundary defining function t = (mu (ss* mu_e)^(2 gamma))^(1/(2 gamma+1))."""
    g = as_gamma(gamma)
    mu = math.cos(fb.alpha)
    mu_e = math.cos(ss_alpha(chart, fb.alpha))
    return (mu * mu_e ** (2.0 * g)) ** (1.0 / (2.0 * g + 1.0))


def _accel(chart: CCDChart, z, v):
    """Geodesic acceleration of the conformal metric: 2 kappa zbar v^2 / (1+kappa|z|^2)."""
    return 2.0 * chart.kappa * np.conj(z) * v * v / (1.0 + chart.kappa * np.abs(z) ** 2)


def _rk4_step(chart: CCDChart, z, v, h):
    k1z, k1v = v, _accel(chart, z, v)
    k2z, k2v = v + 0.5 * h * k1v, _accel(chart, z + 0.5 * h * k1z, v + 0.5 * h * k1v)
    k3z, k3v = v + 0.5 * h * k2v, _accel(chart, z + 0.5 * h * k2z, v + 0.5 * h * k2v)
    k4z, k4v = v + h * k3v, _accel(chart, z + h * k3z, v + h * k3v)
    zn = z + h / 6.0 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    vn = v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return zn, vn


def _refine_exit(chart: CCDChart, z0, v0, h_first, iterations: int = 4):
    """Newton-refine the boundary crossing starting from an inside state.

    phi(h) = |z(h)|^2 - R^2, with z(h) one RK4 step of size h from the inside
    state, has a transversal zero in (0, h_first]; returns the state there.
    """
    h = h_first
    for _ in range(iterations):
        z, v = _rk4_step(chart, z0, v0, h)
        phi = np.abs(z) ** 2 - chart.R**2
        dphi = 2.0 * np.real(np.conj(z) * v)
        h = h - phi / dphi
    return _rk4_step(chart, z0, v0, h)


def fanbeam_from_interior(chart: CCDChart, p, theta, step: float):
    """Fan-beam coordinates (beta-, alpha-) of geodesics through interior points.

    ``p`` is a complex point with |p| < R; ``theta`` an array of direction
    angles.  Each geodesic is traced backward to its entry point.  Vectorized
    over theta.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    z = np.full(theta.shape, complex(p))
    v = -(1.0 + chart.kappa * abs(complex(p)) ** 2) * np.exp(1j * theta)
    t = np.zeros(theta.shape)
    alive = np.ones(theta.shape, dtype=bool)
    exit_z = np.zeros(theta.shape, dtype=complex)
    exit_v = np.zeros(theta.shape, dtype=complex)
    max_len = 8.0 * chart.R / (1.0 - chart.R**2 * abs(chart.kappa))
    while np.any(alive):
        zn, vn = _rk4_step(chart, z, v, step)
        crossed = alive & (np.abs(zn) ** 2 > chart.R**2)
        if np.any(crossed):
            ze, ve = _refine_exit(chart, z[crossed], v[crossed], step)
            exit_z[crossed] = ze
            exit_v[crossed] = ve
            alive[crossed] = False
        z = np.where(alive, zn, z)
        v = np.where(alive, vn, v)
        t = t + np.where(alive, step, 0.0)
        if np.any(alive & (t > max_len)):
            raise RuntimeError("geodesic failed to exit: not a simple disk?")
    beta = np.angle(exit_z)
    # the forward ray enters with velocity -exit_v = (1+kappa R^2) e^(i(beta+pi+alpha))
    alpha = np.angle(-exit_v) - beta - math.pi
    alpha = (alpha + math.pi) % (2.0 * math.pi) - math.pi
    return beta, alpha


def transfer_normal_apply(chart: CCDChart, gamma, func, p, chord_order: int, theta_order: int):
    """Curved normal operator through the Euclidean conjugation.

    N_kappa f(p) = R/(1-kappa R^2) * w(p) * [N_e ((f/w^2) o Phi^(-1))](Phi(p)),
    where N_e is the Euclidean weighted normal operator.  At kappa = 0, R = 1
    this is exactly the Euclidean path.
    """
    g = as_gamma(gamma)
    zp = complex(p)

    def pushed(zeta):
        back = phi_inverse(chart, zeta)
        return np.asarray(func(back), dtype=complex) / np.asarray(w_factor(chart, back)) ** 2

    scale = chart.R / (1.0 - chart.kappa * chart.R**2)
    return scale * w_factor(chart, zp) * normal_apply(pushed, g, phi_map(chart, zp), chord_order, theta_order)


def interIstar_verify(
    chart: CCDChart,
    gammas,
    modes,
    p,
    theta_order: int = 96,
    step: float = 2e-3,
) -> list[float]:
    """Worst relative discrepancy, over the image ``modes`` (n, k), of the
    curved-vs-Euclidean backprojection identity at the interior point ``p``:
    one value per weight exponent in ``gammas``.

    Left side: geodesic-ODE backprojection over directions at ``p`` of the
    conjugated boundary mode,

        int [cos(a~)/cos(a)] sqrt(ss'(a)) psitilde_e(b-, a~) dtheta,

    with (b-, a-) the traced fan-beam coordinates and a~ = ss(a-).  Right
    side: sqrt((1-kappa R^2)/(1+kappa R^2)) * w(p) * G_{n,k}(Phi(p)), the
    closed-form Euclidean backprojection conjugated through Phi, w, ss.
    The fan through ``p`` does not depend on the mode or gamma, so it is
    traced once for all of them.
    """
    gammas = [as_gamma(g) for g in gammas]
    modes = list(modes)
    if not modes or not all(0 <= k <= n for n, k in modes):
        raise ValueError(f"interIstar check needs image modes 0 <= k <= n, got {modes}")
    zp = complex(p)
    if not abs(zp) < chart.R:
        raise ValueError(f"probe point {zp} lies outside the open disk of radius {chart.R}")
    theta = 2.0 * math.pi * np.arange(theta_order) / theta_order
    beta_m, alpha_m = fanbeam_from_interior(chart, zp, theta, step)
    atil = ss_alpha(chart, alpha_m)
    factor = np.cos(atil) / np.cos(alpha_m) * np.sqrt(ss_jacobian(chart, alpha_m))
    sin_atil = np.sin(atil)
    w_p, zeta = w_factor(chart, zp), phi_map(chart, zp)
    worst = []
    for g in gammas:
        residuals = []
        for n, k in modes:
            lhs = (factor * psi_values(n, k, g, beta_m, sin_atil)).mean() * 2.0 * math.pi
            rhs = math.sqrt(chart.c) * w_p * G_eval(ZernikeIndex(n, k, g), zeta)
            # normalize by the L^2(d^gamma) size of the mode so zeros of G stay testable
            scale = sigma(n, k, g) * math.sqrt(psi_norm_sq(n, g))
            residuals.append(abs(lhs - rhs) / max(abs(rhs), scale))
        worst.append(float(np.max(residuals)))  # a NaN residual propagates
    return worst
