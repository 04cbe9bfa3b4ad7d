"""Numeric forward transform, backprojection, and the normal operator.

The forward path uses the chord substitution t = cos(alpha)(1+s), under
which the boundary-degenerate weight d^gamma along the chord becomes the
Gauss-Jacobi weight (1-s^2)^gamma exactly:

    (I0 d^gamma f)(beta, alpha)
        = cos(alpha)^(2*gamma+1) * int_{-1}^{1} f(chord(s)) (1-s^2)^gamma ds.

Sinograms store only the regular factor gtilde (the s-integral above);
multiplying back by mu^(2*gamma+1) is never needed numerically.
Backprojection integrates a regular factor over all directions through a
point.  This module is the quadrature oracle against the spectral path in
``svdcore``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import chord_points, fanbeam_through_arrays
from .quadrature import BoundaryQuadrature, boundary_rule, gauss_jacobi
from .specfun import as_gamma, readonly
from .zernike import int_at_least, read_table, write_table

__all__ = [
    "Sinogram",
    "forward",
    "backproject_grid",
    "normal_apply",
    "adjoint_pairing_check",
    "write_sinogram",
    "read_sinogram",
]


@dataclass(frozen=True)
class Sinogram:
    """Sampled regular factor gtilde of boundary data g = mu^(2*gamma+1) gtilde (immutable, read-only copy)."""

    gamma: float
    rule: BoundaryQuadrature
    values: np.ndarray  # complex, shape (beta_count, s_order)

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_gamma(self.gamma))
        object.__setattr__(self, "values", readonly(self.values, complex))
        if self.values.shape != self.rule.shape:
            raise ValueError(f"value array shape {self.values.shape} != rule shape {self.rule.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sinogram contains non-finite entries")


def forward(func, gamma, rule: BoundaryQuadrature, chord_order: int) -> Sinogram:
    """Weighted forward transform of a pointwise-evaluable disk function.

    ``func`` must accept a complex ndarray of points in the closed disk.
    Returns the sinogram of regular factors
    gtilde(beta, alpha) = int f(chord(s)) (1-s^2)^gamma ds.
    """
    g = as_gamma(gamma)
    if chord_order < 1:
        raise ValueError("chord_order must be >= 1")
    chord = gauss_jacobi(chord_order, g, g)
    beta, alpha = rule.grids()
    pts = chord_points(beta, alpha, chord.nodes)
    vals = np.asarray(func(pts), dtype=complex)
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise ValueError(
            f"non-finite integrand at beta index {bad[0]}, s index {bad[1]}, chord node {bad[2]}"
        )
    return Sinogram(gamma=g, rule=rule, values=vals @ chord.weights)


def backproject_grid(gtilde, gamma, points, theta_order: int):
    """Weighted backprojection of a regular factor at an array of points.

    Computes int_{S^1} gtilde(beta-, alpha-) dtheta, i.e. the action of
    I0^sharp mu^(-2*gamma-1) on g = mu^(2*gamma+1) gtilde.  ``gtilde`` must
    accept broadcast (beta, alpha) ndarrays.
    """
    as_gamma(gamma)  # validate
    if theta_order < 1:
        raise ValueError("theta_order must be >= 1")
    z = np.asarray(points, dtype=complex)
    rho = np.abs(z)
    omega = np.angle(z)
    theta = 2.0 * math.pi * np.arange(theta_order) / theta_order
    beta, alpha = fanbeam_through_arrays(rho[..., None], omega[..., None], theta)
    vals = np.asarray(gtilde(beta, alpha), dtype=complex)
    return vals.mean(axis=-1) * (2.0 * math.pi)


def normal_apply(func, gamma, p, chord_order: int, theta_order: int):
    """Fully numeric normal operator: backprojection of the forward transform.

    ``p`` is a complex point or array of points.  The composition is fused:
    for each direction theta through each point, the chord integral of func
    is evaluated by Gauss-Jacobi.
    """
    g = as_gamma(gamma)
    chord = gauss_jacobi(chord_order, g, g)

    def gtilde(beta, alpha):
        pts = chord_points(beta, alpha, chord.nodes)
        return np.asarray(func(pts), dtype=complex) @ chord.weights

    return backproject_grid(gtilde, g, p, theta_order)


def adjoint_pairing_check(
    func,
    gtilde,
    gamma,
    rule: BoundaryQuadrature,
    disk,
    chord_order: int,
    theta_order: int,
) -> tuple[complex, complex]:
    """Both sides of the Hilbert adjoint identity, by quadrature.

    Returns (<I0 d^gamma f, g>_{mu^(-2gamma)}, <f, I0^sharp mu^(-2gamma-1) g>_{d^gamma})
    for a disk function ``func`` and a boundary regular factor ``gtilde``.
    """
    sino = forward(func, gamma, rule, chord_order)
    beta, alpha = rule.grids()
    lhs = rule.pair(sino.values, gtilde(beta, alpha))
    fvals = np.asarray(func(disk.z), dtype=complex)
    bvals = backproject_grid(gtilde, gamma, disk.z, theta_order)
    rhs = disk.integrate(fvals * np.conj(bvals))
    return complex(lhs), complex(rhs)


def write_sinogram(path, sino: Sinogram, header_extra: dict | None = None) -> None:
    """Write a sinogram as text: gamma/beta_count/s_order header, then i,j,re,im rows."""
    head = [
        f"gamma={sino.gamma:.17g}",
        f"beta_count={sino.rule.beta_count}",
        f"s_order={sino.rule.s_order}",
    ]
    head += [f"{key}={val}" for key, val in (header_extra or {}).items()]
    i, j = np.indices(sino.values.shape).reshape(2, -1)
    v = sino.values.ravel()
    write_table(path, head, zip(i.tolist(), j.tolist(), v.real.tolist(), v.imag.tolist()))


def read_sinogram(path) -> tuple[Sinogram, dict]:
    """Parse a sinogram file (exactly one row per node); the rule is rebuilt from the recorded sizes.

    The rows are checked against the recorded sizes before the value array
    and the rule are built, so a short file costs no more than its rows.
    """
    count = int_at_least(1)
    header, rows = read_table(path, {"gamma": as_gamma, "beta_count": count, "s_order": count}, "i,j,re,im")
    gamma, nb, ns = header["gamma"], header["beta_count"], header["s_order"]
    for (i, j), (_, lineno) in rows.items():
        if not (0 <= i < nb and 0 <= j < ns):
            raise ValueError(f"{path}:{lineno}: node index ({i}, {j}) out of range")
    if len(rows) < nb * ns:
        i, j = next((i, j) for i in range(nb) for j in range(ns) if (i, j) not in rows)
        raise ValueError(f"{path}: no row for node index ({i}, {j}); {len(rows)} of {nb * ns} present")
    values = np.zeros((nb, ns), dtype=complex)
    for (i, j), (v, _) in rows.items():
        values[i, j] = v
    return Sinogram(gamma=gamma, rule=boundary_rule(gamma, nb, ns), values=values), header
