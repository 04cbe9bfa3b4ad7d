"""Fan-beam parameterization of chords of the unit disk.

A pair (beta, alpha) describes the line entering the disk at the boundary
point e^(i beta) with incoming direction e^(i(beta+pi+alpha)), traversed for
0 <= t <= 2 cos(alpha).  Chords are (beta, alpha) scalars or arrays; angles
are stored as raw reals, and reduction mod 2*pi happens only where
coordinates are compared.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "wrap_angle",
    "chord_points",
    "chord_depth",
    "fanbeam_through_arrays",
    "scattering",
    "antipodal_scattering",
]


def wrap_angle(x):
    """Reduce an angle (scalar or array) to [0, 2*pi)."""
    return np.mod(x, 2.0 * math.pi)


def chord_points(beta, alpha, s):
    """Chord sample points e^(i beta) + cos(alpha)(1+s) e^(i(beta+pi+alpha)).

    The arc length is t = cos(alpha)(1+s), so s = -1 is the entry point and
    s = 1 the exit point.  beta/alpha broadcast against each other; s adds a
    trailing axis.
    """
    beta = np.asarray(beta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    t = np.cos(alpha)[..., None] * (1.0 + np.asarray(s))
    return np.exp(1j * beta)[..., None] + t * np.exp(1j * (beta + math.pi + alpha))[..., None]


def chord_depth(alpha, t):
    """The factorization d(chord(t)) = t (2 cos(alpha) - t), as a named identity.

    This is what turns the weight d^gamma along a chord into the Jacobi
    weight (1-s^2)^gamma under t = cos(alpha)(1+s); the X-ray quadrature
    substitution depends on it.  ``alpha`` and ``t`` broadcast.
    """
    return np.asarray(t) * (2.0 * np.cos(alpha) - np.asarray(t))


def fanbeam_through_arrays(rho, omega, theta):
    """Fan-beam coordinates (beta-, alpha-) of lines through points, vectorized.

    The line passes through the point rho*e^(i omega) with direction angle
    theta.  Inputs broadcast; returns (beta, alpha) arrays with
    alpha = arcsin(-rho sin(theta-omega)) and beta = theta - pi - alpha.
    """
    rho = np.asarray(rho, dtype=float)
    s = -rho * np.sin(np.asarray(theta) - np.asarray(omega))
    s = np.clip(s, -1.0, 1.0)
    alpha = np.arcsin(s)
    beta = np.asarray(theta) - math.pi - alpha
    return beta, alpha


def scattering(beta, alpha):
    """Scattering relation S(beta, alpha) = (beta+pi+2*alpha, pi-alpha).

    The second component is the outgoing parameterization and deliberately
    leaves [-pi/2, pi/2], so a raw coordinate pair is returned.
    """
    return beta + math.pi + 2.0 * alpha, math.pi - alpha


def antipodal_scattering(beta, alpha):
    """Antipodal scattering relation S_A(beta, alpha) = (beta+pi+2*alpha, -alpha)."""
    return beta + math.pi + 2.0 * alpha, -alpha
