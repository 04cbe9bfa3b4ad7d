"""Gauss-Jacobi rules and the tensor quadratures for the disk and boundary.

Nodes and weights come from the Golub-Welsch algorithm (symmetric
tridiagonal eigensolve of the Jacobi recurrence matrix), which stays robust
for weight exponents approaching the gamma -> -1 limit.

The disk rule integrates against d^gamma dA via the substitution u = rho^2,
d^gamma rho drho domega = (1/2) (1-u)^gamma du domega.  The boundary rule
integrates regular factors against the net weight mu^(2*gamma+2) dbeta dalpha
via x = sin(alpha); the singular measure mu^(-2*gamma) is never discretized
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .specfun import as_gamma, ln_beta, readonly

__all__ = [
    "QuadratureRule1D",
    "DiskQuadrature",
    "BoundaryQuadrature",
    "gauss_jacobi",
    "jacobi_weight_moments",
    "disk_rule",
    "boundary_rule",
    "default_orders",
]


@dataclass
class QuadratureRule1D:
    """Nodes/weights for (1-x)^a (1+x)^b on [-1, 1], as read-only copies."""

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        self.nodes = readonly(self.nodes, float)
        self.weights = readonly(self.weights, float)

    def integrate(self, values: np.ndarray):
        """Contract sampled values (last axis = nodes) with the weights."""
        return np.asarray(values) @ self.weights


def gauss_jacobi(order: int, a: float, b: float) -> QuadratureRule1D:
    """Gauss-Jacobi rule of given order for the weight (1-x)^a (1+x)^b.

    Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if a <= -1.0 or b <= -1.0:
        raise ValueError(f"Jacobi exponents must exceed -1, got a={a}, b={b}")
    mu0 = math.exp((a + b + 1.0) * math.log(2.0) + ln_beta(a + 1.0, b + 1.0))
    ab = a + b
    i = np.arange(order, dtype=float)
    denom = (2.0 * i + ab) * (2.0 * i + ab + 2.0)
    diag = np.where(denom == 0.0, (b - a) / (ab + 2.0), (b * b - a * a) / np.where(denom == 0.0, 1.0, denom))
    j = np.arange(1.0, order)
    s = 2.0 * j + ab
    with np.errstate(invalid="ignore", divide="ignore"):
        off_sq = 4.0 * j * (j + a) * (j + b) * (j + ab) / (s * s * (s * s - 1.0))
    if order > 1:
        # k = 1 in its cancelled form; the general expression is 0/0 at a+b = -1
        off_sq[0] = 4.0 * (a + 1.0) * (b + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    off = np.sqrt(off_sq)
    if order == 1:
        nodes = np.array([diag[0]])
        vecs0 = np.array([1.0])
    else:
        nodes, vecs = eigh_tridiagonal(diag, off)
        vecs0 = vecs[0]
    weights = mu0 * vecs0**2
    if not (np.all(np.diff(nodes) > 0.0) and nodes[0] > -1.0 and nodes[-1] < 1.0):
        raise RuntimeError(f"Gauss-Jacobi nodes left (-1, 1) at order={order}, a={a}, b={b}")
    if not np.all(weights > 0.0) or abs(weights.sum() - mu0) > 1e-12 * mu0:
        raise RuntimeError(f"Gauss-Jacobi weights inconsistent at order={order}, a={a}, b={b}")
    return QuadratureRule1D(nodes=nodes, weights=weights, a=a, b=b)


def jacobi_weight_moments(count: int, a: float, b: float) -> np.ndarray:
    """Moments m_j = int x^j (1-x)^a (1+x)^b dx for j < count, by recurrence.

    m_0 is the Beta-function moment and
    m_{j+1} = ((b-a) m_j + j m_{j-1}) / (a+b+j+2).
    """
    m = np.empty(count)
    m[0] = math.exp((a + b + 1.0) * math.log(2.0) + ln_beta(a + 1.0, b + 1.0))
    if count > 1:
        m[1] = (b - a) * m[0] / (a + b + 2.0)
    for j in range(1, count - 1):
        m[j + 1] = ((b - a) * m[j] + j * m[j - 1]) / (a + b + j + 2.0)
    return m


@dataclass
class DiskQuadrature:
    """Tensor rule on the closed disk for the measure d^gamma dA; arrays are read-only."""

    gamma: float
    radial_nodes: np.ndarray  # u = rho^2 nodes in (0, 1)
    radial_weights: np.ndarray  # include the 1/2 from u = rho^2
    angular_count: int
    rho: np.ndarray = field(init=False)  # flattened (radial x angular)
    omega: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    z: np.ndarray = field(init=False)

    def __post_init__(self):
        m = self.angular_count
        om = 2.0 * math.pi * np.arange(m) / m
        self.radial_nodes = readonly(self.radial_nodes, float)
        self.radial_weights = readonly(self.radial_weights, float)
        rho = np.sqrt(self.radial_nodes)
        self.rho = readonly(np.repeat(rho, m))
        self.omega = readonly(np.tile(om, rho.size))
        self.weights = readonly(np.repeat(self.radial_weights * (2.0 * math.pi / m), m))
        self.z = readonly(self.rho * np.exp(1j * self.omega))

    def integrate(self, values: np.ndarray):
        """Integrate sampled values (aligned with .z) against d^gamma dA."""
        return np.asarray(values) @ self.weights


def disk_rule(gamma, radial_order: int, angular_count: int) -> DiskQuadrature:
    """Quadrature for int f(z) d^gamma dA over the unit disk."""
    g = as_gamma(gamma)
    if radial_order < 1 or angular_count < 1:
        raise ValueError("radial_order and angular_count must be >= 1")
    base = gauss_jacobi(radial_order, g, 0.0)
    u = 0.5 * (base.nodes + 1.0)
    w = base.weights * 2.0 ** (-g - 1.0)  # (1-x)^g dx -> 2^(g+1) (1-u)^g du
    rule = DiskQuadrature(gamma=g, radial_nodes=u, radial_weights=0.5 * w, angular_count=angular_count)
    mass = float(rule.weights.sum())
    want = math.pi / (g + 1.0)
    if abs(mass - want) > 1e-12 * want:
        raise RuntimeError(f"disk rule mass {mass} deviates from pi/(gamma+1) = {want}")
    return rule


@dataclass
class BoundaryQuadrature:
    """Tensor rule pairing regular factors over the boundary manifold.

    Stored data live on the grid (beta_i, s_j), s = sin(alpha).  Pairings of
    regular factors carry the net weight mu^(2*gamma+2) dbeta dalpha
    = (1-s^2)^(gamma+1/2) dbeta ds, which is the Jacobi weight of the s-rule.
    Node and weight arrays are read-only copies.
    """

    gamma: float
    beta: np.ndarray
    s_nodes: np.ndarray
    s_weights: np.ndarray
    alpha: np.ndarray = field(init=False)

    def __post_init__(self):
        self.beta = readonly(self.beta, float)
        self.s_nodes = readonly(self.s_nodes, float)
        self.s_weights = readonly(self.s_weights, float)
        self.alpha = readonly(np.arcsin(np.clip(self.s_nodes, -1.0, 1.0)))

    @property
    def beta_count(self) -> int:
        return self.beta.size

    @property
    def s_order(self) -> int:
        return self.s_nodes.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.beta.size, self.s_nodes.size)

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable (beta[:, None], alpha[None, :]) node grids."""
        return self.beta[:, None], self.alpha[None, :]

    def integrate(self, values: np.ndarray):
        """Integrate a regular-factor sample against mu^(2*gamma+2) dbeta dalpha."""
        values = np.asarray(values)
        db = 2.0 * math.pi / self.beta_count
        return (values @ self.s_weights).sum() * db

    def pair(self, f_values: np.ndarray, g_values: np.ndarray):
        """Hermitian pairing <f, g> of two regular-factor samples."""
        return self.integrate(np.asarray(f_values) * np.conj(np.asarray(g_values)))


def boundary_rule(gamma, beta_count: int, s_order: int) -> BoundaryQuadrature:
    """Quadrature on (beta, sin alpha) for boundary pairings at exponent gamma."""
    g = as_gamma(gamma)
    if beta_count < 1 or s_order < 1:
        raise ValueError("beta_count and s_order must be >= 1")
    rule = gauss_jacobi(s_order, g + 0.5, g + 0.5)
    beta = 2.0 * math.pi * np.arange(beta_count) / beta_count
    return BoundaryQuadrature(gamma=g, beta=beta, s_nodes=rule.nodes, s_weights=rule.weights)


def default_orders(max_degree: int) -> dict:
    """Rule sizes making inner products up to the given degree exact.

    radial_order = N+8, angular_count = 4N+16, s_order = N+8,
    beta_count = 4N+16.
    """
    n = int(max_degree)
    return {
        "radial_order": n + 8,
        "angular_count": 4 * n + 16,
        "s_order": n + 8,
        "beta_count": 4 * n + 16,
    }
