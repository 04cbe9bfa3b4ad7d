"""The SVD triple (Ghat, psihat, sigma) and the spectral pipeline built on it.

Boundary modes are indexed by n >= 0 and unrestricted k in Z; those with
k < 0 or k > n span the kernel of the weighted backprojection and carry no
singular value.  Boundary data are always handled through regular factors
gtilde with g = mu^(2*gamma+1) gtilde.

Phase convention: with Ghat_{n,k} = (-1)^k Phat_{n-k,k} on the disk side,
the boundary side is normalized as psihat = i^n psi / ||psi||, which makes
all singular values strictly positive.

Every boundary mode separates: psihat_{n,k}(beta, s) = c_n e^(i m beta)
e^(i m alpha) L_n^gamma(s) with m = n-2k and s = sin(alpha).  Analysis
(``analyze``, behind ``invert`` and ``range_defect``) is therefore a
Fourier sum over the beta nodes for each frequency m, a weight per s node,
and one product with the table L_n(s_j) of all degrees from a single
recurrence pass; synthesis is its transpose.  Both cost
O(N^3) at degree N with the default rule sizes (beta_count, s_order ~ N),
where a grid per (n, k) mode costs O(N^5).  ``psi_values`` and
``psi_hat_values`` evaluate single modes and serve as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import BoundaryQuadrature
from .specfun import as_gamma, gamma_matches, gegenbauer_L, gegenbauer_norm_sq, gegenbauer_table, ln_gamma, readonly
from .xray import Sinogram
from .zernike import CoefficientField, triangle

__all__ = [
    "K_EXTRA",
    "InversionResult",
    "psi_values",
    "psi_hat_values",
    "psi_norm_sq",
    "sigma",
    "sigma_sq",
    "sigma_sq_beta_form",
    "sigma_ratio",
    "sigma_sq_flat",
    "sigma_sq_triangle",
    "funcrel_sigma_sq",
    "analyze",
    "synthesize",
    "invert",
    "range_defect",
    "sobolev_norm",
    "asym_envelope_check",
    "tame_bounds_check",
]


# width of the kernel band that ``analyze`` measures: k in [-K_EXTRA, -1] and [n+1, n+K_EXTRA]
K_EXTRA = 3


def psi_values(n: int, k: int, gamma, beta, s):
    """Regular factor psitilde on broadcastable (beta, sin alpha) arrays.

    psitilde = ((-1)^n / 2 pi) e^(i (n-2k)(beta+alpha)) L_n^gamma(sin alpha),
    so that psi = mu^(2*gamma+1) psitilde.
    """
    g = as_gamma(gamma)
    beta = np.asarray(beta, dtype=float)
    s = np.asarray(s, dtype=float)
    alpha = np.arcsin(np.clip(s, -1.0, 1.0))
    phase = np.exp(1j * (n - 2 * k) * (beta + alpha))
    return ((-1.0) ** n / (2.0 * math.pi)) * phase * gegenbauer_L(n, g, s)


def psi_norm_sq(n: int, gamma) -> float:
    """||psi_{n,k}||^2 in L^2(boundary, mu^(-2*gamma)): ||L_n^gamma||^2 / 2 pi, the same for every k."""
    return gegenbauer_norm_sq(n, gamma) / (2.0 * math.pi)


def psi_hat_values(n: int, k: int, gamma, beta, s):
    """Regular factor of the normalized, phase-fixed mode psihat = i^n psi/||psi||."""
    return (1j**n / math.sqrt(psi_norm_sq(n, gamma))) * psi_values(n, k, gamma, beta, s)


def _check_sigma_index(n: int, k: int) -> None:
    if not (0 <= k <= n):
        raise ValueError(f"kernel mode (n, k) = ({n}, {k}) has no singular value")


def _ln_gamma_terms(j: int, g: float) -> tuple[float, float, float]:
    """The three log-gamma families of sigma^2 at j: lnG(j+1), lnG(j+g+1), lnG(j+2g+2)."""
    return ln_gamma(j + 1.0), ln_gamma(j + g + 1.0), ln_gamma(j + 2.0 * g + 2.0)


def _ln_sigma_sq(g: float, at_n, at_k, at_nk):
    """log sigma^2 from the log-gamma terms at n, k and n-k (scalars or arrays):

    sigma^2 = 2^(2g+2) pi C(n,k) Gamma(n-k+g+1) Gamma(k+g+1) / Gamma(n+2g+2).
    """
    ln_binomial = at_n[0] - at_k[0] - at_nk[0]
    return (2.0 * g + 2.0) * math.log(2.0) + math.log(math.pi) + ln_binomial + at_nk[1] + at_k[1] - at_n[2]


def sigma_sq(n: int, k: int, gamma) -> float:
    """Squared singular value, Gamma form, in log space (see ``_ln_sigma_sq``).

    The formula is symmetric under k <-> n-k; the evaluation canonicalizes
    the index so that symmetry holds bit-exactly.
    """
    g = as_gamma(gamma)
    _check_sigma_index(n, k)
    k = min(k, n - k)
    return math.exp(_ln_sigma_sq(g, _ln_gamma_terms(n, g), _ln_gamma_terms(k, g), _ln_gamma_terms(n - k, g)))


def sigma_sq_beta_form(n: int, k: int, gamma) -> float:
    """Squared singular value, Beta-ratio form (independent evaluation):

    sigma^2 = 2^(2g+2) pi / (n+1) * B(n-k+1+g, k+1+g) / B(n-k+1, k+1).
    """
    g = as_gamma(gamma)
    _check_sigma_index(n, k)
    ln_b_num = ln_gamma(n - k + 1.0 + g) + ln_gamma(k + 1.0 + g) - ln_gamma(n + 2.0 * g + 2.0)
    ln_b_den = ln_gamma(n - k + 1.0) + ln_gamma(k + 1.0) - ln_gamma(n + 2.0)
    return math.exp(
        (2.0 * g + 2.0) * math.log(2.0) + math.log(math.pi) - math.log(n + 1.0) + ln_b_num - ln_b_den
    )


def sigma(n: int, k: int, gamma) -> float:
    """Positive singular value sigma_{n,k}^gamma."""
    return math.sqrt(sigma_sq(n, k, gamma))


def sigma_ratio(n: int, k: int, gamma) -> float:
    """Closed-form squared ratio (sigma_{n,k+1}/sigma_{n,k})^2."""
    g = as_gamma(gamma)
    if not (0 <= k <= n - 1):
        raise ValueError(f"need 0 <= k <= n-1, got (n, k) = ({n}, {k})")
    return (n - k) / (n - k + g) * (k + 1.0 + g) / (k + 1.0)


def sigma_sq_flat(gamma, degree: int) -> np.ndarray:
    """sigma^2 over ``triangle(degree)``, aligned with CoefficientField.coeffs.

    Bit-identical to ``sigma_sq``: the same expression on tabulated log-gamma
    terms, exponentiated by ``math.exp``.
    """
    g = as_gamma(gamma)
    tri = triangle(degree)
    terms = np.array([_ln_gamma_terms(j, g) for j in range(degree + 1)]).T
    k = np.minimum(tri.k, tri.n - tri.k)
    ln = _ln_sigma_sq(g, terms[:, tri.n], terms[:, k], terms[:, tri.n - k])
    return readonly(np.fromiter(map(math.exp, ln.tolist()), float, tri.n.size))


def sigma_sq_triangle(gamma, degree: int) -> list[np.ndarray]:
    """sigma^2 rows per degree n <= degree: views of ``sigma_sq_flat``."""
    return np.split(sigma_sq_flat(gamma, degree), triangle(degree).starts[1:-1])


def funcrel_sigma_sq(n: int, k: int, gamma) -> float:
    """Diagonal value of the normal operator from the functional relation
    (Gamma form), with the spectral substitutions D -> n, Dw -> n-2k:

    2^(2g+2) pi G(n+1)/G(n+2g+2) * G(n-k+g+1)/G(n-k+1) * G(k+g+1)/G(k+1).
    """
    g = as_gamma(gamma)
    _check_sigma_index(n, k)
    return math.exp(
        (2.0 * g + 2.0) * math.log(2.0)
        + math.log(math.pi)
        + ln_gamma(n + 1.0)
        - ln_gamma(n + 2.0 * g + 2.0)
        + ln_gamma(n - k + g + 1.0)
        - ln_gamma(n - k + 1.0)
        + ln_gamma(k + g + 1.0)
        - ln_gamma(k + 1.0)
    )


def _require_resolution(rule: BoundaryQuadrature, degree: int) -> None:
    """Refuse a rule too coarse for ``analyze(sino, degree)``.

    With M = degree + 2*K_EXTRA, beta_count >= 2M+2 guarantees the no-alias
    condition 2M+1 <= beta_count: two frequencies |m|, |m'| <= M differ by
    less than beta_count, so the beta sum separates them exactly.  And
    s_order >= degree+2 makes the Gauss-Jacobi rule exact for the products
    L_n L_n' of degree <= 2*degree.
    """
    need_s = degree + 2
    need_beta = 2 * (degree + 2 * K_EXTRA) + 2
    if rule.s_order < need_s or rule.beta_count < need_beta:
        raise ValueError(
            f"boundary rule (beta_count={rule.beta_count}, s_order={rule.s_order}) "
            f"under-resolves degree {degree}; "
            f"need beta_count >= {need_beta}, s_order >= {need_s}"
        )


def _mode_scale(degree: int, gamma: float) -> np.ndarray:
    """c_n = (-i)^n / sqrt(2 pi ||L_n||^2) for n <= degree, so that
    psihat_{n,k} = c_n e^(i m (beta+alpha)) L_n(sin alpha) with m = n-2k."""
    norms = np.array([gegenbauer_norm_sq(n, gamma) for n in range(degree + 1)])
    return np.array([1.0, -1j, -1.0, 1j])[np.arange(degree + 1) % 4] / np.sqrt(2.0 * math.pi * norms)


def _fourier(m: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """e^(i m angle): rows the frequencies m, columns the angles."""
    return np.exp(1j * np.outer(m, angles))


def analyze(sino, degree: int) -> np.ndarray:
    """Boundary-mode coefficients a_{n,k} = <g, psihat_{n,k}> of a sinogram,
    n <= degree, k in [-K_EXTRA, n + K_EXTRA].

    Returns an array ``a`` of shape (degree+1, 2M+1), M = degree + 2*K_EXTRA:
    ``a[n, M + m]`` is the pairing with the mode of frequency m = n-2k, for
    every |m| <= n + 2*K_EXTRA with m = n (mod 2); every other entry is 0.
    Entries with |m| > n (k outside [0, n]) measure the component of the data
    in the kernel of the backprojection (range defect).
    Since psihat_{n,k} = c_n e^(i m beta) e^(i m alpha) L_n(sin alpha), the
    pairing factors: a Fourier sum over beta, the weights w_j e^(-i m alpha_j),
    then one product with the table L_n(s_j).  Both products cost
    O(degree^3) for the default rule sizes.
    """
    rule = sino.rule
    _require_resolution(rule, degree)
    big_m = degree + 2 * K_EXTRA
    m = np.arange(-big_m, big_m + 1)
    weights = rule.s_weights * (2.0 * math.pi / rule.beta_count)
    per_m = (_fourier(-m, rule.beta) @ sino.values) * _fourier(-m, rule.alpha) * weights
    table = gegenbauer_table(degree, sino.gamma, rule.s_nodes)
    spectrum = (table @ per_m.T) * np.conj(_mode_scale(degree, sino.gamma))[:, None]
    n = np.arange(degree + 1)[:, None]
    spectrum[(np.abs(m) > n + 2 * K_EXTRA) | ((n - m) % 2 != 0)] = 0.0
    return spectrum


def synthesize(field: CoefficientField, rule: BoundaryQuadrature) -> Sinogram:
    """Exact sinogram of a coefficient field: gtilde = sum f_{n,k} sigma psihat-tilde.

    The transpose of ``analyze``: f sigma c_n placed at (n, m = n-2k),
    summed over n against the table L_n(s_j), times e^(i m alpha_j), then
    summed over m against e^(i m beta_i).
    """
    if not gamma_matches(field.gamma, rule.gamma):
        raise ValueError(f"field gamma {field.gamma} does not match rule gamma {rule.gamma}")
    degree = field.degree
    tri = triangle(degree)
    m = np.arange(-degree, degree + 1)
    spectrum = np.zeros((degree + 1, m.size), dtype=complex)
    spectrum[tri.n, degree + tri.n - 2 * tri.k] = field.coeffs * np.sqrt(sigma_sq_flat(field.gamma, degree))
    spectrum *= _mode_scale(degree, field.gamma)[:, None]
    table = gegenbauer_table(degree, field.gamma, rule.s_nodes)
    per_m = (spectrum.T @ table) * _fourier(m, rule.alpha)
    return Sinogram(gamma=field.gamma, rule=rule, values=_fourier(rule.beta, m) @ per_m)


@dataclass
class InversionResult:
    """SVD inversion output: recovered field plus the range defect of the data."""

    field: CoefficientField
    defect: float


def _kernel_defect(spectrum: np.ndarray) -> float:
    """Max |a_{n,k}| over the kernel band |m| > n of an ``analyze`` array."""
    n = np.arange(spectrum.shape[0])[:, None]
    m = np.arange(spectrum.shape[1]) - spectrum.shape[1] // 2
    return float(np.abs(spectrum[np.abs(m) > n]).max(initial=0.0))


def invert(sino, degree: int) -> InversionResult:
    """Invert a sinogram through the SVD: f_{n,k} = a_{n,k} / sigma_{n,k}.

    Kernel-band coefficients (k outside [0, n]) are not inverted; their
    largest magnitude is reported as the defect, equal to ``range_defect``.
    """
    spectrum = analyze(sino, degree)
    tri = triangle(degree)
    image = spectrum[tri.n, degree + 2 * K_EXTRA + tri.n - 2 * tri.k]
    sig = np.sqrt(sigma_sq_flat(sino.gamma, degree))
    # a / sigma part by part, as Python divides a complex by a float: numpy's complex / real
    # multiplies by a reciprocal, which rounds differently; the "* 0.0" terms only set the
    # signs of zero results as Python's division does
    coeffs = np.empty_like(image)
    coeffs.real = (image.real + image.imag * 0.0) / sig
    coeffs.imag = (image.imag - image.real * 0.0) / sig
    return InversionResult(field=CoefficientField(sino.gamma, degree, coeffs), defect=_kernel_defect(spectrum))


def range_defect(sino, degree: int) -> float:
    """Max |<g, psihat_{n,k}>| over the kernel band k in [-K_EXTRA,-1] u [n+1,n+K_EXTRA]."""
    return _kernel_defect(analyze(sino, degree))


def sobolev_norm(field: CoefficientField, s: float) -> float:
    """Spectral Sobolev norm sqrt(sum (n+1+gamma)^(2s) |f_{n,k}|^2)."""
    if s < 0:
        raise ValueError("Sobolev order must be nonnegative")
    weights = (triangle(field.degree).n + 1.0 + field.gamma) ** (2.0 * s)
    return math.sqrt(float(weights @ np.abs(field.coeffs) ** 2))


@dataclass
class EnvelopeReport:
    """Outcome of the singular-value structure scan."""

    gamma: float
    degree: int
    extremizers_ok: bool
    lower_band: tuple[float, float]  # min/max over n of env(n)*(n+1)^(-e_min)
    upper_band: tuple[float, float]  # min/max over n of env(n)*(n+1)^(-e_max)
    lower_env: tuple[float, ...]  # min_k sigma^2 * (n+1)^(-e_min) for n = 1..degree
    upper_env: tuple[float, ...]  # max_k sigma^2 * (n+1)^(-e_max) for n = 1..degree

    @property
    def ok(self) -> bool:
        return self.extremizers_ok and self.lower_band[0] > 0.0 and self.upper_band[0] > 0.0


def asym_envelope_check(gamma, degree: int) -> EnvelopeReport:
    """Scan sigma^2 for n <= degree: extremizer locations and envelope bands.

    For gamma < 0 the max over k sits at k in {0, n} and the min at
    floor(n/2); for gamma > 0 the orientation is reversed.  The min envelope
    times (n+1)^(-min(-1,-1-gamma)) and the max envelope times
    (n+1)^(-max(-1,-1-gamma)) must stay in fixed positive bands.
    """
    g = as_gamma(gamma)
    if degree < 2:
        raise ValueError("degree must be >= 2")
    table = sigma_sq_triangle(g, degree)
    e_min = min(-1.0, -1.0 - g)
    e_max = max(-1.0, -1.0 - g)
    extremizers_ok = True
    lo_vals, hi_vals = [], []
    for n in range(1, degree + 1):
        row = table[n]
        kmin = int(np.argmin(row))
        kmax = int(np.argmax(row))
        interior = {n // 2, (n + 1) // 2}  # floor(n/2) and its symmetric twin for odd n
        edge = {0, n}
        if g < 0.0:
            extremizers_ok &= kmin in interior and kmax in edge
        elif g > 0.0:
            extremizers_ok &= kmin in edge and kmax in interior
        lo_vals.append(row.min() * (n + 1.0) ** (-e_min))
        hi_vals.append(row.max() * (n + 1.0) ** (-e_max))
    return EnvelopeReport(
        gamma=g,
        degree=degree,
        extremizers_ok=bool(extremizers_ok),
        lower_band=(float(min(lo_vals)), float(max(lo_vals))),
        upper_band=(float(min(hi_vals)), float(max(hi_vals))),
        lower_env=tuple(lo_vals),
        upper_env=tuple(hi_vals),
    )


@dataclass
class TameReport:
    """Two-sided Sobolev bound check for the diagonal normal operator."""

    gamma: float
    order: float
    c_lower: float
    c_upper: float
    worst_lower_slack: float  # min over trials of ||Nf||_s - C1 ||f||_{s+e_min}
    worst_upper_slack: float  # min over trials of C2 ||f||_{s+e_max} - ||Nf||_s
    ok: bool


def tame_bounds_check(gamma, degree: int, s: float, trials: int = 20, seed: int = 0) -> TameReport:
    """Check C1 ||f||_{s+e_min} <= ||N f||_s <= C2 ||f||_{s+e_max} on random fields.

    N acts diagonally by sigma^2; the envelope constants are sharp per-mode
    bounds computed against the (n+1+gamma) Sobolev weight, so the
    inequalities are exact up to rounding.  Requires s + min(-1,-1-gamma) >= 0.
    """
    g = as_gamma(gamma)
    e_min = min(-1.0, -1.0 - g)
    e_max = max(-1.0, -1.0 - g)
    if s + e_min < 0:
        raise ValueError(f"need s >= {-e_min} so all Sobolev exponents are nonnegative")
    s2 = sigma_sq_flat(g, degree)
    weights = triangle(degree).n + 1.0 + g
    c_lower = float((s2 * weights ** (-e_min)).min())
    c_upper = float((s2 * weights ** (-e_max)).max())
    rng = np.random.default_rng(seed)
    lo_slack = math.inf
    hi_slack = math.inf
    for _ in range(trials):
        f = CoefficientField.random(g, degree, rng)
        nf = CoefficientField(g, degree, f.coeffs * s2)
        mid = sobolev_norm(nf, s)
        lo_slack = min(lo_slack, mid - c_lower * sobolev_norm(f, s + e_min))
        hi_slack = min(hi_slack, c_upper * sobolev_norm(f, s + e_max) - mid)
    ok = lo_slack >= -1e-9 * c_lower and hi_slack >= -1e-9 * c_upper
    return TameReport(g, s, c_lower, c_upper, lo_slack, hi_slack, ok)
