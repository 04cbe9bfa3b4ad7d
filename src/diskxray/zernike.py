"""Generalized Zernike (disk polynomial) basis and the operators acting on it.

The basis element indexed by (n, k), 0 <= k <= n, is built from the disk
polynomial P_{n-k,k}^gamma (orthogonal under the weight (1-|z|^2)^gamma); its
polar dependency is e^(i(n-2k) omega) and its degree is n.  The orthonormal
family used throughout carries the phase convention

    Ghat_{n,k} = (-1)^k * P_{n-k,k}^gamma / ||P_{n-k,k}^gamma||,

which makes the derivative ladders below hold with real coefficients.
Coefficient fields store the dense lower-triangular array of expansion
coefficients in this orthonormal basis.  The text-table format of coefficient,
sinogram and spectrum files (``write_table``/``read_table``) lives here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import (
    as_gamma,
    gegenbauer_L,
    gegenbauer_leading_coeff,
    jacobi_eval,
    ln_binomial,
    ln_gamma,
    readonly,
)

__all__ = [
    "Triangle",
    "triangle",
    "ZernikeIndex",
    "CoefficientField",
    "disk_poly",
    "zernike_norm_sq",
    "leading_coeff_p",
    "g_leading_coeff",
    "G_eval",
    "G_hat_eval",
    "G_fourier_oracle",
    "apply_L_gamma",
    "apply_D_omega",
    "d_dz",
    "d_dzbar",
    "L_gamma_pointwise",
    "write_coefficients",
    "read_coefficients",
]


@dataclass(frozen=True, eq=False)
class Triangle:
    """Flat row-by-row layout of the lattice {(n, k): 0 <= k <= n <= degree}:
    position p holds (n[p], k[p]) and (n, k) sits at starts[n] + k.  Spectral
    operators act as elementwise multipliers built from ``n`` and ``k``."""

    n: np.ndarray
    k: np.ndarray
    starts: np.ndarray

    def pairs(self):
        """Iterate (n, k) over the triangle in flat order."""
        return zip(self.n.tolist(), self.k.tolist())


@functools.lru_cache(maxsize=64)
def triangle(degree: int) -> Triangle:
    """The (cached, read-only) triangle layout of the given degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    lengths = np.arange(1, degree + 2)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    n = np.repeat(np.arange(degree + 1), lengths)
    return Triangle(readonly(n), readonly(np.arange(starts[-1]) - starts[n]), readonly(starts))


# points per block of CoefficientField.evaluate: the fastest of 8192, 16384 and
# 32768 on a 384 x 384 render
EVALUATE_BLOCK = 16384


@dataclass(frozen=True)
class ZernikeIndex:
    """Index (n, k) of the disk basis, 0 <= k <= n, at weight gamma."""

    n: int
    k: int
    gamma: float

    def __post_init__(self):
        if self.n < 0 or not (0 <= self.k <= self.n):
            raise ValueError(f"need 0 <= k <= n, got (n, k) = ({self.n}, {self.k})")
        object.__setattr__(self, "gamma", as_gamma(self.gamma))


def _disk_points(p):
    """A point argument as (its shape, its points as one flat complex array, 2|z|^2 - 1)."""
    z = np.asarray(p, dtype=complex)
    flat = z.reshape(-1)
    x = np.abs(flat)
    # domain check with slack for boundary-hugging difference stencils
    if np.any(x > 1.0 + 1e-6):
        raise ValueError("evaluation point outside the closed unit disk")
    x **= 2
    x *= 2.0
    x -= 1.0
    return z.shape, flat, x


def _disk_mode(m: int, l: int, g: float, flat, x):
    """P_{m,l}^g at the points ``flat`` (with x = 2|z|^2 - 1), as a new flat array."""
    lo, hi = min(m, l), max(m, l)
    pref = math.exp(ln_gamma(lo + 1.0) + ln_gamma(g + 1.0) - ln_gamma(lo + g + 1.0))
    out = flat ** (hi - lo)
    out *= pref
    out *= jacobi_eval(lo, g, hi - lo, x)
    if m < l:
        np.conj(out, out=out)
    return out


def disk_poly(m: int, l: int, gamma, p):
    """Disk polynomial P_{m,l}^gamma(z, zbar) at a complex point or array of points.

    For m >= l this is (l! gamma!/(l+gamma)!) z^(m-l) P_l^(gamma, m-l)(2|z|^2-1);
    for m < l it is the conjugate of P_{l,m}.  Points are computed as one flat
    array, so a point passed alone (returned as a complex) gets its batch
    value bit for bit; an array returns an array of its shape.
    """
    g = as_gamma(gamma)
    if m < 0 or l < 0:
        raise ValueError("disk polynomial indices must be nonnegative")
    shape, flat, x = _disk_points(p)
    out = _disk_mode(m, l, g, flat, x)
    return out.reshape(shape) if shape else complex(out[0])


def zernike_norm_sq(idx: ZernikeIndex) -> float:
    """||P_{n-k,k}^gamma||^2 in L^2(disk, d^gamma), via log space."""
    n, k, g = idx.n, idx.k, idx.gamma
    return math.exp(
        math.log(math.pi)
        - math.log(n + g + 1.0)
        + ln_gamma(n - k + 1.0)
        + 2.0 * ln_gamma(g + 1.0)
        + ln_gamma(k + 1.0)
        - ln_gamma(k + g + 1.0)
        - ln_gamma(n - k + g + 1.0)
    )


def leading_coeff_p(idx: ZernikeIndex) -> float:
    """Coefficient of z^(n-k) zbar^k in P_{n-k,k}^gamma."""
    n, k, g = idx.n, idx.k, idx.gamma
    return math.exp(
        ln_gamma(g + 1.0) + ln_gamma(n + g + 1.0) - ln_gamma(n - k + g + 1.0) - ln_gamma(k + g + 1.0)
    )


def g_leading_coeff(idx: ZernikeIndex) -> complex:
    """Top coefficient (-1)^k l_n^gamma (2i)^(-n) C(n, k) of the backprojected mode."""
    n, k, g = idx.n, idx.k, idx.gamma
    mag = math.exp(
        math.log(gegenbauer_leading_coeff(n, g)) - n * math.log(2.0) + ln_binomial(float(n), float(k))
    )
    return mag * (-1.0) ** k * (-1j) ** n


def G_eval(idx: ZernikeIndex, p):
    """The raw backprojected basis element G_{n,k}^gamma(z).

    Equal to (g_{n,k}/p_{n-k,k}) P_{n-k,k}^gamma(z); G_{0,0} = 1.
    """
    return (g_leading_coeff(idx) / leading_coeff_p(idx)) * disk_poly(idx.n - idx.k, idx.k, idx.gamma, p)


def G_hat_eval(idx: ZernikeIndex, p):
    """Orthonormal basis element Ghat_{n,k} = (-1)^k P_{n-k,k} / ||P_{n-k,k}||."""
    scale = (-1.0) ** idx.k / math.sqrt(zernike_norm_sq(idx))
    shape, flat, x = _disk_points(p)
    out = _disk_mode(idx.n - idx.k, idx.k, idx.gamma, flat, x)
    out *= scale
    return out.reshape(shape) if shape else complex(out[0])


def G_fourier_oracle(n: int, k: int, gamma, p, theta_order: int):
    """Independent oracle for G_{n,k}: the (2k-n)-th Fourier coefficient of
    theta -> L_n^gamma((i/2)(zbar e^(i theta) - z e^(-i theta))).

    ``k`` may lie outside [0, n]; the result is then zero up to quadrature
    rounding.  Requires theta_order > 2*max(n, |n-2k|) for exactness.
    """
    g = as_gamma(gamma)
    if theta_order <= 2 * max(n, abs(n - 2 * k)):
        raise ValueError("theta_order too small to resolve the Fourier coefficient")
    z = np.asarray(p, dtype=complex)
    flat = z.reshape(-1, 1)
    theta = 2.0 * math.pi * np.arange(theta_order) / theta_order
    arg = 0.5j * (np.conj(flat) * np.exp(1j * theta) - flat * np.exp(-1j * theta))
    out = (gegenbauer_L(n, g, arg) * np.exp(1j * (n - 2 * k) * theta)).mean(axis=-1)
    return out.reshape(z.shape) if z.ndim else complex(out[0])


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Truncated expansion of a disk function in the orthonormal basis Ghat.

    Coefficients are stored densely over the lower-triangular lattice
    {(n, k): n <= degree, 0 <= k <= n} in the layout of ``triangle(degree)``;
    the L^2(d^gamma) norm is the Euclidean norm of the coefficient vector.
    The constructor copies the coefficients into a read-only array and no
    attribute can be rebound, so a field is immutable; operators return new
    fields.
    """

    gamma: float
    degree: int
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_gamma(self.gamma))
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        object.__setattr__(self, "degree", int(self.degree))
        size = triangle(self.degree).n.size
        coeffs = readonly(np.zeros(size) if self.coeffs is None else self.coeffs, complex)
        if coeffs.shape != (size,):
            raise ValueError(f"coefficient array must have length {size}, got {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zeros(cls, gamma, degree: int) -> "CoefficientField":
        return cls(gamma, degree)

    @classmethod
    def delta(cls, gamma, degree: int, n: int, k: int, value: complex = 1.0) -> "CoefficientField":
        if not (0 <= k <= n <= degree):
            raise ValueError(f"index ({n}, {k}) outside triangle of degree {degree}")
        tri = triangle(degree)
        coeffs = np.zeros(tri.n.size, dtype=complex)
        coeffs[tri.starts[n] + k] = value
        return cls(gamma, degree, coeffs)

    @classmethod
    def random(cls, gamma, degree: int, rng: np.random.Generator) -> "CoefficientField":
        size = triangle(degree).n.size
        data = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return cls(gamma, degree, data)

    def __getitem__(self, nk: tuple[int, int]) -> complex:
        n, k = nk
        if not (0 <= k <= n <= self.degree):
            raise KeyError(f"index ({n}, {k}) outside triangle of degree {self.degree}")
        return complex(self.coeffs[triangle(self.degree).starts[n] + k])

    def modes(self):
        """Iterate (n, k, coefficient) over the triangle."""
        tri = triangle(self.degree)
        return zip(tri.n.tolist(), tri.k.tolist(), self.coeffs.tolist())

    def norm_sq(self) -> float:
        """Squared L^2(d^gamma) norm, by Parseval."""
        return float(np.vdot(self.coeffs, self.coeffs).real)

    def evaluate(self, p):
        """Pointwise synthesis sum f(z) = sum f_{n,k} Ghat_{n,k}(z) at a complex
        point (returned as a complex, equal to its batch value) or array of points.
        Points run in blocks of ``EVALUATE_BLOCK``, each through every mode, so the
        working arrays stay in cache; no value depends on the batch size."""
        z = np.asarray(p, dtype=complex)
        flat = z.reshape(-1)
        out = np.zeros(flat.shape, dtype=complex)
        terms = [(ZernikeIndex(n, k, self.gamma), c) for n, k, c in self.modes() if c != 0.0]
        for start in range(0, flat.size, EVALUATE_BLOCK):
            block, acc = flat[start : start + EVALUATE_BLOCK], out[start : start + EVALUATE_BLOCK]
            for idx, c in terms:
                # G_hat_eval returns a view, which numpy never reuses in place as a
                # temporary (that loop can round the product differently)
                acc += c * G_hat_eval(idx, block)
        return out.reshape(z.shape) if z.ndim else complex(out[0])


def apply_L_gamma(f: CoefficientField) -> CoefficientField:
    """Diagonal action of the degenerate elliptic operator: f_{n,k} *= (n+1+gamma)^2."""
    tri = triangle(f.degree)
    return CoefficientField(f.gamma, f.degree, f.coeffs * (tri.n + 1.0 + f.gamma) ** 2)


def apply_D_omega(f: CoefficientField) -> CoefficientField:
    """Diagonal action of the angular derivative: f_{n,k} *= (n - 2k)."""
    tri = triangle(f.degree)
    return CoefficientField(f.gamma, f.degree, f.coeffs * (tri.n - 2.0 * tri.k))


def d_dz(f: CoefficientField) -> CoefficientField:
    """Spectral d/dz: maps the gamma basis into the gamma+1 basis, degree N-1.

    Ladder: d/dz Ghat_{n,k}^g = sqrt((n-k)(k+g+1)) Ghat_{n-1,k}^(g+1).  The
    coefficient follows from the unnormalized derivative relation
    d/dz P_{m,l}^g = m(l+1+g)/(1+g) P_{m-1,l}^(g+1) together with the norm
    table; the (g+1) factors cancel completely (checked against the
    finite-difference oracle in the tests).
    """
    g = f.gamma
    if f.degree == 0:
        return CoefficientField(g + 1.0, 0)
    out = triangle(f.degree - 1)  # target (n, k) <- source (n+1, k)
    coef = np.sqrt((out.n + 1 - out.k) * (out.k + g + 1.0))
    src = triangle(f.degree).starts[out.n + 1] + out.k
    return CoefficientField(g + 1.0, f.degree - 1, coef * f.coeffs[src])


def d_dzbar(f: CoefficientField) -> CoefficientField:
    """Spectral d/dzbar: conjugate ladder into the gamma+1 basis, degree N-1.

    Ladder: d/dzbar Ghat_{n,k}^g = -sqrt((n-k+g+1) k) Ghat_{n-1,k-1}^(g+1),
    by the same cancellation as in d_dz.
    """
    g = f.gamma
    if f.degree == 0:
        return CoefficientField(g + 1.0, 0)
    out = triangle(f.degree - 1)  # target (n, k) <- source (n+1, k+1)
    coef = -np.sqrt((out.n - out.k + g + 1.0) * (out.k + 1))
    src = triangle(f.degree).starts[out.n + 1] + out.k + 1
    return CoefficientField(g + 1.0, f.degree - 1, coef * f.coeffs[src])


_D1 = {  # second-order first-derivative stencils, offsets in units of h
    "c": ((-1, 0, 1), (-0.5, 0.0, 0.5)),
    "f": ((0, 1, 2), (-1.5, 2.0, -0.5)),
    "b": ((-2, -1, 0), (0.5, -2.0, 1.5)),
}
_D2 = {  # second-order second-derivative stencils
    "c": ((-1, 0, 1), (1.0, -2.0, 1.0)),
    "f": ((0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0)),
    "b": ((-3, -2, -1, 0), (-1.0, 4.0, -5.0, 2.0)),
}


def _fd_mode(coord: float, other: float, h: float) -> str:
    """Pick central/forward/backward so the full stencil stays in the disk."""
    span = 3.0 * h
    if (abs(coord) + span) ** 2 + other * other <= 1.0:
        return "c"
    return "f" if coord < 0 else "b"


def _fd_derivatives(func, x: float, y: float, h: float):
    """(fx, fy, fxx, fyy, fxy) by tensor-product finite differences; ``func``
    is called once, on the array of stencil points."""
    mx = _fd_mode(x, y, h)
    my = _fd_mode(y, x, h)
    ox1, wx1 = _D1[mx]
    ox2, wx2 = _D2[mx]
    oy1, wy1 = _D1[my]
    oy2, wy2 = _D2[my]
    offs_x = sorted(set(ox1) | set(ox2))
    offs_y = sorted(set(oy1) | set(oy2))
    xs = x + h * np.array(offs_x, dtype=float)
    ys = y + h * np.array(offs_y, dtype=float)
    vals = np.asarray(func(xs[:, None] + 1j * ys[None, :]), dtype=complex)
    grid = {(i, j): vals[a, b] for a, i in enumerate(offs_x) for b, j in enumerate(offs_y)}
    fx = sum(w * grid[(i, 0)] for i, w in zip(ox1, wx1)) / h
    fy = sum(w * grid[(0, j)] for j, w in zip(oy1, wy1)) / h
    fxx = sum(w * grid[(i, 0)] for i, w in zip(ox2, wx2)) / (h * h)
    fyy = sum(w * grid[(0, j)] for j, w in zip(oy2, wy2)) / (h * h)
    fxy = sum(
        wx * wy * grid[(i, j)] for i, wx in zip(ox1, wx1) for j, wy in zip(oy1, wy1)
    ) / (h * h)
    return fx, fy, fxx, fyy, fxy


def L_gamma_pointwise(func, gamma, p):
    """Apply the disk operator to a pointwise-evaluable function at one point.

    Cartesian form (equivalent to the polar one, regular at rho = 0):

        -(1-rho^2) Lap f + (2+2*gamma)(x fx + y fy) - Dw^2 f + (gamma+1)^2 f,

    with Dw = x d/dy - y d/dx the angular derivative.  Uses second-order
    finite differences at steps h = 1e-4 and h/2, combined by one Richardson
    step; stencils switch to one-sided within 3h of the boundary, with reduced
    accuracy.  ``func`` must accept a complex point and an array of points.
    """
    g = as_gamma(gamma)
    z = complex(p)
    x, y = z.real, z.imag
    h = 1e-4

    def combine(step: float):
        fx, fy, fxx, fyy, fxy = _fd_derivatives(func, x, y, step)
        rho2 = x * x + y * y
        lap = fxx + fyy
        radial = x * fx + y * fy
        dw2 = x * x * fyy + y * y * fxx - 2.0 * x * y * fxy - radial
        return -(1.0 - rho2) * lap + (2.0 + 2.0 * g) * radial - dw2

    second = (4.0 * combine(h / 2.0) - combine(h)) / 3.0
    return second + (g + 1.0) ** 2 * func(z)


def write_table(path, head, rows) -> None:
    """Write the ``head`` lines, then one ``i,j,a,b`` line per row (floats at 17 digits, so reads are exact)."""
    lines = list(head)
    lines.extend(f"{i},{j},{a:.17g},{b:.17g}" for i, j, a, b in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def content_lines(path):
    """Yield (line number, stripped line) for the non-blank, non-'#' lines of a file."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def int_at_least(minimum: int):
    """A ``read_table`` header parser for an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        if (value := int(text)) < minimum:
            raise ValueError(f"must be >= {minimum}")
        return value
    return parse


def read_table(path, fields, columns: str) -> tuple[dict, dict]:
    """Parse a table whose rows are named ``columns`` (e.g. 'i,j,re,im').

    ``key=value`` lines whose key holds no comma form the header, which must
    hold every key of ``fields`` (key -> parser of its value); every other
    line is a row.  Returns the header, with those values parsed, and a map
    (i, j) -> (complex value, line number); a malformed, non-finite or
    repeated row or header key, or a rejected value, fails with ``path:lineno``.
    """
    header, header_lines, rows = {}, {}, {}
    for lineno, line in content_lines(path):
        key, eq, val = line.partition("=")
        if eq and "," not in key:
            key = key.strip()
            if key in header:
                raise ValueError(f"{path}:{lineno}: header key {key!r} repeats line {header_lines[key]}")
            header[key], header_lines[key] = val.strip(), lineno
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected '{columns}', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            re, im = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"{path}:{lineno}: non-finite value in {line!r}")
        if (i, j) in rows:
            raise ValueError(f"{path}:{lineno}: index ({i}, {j}) repeats line {rows[(i, j)][1]}")
        rows[(i, j)] = (complex(re, im), lineno)
    for key, parse in fields.items():
        if key not in header:
            raise ValueError(f"{path}: missing header field {key}")
        try:
            header[key] = parse(header[key])
        except ValueError as exc:
            raise ValueError(f"{path}:{header_lines[key]}: {key}={header[key]}: {exc}") from exc
    return header, rows


def write_coefficients(path, f: CoefficientField) -> None:
    """Write a coefficient field as text: gamma/degree header, then n,k,re,im rows."""
    rows = ((n, k, c.real, c.imag) for n, k, c in f.modes())
    write_table(path, [f"gamma={f.gamma:.17g}", f"degree={f.degree}"], rows)


def read_coefficients(path) -> CoefficientField:
    """Parse a coefficient file; omitted rows are zero.

    Rejects indices outside the triangle of the declared degree, as well as
    the table-level faults of ``read_table``.
    """
    header, rows = read_table(path, {"gamma": as_gamma, "degree": int_at_least(0)}, "n,k,re,im")
    degree = header["degree"]
    tri = triangle(degree)
    coeffs = np.zeros(tri.n.size, dtype=complex)
    for (n, k), (c, lineno) in rows.items():
        if not (0 <= k <= n <= degree):
            raise ValueError(f"{path}:{lineno}: index ({n}, {k}) violates 0 <= k <= n <= {degree}")
        coeffs[tri.starts[n] + k] = c
    return CoefficientField(header["gamma"], degree, coeffs)
