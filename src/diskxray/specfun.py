"""Scalar special functions and orthogonal-polynomial recurrences.

Everything here is elementary: log-gamma, the Beta function, Jacobi and
Gegenbauer three-term recurrences, and the closed-form leading coefficients
and weighted norms of the Gegenbauer family C_n^(gamma+1).  All gamma-ratio
formulas are evaluated in log space so they stay finite for degrees in the
hundreds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "as_gamma",
    "gamma_matches",
    "ln_gamma",
    "beta",
    "ln_beta",
    "ln_binomial",
    "jacobi_eval",
    "gegenbauer_L",
    "gegenbauer_table",
    "gegenbauer_leading_coeff",
    "gegenbauer_norm_sq",
    "gegenbauer_coefficients",
    "legendre_duplication_check",
]


def as_gamma(gamma) -> float:
    """Coerce a number to a float weight exponent, checking gamma > -1."""
    g = float(gamma)
    if not math.isfinite(g) or g <= -1.0:
        raise ValueError(f"weight exponent must satisfy gamma > -1, got {g}")
    return g


def gamma_matches(a: float, b: float) -> bool:
    """Whether two weight exponents agree to 1e-14, i.e. name the same transform pair."""
    return abs(a - b) <= 1e-14


def readonly(values, dtype=None) -> np.ndarray:
    """A read-only copy of ``values``: the array type of fields, rules and sinograms."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def ln_beta(x: float, y: float) -> float:
    """log B(x, y) for x, y > 0."""
    return ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y)


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x+y), x, y > 0."""
    return math.exp(ln_beta(x, y))


def ln_binomial(n: float, k: float) -> float:
    """log of the (generalized) binomial coefficient C(n, k), arguments > -1."""
    return ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0)


def jacobi_eval(n: int, a: float, b: float, x):
    """Evaluate the Jacobi polynomial P_n^(a,b)(x) by forward three-term recurrence.

    ``x`` may be a scalar or ndarray (real or complex); the polynomial
    extension outside [-1, 1] is returned as-is.  The recurrence runs in place
    on three rotating buffers and never writes into ``x``.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    if a <= -1.0 or b <= -1.0:
        raise ValueError(f"Jacobi exponents must exceed -1, got a={a}, b={b}")
    x = np.asarray(x)
    if n == 0:
        return np.ones_like(x) if x.ndim else 1.0 + 0.0 * x[()]
    pn, nxt, pm1 = (np.empty(x.shape, np.result_type(x, 1.0)) for _ in range(3))
    np.subtract(x, 1.0, out=pn)
    pn *= a + b + 2.0
    pn /= 2.0
    np.add(a + 1.0, pn, out=pn)
    for m in range(2, n + 1):
        c1 = 2.0 * m * (m + a + b) * (2.0 * m + a + b - 2.0)
        c2 = 2.0 * m + a + b - 1.0
        c3 = (2.0 * m + a + b) * (2.0 * m + a + b - 2.0)
        c4 = a * a - b * b
        c5 = 2.0 * (m + a - 1.0) * (m + b - 1.0) * (2.0 * m + a + b)
        np.multiply(c3, x, out=nxt)
        nxt += c4
        np.multiply(c2, nxt, out=nxt)
        nxt *= pn
        nxt -= np.multiply(c5, pm1, out=pm1) if m > 2 else c5  # P_0 = 1
        nxt /= c1
        pm1, pn, nxt = pn, nxt, pm1
    return pn if x.ndim else pn[()]


def gegenbauer_L(n: int, gamma, x, rows: np.ndarray | None = None):
    """The boundary profile polynomial: Gegenbauer C_n^(gamma+1)(x).

    This is the orthogonal family for the weight (1-x^2)^(gamma+1/2) on
    [-1, 1], in the standard Gegenbauer normalization (C_1 = 2*lambda*x).
    If ``rows`` (shape (n+1,) + x.shape) is given, the recurrence also
    stores every L_0..L_n there; this is how ``gegenbauer_table`` is built.
    """
    lam = as_gamma(gamma) + 1.0
    x = np.asarray(x)
    pn = np.ones_like(x)
    if rows is not None:
        rows[0] = pn
    if n == 0:
        return pn if x.ndim else 1.0 + 0.0 * x[()]
    pn, pm1 = 2.0 * lam * x, pn
    if rows is not None:
        rows[1] = pn
    for m in range(2, n + 1):
        pn, pm1 = (2.0 * (m + lam - 1.0) * x * pn - (m + 2.0 * lam - 2.0) * pm1) / m, pn
        if rows is not None:
            rows[m] = pn
    return pn if x.ndim else pn[()]


def gegenbauer_table(degree: int, gamma, x) -> np.ndarray:
    """Rows L_0(x), ..., L_degree(x) from one recurrence pass, shape (degree+1,) + x.shape.

    Row n equals ``gegenbauer_L(n, gamma, x)`` bit for bit: both are the
    same recurrence, stopped at n.
    """
    x = np.asarray(x)
    table = np.empty((degree + 1,) + x.shape, dtype=np.result_type(x, float))
    gegenbauer_L(degree, gamma, x, table)
    return table


def gegenbauer_leading_coeff(n: int, gamma) -> float:
    """Leading (x^n) coefficient of C_n^(gamma+1): 2^n (gamma+1)_n / n!."""
    g = as_gamma(gamma)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return math.exp(n * math.log(2.0) + ln_gamma(n + g + 1.0) - ln_gamma(g + 1.0) - ln_gamma(n + 1.0))


def gegenbauer_norm_sq(n: int, gamma) -> float:
    """Squared norm of C_n^(gamma+1) in L^2([-1,1], (1-x^2)^(gamma+1/2) dx).

    Closed form: pi 2^(-2*gamma-1) Gamma(n+2*gamma+2) /
    (n! (n+gamma+1) Gamma(gamma+1)^2), evaluated in log space.
    """
    g = as_gamma(gamma)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return math.exp(
        math.log(math.pi)
        - (2.0 * g + 1.0) * math.log(2.0)
        + ln_gamma(n + 2.0 * g + 2.0)
        - ln_gamma(n + 1.0)
        - math.log(n + g + 1.0)
        - 2.0 * ln_gamma(g + 1.0)
    )


def gegenbauer_coefficients(n: int, gamma, exact: bool = False) -> list:
    """Monomial coefficients of C_n^(gamma+1), ascending powers.

    With ``exact=True`` the recurrence is run over Fractions (gamma taken at
    its exact binary-float value), so algebraic identities such as the
    Gegenbauer differential equation can be tested with zero residual.
    """
    g = Fraction(as_gamma(gamma)) if exact else as_gamma(gamma)
    lam = g + 1
    one = Fraction(1) if exact else 1.0
    if n == 0:
        return [one]
    prev = [one]
    cur = [0 * one, 2 * lam]
    for m in range(2, n + 1):
        nxt = [0 * one] * (m + 1)
        for j, c in enumerate(cur):  # 2 (m+lam-1) x * cur
            nxt[j + 1] += 2 * (m + lam - 1) * c
        for j, c in enumerate(prev):  # -(m+2 lam-2) * prev
            nxt[j] -= (m + 2 * lam - 2) * c
        nxt = [c / m for c in nxt]
        prev, cur = cur, nxt
    return cur


def legendre_duplication_check(z: float) -> tuple[float, float]:
    """Both sides of Gamma(2z) = pi^(-1/2) 2^(2z-1) Gamma(z) Gamma(z+1/2).

    Intended for the test suite.  Sides are exponentiated from log space and
    overflow to inf for 2z beyond ~171; compare logs there instead.
    """
    if not z > 0:
        raise ValueError(f"duplication check requires z > 0, got {z}")
    lhs = ln_gamma(2.0 * z)
    rhs = -0.5 * math.log(math.pi) + (2.0 * z - 1.0) * math.log(2.0) + ln_gamma(z) + ln_gamma(z + 0.5)
    return math.exp(lhs), math.exp(rhs)
