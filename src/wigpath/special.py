"""Self-contained special functions: modified Bessel I0, Laguerre polynomials,
and log-factorials.

Only the pieces the closed-form Wigner expressions need are provided; no
generalized Laguerre orders and no Bessel orders other than zero.
"""

from __future__ import annotations

import math

import numpy as np

# Power series below, asymptotic expansion above.  The integrands met in
# practice need arguments up to a few hundred (4*sqrt(N)*|alpha|).
_I0_SWITCH = 20.0

# Cumulative log-factorial table, grown on demand.  Kept exact (summed logs)
# up to this cap; math.lgamma takes over beyond it.
_LOGFACT_CAP = 1_000_000
_logfact_table = np.zeros(1)


def log_bessel_i0(x: float) -> float:
    """ln I0(x), stable for x up to at least 1e4."""
    if x < 0:
        raise ValueError(f"I0 is only evaluated for x >= 0, got {x}")
    if x < _I0_SWITCH:
        return math.log(_i0_series(x))
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(_i0_asymptotic_factor(x))


def _i0_series(x: float) -> float:
    # sum_k (x/2)^{2k} / (k!)^2, terms added until they stop contributing
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 200):
        term *= q / (k * k)
        total += term
        if term < 1e-18 * total:
            break
    return total


def _i0_asymptotic_factor(x: float) -> float:
    # I0(x) = e^x / sqrt(2 pi x) * f(x); f as the alternating-free series
    # with c_k = prod_{j<=k} (2j-1)^2 / (8^k k!), truncated at its smallest term.
    term = 1.0
    total = 1.0
    for k in range(1, 40):
        new = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        if new >= term and k > 2:
            break  # divergent tail reached
        term = new
        total += term
        if term < 1e-18 * total:
            break
    return total


def laguerre_all(n_max: int, x) -> np.ndarray:
    """All of L_0(x) .. L_nmax(x) in one pass of the forward three-term recurrence.

    x is a float or a float array; the result has shape (n_max + 1, *np.shape(x)).
    """
    if n_max < 0:
        raise ValueError("Laguerre order must be non-negative")
    out = np.empty((n_max + 1, *np.shape(x)))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 1.0 - x
    for k in range(1, n_max):
        out[k + 1] = ((2 * k + 1 - x) * out[k] - k * out[k - 1]) / (k + 1)
    return out


def log_factorial(n: int) -> float:
    """ln n! from a cached cumulative-log table (exact summation up to 1e6)."""
    global _logfact_table
    if n < 0:
        raise ValueError("factorial argument must be non-negative")
    if n > _LOGFACT_CAP:
        return math.lgamma(n + 1)
    if n >= len(_logfact_table):
        # rebuilt as one running sum from k = 1, so no entry depends on the
        # sizes the table grew through
        size = max(2 * len(_logfact_table), n + 1, 1024)
        _logfact_table = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, size)))))
    return float(_logfact_table[n])


def log_factorials(n_max: int) -> np.ndarray:
    """Vector of ln 0!, ln 1!, ..., ln n_max!."""
    log_factorial(n_max)
    return _logfact_table[: n_max + 1].copy()
