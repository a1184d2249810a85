"""Self-contained special functions: modified Bessel I0, Laguerre polynomials,
and log-factorials.

Only the pieces the closed-form Wigner expressions need are provided; no
generalized Laguerre orders and no Bessel orders other than zero.

ln I0 has one array path, a number being a one-point array: each series is
summed by numpy over all points at once, each stopping where its own sum does.
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


def elementwise(f, x) -> np.ndarray:
    """The math-module function f at each element of x, a float array of x's
    shape.  numpy's exp, log, arccos and power differ from libm in the last
    bit at a few percent of doubles, so arithmetic that must keep libm's bits
    applies math's functions element by element."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def log_bessel_i0(x):
    """ln I0(x) at a number x >= 0, giving a float, or at each element of an
    array of them, giving a float array of its shape; stable for x up to at
    least 1e4.  A negative or non-finite element raises ValueError naming the
    first."""
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    bad = np.flatnonzero(~((flat >= 0.0) & np.isfinite(flat)))
    if bad.size:
        raise ValueError(f"I0 is only evaluated for finite x >= 0, got {flat[bad[0]].item()!r}")
    out = np.empty_like(flat)
    series = flat < _I0_SWITCH
    out[series] = _log_i0(flat[series], True)
    out[~series] = _log_i0(flat[~series], False)
    return out.item() if xs.ndim == 0 else out.reshape(xs.shape)


def _log_i0(x: np.ndarray, series: bool) -> np.ndarray:
    """ln I0 at each element of a 1-D array x, all of them below the switch
    (by the power series) or all at or above it."""
    if series:
        return elementwise(math.log, _i0_series(x))
    log_factor = elementwise(math.log, _i0_asymptotic_factor(x))
    return x - 0.5 * elementwise(math.log, 2.0 * math.pi * x) + log_factor


def _i0_series(x: np.ndarray) -> np.ndarray:
    # sum_k (x/2)^{2k} / (k!)^2, terms added until they stop contributing
    return _sum_terms(0.25 * x * x, asymptotic=False)


def _i0_asymptotic_factor(x: np.ndarray) -> np.ndarray:
    # I0(x) = e^x / sqrt(2 pi x) * f(x); f as the alternating-free series
    # with c_k = prod_{j<=k} (2j-1)^2 / (8^k k!), truncated at its smallest term.
    return _sum_terms(x, asymptotic=True)


def _sum_terms(x: np.ndarray, asymptotic: bool) -> np.ndarray:
    """1 + t_1 + t_2 + ... at each element of a 1-D array x, with
    t_k = t_{k-1} x / k^2 (the power series, x = (argument/2)^2) or, if
    asymptotic, t_k = t_{k-1} (2k-1)^2 / (8 k x).  A term below 1e-18 of the
    total is the last one added, and an asymptotic sum also stops before the
    first term, from k = 3 on, that is no smaller than the one before it (its
    divergent tail).  A stopped element adds zeros from then on, so each
    element ends with the bits of its one-point sum."""
    term = total = np.ones(len(x))
    for k in range(1, 40 if asymptotic else 200):
        if asymptotic:
            new = term * (2 * k - 1) ** 2 / (8.0 * k * x)
            if k > 2:
                new = new * (new < term)
        else:
            new = term * (x / (k * k))
        total = total + new
        term = new * (new >= 1e-18 * total)
        if not term.any():
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
