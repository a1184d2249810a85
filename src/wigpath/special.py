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
    out[series] = elementwise(math.log, _i0_series(flat[series]))
    x = flat[~series]
    log_factor = elementwise(math.log, _i0_asymptotic_factor(x))
    out[~series] = x - 0.5 * elementwise(math.log, 2.0 * math.pi * x) + log_factor
    return out.item() if xs.ndim == 0 else out.reshape(xs.shape)


def _i0_series(x: np.ndarray) -> np.ndarray:
    # sum_k (x/2)^{2k} / (k!)^2, terms added until they stop contributing
    return _sum_terms(0.25 * x * x, asymptotic=False)


def _i0_asymptotic_factor(x: np.ndarray) -> np.ndarray:
    # I0(x) = e^x / sqrt(2 pi x) * f(x); f as the alternating-free series
    # with c_k = prod_{j<=k} (2j-1)^2 / (8^k k!), cut at 40 terms if not
    # before.  From the switch on, each of those terms is at most
    # 77^2 / (8 * 39 * 20) = 0.95 of the one before: no divergent tail is summed.
    return _sum_terms(x, asymptotic=True)


def _sum_terms(x: np.ndarray, asymptotic: bool) -> np.ndarray:
    """1 + t_1 + t_2 + ... at each element of a 1-D array x, with
    t_k = t_{k-1} x / k^2 (the power series, x = (argument/2)^2) or, if
    asymptotic, t_k = t_{k-1} (2k-1)^2 / (8 k x).  A term below 1e-18 of the
    total is the last one added; a stopped element adds zeros from then on,
    so each element ends with the bits of its one-point sum."""
    term = total = np.ones(len(x))
    for k in range(1, 40 if asymptotic else 200):
        if asymptotic:
            new = term * (2 * k - 1) ** 2 / (8.0 * k * x)
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
    """ln n!, the last entry of log_factorials(n)."""
    return float(log_factorials(n)[-1])


def log_factorials(n_max: int) -> np.ndarray:
    """ln 0!, ln 1!, ..., ln n_max!, as one running sum of ln k from k = 1:
    cumsum adds in order, so each entry has the same bits at every n_max."""
    if n_max < 0:
        raise ValueError("factorial argument must be non-negative")
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n_max + 1)))))
