"""The interpolating family of radially squeezed number-diagonal states.

rho(L, N) has number-basis weights proportional to (N^n / n!)^L: L = 1 is a
phase-randomized Gaussian blob of mean occupation N (a Poisson mixture), and
as L grows the weights pinch onto the single number level nearest N.  All
weight arithmetic happens in log space; (N^n/n!)^L overflows doubles already
at modest L.

The closed-form Wigner functions take a complex scalar alpha, giving a float,
or a 1-D array of points, giving a float array.  Both run one array path: a
scalar is a one-point array whose value becomes a float at the end.  The
arithmetic is numpy's (its + - * /, sqrt and hypot match Python's floats),
but exp and log are math's, applied per element by `special.elementwise`,
since numpy's differ from libm's in the last bit at a few percent of doubles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .special import elementwise, laguerre_all, log_bessel_i0, log_factorials

_WIGNER_BOUND = 2.0 / math.pi

# (level, point) entries per block of Laguerre values in the closed forms
_LAGUERRE_BLOCK_ENTRIES = 2**16


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature stopped refining before reaching tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


def refine_by_doubling(rule, first: int, cap: int, tol: float, what: str) -> tuple[float, float]:
    """rule(n) at n = first, 2 first, ... until two successive values agree to
    tol; returns (value, |difference|).  Raises QuadratureConvergenceError,
    with the last difference as `achieved`, once n = cap has not converged."""
    n, prev = first, rule(first)
    while n < cap:
        n *= 2
        cur = rule(n)
        err = abs(cur - prev)
        if err <= tol:
            return cur, err
        prev = cur
    raise QuadratureConvergenceError(f"{what} did not converge by n = {n}", err)


@dataclass(frozen=True)
class WignerSample:
    """One quadrature or Monte Carlo Wigner-function value.  Monte Carlo
    values also carry their sign-problem diagnostics: the standard error, the
    mean phase magnitude with its standard error, and the effective sample
    size.  The route checks its values before it builds its samples."""

    value: float
    standard_error: float | None = None
    mean_phase_magnitude: float | None = None
    effective_sample_size: float | None = None
    phase_standard_error: float | None = None


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (L, N) of one family member, with cached weights.

    Construction computes the basis cutoff n_max (the truncation rule below),
    the normalized number-basis weights and the log partition sum; instances
    are immutable afterwards and safe to share across workers.
    """

    L: int
    N: float
    n_max: int = field(init=False)
    weight_array: np.ndarray = field(init=False, repr=False, compare=False)
    log_z: float = field(init=False, compare=False)

    def __post_init__(self):
        if self.L < 1 or int(self.L) != self.L:
            raise ValueError(f"L must be a positive integer, got {self.L}")
        if not 0 < self.N < math.inf:
            raise ValueError(f"N must be positive and finite, got {self.N}")
        if float(self.N).is_integer():
            warnings.warn(
                f"N = {self.N} is an integer: the L -> infinity limit is "
                "discontinuous there and the family does not single out one "
                "number level",
                stacklevel=3,  # past the generated __init__, to the caller
            )
        # truncation rule: levels 0 .. ceil(4N + 20), past which every level
        # trails the peak level floor(N) by more than a factor e^-46 (e^-47.9
        # at worst, near N = 3.25, for L = 1; the gap grows with L)
        n_max = math.ceil(4.0 * self.N + 20.0)
        object.__setattr__(self, "n_max", n_max)
        n0 = math.floor(self.N)
        log_fact = log_factorials(n_max)
        log_fact_n0 = float(log_fact[n0])
        # ln of (N^n/n!)^L relative to level n0.  The differences are formed
        # before the factor L, so off-peak weights keep their digits at large L.
        n = np.arange(n_max + 1, dtype=float)
        ell = self.L * ((n - n0) * math.log(self.N) - (log_fact - log_fact_n0))
        peak = ell.max()
        log_sum = peak + math.log(np.exp(ell - peak).sum())
        log_peak_level = self.L * (n0 * math.log(self.N) - log_fact_n0 - self.N)
        object.__setattr__(self, "log_z", log_peak_level + log_sum)
        object.__setattr__(self, "weight_array", np.exp(ell - log_sum))
        self.weight_array.setflags(write=False)

    @property
    def radius(self) -> float:
        """Radius sqrt(N) of the circle carrying the L = 1 coherent mixture."""
        return math.sqrt(self.N)


def _points(alpha) -> tuple[np.ndarray, bool]:
    """The points of a route call as a 1-D complex array, and whether alpha
    was a scalar rather than a 1-D array."""
    points = np.asarray(alpha, dtype=complex)
    if points.ndim > 1:
        raise ValueError("alpha must be a scalar or a 1-D array of points")
    return points.reshape(-1), points.ndim == 0


def _radii(points: np.ndarray) -> np.ndarray:
    """|alpha| at the points of a route call.  np.hypot gives the bits of
    abs(complex); np.abs does not."""
    return np.hypot(points.real, points.imag)


def _finite(values: np.ndarray, points: np.ndarray, scalar: bool, what: str) -> float | np.ndarray:
    """The values of a route call over its points, after one finiteness pass
    (the first nan or inf, as of an overflowed sum, raises, naming its
    point): the one value as a float for a scalar call, else the array."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))  # the first non-finite value
        value = values[k].item()
        raise FloatingPointError(f"non-finite {what} Wigner value {value!r} at alpha = {points[k]:.6g}")
    return values.item() if scalar else values


def _laguerre_form(alpha, n_max: int, levels, c: float, what: str) -> float | np.ndarray:
    """c exp(-2|alpha|^2) levels(L_0..L_nmax(4|alpha|^2)) at each point, where
    `levels` reduces a block's (n_max+1, points) Laguerre values per point.
    A block of one point recurs on a float, giving shape (n_max+1,): numpy
    scalars are several times faster than one-element arrays, and the
    benchmark's output check makes thousands of one-point spectral calls.
    The block can go once those calls are array calls."""
    points, scalar = _points(alpha)
    # np.float_power(x, 2) is C pow, as Python's ** is; np.square differs from
    # it in the last bit at about 0.1% of points, which would move output bits
    s2 = np.float_power(points.real, 2) + np.float_power(points.imag, 2)
    per_block = max(1, _LAGUERRE_BLOCK_ENTRIES // (n_max + 1))
    reduced = np.empty(len(s2))
    for lo in range(0, len(s2), per_block):
        x = s2[lo : lo + per_block]
        x = 4.0 * (x if len(x) > 1 else x.item())
        reduced[lo : lo + per_block] = levels(laguerre_all(n_max, x))
    return _finite(c * elementwise(math.exp, -2.0 * s2) * reduced, points, scalar, what)


def wigner_poisson(alpha, N: float) -> float | np.ndarray:
    """Wigner function of the L = 1 (Poisson) member: strictly positive."""
    if not 0 < N < math.inf:
        raise ValueError(f"N must be positive and finite, got {N}")
    points, scalar = _points(alpha)
    s = _radii(points)
    exponent = -2.0 * s * s - 2.0 * N + log_bessel_i0(4.0 * math.sqrt(N) * s)
    return _finite(_WIGNER_BOUND * elementwise(math.exp, exponent), points, scalar, "Poisson")


def wigner_number(alpha, n: int) -> float | np.ndarray:
    """Wigner function of the number state |n>."""
    if n < 0:
        raise ValueError("n must be non-negative")
    c = _WIGNER_BOUND * (-1.0 if n % 2 else 1.0)
    return _laguerre_form(alpha, n, lambda lag: lag[n], c, "number-state")


def wigner_spectral(alpha, params: FamilyParams) -> float | np.ndarray:
    """Exact W(L, N) as the weight-mixture of number-state Wigner functions.

    rho(L, N) is diagonal in the number basis and W is linear in the state, so
    this is the ground-truth oracle the path-integral evaluations are tested
    against.
    """
    signed_weights = params.weight_array.copy()
    signed_weights[1::2] *= -1.0
    # each point sums its levels along a contiguous row, in the order of a
    # one-point sum; a transposed view would reorder the reduction
    return _laguerre_form(
        alpha,
        params.n_max,
        lambda lag: (signed_weights * np.ascontiguousarray(lag.T)).sum(axis=-1),
        _WIGNER_BOUND,
        "spectral",
    )


def gaussian_convolve_p1(alpha: complex, N: float) -> tuple[float, float]:
    """Wigner value of the Poisson member from its circle-supported weight
    function, as the Gaussian smoothing (2/pi) avg_theta exp(-2|alpha - sqrt(N) e^{i theta}|^2).

    Cross-check oracle for :func:`wigner_poisson`; the angular average uses
    doubling trapezoid refinement (spectrally accurate on periodic
    integrands) to 1e-10 in its log, from 32 up to 2^20 points.  Returns
    (value, achieved error estimate).
    """
    if not 0 < N < math.inf:
        raise ValueError(f"N must be positive and finite, got {N}")
    s = abs(alpha)
    m = 4.0 * math.sqrt(N) * s

    def log_avg(points: int) -> float:
        theta = 2.0 * math.pi * np.arange(points) / points
        # integrand e^{m cos theta}, factored so the grid values stay in (0, 1]
        return m + math.log(np.exp(m * (np.cos(theta) - 1.0)).mean())

    log_value, err = refine_by_doubling(log_avg, 32, 1 << 20, 1e-10, "angular average")
    value = _WIGNER_BOUND * math.exp(-2.0 * s * s - 2.0 * N + log_value)
    return value, err * abs(value)
