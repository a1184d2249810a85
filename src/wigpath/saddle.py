"""Stationary-phase structure of the circle path integral.

For evaluation points off the circle the dominant paths are arcs of equally
spaced angles spanning a complex half-angle theta that solves an implicit
chord equation.  Inside the circle two complex-conjugate arcs interfere and
produce the cosine oscillations of the Wigner function; outside, a single
purely imaginary arc gives monotone decay.  The closed-form evaluation keeps
the limiting (large-slice-count) phase while the finite slice count enters
through the normalization constants, which is how the printed asymptotic
forms are stated.  The amplitude inherited from the stationary-phase
determinant diverges with the slice count, so a matched normalization pinned
to the known interior wave-function asymptotics is provided alongside the raw
one.

`wigner_saddle` has one array path, a scalar alpha being a one-point array:
its arithmetic is numpy's, but acos, acosh, cos, exp, log and the quarter
power are math's, applied per element by `special.elementwise`, since
numpy's differ from libm's in the last bit at a few percent of doubles.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special import elementwise
from .states import FamilyParams, _finite, _points, _radii

TURNING_TOL = 1e-3  # relative width of the excluded annulus around s = r
ORIGIN_TOL = 1e-3  # excluded core radius, as a fraction of r
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100

# (pi^3/2)^{-1/2}: the interior amplitude of the number state's WKB asymptotics
_WKB_AMPLITUDE = 1.0 / math.sqrt(math.pi**3 / 2.0)


class RegionError(ValueError):
    """Evaluation point inside one of the singular zones of the asymptotics."""

    def __init__(self, region: str, message: str):
        super().__init__(message)
        self.region = region


class SaddleConvergenceError(RuntimeError):
    """Newton iteration failed; carries the iterate trace."""

    def __init__(self, message: str, trace: list[complex]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SaddleSolution:
    """Solved arc half-angle with its action and Hessian data.

    L is None for the limiting (infinite slice count) branch, in which case t
    and the Hessian log-determinant are undefined.
    """

    theta: complex
    L: int | None
    s: float
    r: float
    stationary_action: complex
    branch: str
    t: complex | None
    log_det_hessian: complex | None

    def angles(self) -> np.ndarray:
        """The stationary angles, equally spaced across the arc."""
        if self.L is None:
            raise ValueError("angle list is only defined for finite L")
        l = np.arange(1, self.L + 1)
        return (2 * l - self.L - 1) / (self.L - 1) * self.theta

    def residual(self) -> float:
        if self.L is None:
            return abs(self.r * cmath.cos(self.theta) - self.s)
        return abs(_chord_equation(self.theta, self.s, self.r, self.L))


def _chord_equation(theta: complex, s: float, r: float, L: int) -> complex:
    return 0.5 * r * (cmath.exp(1j * theta) + cmath.exp(-1j * theta * (L + 1) / (L - 1))) - s


def _chord_derivative(theta: complex, r: float, L: int) -> complex:
    ratio = (L + 1) / (L - 1)
    return 0.5 * r * 1j * (cmath.exp(1j * theta) - ratio * cmath.exp(-1j * theta * ratio))


def singular_zone(s, r: float):
    """The singular zone of the asymptotics holding |alpha| = s, for the
    circle of radius r: "turning" in the annulus |s/r - 1| < TURNING_TOL,
    "origin" in the core s < ORIGIN_TOL r, or "" outside both.  s is a float,
    giving a str, or a 1-D array of radii, giving a str array."""
    turning = abs(s / r - 1.0) < TURNING_TOL
    zones = np.where(turning, "turning", np.where(s < ORIGIN_TOL * r, "origin", ""))
    return zones if zones.ndim else zones.item()


def solve_saddle(s: float, r: float, L: int | None) -> SaddleSolution:
    """Solve the implicit arc equation for the saddle half-angle.

    Finite L uses complex Newton started from the limiting solution
    (arccos(s/r) inside, i arccosh(s/r) outside); the limiting branch (L =
    None) returns that seed directly.  The turning annulus |s/r - 1| <
    TURNING_TOL is rejected: both asymptotic forms carry quarter-power
    singularities there.  An exterior Newton solve that ends on the growing
    arc (Re S < 0) raises SaddleConvergenceError.
    """
    if s < 0 or r <= 0:
        raise ValueError("need s >= 0 and r > 0")
    if singular_zone(s, r) == "turning":
        raise RegionError(
            "turning",
            f"s/r = {s / r:.6f} lies in the turning annulus |s/r - 1| < {TURNING_TOL}",
        )
    branch = "interior" if s < r else "exterior"
    u = s / r
    theta_limit = complex(math.acos(u)) if branch == "interior" else 1j * math.acosh(u)

    if L is None:
        return _solution(theta_limit, _action(theta_limit, r, None), s, r, None, branch)

    if L < 2 or int(L) != L:
        raise ValueError(f"L must be an integer >= 2 (or None for the limit), got {L}")

    theta, _ = _newton(theta_limit, s, r, L)
    action = _action(theta, r, L)
    if branch == "exterior" and action.real < 0.0:
        raise SaddleConvergenceError(
            f"no decaying exterior saddle found at s={s}, r={r}, L={L}", [theta]
        )
    return _solution(theta, action, s, r, L, branch)


def _solution(
    theta: complex, action: complex, s: float, r: float, L: int | None, branch: str
) -> SaddleSolution:
    """The saddle at half-angle theta with its action, and for finite L its
    t and (L >= 3) Hessian log-determinant."""
    finite = L is not None
    return SaddleSolution(
        theta=theta, L=L, s=s, r=r, stationary_action=action, branch=branch,
        t=cmath.exp(2j * L * theta / (L - 1)) if finite else None,
        log_det_hessian=hessian_log_det(theta, r, L) if finite and L >= 3 else None,
    )


def _newton(seed: complex, s: float, r: float, L: int) -> tuple[complex, int]:
    theta = seed
    trace = [theta]
    for iteration in range(_NEWTON_MAX_ITER):
        f = _chord_equation(theta, s, r, L)
        if abs(f) <= _NEWTON_TOL * max(s, r):
            return theta, iteration
        theta = theta - f / _chord_derivative(theta, r, L)
        trace.append(theta)
    raise SaddleConvergenceError(
        f"Newton failed after {_NEWTON_MAX_ITER} iterations at s={s}, r={r}, L={L}",
        trace,
    )


def _action(theta: complex, r: float, L: int | None) -> complex:
    """Action of the arc of half-angle theta on the circle of radius r, with
    L slices, or in the limit of many slices for L = None."""
    r2 = r * r
    if L is None:
        return 1j * r2 * (2.0 * theta - cmath.sin(2.0 * theta))
    return L * r2 * (1.0 - cmath.exp(-2j * theta / (L - 1))) + 0.5 * r2 * (
        cmath.exp(-2j * theta * (L + 1) / (L - 1)) - cmath.exp(2j * theta)
    )


def time_reversed(sol: SaddleSolution) -> SaddleSolution:
    """The conjugate saddle traversing the arc the opposite way."""
    theta = -sol.theta.conjugate()
    return _solution(theta, _action(theta, sol.r, sol.L), sol.s, sol.r, sol.L, sol.branch)


def hessian_log_det(theta: complex, r: float, L: int) -> complex:
    """Log determinant of the second-derivative matrix at the arc of
    half-angle theta on the circle of radius r with L slices.

    Closed form r^{2L} t^{-1} [(1+L) + 2t + (1-L) t^2] with
    t = exp(2iL theta/(L-1)); the t^{-1} factor is kept as an explicit
    -2iL theta/(L-1) so the result varies continuously with theta instead of
    wrapping at branch cuts.
    """
    if L < 3:
        raise ValueError("the Hessian matrix is defined for finite L > 2")
    t = cmath.exp(2j * L * theta / (L - 1))
    bracket = (1 + L) + 2.0 * t + (1 - L) * t * t
    return 2.0 * L * math.log(r) - 2j * L * theta / (L - 1) + cmath.log(bracket)


def hessian_matrix(theta: complex, r: float, L: int) -> np.ndarray:
    """Dense second-derivative matrix, for cross-checking the closed form."""
    if L < 3:
        raise ValueError("the Hessian matrix is defined for finite L > 2")
    m = 2.0 * np.eye(L, dtype=complex)
    for i in range(L - 1):
        m[i, i + 1] = -1.0
        m[i + 1, i] = -1.0
    t = cmath.exp(2j * L * theta / (L - 1))
    m[0, L - 1] += t
    m[L - 1, 0] += t
    return r**2 * cmath.exp(-2j * theta / (L - 1)) * m


@lru_cache(maxsize=64)
def _log_raw_constant(n: int, L: int) -> float:
    """ln[(2 pi)^{L/2} L^{1/2} Z_L(n + 1/2)] with the exact partition sum."""
    params = FamilyParams(L, n + 0.5)
    return 0.5 * L * math.log(2.0 * math.pi) + 0.5 * math.log(L) + params.log_z


def interior_phase(s, n: int):
    """Oscillation phase (2n+1) arccos(u) - 2 s sqrt(n+1/2-s^2) - pi/4, at a
    float s or at each element of an array of radii inside the circle."""
    r2 = n + 0.5
    u = s / math.sqrt(r2)
    root = np.sqrt(r2 - s * s)
    return (2 * n + 1) * elementwise(math.acos, u) - 2.0 * s * root - 0.25 * math.pi


def _exterior_exponent(s, n: int):
    """ln(2 W) less the amplitude's log outside the circle: the decay of the
    single imaginary arc, at a float s or at each element of an array."""
    r2 = n + 0.5
    u = s / math.sqrt(r2)
    root = np.sqrt(s * s - r2)
    return (2 * n + 1) * elementwise(math.acosh, u) - 2.0 * s * root


def wigner_saddle(
    alpha, n: int, L: int = 512, normalization: str = "wkb-matched"
) -> float | np.ndarray:
    """Saddle-point Wigner function of the family member pinned to level n.

    alpha is a complex scalar, giving a float, or a 1-D array of points,
    giving a float array in input order.  A point in a singular zone
    (`singular_zone`) raises RegionError naming the zone and the point, and
    a non-finite value raises FloatingPointError naming its point.

    The family parameter is fixed at N = n + 1/2.  The fastest pinch onto
    |n><n| is at N = sqrt(n(n+1)), where the two nearest tail ratios N/(n+1)
    and n/N are equal; n + 1/2 exceeds it by a relative 1/(8 n (n+1)) to
    leading order (0.11% at n = 10, 6% at n = 1).
    Inside the circle the value is cos(phase) over a quarter-power amplitude;
    outside it is the decaying exponential of the single imaginary arc.  "raw"
    normalization is 1/[(2 pi)^{L/2} L^{1/2} Z_L]; note it grows without bound
    as L increases, so large-L raw values can overflow.  "wkb-matched"
    rescales by one global constant so the interior amplitude agrees with the
    wave-function asymptotics.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if normalization not in ("raw", "wkb-matched"):
        raise ValueError(f"unknown normalization {normalization!r}")
    points, scalar = _points(alpha)
    r2 = n + 0.5
    r = math.sqrt(r2)
    log_norm = -_log_raw_constant(n, L) if normalization == "raw" else math.log(_WKB_AMPLITUDE)
    s = _radii(alpha)
    zones = singular_zone(s, r)
    bad = np.flatnonzero(zones != "")
    if len(bad):
        z, zone = points[bad[0]], str(zones[bad[0]])
        raise RegionError(
            zone, f"alpha = {z:.6g} (|alpha| = {abs(z):.6f}) lies in the {zone} zone of "
            f"sqrt(n+1/2) = {r:.6f}, where the quarter-power amplitude diverges",
        )
    quarter = elementwise(lambda x: x**0.25, s * s * abs(r2 - s * s))
    log_amp = log_norm - elementwise(math.log, quarter)
    # W = factor exp(exponent): cos(phase) exp(log_amp) inside the circle and
    # 0.5 exp(decay + log_amp) outside
    inside = s < r
    factor = np.full(len(s), 0.5)
    factor[inside] = elementwise(math.cos, interior_phase(s[inside], n))
    exponent = log_amp.copy()
    exponent[~inside] = _exterior_exponent(s[~inside], n) + log_amp[~inside]
    try:
        values = factor * elementwise(math.exp, exponent)
    except OverflowError:
        # name the first point, in input order, whose amplitude overflows
        k = int(np.argmax(exponent > math.log(sys.float_info.max)))
        raise OverflowError(
            f"raw-normalized saddle amplitude exp({log_amp[k]:.1f}) exceeds double "
            f"range at L={L}; use normalization='wkb-matched' or a smaller L"
        ) from None
    return _finite(values, points, scalar, "saddle")
