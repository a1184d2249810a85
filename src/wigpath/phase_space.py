"""Flat phase-space primitives.

Phase-space points are plain complex numbers in the oscillator plane; the
(q, p) coordinates appear only at the API boundary through
:class:`PhaseSpaceScale`.  Overlap-type quantities are provided both directly
and as complex logarithms (real part = log magnitude, imaginary part = phase)
so that downstream code can stay in log space until a plain value is needed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhaseSpaceScale:
    """Oscillator scales fixing the (q, p) <-> complex-plane correspondence."""

    mass: float = 1.0
    frequency: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.mass > 0 and self.frequency > 0 and self.hbar > 0):
            raise ValueError(
                "mass, frequency and hbar must all be strictly positive, got "
                f"({self.mass}, {self.frequency}, {self.hbar})"
            )


DEFAULT_SCALE = PhaseSpaceScale()


def alpha_from_qp(q: float, p: float, scale: PhaseSpaceScale = DEFAULT_SCALE) -> complex:
    """Map a phase-space point (q, p) to its complex-plane label."""
    m, w, hb = scale.mass, scale.frequency, scale.hbar
    return math.sqrt(m * w / (2.0 * hb)) * q + 1j * p / math.sqrt(2.0 * m * hb * w)


def qp_from_alpha(alpha: complex, scale: PhaseSpaceScale = DEFAULT_SCALE) -> tuple[float, float]:
    """Inverse of :func:`alpha_from_qp`."""
    m, w, hb = scale.mass, scale.frequency, scale.hbar
    q = alpha.real * math.sqrt(2.0 * hb / (m * w))
    p = alpha.imag * math.sqrt(2.0 * m * hb * w)
    return q, p


def polar(alpha: complex) -> tuple[float, float]:
    """Modulus and argument of a point, with the argument wrapped to [0, 2 pi)."""
    s = abs(alpha)
    phi = cmath.phase(alpha)
    if phi < 0.0:
        phi += 2.0 * math.pi
    if phi >= 2.0 * math.pi:
        phi = 0.0
    return s, phi


def log_coherent_overlap(beta: complex, gamma: complex) -> complex:
    """Complex log of <beta|gamma> for normalized minimum-uncertainty states."""
    return (
        -0.5 * (beta.real**2 + beta.imag**2)
        - 0.5 * (gamma.real**2 + gamma.imag**2)
        + beta.conjugate() * gamma
    )


def coherent_overlap(beta: complex, gamma: complex) -> complex:
    """<beta|gamma> = exp(-|beta|^2/2 - |gamma|^2/2 + beta* gamma); |result| <= 1."""
    return cmath.exp(log_coherent_overlap(beta, gamma))


def log_displaced_parity_element(alpha: complex, beta: complex, gamma: complex) -> complex:
    """Complex log of <beta| (pi/2) delta_2(alpha - a) |gamma>.

    delta_2 is the symmetrically ordered two-dimensional delta operator whose
    expectation value is the Wigner function; it acts as a parity operator
    displaced to the point alpha.
    """
    return -2.0 * (alpha - gamma) * (alpha.conjugate() - beta.conjugate()) + log_coherent_overlap(
        beta, gamma
    )


def displaced_parity_element(alpha: complex, beta: complex, gamma: complex) -> complex:
    return cmath.exp(log_displaced_parity_element(alpha, beta, gamma))
