"""Flat phase-space primitives.

Phase-space points are plain complex numbers in the oscillator plane.
Overlap-type quantities are provided both directly and as complex logarithms
(real part = log magnitude, imaginary part = phase) so that downstream code can
stay in log space until a plain value is needed.
"""

from __future__ import annotations

import cmath


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
