"""Phase-space primitive tests: overlaps, displaced parity."""

import cmath
import math

import numpy as np
import pytest

from oracles import (
    coherent_overlap,
    displaced_parity_element,
    log_coherent_overlap,
)


def overlap_number_basis_oracle(beta: complex, gamma: complex, n_terms: int = 60) -> complex:
    # <beta|gamma> from the number-basis expansion of both states
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(n_terms):
        if n > 0:
            term *= beta.conjugate() * gamma / n
        total += term
    return cmath.exp(-0.5 * abs(beta) ** 2 - 0.5 * abs(gamma) ** 2) * total


def test_overlap_normalization_and_zero_case():
    g = 0.6 - 1.1j
    assert coherent_overlap(g, g) == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert coherent_overlap(0.0, g) == pytest.approx(
        cmath.exp(-0.5 * abs(g) ** 2), rel=1e-14
    )


def test_overlap_against_number_basis_oracle():
    assert coherent_overlap(1.0, 1j) == pytest.approx(cmath.exp(-1.0 + 1j), rel=1e-13)
    rng = np.random.default_rng(21)
    for _ in range(50):
        b = complex(rng.normal(), rng.normal())
        g = complex(rng.normal(), rng.normal())
        assert coherent_overlap(b, g) == pytest.approx(
            overlap_number_basis_oracle(b, g), rel=1e-11
        )


def test_overlap_modulus_identity():
    # |<beta|gamma>| = exp(-|beta-gamma|^2 / 2) exactly
    rng = np.random.default_rng(33)
    for _ in range(1000):
        b = complex(rng.normal(0, 2), rng.normal(0, 2))
        g = complex(rng.normal(0, 2), rng.normal(0, 2))
        assert abs(coherent_overlap(b, g)) == pytest.approx(
            math.exp(-0.5 * abs(b - g) ** 2), rel=1e-12
        )
        assert abs(coherent_overlap(b, g)) <= 1.0 + 1e-15


def test_displaced_parity_trivial_points():
    g = 0.3 + 0.4j
    assert displaced_parity_element(g, g, g) == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert displaced_parity_element(0.0, g, g) == pytest.approx(
        math.exp(-2.0 * abs(g) ** 2), rel=1e-14
    )


def displaced_parity_element_reflected(alpha: complex, beta: complex, gamma: complex) -> complex:
    # independently coded reflection form: a phase of four times the area of
    # the triangle (0, alpha, gamma) times <beta|2 alpha - gamma>
    phase = -alpha * gamma.conjugate() + alpha.conjugate() * gamma
    return cmath.exp(phase) * coherent_overlap(beta, 2.0 * alpha - gamma)


def test_displaced_parity_derived_example():
    # evaluation point 0.5, bra at 1, ket at i; oracle: the reflection form
    got = displaced_parity_element(0.5, 1.0, 1j)
    expected = cmath.exp(-2.0 * (0.5 - 1j) * (0.5 - 1.0)) * cmath.exp(-1.0 + 1j)
    assert got == pytest.approx(expected, rel=1e-13)
    assert got == pytest.approx(displaced_parity_element_reflected(0.5, 1.0, 1j), rel=1e-13)


def test_displaced_parity_two_forms_agree():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a, b, g = (complex(rng.normal(), rng.normal()) for _ in range(3))
        direct = displaced_parity_element(a, b, g)
        reflected = displaced_parity_element_reflected(a, b, g)
        assert direct == pytest.approx(reflected, rel=1e-12)


def test_displaced_parity_hermiticity():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        a, b, g = (complex(rng.normal(), rng.normal()) for _ in range(3))
        lhs = displaced_parity_element(a, b, g)
        rhs = displaced_parity_element(a, g, b).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_displaced_parity_gives_gaussian_wigner():
    # (2/pi) <gamma| (pi/2) delta_2(alpha - a) |gamma> is the Gaussian blob of |gamma>
    rng = np.random.default_rng(17)
    for _ in range(1000):
        a = complex(rng.normal(), rng.normal())
        g = complex(rng.normal(), rng.normal())
        val = (2.0 / math.pi) * displaced_parity_element(a, g, g)
        assert abs(val.imag) <= 1e-12 * max(abs(val), 1e-30)
        assert val.real > 0.0
        assert val.real == pytest.approx(
            (2.0 / math.pi) * math.exp(-2.0 * abs(a - g) ** 2), rel=1e-12
        )


def test_log_forms_are_logs():
    b, g = 0.9 + 0.2j, -1.3 + 0.8j
    assert cmath.exp(log_coherent_overlap(b, g)) == pytest.approx(
        coherent_overlap(b, g), rel=1e-14
    )
