"""The dense Fock oracle of tests/oracles.py against the library: the circle
seed against the spectral closed form, and the M-gon seed against the
quadrature grid sum, which is that seed's family member exactly."""

import math

import numpy as np
import pytest

from oracles import (
    circle_seed,
    dense_wigner,
    mgon_seed,
    poisson_weights,
    seed_levels,
    seed_power,
)
from wigpath import FamilyParams, wigner_quadrature, wigner_spectral
from wigpath.integrate import QuadratureSpec


@pytest.mark.parametrize("N", [1.5, 4.5, 10.5])
def test_seed_basis_drops_a_negligible_poisson_tail(N):
    dim = seed_levels(N)
    assert poisson_weights(N, 2 * dim)[dim:].sum() < 1e-30


@pytest.mark.parametrize("L", [1, 3, 6])
@pytest.mark.parametrize("N", [1.5, 10.5])
def test_circle_seed_equals_spectral(L, N):
    rho = seed_power(circle_seed(N), L)
    z = np.trace(rho).real
    params = FamilyParams(L, N)
    for alpha in (0.0, 0.8, 1.1 - 1.6j, 3.5j):
        assert abs(dense_wigner(alpha, rho) / z - wigner_spectral(alpha, params)) <= 1e-14


@pytest.mark.parametrize(
    "L, N, M, s", [(3, 4.5, 8, 3.5), (2, 10.5, 8, 1.3), (3, 10.5, 16, 2.0), (4, 10.5, 8, 0.7)]
)
def test_mgon_seed_equals_aliased_quadrature(L, N, M, s):
    # at these M the grid sum is far from the circle's W (spectral), yet it is
    # the M-gon member's W to roundoff, divided by the circle's partition sum
    # and read on the real axis, the grid's frame
    z = np.trace(seed_power(circle_seed(N), L)).real
    reference = dense_wigner(s, seed_power(mgon_seed(N, M), L)) / z
    got = wigner_quadrature(complex(s), FamilyParams(L, N), QuadratureSpec(points_per_dim=M))
    assert abs(got.value - reference) <= 1e-14
    assert abs(got.value - wigner_spectral(s, FamilyParams(L, N))) > 1e-7
