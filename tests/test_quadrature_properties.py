"""Property tests of the quadrature route over (L, N, s), at M = 128."""

import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from wigpath.integrate import QuadratureSpec, wigner_quadrature
from wigpath.states import FamilyParams, wigner_spectral

SPEC = QuadratureSpec(points_per_dim=128)


@st.composite
def family_points(draw):
    L = draw(st.integers(1, 4))
    N = draw(st.floats(0.6, 30.0).filter(lambda x: x != round(x)))
    s = draw(st.floats(0.0, math.sqrt(N) + 3.0))
    phi = draw(st.floats(-math.pi, math.pi))
    return L, N, s, phi


@settings(max_examples=40, derandomize=True, deadline=None)
@given(family_points())
def test_quadrature_properties(point):
    L, N, s, phi = point
    params = FamilyParams(L, N)
    on_axis, rotated = wigner_quadrature([complex(s), s * cmath.exp(1j * phi)], params, SPEC)
    # within the check-oracle tolerance of the spectral mixture
    ws = wigner_spectral(complex(s), params)
    assert abs(on_axis.value - ws) <= 1e-6 * max(abs(ws), 0.01)
    assert abs(on_axis.value) <= 2.0 / math.pi
    # the family is phase-randomized, so W depends on |alpha| only
    assert abs(rotated.value - on_axis.value) <= 1e-10
