"""Geometric-action tests: overlap-product identity, decompositions, symmetry."""

import cmath
import math

import numpy as np
import pytest

from oracles import (
    CirclePath,
    chord_midpoint,
    coherent_overlap,
    end_action,
    path_action,
    total_action,
)
from wigpath.action import circle_actions_batch, circle_phasors


def circle_action(path: CirclePath, alpha: complex, phi: float | None = None) -> complex:
    """Action of a circle-restricted path, written purely in angle differences.

    Scalar reference for circle_actions_batch, checked below against the
    generic-path action of the lifted vertices.  Angles are measured relative
    to the argument phi of alpha (passing phi explicitly overrides the one
    derived from alpha), which makes global rotations a testable no-op rather
    than a convention.
    """
    r = path.radius
    th = np.asarray(path.angles)
    s = abs(alpha)
    if phi is None:
        phi = math.atan2(alpha.imag, alpha.real)
    L = th.size
    prev = np.roll(th, 1)
    links = np.exp(1j * (prev - th)).sum()
    return complex(
        L * r * r
        + 2.0 * s * s
        - r * r * links
        + 2.0 * r * r * np.exp(1j * (th[-1] - th[0]))
        - 2.0 * r * s * (np.exp(-1j * (th[0] - phi)) + np.exp(1j * (th[-1] - phi)))
    )


def random_path(rng, L):
    return rng.normal(0, 1, L) + 1j * rng.normal(0, 1, L)


def shoelace_area(vertices) -> float:
    # signed polygon area, closing the loop; independent geometry oracle
    x = np.array([v.real for v in vertices])
    y = np.array([v.imag for v in vertices])
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def test_path_action_constant_path():
    g = 0.3 - 1.2j
    assert path_action([g] * 5) == pytest.approx(0.0 + 0.0j, abs=1e-15)


def test_path_action_two_vertex_hand_value():
    # gamma = (1, i): half link lengths sum to 2, swept areas cancel
    assert path_action([1.0, 1j]) == pytest.approx(2.0 + 0.0j, abs=1e-14)


def test_path_action_is_log_of_overlap_product():
    rng = np.random.default_rng(101)
    for L in range(1, 13):
        g = random_path(rng, L)
        prod = 1.0 + 0.0j
        for l in range(L):
            prod *= coherent_overlap(g[l], g[l - 1])  # l=0 pairs with gamma_L
        assert cmath.exp(-path_action(g)) == pytest.approx(prod, rel=1e-12)


def test_end_action_examples():
    assert end_action([0.5 + 0.5j], 0.5 + 0.5j) == pytest.approx(0.0, abs=1e-15)
    assert end_action([0.0, 0.0], 1.0 + 0j) == pytest.approx(2.0 + 0.0j, abs=1e-15)


def test_end_action_conjugates_under_end_swap():
    rng = np.random.default_rng(55)
    for _ in range(1000):
        g = random_path(rng, 4)
        alpha = complex(rng.normal(), rng.normal())
        swapped = g.copy()
        swapped[0], swapped[-1] = g[-1], g[0]
        assert end_action(swapped, alpha) == pytest.approx(
            end_action(g, alpha).conjugate(), rel=1e-12
        )


def test_chord_midpoint():
    assert chord_midpoint([1.0, 0.5j, 1j]) == pytest.approx((1.0 + 1j) / 2.0)
    assert chord_midpoint([0.7 - 0.1j]) == pytest.approx(0.7 - 0.1j)


def test_total_action_zero_for_collapsed_path():
    a = 1.1 - 0.7j
    av = total_action([a] * 4, a)
    assert av.total == pytest.approx(0.0 + 0.0j, abs=1e-14)
    assert av.re_internal_links == pytest.approx(0.0, abs=1e-15)
    assert av.re_end_gap == pytest.approx(0.0, abs=1e-15)
    assert av.im_area == pytest.approx(0.0, abs=1e-15)


def test_real_part_decomposition_identity():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        L = rng.integers(1, 9)
        g = random_path(rng, L)
        alpha = complex(rng.normal(), rng.normal())
        av = total_action(g, alpha)
        assert av.total.real == pytest.approx(
            av.re_internal_links + av.re_end_gap, rel=1e-12, abs=1e-12
        )
        assert av.total.real >= -1e-12
        assert av.re_end_gap == pytest.approx(
            2.0 * abs(alpha - chord_midpoint(g)) ** 2, rel=1e-12, abs=1e-12
        )


def test_time_reversal_flips_area_only():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        L = rng.integers(2, 9)
        g = random_path(rng, L)
        alpha = complex(rng.normal(), rng.normal())
        fwd = total_action(g, alpha)
        rev = total_action(g[::-1], alpha)
        assert rev.total.real == pytest.approx(fwd.total.real, rel=1e-12, abs=1e-12)
        assert rev.im_area == pytest.approx(-fwd.im_area, rel=1e-12, abs=1e-12)


def test_square_path_area_against_shoelace():
    # CCW unit square centered on the origin, evaluated at its center
    g = [1.0 + 0j, 1j, -1.0 + 0j, -1j]
    av = total_action(g, 0.0 + 0j)
    area = shoelace_area(g)
    rect_term = 2.0 * ((0 - g[-1]) * (0 - g[0].conjugate())).imag
    assert av.im_area == pytest.approx(2.0 * area + rect_term, rel=1e-14)
    assert av.im_area == pytest.approx(2.0, rel=1e-14)


def test_polygon_area_identity_random():
    # Im of the closed-path term alone is twice the shoelace area
    rng = np.random.default_rng(42)
    for _ in range(200):
        L = rng.integers(3, 10)
        g = random_path(rng, L)
        assert path_action(g).imag == pytest.approx(
            2.0 * shoelace_area(g), rel=1e-11, abs=1e-11
        )


def test_zero_action_iff_degenerate():
    g = [0.5 + 0.5j] * 3
    assert total_action(g, 0.5 + 0.5j).total.real == pytest.approx(0.0, abs=1e-15)
    # moving alpha off the midpoint or stretching a link makes Re positive
    assert total_action(g, 0.6 + 0.5j).total.real > 0.0
    g2 = [0.5 + 0.5j, 0.7 + 0.5j, 0.5 + 0.5j]
    assert total_action(g2, 0.5 + 0.5j).total.real > 0.0


def test_rotational_covariance():
    rng = np.random.default_rng(8)
    for _ in range(300):
        L = rng.integers(1, 8)
        g = random_path(rng, L)
        alpha = complex(rng.normal(), rng.normal())
        chi = rng.uniform(0, 2 * math.pi)
        rot = cmath.exp(1j * chi)
        a1 = total_action(g, alpha)
        a2 = total_action(g * rot, alpha * rot)
        assert a2.total == pytest.approx(a1.total, rel=1e-12, abs=1e-12)


def test_circle_action_collapsed_at_alpha():
    r = math.sqrt(2.5)
    phi = 0.8
    path = CirclePath(radius=r, angles=(phi,) * 4)
    alpha = r * cmath.exp(1j * phi)
    assert circle_action(path, alpha) == pytest.approx(0.0 + 0.0j, abs=1e-13)


def test_circle_action_imaginary_part_odd_in_angles():
    rng = np.random.default_rng(19)
    r, s = 1.3, 0.9
    for _ in range(300):
        angles = rng.uniform(-1.0, 1.0, 5)
        a_plus = circle_action(CirclePath(r, tuple(angles)), s + 0j)
        a_minus = circle_action(CirclePath(r, tuple(-angles)), s + 0j)
        assert a_plus.real == pytest.approx(a_minus.real, rel=1e-12, abs=1e-12)
        assert a_plus.imag == pytest.approx(-a_minus.imag, rel=1e-12, abs=1e-12)
        assert a_plus.real >= -1e-12


def test_circle_action_matches_lifted_generic_path():
    rng = np.random.default_rng(23)
    for _ in range(300):
        L = rng.integers(1, 9)
        r = 0.5 + 2.0 * rng.random()
        path = CirclePath(r, tuple(rng.uniform(0, 2 * math.pi, L)))
        alpha = complex(rng.normal(0, 2), rng.normal(0, 2))
        lifted = total_action(path.vertices(), alpha).total
        assert circle_action(path, alpha) == pytest.approx(lifted, rel=1e-12, abs=1e-12)


def test_circle_action_explicit_phi_overrides():
    # angles measured relative to phi: shifting both is a no-op
    r = 1.7
    path = CirclePath(r, (0.1, 0.9, 1.4))
    val1 = circle_action(path, 1.2 * cmath.exp(0.7j))
    path_shifted = CirclePath(r, (0.1 + 0.3, 0.9 + 0.3, 1.4 + 0.3))
    val2 = circle_action(path_shifted, 1.2 * cmath.exp(1j * (0.7 + 0.3)))
    assert val1 == pytest.approx(val2, rel=1e-12)


def test_batch_actions_match_scalar():
    # a point at argument phi is reached by rotating the angles by -phi
    rng = np.random.default_rng(31)
    r, s, phi = 1.4, 0.8, 0.5
    thetas = rng.uniform(0, 2 * math.pi, size=(50, 4))
    totals = circle_actions_batch(thetas - phi, r, np.array([s]))[0]
    path_terms = circle_phasors(thetas, r)[1]
    alpha = s * cmath.exp(1j * phi)
    for i in range(50):
        path = CirclePath(r, tuple(thetas[i]))
        assert totals[i] == pytest.approx(circle_action(path, alpha), rel=1e-12)
        assert totals[i] == pytest.approx(total_action(path.vertices(), alpha).total, rel=1e-12)
        assert path_terms[i] == pytest.approx(path_action(path.vertices()), rel=1e-12)


def test_batch_actions_array_s_equals_stacked_scalar_calls():
    rng = np.random.default_rng(32)
    r, phi = 1.3, 0.7
    thetas = rng.uniform(0, 2 * math.pi, size=(301, 5)) - phi
    radii = np.linspace(0.0, 2.9, 7)
    totals = circle_actions_batch(thetas, r, radii)
    assert totals.shape == (len(radii), len(thetas))
    assert totals.flags.c_contiguous
    for i in range(len(radii)):
        assert np.array_equal(totals[i], circle_actions_batch(thetas, r, radii[i : i + 1])[0])


def reference_actions(thetas, r, s):
    """circle_actions_batch written out of place, in the same operation order."""
    e, path_terms = circle_phasors(thetas, r)
    s = s[:, None]
    first, last = e[:, 0], e[:, -1]
    ends = first.conj() + last
    totals = 2.0 * s * s + 2.0 * r * r * (last * first.conj())
    totals.real -= 2.0 * r * s * ends.real
    totals.imag -= 2.0 * r * s * ends.imag
    return totals + path_terms


@pytest.mark.parametrize("into", ["none", "buffers", "views"])
def test_batch_actions_into_buffers_are_bit_identical(into):
    # the totals of every out= form equal the out-of-place arithmetic bit for
    # bit; "views" is a short last block in the front of larger flat buffers
    rng = np.random.default_rng(35)
    r = 1.25
    thetas = rng.uniform(0, 2 * math.pi, size=(211, 4))
    radii = np.linspace(0.0, 3.3, 5)
    shape = (len(radii), len(thetas))
    if into == "none":
        out = None
    elif into == "buffers":
        out = np.empty(shape, dtype=complex), np.empty(shape)
    else:
        entries = radii.size * len(thetas)
        out = (
            np.empty(3 * entries, dtype=complex)[:entries].reshape(shape),
            np.empty(3 * entries)[:entries].reshape(shape),
        )
    totals = circle_actions_batch(thetas, r, radii, out=out)
    if out is not None:
        assert totals is out[0]
    assert np.array_equal(totals, reference_actions(thetas, r, radii))


def test_circle_phasors_equal_exp_and_path_action():
    rng = np.random.default_rng(33)
    r = 1.3
    for L in (1, 2, 5):
        thetas = rng.uniform(0, 2 * math.pi, size=(257, L))
        e, terms = circle_phasors(thetas, r)
        assert np.array_equal(e, np.exp(1j * thetas))
        for i in range(0, 257, 32):
            path = CirclePath(r, tuple(thetas[i])).vertices()
            assert terms[i] == pytest.approx(path_action(path), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("L", [1, 2, 64])
def test_phasor_actions_match_generic_path_actions(L):
    # the column-wise link sum and the end factors, at angles rotated by -phi,
    # against the generic-path action of the lifted vertices at argument phi
    rng = np.random.default_rng(34 + L)
    r, phi = 1.6, -2.3
    thetas = rng.uniform(0, 2 * math.pi, size=(40, L))
    radii = np.array([0.0, 0.45, 1.6, 3.1])
    terms = circle_phasors(thetas, r)[1]
    totals = circle_actions_batch(thetas - phi, r, radii)
    for i in range(len(thetas)):
        vertices = CirclePath(r, tuple(thetas[i])).vertices()
        assert terms[i] == pytest.approx(path_action(vertices), rel=1e-12, abs=1e-14)
        for k, s in enumerate(radii):
            ref = total_action(vertices, s * cmath.exp(1j * phi)).total
            assert totals[k, i] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_circle_path_terms_reject_1d_angles():
    with pytest.raises(ValueError):
        circle_phasors(np.zeros(4), 1.0)


@pytest.mark.parametrize("s", [np.zeros((2, 2)), 0.8], ids=["2d", "0d"])
def test_batch_actions_reject_2d_radii(s):
    with pytest.raises(ValueError, match="1-D array of radii"):
        circle_actions_batch(np.zeros((4, 3)), 1.0, s)


def test_circle_path_validation():
    with pytest.raises(ValueError):
        CirclePath(radius=-1.0, angles=(0.0,))
    with pytest.raises(ValueError):
        CirclePath(radius=1.0, angles=())
