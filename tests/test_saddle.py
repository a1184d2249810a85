"""Saddle-point tests: arc equation, stationary action, Hessian determinant,
assembled asymptotic Wigner values."""

import cmath
import math

import numpy as np
import pytest

from wigpath import saddle
from wigpath.saddle import (
    RegionError,
    SaddleSolution,
    _newton,
    hessian_log_det,
    hessian_matrix,
    interior_phase,
    solve_saddle,
    singular_zone,
    time_reversed,
    wigner_saddle,
)
from wigpath.states import FamilyParams, wigner_number

# Newton result for s=1, r=sqrt(1.5), L=8 at 40-digit precision, frozen
THETA_L8 = 0.5325459039802439 - 0.09609345464649598j
# stationary action at s=0.8r, r^2=1.5, L=32, frozen from term-by-term substitution
S0_L32 = 0.03873544945983935 + 0.4883678243579856j


def wigner_wkb(alpha: complex, n: int) -> float:
    """Oracle: the interior wave-function asymptotics of the number-state
    Wigner function, with the explicit (pi^3/2)^{-1/2} amplitude."""
    r2 = n + 0.5
    s = abs(alpha)
    zone = singular_zone(s, math.sqrt(r2))
    if zone:
        raise RegionError(zone, f"|alpha| = {s} lies in the {zone} zone")
    if s * s >= r2:
        raise RegionError("exterior", f"|alpha| = {s} is outside the shelf")
    quarter = (s * s * (r2 - s * s)) ** 0.25
    return math.cos(interior_phase(s, n)) / (math.sqrt(math.pi**3 / 2.0) * quarter)


def stirling_log_partition(n: int, L: int) -> float:
    """Oracle: the Stirling estimate -(L/2) ln[2 pi (n + 5/12)] of the log
    partition sum, good to about a percent per slice for n >= 5."""
    if n < 2:
        raise ValueError("the Stirling form needs n >= 2")
    return -0.5 * L * math.log(2.0 * math.pi * (n + 5.0 / 12.0))


def test_limit_solutions():
    r = math.sqrt(10.5)
    sol = solve_saddle(0.0, r, None)
    assert sol.theta == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert sol.branch == "interior"
    sol2 = solve_saddle(r * math.cos(0.7), r, None)
    assert sol2.theta == pytest.approx(0.7, rel=1e-13)


def test_finite_l_frozen_solution():
    sol = solve_saddle(1.0, math.sqrt(1.5), 8)
    assert sol.theta == pytest.approx(THETA_L8, rel=1e-12)
    assert sol.residual() <= 1e-12 * math.sqrt(1.5)
    assert sol.branch == "interior"
    assert sol.theta.imag != 0.0  # finite slice count shifts the arc off the real axis


def test_finite_l_approaches_limit():
    r = math.sqrt(1.5)
    target = math.acos(1.0 / r)
    gaps = [abs(solve_saddle(1.0, r, L).theta - target) for L in (8, 16, 64, 1024)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 2e-3


def test_residual_grid_and_iteration_budget():
    ratios = np.concatenate([np.linspace(0.05, 0.97, 25), np.linspace(1.03, 3.0, 25)])
    for L in (4, 8, 16, 64, 256, 1024):
        for ratio in ratios:
            r = math.sqrt(10.5)
            s = ratio * r
            sol = solve_saddle(s, r, L)
            assert sol.residual() <= 1e-12 * max(s, r)
            seed = (
                complex(math.acos(ratio)) if ratio < 1.0 else 1j * math.acosh(ratio)
            )
            _, iters = _newton(seed, s, r, L)
            assert iters <= 25


def test_turning_region_rejected():
    r = math.sqrt(1.5)
    for ratio in (0.9995, 1.0, 1.0005):
        with pytest.raises(RegionError) as err:
            solve_saddle(ratio * r, r, 16)
        assert err.value.region == "turning"


def test_exterior_saddle_is_imaginary_and_decaying():
    r = math.sqrt(10.5)
    for L in (4, 32, 512):
        sol = solve_saddle(1.4 * r, r, L)
        assert sol.branch == "exterior"
        assert abs(sol.theta.real) < 1e-12
        assert sol.theta.imag > 0.0
        assert sol.stationary_action.real > 0.0
        assert abs(sol.stationary_action.imag) < 1e-10
    lim = solve_saddle(1.4 * r, r, None)
    assert abs(lim.theta.real) < 1e-15
    assert lim.theta == pytest.approx(1j * math.acosh(1.4), rel=1e-13)


def test_stationary_action_zero_at_circle_touch():
    # theta = 0 is the arc at s = r, inside the turning annulus solve_saddle rejects
    assert saddle._action(0.0, 1.0, 16) == pytest.approx(0.0 + 0.0j, abs=1e-15)
    assert saddle._action(0.0, 1.0, None) == pytest.approx(0.0 + 0.0j, abs=1e-15)


def test_stationary_action_limit_at_origin():
    sol = solve_saddle(0.0, math.sqrt(10.5), None)
    assert sol.stationary_action == pytest.approx(1j * math.pi * 10.5, rel=1e-13)


def test_stationary_action_frozen_value():
    r = math.sqrt(1.5)
    sol = solve_saddle(0.8 * r, r, 32)
    assert sol.stationary_action == pytest.approx(S0_L32, rel=1e-12)
    assert sol.stationary_action == saddle._action(sol.theta, r, 32)


def test_action_limit_gap_halves_with_l():
    r = math.sqrt(1.5)
    s = 0.8 * r
    limit = solve_saddle(s, r, None).stationary_action
    gaps = [abs(solve_saddle(s, r, L).stationary_action - limit) for L in (64, 128, 256, 512)]
    assert gaps[-1] < 1e-2
    for a, b in zip(gaps, gaps[1:]):
        assert 0.4 <= b / a <= 0.6  # O(1/L): halving 1/L halves the gap within 20%
    assert abs(solve_saddle(s, r, 1024).stationary_action - limit) < 1e-2


def test_hessian_determinant_t_equal_one():
    # theta = 0 gives t = 1: bracket (1+L) + 2 - (L-1) = 4, so det = 4 r^6 at L=3
    assert cmath.exp(hessian_log_det(0.0, 1.3, 3)) == pytest.approx(4.0 * 1.3**6, rel=1e-12)


def test_hessian_closed_form_vs_dense():
    rng = np.random.default_rng(6)
    for L in (3, 5, 8, 10):
        for _ in range(20):
            theta = complex(rng.normal(0, 1), rng.normal(0, 0.3))
            r = 1.0 + 2.0 * rng.random()
            sign, logabs = np.linalg.slogdet(hessian_matrix(theta, r, L))
            dense = sign * math.exp(logabs)
            closed = cmath.exp(hessian_log_det(theta, r, L))
            assert abs(dense - closed) / abs(closed) <= 1e-10


def test_hessian_solved_saddle_vs_dense():
    sol = solve_saddle(0.5, math.sqrt(10.5), 8)
    sign, logabs = np.linalg.slogdet(hessian_matrix(sol.theta, sol.r, sol.L))
    dense = sign * math.exp(logabs)
    assert abs(dense - cmath.exp(sol.log_det_hessian)) / abs(dense) <= 1e-10


def test_hessian_requires_l_above_two():
    sol = solve_saddle(0.5, 1.0, 2)
    assert sol.log_det_hessian is None
    with pytest.raises(ValueError):
        hessian_log_det(sol.theta, sol.r, sol.L)
    with pytest.raises(ValueError):
        hessian_matrix(sol.theta, sol.r, sol.L)


def test_saddle_angles_equally_spaced():
    sol = solve_saddle(1.0, math.sqrt(1.5), 8)
    angles = sol.angles()
    spacing = np.diff(angles)
    assert np.allclose(spacing, spacing[0], rtol=1e-12)
    assert angles[0] == pytest.approx(-sol.theta, rel=1e-12)
    assert angles[-1] == pytest.approx(sol.theta, rel=1e-12)


def single_saddle_weight(sol: SaddleSolution) -> complex:
    # one arc's factor exp(-S0) e^{i theta} (1 - e^{4 i theta})^{-1/2}, real
    # constants omitted; the time-reversed arc gives the complex conjugate
    theta = sol.theta
    return cmath.exp(-sol.stationary_action) * cmath.exp(1j * theta) / cmath.sqrt(
        1.0 - cmath.exp(4j * theta)
    )


def test_time_reversed_pair_sum_is_real():
    for L, ratio in [(8, 0.3), (32, 0.8), (128, 0.6)]:
        r = math.sqrt(10.5)
        sol = solve_saddle(ratio * r, r, L)
        rev = time_reversed(sol)
        assert rev.theta == pytest.approx(-sol.theta.conjugate(), rel=1e-12)
        assert rev.residual() <= 1e-11 * r
        pair = single_saddle_weight(sol) + single_saddle_weight(rev)
        assert abs(pair.imag) <= 1e-12 * abs(pair)


def test_raw_interior_matches_large_n_closed_form_up_to_constant():
    # ratio of the raw value to the simplified large-n form must not vary with alpha
    n, L = 10, 64
    r2 = n + 0.5
    ratios = []
    for s in np.linspace(0.9, 2.8, 25):
        raw = wigner_saddle(complex(s), n, L=L, normalization="raw")
        u2 = s * s / r2
        closed = math.cos(interior_phase(s, n)) / (
            math.sqrt(L) * (1.0 + 1.0 / (24.0 * n)) ** L * (u2 * (1.0 - u2)) ** 0.25
        )
        ratios.append(raw / closed)
    ratios = np.array(ratios)
    assert np.all(np.abs(ratios / ratios[0] - 1.0) <= 1e-10)


def test_saddle_zero_crossing_matches_exact_for_n1():
    # exact zero of the n=1 Wigner function is at s = 1/2
    grid = np.linspace(0.2, 0.8, 1201)
    vals = [wigner_saddle(complex(s), 1) for s in grid]
    crossings = [
        grid[i] - vals[i] * (grid[i + 1] - grid[i]) / (vals[i + 1] - vals[i])
        for i in range(len(grid) - 1)
        if vals[i] * vals[i + 1] < 0
    ]
    assert len(crossings) == 1
    assert abs(crossings[0] - 0.5) <= 0.05


def test_exterior_shape_tracks_exact_tail():
    # outside the circle: positive, decaying, constant ratio to the exact tail
    n = 10
    ss = np.sqrt(np.linspace(n + 1.0, n + 3.0, 9))
    vals = np.array([wigner_saddle(complex(s), n) for s in ss])
    exact = np.array([wigner_number(complex(s), n) for s in ss])
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    ratio = vals / exact
    assert ratio.max() / ratio.min() <= 1.5


def test_wigner_saddle_region_errors():
    with pytest.raises(RegionError) as err:
        wigner_saddle(complex(math.sqrt(10.5)), 10)
    assert err.value.region == "turning"
    with pytest.raises(RegionError) as err:
        wigner_saddle(1e-6 + 0j, 10)
    assert err.value.region == "origin"


def test_raw_normalization_diverges_with_l():
    # the stationary-phase constant grows without bound in the slice count
    small = abs(wigner_saddle(2.0 + 0j, 10, L=8, normalization="raw"))
    big = abs(wigner_saddle(2.0 + 0j, 10, L=512, normalization="raw"))
    assert math.isfinite(small) and math.isfinite(big)
    assert big > 1e100 * small
    with pytest.raises(OverflowError, match="wkb-matched"):
        wigner_saddle(2.0 + 0j, 10, L=800, normalization="raw")


def test_matched_saddle_does_not_build_the_raw_constant(monkeypatch):
    def unused(n, L):
        raise RuntimeError("raw constant built")

    monkeypatch.setattr(saddle, "_log_raw_constant", unused)
    assert math.isfinite(wigner_saddle(2.0 + 0j, 10, L=512))
    with pytest.raises(RuntimeError, match="raw constant built"):
        wigner_saddle(2.0 + 0j, 10, L=512, normalization="raw")


def test_wkb_phase_origin_limit():
    n = 4
    expected = (2 * n + 1) * math.pi / 2.0 - math.pi / 4.0
    assert interior_phase(1e-9, n) == pytest.approx(expected, rel=1e-9)


def test_wkb_amplitude_as_printed():
    # inside the circle the matched saddle is the printed WKB form
    n, s = 10, 2.0
    denom = math.sqrt(math.pi**3 / 2.0) * (s * s * (n + 0.5 - s * s)) ** 0.25
    assert wigner_saddle(complex(s), n) == pytest.approx(
        math.cos(interior_phase(s, n)) / denom, rel=1e-14
    )


def test_wkb_tracks_exact_away_from_zeros():
    got = wigner_wkb(2.0 + 0j, 10)
    exact = wigner_number(2.0 + 0j, 10)
    assert abs(got / exact - 1.0) <= 0.15


def test_wkb_domain_errors():
    with pytest.raises(RegionError):
        wigner_wkb(complex(math.sqrt(10.6)), 10)  # outside the shelf
    with pytest.raises(RegionError):
        wigner_wkb(0.0 + 0j, 10)


def test_matched_saddle_ratio_to_wkb_is_flat():
    n = 10
    ratios = np.array(
        [
            wigner_saddle(complex(s), n) / wigner_wkb(complex(s), n)
            for s in np.linspace(1.0, 2.8, 40)
        ]
    )
    spread = ratios.max() - ratios.min()
    assert spread / abs(ratios.mean()) < 0.01


def test_stirling_log_partition_values():
    assert stirling_log_partition(10, 2) == pytest.approx(
        -math.log(2.0 * math.pi * (10.0 + 5.0 / 12.0)), rel=1e-14
    )
    with pytest.raises(ValueError):
        stirling_log_partition(1, 4)


def test_stirling_small_n_breakdown():
    # exact single-slice partition sum is 0; the Stirling form is not
    exact = FamilyParams(1, 2.5).log_z
    assert exact == pytest.approx(0.0, abs=1e-12)
    assert abs(stirling_log_partition(2, 1)) > 1.0


def test_stirling_per_slice_gap_shrinks():
    # per-slice free-energy gap |delta|/L below 1e-2 once the weights pinch
    for n in (5, 10, 30):
        N = n + 0.5
        L = 64
        exact = FamilyParams(L, N).log_z
        gap = abs(exact - stirling_log_partition(n, L)) / L
        assert gap <= 1e-2


# a grid over both branches at n = 10 (r = 3.24), zone points left out
SADDLE_GRID = [
    s * cmath.exp(0.3j * k)
    for k, s in enumerate(np.linspace(0.01, 5.5, 601))
    if not singular_zone(s, math.sqrt(10.5))
]


@pytest.mark.parametrize(
    "normalization, L", [("wkb-matched", 512), ("raw", 8)], ids=["wkb-matched", "raw-L8"]
)
def test_wigner_saddle_array_call_equals_scalar_calls(normalization, L):
    grid = np.array(SADDLE_GRID)
    assert {s < math.sqrt(10.5) for s in np.abs(grid)} == {True, False}
    got = wigner_saddle(grid, 10, L=L, normalization=normalization)
    want = [wigner_saddle(z, 10, L=L, normalization=normalization) for z in SADDLE_GRID]
    assert got.tolist() == want  # bit for bit


def wigner_saddle_reference(alpha: complex, n: int, L: int, normalization: str) -> float:
    """The one-point saddle value of earlier versions, kept as a bit-for-bit
    oracle: math-module arithmetic at one point outside the singular zones."""
    r2 = n + 0.5
    r = math.sqrt(r2)
    if normalization == "raw":
        log_norm = -(0.5 * L * math.log(2.0 * math.pi) + 0.5 * math.log(L) + FamilyParams(L, r2).log_z)
    else:
        log_norm = math.log(1.0 / math.sqrt(math.pi**3 / 2.0))
    s = abs(alpha)
    log_amp = log_norm - math.log((s * s * abs(r2 - s * s)) ** 0.25)
    if s < r:
        u = s / math.sqrt(r2)
        phase = (2 * n + 1) * math.acos(u) - 2.0 * s * math.sqrt(r2 - s * s) - 0.25 * math.pi
        return math.cos(phase) * math.exp(log_amp)
    u = s / r
    exponent = (2 * n + 1) * math.acosh(u) - 2.0 * s * math.sqrt(s * s - r2)
    return 0.5 * math.exp(exponent + log_amp)


@pytest.mark.parametrize("n", [0, 1, 10, 100])
@pytest.mark.parametrize(
    "normalization, L", [("raw", 8), ("wkb-matched", 512)], ids=["raw-L8", "wkb-matched"]
)
def test_wigner_saddle_array_equals_scalar_reference(n, normalization, L):
    r = math.sqrt(n + 0.5)
    radii = [s for s in np.linspace(0.0, r + 3.0, 1201).tolist() if not singular_zone(s, r)]
    points = np.array(radii) * np.exp(0.37j * np.arange(len(radii)))
    assert {s < r for s in radii} == {True, False}
    got = wigner_saddle(points, n, L=L, normalization=normalization)
    assert got.tolist() == [
        wigner_saddle_reference(z, n, L, normalization) for z in points.tolist()
    ]


def test_singular_zone_array_equals_scalar_calls():
    r = math.sqrt(10.5)
    radii = np.linspace(0.0, 4.0, 2001)
    zones = singular_zone(radii, r)
    assert zones.tolist() == [singular_zone(s, r) for s in radii.tolist()]
    assert {type(singular_zone(s, r)) for s in (0.0, r, 2.0)} == {str}
    assert {"turning", "origin", ""} <= set(zones.tolist())


def test_wigner_saddle_array_zone_point_raises():
    r = math.sqrt(10.5)
    for bad, region in ((r, "turning"), (1e-6, "origin")):
        with pytest.raises(RegionError, match=f"{region} zone") as err:
            wigner_saddle(np.array([1.0, bad, 2.0]), 10)
        assert err.value.region == region
        assert f"{complex(bad):.6g}" in str(err.value)


def test_wigner_saddle_empty_and_2d_inputs():
    empty = wigner_saddle(np.array([]), 10)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,) and empty.dtype == float
    assert type(wigner_saddle(2.0 + 0j, 10)) is float
    with pytest.raises(ValueError, match="1-D"):
        wigner_saddle(np.ones((2, 2)), 10)


def test_zone_rule_matches_scalar_region_errors():
    # the 2001-point profile grid that lands in both zones at n = 10
    r = math.sqrt(10.5)
    zones, raised = [], []
    for s in np.linspace(0.0, 4.0, 2001).tolist():
        zones.append(singular_zone(s, r))
        try:
            wigner_saddle(complex(s), 10)
            raised.append("")
        except RegionError as exc:
            raised.append(exc.region)
    assert zones == raised
    assert {"turning", "origin", ""} <= set(zones)
