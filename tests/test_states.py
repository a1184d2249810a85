"""State-family tests: weights, partition sums, closed-form Wigner functions."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from wigpath import states
from wigpath.checks import radial_normalization
from wigpath.saddle import wigner_saddle
from wigpath.special import log_factorial
from wigpath.states import (
    FamilyParams,
    QuadratureConvergenceError,
    gaussian_convolve_p1,
    refine_by_doubling,
    wigner_number,
    wigner_poisson,
    wigner_spectral,
)

from oracles import log_bessel_i0_reference

LN_I0_2 = 0.8239935414829563  # 60-term series for ln I0(2), frozen
W_REF_L3_N15_S08 = 0.14815519878740827  # 200-term spectral sum, frozen


def test_weights_poisson_case():
    with pytest.warns(UserWarning, match="is an integer"):
        w = dict(enumerate(FamilyParams(1, 1.0).weight_array))
    assert w[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert w[1] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert w[2] == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-12)


def test_weights_l2_direct_oracle():
    # w_n = (1.5^n/n!)^2 / sum_m (1.5^m/m!)^2 by direct summation (terms beyond
    # n = 60 are below 1e-100 of the peak)
    raw = [(1.5**n / math.factorial(n)) ** 2 for n in range(60)]
    norm = sum(raw)
    w = dict(enumerate(FamilyParams(2, 1.5).weight_array))
    for n in range(20):
        assert w[n] == pytest.approx(raw[n] / norm, rel=1e-12)


def test_weights_concentrate_on_floor_n():
    params = FamilyParams(200, 10.5)
    w = params.weight_array
    assert int(np.argmax(w)) == 10
    assert w[10] > 0.999


def test_weights_normalized_and_nonnegative():
    with pytest.warns(UserWarning, match="is an integer"):
        members = [FamilyParams(L, N) for L, N in [(1, 1.0), (2, 1.5), (5, 10.5), (40, 10.5)]]
    for params in members:
        total = params.weight_array.sum()
        assert 1.0 - 1e-12 <= total <= 1.0 + 1e-12
        assert (params.weight_array >= 0.0).all()


def test_weights_monotone_concentration():
    peaks = [FamilyParams(L, 10.5).weight_array.max() for L in range(1, 41)]
    assert all(b >= a - 1e-15 for a, b in zip(peaks, peaks[1:]))


@pytest.mark.parametrize("L", [60, 159])
def test_family_weights_match_exact_rationals_at_large_L(L):
    # TV to level 10 is 1 - w_10 = x/(1+x), x = sum_{n != 10} r_n^L with
    # r_n = N^(n-10) 10!/n!, in exact rationals (levels above 60 add < 1e-25)
    N, level = Fraction(21, 2), 10
    x = sum(
        (N ** (n - level) * math.factorial(level) / math.factorial(n)) ** L
        for n in range(61)
        if n != level
    )
    exact = float(x / (1 + x))
    w = FamilyParams(L, float(N)).weight_array
    off = w.copy()
    off[level] -= 1.0
    tv = 0.5 * float(np.abs(off).sum())
    assert abs(tv - exact) <= 1e-12 * exact


def test_integer_n_flagged():
    with pytest.warns(UserWarning) as record:
        FamilyParams(3, 2.0)
    # reported at the caller, not inside the generated __init__
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("N", [math.inf, math.nan, 0.0, -1.5])
def test_non_finite_or_non_positive_n_rejected(N):
    # an infinite N used to overflow inside FamilyParams, to reach the Bessel
    # series of wigner_poisson and to refine the angular average to nan
    for call in (FamilyParams, wigner_poisson, gaussian_convolve_p1):
        with pytest.raises(ValueError, match="N must be positive and finite"):
            call(2, N)


def test_log_partition_trivial_and_bessel():
    assert FamilyParams(1, 0.7).log_z == pytest.approx(0.0, abs=1e-12)
    assert FamilyParams(1, 12.3).log_z == pytest.approx(0.0, abs=1e-12)
    # sum_n 1/(n!)^2 = I0(2)
    with pytest.warns(UserWarning, match="is an integer"):
        params = FamilyParams(2, 1.0)
    assert params.log_z == pytest.approx(-2.0 + LN_I0_2, rel=1e-12)


@pytest.mark.parametrize("L", [1, 2, 8])
def test_basis_cutoff_drops_only_levels_below_e_minus_46_of_the_peak(L):
    # levels 0 .. ceil(4N + 20): the last kept one already trails the peak by
    # more than e^-46; the narrowest gap, 47.9 at L = 1, is near N = 3.25
    Ns = np.geomspace(1e-6, 1e4, 401).tolist() + [3.249230125810098]
    for N in (N for N in Ns if not N.is_integer()):
        params = FamilyParams(L, N)
        w = params.weight_array
        assert params.n_max == math.ceil(4.0 * N + 20.0) == len(w) - 1
        assert w[params.n_max] < math.exp(-46.0) * w.max(), N


def test_family_builds_past_a_million_levels():
    # N = 300000.5 keeps levels 0 .. 1,200,022; Z = 1 at L = 1, and the
    # running sum of ln k, 6.0e-8 below ln(300000!), moves log_z by as much
    params = FamilyParams(1, 300000.5)
    assert params.n_max == 1_200_022 and len(params.weight_array) == 1_200_023
    assert abs(params.log_z) < 1e-7
    assert abs(params.weight_array.sum() - 1.0) < 1e-12


def test_log_partition_stirling_comparison():
    # The peak-height estimate [2 pi (N - 1/12)]^{-L/2} misses the width factor
    # sqrt(2 pi N / L) of the level sum; the exact log partition equals the
    # estimate plus that correction to high accuracy, and the per-slice gap
    # |delta|/L dies off at large L.
    N = 10.5
    for L in (2, 8):  # width regime sqrt(N/L) > 1, where the sum is Gaussian
        exact = FamilyParams(L, N).log_z
        peak_only = -0.5 * L * math.log(2.0 * math.pi * (N - 1.0 / 12.0))
        width = 0.5 * math.log(2.0 * math.pi * N / L)
        assert exact == pytest.approx(peak_only + width, abs=0.02)
    gap = abs(FamilyParams(64, N).log_z + 32.0 * math.log(2.0 * math.pi * (N - 1.0 / 12.0)))
    assert gap / 64.0 <= 1e-2


def hamiltonian_eigenvalue(n: int, N: float) -> float:
    # eigenvalue at level n of the confining Hamiltonian N + ln n! - n ln N:
    # rho(L, N) is its thermal state at temperature 1/L
    return N + log_factorial(n) - n * math.log(N)


def quadratic_approx(n: int, N: float) -> float:
    # Stirling expansion of the eigenvalue about its minimum: a charging energy
    return 0.5 * math.log(2.0 * math.pi * N) + (n + 0.5 - N) ** 2 / (2.0 * N)


def test_hamiltonian_eigenvalue_examples():
    assert hamiltonian_eigenvalue(1, 1.5) == pytest.approx(1.5 - math.log(1.5), rel=1e-14)
    assert hamiltonian_eigenvalue(0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_hamiltonian_quadratic_approx_at_minimum():
    exact = hamiltonian_eigenvalue(50, 50.5)
    quad = quadratic_approx(50, 50.5)
    assert abs(exact - quad) / exact < 0.01


def test_wigner_poisson_at_origin():
    for N in [0.5, 1.0, 10.5]:
        assert wigner_poisson(0.0, N) == pytest.approx(
            (2.0 / math.pi) * math.exp(-2.0 * N), rel=1e-13
        )


def test_wigner_poisson_positive_peak_near_circle():
    N = 10.5
    s = math.sqrt(N)
    val = wigner_poisson(complex(s), N)
    assert val > 0.0
    # spectral-mixture oracle: Poisson-weighted number-state Wigner values
    params = FamilyParams(1, N)
    assert val == pytest.approx(wigner_spectral(complex(s), params), rel=1e-10)


def test_wigner_number_values():
    for n in range(6):
        assert wigner_number(0.0, n) == pytest.approx(
            (2.0 / math.pi) * (-1.0) ** n, rel=1e-14
        )
    s = 0.9
    assert wigner_number(complex(s), 0) == pytest.approx(
        (2.0 / math.pi) * math.exp(-2.0 * s * s), rel=1e-13
    )
    # L_1(4 s^2) root at s^2 = 1/4
    assert wigner_number(0.5 + 0j, 1) == pytest.approx(0.0, abs=1e-15)


def test_wigner_spectral_reduces_to_poisson():
    params = FamilyParams(1, 1.5)
    for s in np.linspace(0.0, 3.5, 15):
        assert wigner_spectral(complex(s), params) == pytest.approx(
            wigner_poisson(complex(s), 1.5), rel=1e-12, abs=1e-15
        )


def test_wigner_spectral_converges_to_number_state():
    params = FamilyParams(400, 1.5)
    for s in [0.0, 0.4, 0.9, 1.5]:
        assert wigner_spectral(complex(s), params) == pytest.approx(
            wigner_number(complex(s), 1), abs=2e-9
        )


def test_wigner_spectral_frozen_reference():
    assert wigner_spectral(0.8 + 0j, FamilyParams(3, 1.5)) == pytest.approx(
        W_REF_L3_N15_S08, rel=1e-12
    )


def test_gaussian_convolution_cases():
    # constant integrand on the circle
    val, _ = gaussian_convolve_p1(0.0, 2.5)
    assert val == pytest.approx((2.0 / math.pi) * math.exp(-5.0), rel=1e-10)
    # matches the Bessel closed form away from the origin
    val, _ = gaussian_convolve_p1(1.0 + 0j, 1.0)
    assert val == pytest.approx(wigner_poisson(1.0 + 0j, 1.0), abs=1e-8)
    # vanishing-radius limit is the vacuum Gaussian
    val, _ = gaussian_convolve_p1(0.7 + 0.2j, 1e-8)
    s2 = 0.7**2 + 0.2**2
    assert val == pytest.approx((2.0 / math.pi) * math.exp(-2.0 * s2), rel=1e-6)


def test_wigner_bound_everywhere_sampled():
    rng = np.random.default_rng(3)
    params = FamilyParams(4, 2.5)
    for _ in range(200):
        z = complex(rng.normal(0, 2), rng.normal(0, 2))
        assert abs(wigner_spectral(z, params)) <= 2.0 / math.pi + 1e-9
        assert abs(wigner_number(z, 7)) <= 2.0 / math.pi + 1e-9
        assert wigner_poisson(z, 3.5) <= 2.0 / math.pi + 1e-9


def test_origin_sign_parity():
    for L, N in [(3, 1.5), (8, 10.5), (2, 4.5)]:
        params = FamilyParams(L, N)
        signs = np.where(np.arange(params.n_max + 1) % 2 == 0, 1.0, -1.0)
        predicted = math.copysign(1.0, float((params.weight_array * signs).sum()))
        assert math.copysign(1.0, wigner_spectral(0.0, params)) == predicted
    # pinned family at N = n + 1/2 carries the number-state parity sign
    assert math.copysign(1.0, wigner_spectral(0.0, FamilyParams(120, 10.5))) == 1.0
    assert math.copysign(1.0, wigner_spectral(0.0, FamilyParams(120, 1.5))) == -1.0


def test_normalization_radial():
    params = FamilyParams(3, 1.5)
    cases = [
        (lambda rs: [wigner_poisson(complex(s), 1.0) for s in rs], math.sqrt(24.0) + 6.0),
        (lambda rs: [wigner_number(complex(s), 1) for s in rs], 7.0),
        (lambda rs: [wigner_spectral(complex(s), params) for s in rs], 12.0),
    ]
    for profile, s_max in cases:
        integral, _ = radial_normalization(profile, s_max)
        assert integral == pytest.approx(1.0, abs=1e-6)


def test_radial_normalization_closed_form_mass():
    # 2 pi int_0^a (2/pi) e^{-2 s^2} s ds = 1 - e^{-2 a^2}
    s_max = 1.5
    integral, err = radial_normalization(lambda rs: 2.0 / math.pi * np.exp(-2.0 * rs**2), s_max)
    assert integral == pytest.approx(1.0 - math.exp(-2.0 * s_max**2), abs=1e-13)
    assert err <= 1e-12


def test_radial_normalization_unconverged_rule_raises():
    # a step converges only as a power of the node count
    with pytest.raises(QuadratureConvergenceError) as info:
        radial_normalization(lambda rs: (rs < 1.0).astype(float), 2.5)
    assert info.value.achieved > 1e-12


def test_refine_by_doubling_raises_at_its_cap():
    # a rule that never settles is evaluated at first, 2 first, ..., cap
    seen = []

    def rule(n):
        seen.append(n)
        return float(n)

    with pytest.raises(QuadratureConvergenceError, match="did not converge by n = 64") as info:
        refine_by_doubling(rule, 8, 64, 1e-3, "test rule")
    assert seen == [8, 16, 32, 64]
    assert info.value.achieved == 32.0
    # a rule that settles returns its last value and the last difference
    assert refine_by_doubling(lambda n: 1.0 / n, 8, 64, 0.05, "test rule") == (1 / 32, 1 / 32)


def test_closed_forms_raise_on_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(FloatingPointError):
            wigner_number(20.0 + 0j, 400)
        with pytest.raises(FloatingPointError):
            wigner_spectral(19.0 + 0j, FamilyParams(2, 100.5))


def test_closed_forms_name_the_first_overflowed_point():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(FloatingPointError, match=r"alpha = 20\+0j"):
            wigner_number(np.array([1.0, 20.0, 21.0]), 400)
        with pytest.raises(FloatingPointError, match=r"alpha = 19\+0j"):
            wigner_spectral(np.array([0.5, 19.0, 20.0]), FamilyParams(2, 100.5))


def test_saddle_names_a_non_finite_point():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in the decay exponent
        for bad in (math.inf, math.nan):
            name = re.escape(f"alpha = {complex(bad):.6g}")
            with pytest.raises(FloatingPointError, match=name):
                wigner_saddle(complex(bad), 10)
            with pytest.raises(FloatingPointError, match=name):
                wigner_saddle(np.array([1.0, bad, 5.0]), 10)


CLOSED_FORMS = [
    (wigner_poisson, 10.5),
    (wigner_number, 100),
    (wigner_spectral, FamilyParams(2, 50.5)),
]


@pytest.mark.parametrize("route, arg", CLOSED_FORMS, ids=["poisson", "number", "spectral"])
def test_closed_form_array_call_equals_scalar_calls(route, arg):
    rng = np.random.default_rng(4)
    points = np.linspace(0.0, 10.0, 2001) * np.exp(2j * math.pi * rng.random(2001))
    if route is not wigner_poisson:
        # the profile spans several blocks of the Laguerre recurrence
        levels = 1 + (arg.n_max if route is wigner_spectral else arg)
        assert len(points) * levels > 2 * states._LAGUERRE_BLOCK_ENTRIES
    values = route(points, arg)
    assert isinstance(values, np.ndarray) and values.shape == points.shape
    assert values.tolist() == [route(complex(z), arg) for z in points]


def wigner_poisson_reference(alpha: complex, N: float) -> float:
    """The one-point Poisson closed form of earlier versions, kept as a
    bit-for-bit oracle: math-module arithmetic on |alpha| and the
    pure-Python ln I0 reference."""
    s = abs(alpha)
    c = 4.0 * math.sqrt(N)
    return (2.0 / math.pi) * math.exp(-2.0 * s * s - 2.0 * N + log_bessel_i0_reference(c * s))


@pytest.mark.parametrize("N", [1.5, 10.5, 100.5])
def test_wigner_poisson_array_equals_scalar_reference(N):
    rng = np.random.default_rng(9)
    # radii across the series and asymptotic branches of ln I0, off the axis too
    radii = np.linspace(0.0, math.sqrt(N) + 6.0, 1001)
    points = radii * np.exp(2j * math.pi * rng.random(radii.size))
    assert wigner_poisson(points, N).tolist() == [
        wigner_poisson_reference(z, N) for z in points.tolist()
    ]


def laguerre_reference(n_max: int, x: float) -> list[float]:
    """L_0(x) .. L_nmax(x) by the forward three-term recurrence of
    laguerre_all, on Python floats."""
    lag = [1.0, 1.0 - x][: n_max + 1]
    for k in range(1, n_max):
        lag.append(((2 * k + 1 - x) * lag[k] - k * lag[k - 1]) / (k + 1))
    return lag


def wigner_number_reference(alpha: complex, n: int) -> float:
    """The number-state closed form at one point, kept as a bit-for-bit
    oracle: the Laguerre recurrence and math.exp on Python floats."""
    s2 = alpha.real**2 + alpha.imag**2
    c = (2.0 / math.pi) * (-1.0 if n % 2 else 1.0)
    return c * math.exp(-2.0 * s2) * laguerre_reference(n, 4.0 * s2)[n]


def wigner_spectral_reference(alpha: complex, params: FamilyParams) -> float:
    """The spectral mixture at one point, kept as a bit-for-bit oracle: each
    level's signed weight times its Laguerre value on Python floats, the
    levels added by numpy's sum over one row (the order every point of the
    library's sum follows), and math.exp."""
    s2 = alpha.real**2 + alpha.imag**2
    lag = laguerre_reference(params.n_max, 4.0 * s2)
    weights = params.weight_array.tolist()
    terms = [(w if k % 2 == 0 else -w) * lk for k, (w, lk) in enumerate(zip(weights, lag))]
    return (2.0 / math.pi) * math.exp(-2.0 * s2) * float(np.sum(terms))


@pytest.mark.parametrize(
    "route, reference, arg",
    [
        (wigner_number, wigner_number_reference, 100),
        (wigner_spectral, wigner_spectral_reference, FamilyParams(2, 50.5)),
    ],
    ids=["number", "spectral"],
)
def test_laguerre_forms_equal_scalar_reference(route, reference, arg):
    levels = 1 + (arg if route is wigner_number else arg.n_max)
    per_block = states._LAGUERRE_BLOCK_ENTRIES // levels
    # two full blocks of the recurrence and a last block of one point, which
    # recurs on a float
    size = 2 * per_block + 1
    rng = np.random.default_rng(11)
    points = np.linspace(0.0, 10.0, size) * np.exp(2j * math.pi * rng.random(size))
    assert route(points, arg).tolist() == [reference(z, arg) for z in points.tolist()]


@pytest.mark.parametrize(
    "route, arg",
    [*CLOSED_FORMS, (wigner_saddle, 10)],
    ids=["poisson", "number", "spectral", "saddle"],
)
def test_closed_form_scalar_empty_and_2d_inputs(route, arg):
    assert type(route(0.8 + 0.3j, arg)) is float
    empty = route(np.array([], dtype=complex), arg)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    with pytest.raises(ValueError):
        route(np.zeros((2, 2)), arg)


def hermite_density_oracle(n: int, q: float) -> float:
    # |psi_n(q)|^2 via the physicists' Hermite recurrence (m = omega = hbar = 1)
    h_prev, h_cur = 1.0, 2.0 * q
    if n == 0:
        h = h_prev
    elif n == 1:
        h = h_cur
    else:
        for k in range(1, n):
            h_prev, h_cur = h_cur, 2.0 * q * h_cur - 2.0 * k * h_prev
        h = h_cur
    return h * h * math.exp(-q * q) / (2.0**n * math.factorial(n) * math.sqrt(math.pi))


def wigner_number_p_marginal(n: int, q: float) -> float:
    # trapezoid over p; alpha = (q + i p)/sqrt(2), phase-space density W/2
    p = np.linspace(-10.0, 10.0, 4001)
    alpha = np.empty(p.shape, dtype=complex)
    alpha.real = q / math.sqrt(2.0)
    alpha.imag = p / math.sqrt(2.0)
    return 0.5 * np.trapezoid(wigner_number(alpha, n), p)


def test_marginals_match_hermite_densities():
    for n in range(3):
        for q in [-1.7, -0.4, 0.0, 0.8, 2.1]:
            assert wigner_number_p_marginal(n, q) == pytest.approx(
                hermite_density_oracle(n, q), abs=1e-6
            )
