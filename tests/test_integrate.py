"""Integrator tests: grid-sum oracle, spectral agreement, MC reproducibility,
sign diagnostics, midpoint histogram."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wigpath import integrate
from wigpath.action import CirclePath, circle_actions_batch, circle_phasors, total_action
from wigpath.integrate import (
    BudgetError,
    MidpointGrid,
    MonteCarloSpec,
    QuadratureSpec,
    RealnessError,
    SignProblemError,
    midpoint_histogram,
    smoothed_wigner_from_histogram,
    wigner_montecarlo,
    wigner_quadrature,
)
from wigpath.states import FamilyParams, WignerSample, wigner_poisson, wigner_spectral


def brute_force_grid_sum(params, alpha, M):
    """Direct tensor-product enumeration of the same discrete sum."""
    r = params.radius
    grid = 2.0 * math.pi * np.arange(M) / M
    total = 0.0 + 0.0j
    for combo in itertools.product(range(M), repeat=params.L):
        path = CirclePath(r, tuple(grid[list(combo)]))
        total += np.exp(-total_action(path.vertices(), alpha).total)
    return (2.0 / math.pi) * math.exp(-params.log_z) * total / M**params.L


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(points_per_dim=4)
    with pytest.raises(ValueError):
        QuadratureSpec(points_per_dim=100)  # not a power of two
    QuadratureSpec(points_per_dim=8)


def test_budget_guard():
    spec = QuadratureSpec(points_per_dim=128)
    with pytest.raises(BudgetError) as err:
        wigner_quadrature(0.5 + 0j, FamilyParams(5, 1.5), spec)
    # the message names only steps a caller can take: the CLI has no budget flag
    assert "lower M or L" in str(err.value)
    assert "QuadratureSpec(budget=...)" in str(err.value)
    assert "explicitly" not in str(err.value)
    # 32^6 = 2^30 sits exactly at the default budget
    QuadratureSpec(points_per_dim=32).check_budget(6)


def test_quadrature_equals_brute_force_enumeration():
    rng = np.random.default_rng(2)
    for L in (1, 2, 3):
        N = float(rng.uniform(0.5, 2.5))
        params = FamilyParams(L, N)
        alpha = complex(rng.normal(0, 1), rng.normal(0, 1))
        spec = QuadratureSpec(points_per_dim=8)
        got = wigner_quadrature(alpha, params, spec).value
        want = brute_force_grid_sum(params, alpha, 8)
        assert abs(want.imag) < 1e-12 * max(abs(want.real), 1e-12)
        assert got == pytest.approx(want.real, rel=1e-12, abs=1e-15)


def test_quadrature_anchors_to_poisson_at_l1():
    with pytest.warns(UserWarning, match="is an integer"):
        params = FamilyParams(1, 1.0)
    spec = QuadratureSpec()
    for s in [0.0, 0.7, 1.3, 2.4]:
        got = wigner_quadrature(complex(s), params, spec).value
        assert got == pytest.approx(wigner_poisson(complex(s), 1.0), abs=1e-9)


def test_quadrature_matches_spectral_oracle():
    for L, N, s in [(2, 1.5, 0.0), (3, 1.5, 0.8), (2, 10.5, 3.0)]:
        params = FamilyParams(L, N)
        got = wigner_quadrature(complex(s), params).value
        assert got == pytest.approx(wigner_spectral(complex(s), params), abs=1e-8)


def test_quadrature_convergent_in_m():
    with pytest.warns(UserWarning, match="is an integer"):
        members = [FamilyParams(L, N) for L, N in [(3, 1.5), (2, 3.0), (1, 2.5)]]
    for params in members:
        for s in [0.0, 1.1, 2.9]:
            v64 = wigner_quadrature(complex(s), params, QuadratureSpec(points_per_dim=64)).value
            v128 = wigner_quadrature(complex(s), params, QuadratureSpec(points_per_dim=128)).value
            assert abs(v128 - v64) < 1e-9


def test_quadrature_rotation_invariant():
    params = FamilyParams(2, 1.5)
    for s in [0.4, 1.2]:
        vals = [
            wigner_quadrature(s * np.exp(1j * phi), params).value
            for phi in (0.0, 1.234, -2.5)
        ]
        assert max(vals) - min(vals) < 1e-10


def test_quadrature_positive_and_decaying_outside():
    params = FamilyParams(3, 1.5)
    rs = np.linspace(math.sqrt(1.5) + 0.3, math.sqrt(1.5) + 2.0, 12)
    vals = [wigner_quadrature(complex(s), params).value for s in rs]
    assert all(v > 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def einsum_quadrature(params, alpha, M):
    """The dense grid sum contracted with einsum, as (total, incoherent, scale).

    The kernel is built from the identity by L - 1 einsum products and the
    double sum is one "j,jk,k->" contraction per point: the same sum in
    another floating-point order than the library's BLAS route.
    """
    r2 = params.radius**2
    phases = np.exp(2j * math.pi * np.arange(M) / M)
    diff = (np.arange(M)[:, None] - np.arange(M)[None, :]) % M
    T = np.exp(r2 * (phases - 1.0))[diff]
    A = np.eye(M, dtype=complex)
    for _ in range(params.L - 1):
        A = np.einsum("ij,jk->ik", A, T)
    B = A * np.exp(-r2 * (phases + 1.0))[diff.T]
    s, phi = abs(alpha), math.atan2(alpha.imag, alpha.real)
    theta = 2.0 * math.pi * np.arange(M) / M
    u = np.exp(2.0 * params.radius * s * np.exp(-1j * (theta - phi)) - s * s)
    v = np.exp(2.0 * params.radius * s * np.exp(1j * (theta - phi)) - s * s)
    total = np.einsum("j,jk,k->", u, B, v)
    incoherent = np.einsum("j,jk,k->", np.abs(u), np.abs(B), np.abs(v)).real
    scale = (2.0 / math.pi) * math.exp(-params.log_z - params.L * math.log(M))
    return total, incoherent, scale


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("M", [16, 32, 64, 128])
def test_quadrature_matches_einsum_oracle(L, M):
    params = FamilyParams(L, 1.5 if L % 2 else 4.5)
    alphas = [0.0, 0.35 + 0.2j, -1.1 + 0.4j, 2.3, 0.5 - 3.4j]
    got = wigner_quadrature(np.array(alphas), params, QuadratureSpec(points_per_dim=M))
    for alpha, res in zip(alphas, got):
        total, incoherent, scale = einsum_quadrature(params, complex(alpha), M)
        assert abs(res.value - scale * total.real) <= 1e-13 * scale * incoherent


def test_quadrature_array_rows_match_one_point_calls(monkeypatch):
    alphas = np.concatenate([np.linspace(0.0, 5.0, 23), 1.3 * np.exp(1j * np.linspace(0, 6, 7))])
    for L, N, M in [(1, 2.5, 64), (3, 1.5, 128), (2, 10.5, 256)]:
        params = FamilyParams(L, N)
        spec = QuadratureSpec(points_per_dim=M)
        rows = wigner_quadrature(alphas, params, spec)
        assert [res.alpha for res in rows] == [complex(a) for a in alphas]
        for alpha, res in zip(alphas, rows):
            one = wigner_quadrature(complex(alpha), params, spec)
            assert isinstance(one, WignerSample) and one.method == "quadrature"
            assert res.value == one.value
    # blocks of radii leave every row as it was
    monkeypatch.setattr(integrate, "_QUAD_MIN_BLOCK_POINTS", 1)
    monkeypatch.setattr(integrate, "_QUAD_BLOCK_ENTRIES", 3 * 256)
    blocked = wigner_quadrature(alphas, params, spec)
    assert [res.value for res in blocked] == [res.value for res in rows]
    assert wigner_quadrature(np.array([]), params, spec) == []
    with pytest.raises(ValueError):
        wigner_quadrature(alphas.reshape(2, -1), params, spec)


def test_quadrature_non_hermitian_kernel_raises(monkeypatch):
    kernel = integrate._circle_kernel

    def skewed(r, L, M):
        return kernel(r, L, M) * (1.0 + 0.1j)

    monkeypatch.setattr(integrate, "_circle_kernel", skewed)
    with pytest.raises(RealnessError):
        wigner_quadrature(np.array([0.0, 0.8, 1.6]), FamilyParams(3, 1.5))


def circulant(c):
    """The M x M kernel B[j, k] = c[(j - k) mod M] of its first column c."""
    M = len(c)
    return c[(np.arange(M)[:, None] - np.arange(M)[None, :]) & (M - 1)]


def reference_contraction(block, params, M):
    """Grid sums and incoherent masses of one block of points, formed as the
    earlier contraction formed them: the full M x M kernel, exp(-1j*phase)
    and exp(1j*phase) apiece, separate end factors u and v, and the
    incoherent mass at every point."""
    B = circulant(integrate._circle_kernel(params.radius, params.L, M))
    theta = 2.0 * math.pi * np.arange(M) / M
    s = np.abs(block)[:, None]
    phase = theta - np.angle(block)[:, None]
    u = np.exp(2.0 * params.radius * s * np.exp(-1j * phase) - s * s)
    v = np.exp(2.0 * params.radius * s * np.exp(1j * phase) - s * s)
    total = ((u @ B) * v).sum(axis=1)
    incoherent = ((np.abs(u) @ np.abs(B)) * np.abs(v)).sum(axis=1)
    return total, incoherent


def reference_values(alphas, params, M, per_block):
    scale = (2.0 / math.pi) * math.exp(-params.log_z - params.L * math.log(M))
    values = []
    for lo in range(0, len(alphas), per_block):
        total, _ = reference_contraction(alphas[lo : lo + per_block], params, M)
        values += [scale * float(z.real) for z in total]
    return values


@pytest.mark.parametrize("L, N, M", [(1, 2.5, 64), (3, 1.5, 128), (2, 10.5, 256), (4, 4.5, 32)])
def test_quadrature_contraction_bit_identical_to_reference(monkeypatch, L, N, M):
    params = FamilyParams(L, N)
    spec = QuadratureSpec(points_per_dim=M)
    alphas = np.concatenate([
        np.linspace(0.0, params.radius + 3.0, 23),  # radial profile, alpha = 0 first
        1.7 * np.exp(2j * math.pi * np.arange(9) / 9),  # ring of distinct angles
        [-0.5, -1.3, complex(-2.0, -0.0)],  # negative real axis, at angle pi and -pi
    ])
    values = [res.value for res in wigner_quadrature(alphas, params, spec)]
    assert values == reference_values(alphas, params, M, len(alphas))
    # a lone point is contracted as two equal rows, never by the gemv of one
    for alpha in alphas:
        one = wigner_quadrature(complex(alpha), params, spec).value
        assert one == reference_values(np.array([alpha, alpha]), params, M, 2)[0]
    monkeypatch.setattr(integrate, "_QUAD_MIN_BLOCK_POINTS", 1)
    monkeypatch.setattr(integrate, "_QUAD_BLOCK_ENTRIES", 5 * M)
    blocked = [res.value for res in wigner_quadrature(alphas, params, spec)]
    assert blocked == reference_values(alphas, params, M, 5)


def test_quadrature_realness_error_names_first_failing_point(monkeypatch):
    kernel = integrate._circle_kernel

    def skewed(r, L, M):
        # Im z becomes 1e-7 Re(sum u |B| conj(u)), which only the incoherent
        # scale tells apart from roundoff far outside the circle
        c = kernel(r, L, M)
        return c + 1e-7j * np.abs(c)

    monkeypatch.setattr(integrate, "_circle_kernel", skewed)
    monkeypatch.setattr(integrate, "_QUAD_MIN_BLOCK_POINTS", 1)
    monkeypatch.setattr(integrate, "_QUAD_BLOCK_ENTRIES", 2 * 128)
    params = FamilyParams(3, 1.5)
    alphas = np.array([4.5, 4.2, -4.5, 0.0, 1.0], dtype=complex)
    total, incoherent = reference_contraction(alphas, params, 128)
    suspect = np.abs(total.imag) > 1e-10 * np.abs(total.real)
    failed = suspect & (np.abs(total.imag) > 1e-12 * incoherent)
    # the first block holds a point that passes outright and a suspect that
    # the incoherent scale clears; the second block fails at alpha = 0
    assert suspect.tolist() == [False, True, False, True, True]
    assert failed.tolist() == [False, False, False, True, True]
    z, inc = total[3], incoherent[3]
    message = (
        f"imaginary residue {z.imag:.3e} vs real part {z.real:.3e} "
        f"(incoherent scale {inc:.3e}) at alpha = {alphas[3]:.6g}"
    )
    with pytest.raises(RealnessError) as raised:
        wigner_quadrature(alphas, params)
    assert str(raised.value) == message


def test_quadrature_realness_mass_over_column_blocks_of_the_kernel(monkeypatch):
    # at M = 512 the incoherent mass takes |B| in four blocks of 128 columns;
    # the message's incoherent scale is the full-|B| mass of the reference to .3e
    kernel = integrate._circle_kernel
    monkeypatch.setattr(integrate, "_circle_kernel", lambda r, L, M: kernel(r, L, M) + 1e-7j)
    params, M = FamilyParams(2, 10.5), 512
    alphas = np.array([0.0, 2.5, 6.0], dtype=complex)
    total, incoherent = reference_contraction(alphas, params, M)
    assert abs(total[0].imag) > 1e-12 * incoherent[0]
    z, inc = total[0], incoherent[0]
    message = (
        f"imaginary residue {z.imag:.3e} vs real part {z.real:.3e} "
        f"(incoherent scale {inc:.3e}) at alpha = {alphas[0]:.6g}"
    )
    with pytest.raises(RealnessError) as raised:
        wigner_quadrature(alphas, params, QuadratureSpec(points_per_dim=M))
    assert str(raised.value) == message


def test_quadrature_kernel_underflow_raises():
    # at L = 1 every kernel entry is exp(-2N), below the smallest double here
    N = 400.5
    alpha = complex(math.sqrt(N))
    assert wigner_poisson(alpha, N) == pytest.approx(6.346e-3, rel=1e-3)
    with pytest.raises(FloatingPointError, match="underflows"):
        wigner_quadrature(alpha, FamilyParams(1, N), QuadratureSpec(points_per_dim=1024))


def gather_kernel(r, L, M):
    """The kernel built as full gathered M x M factors through an M x M index
    and a matrix power, with its every-entry underflow check on the full |B|."""
    r2 = r * r
    phases = np.exp(2j * math.pi * np.arange(M) / M)
    t_link = np.exp(r2 * (phases - 1.0))
    h_end = np.exp(-r2 * (phases + 1.0))
    diff = (np.arange(M)[:, None] - np.arange(M)[None, :]) & (M - 1)
    B = np.linalg.matrix_power(t_link[diff], L - 1) * h_end[diff.T]
    if np.abs(B).max() < np.finfo(float).tiny:
        raise FloatingPointError("every kernel entry underflows")
    return B


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_circle_kernel_equals_gather_oracle_bit_for_bit(L):
    # bit for bit at L <= 2, where both form the same products; from L = 3 the
    # column sums the link factors by convolution and the oracle by a matrix
    # power, in another order (measured worst 1.6e-15 max|B|)
    build = integrate._circle_kernel.__wrapped__  # past the cache
    for M in (8, 16, 32, 64, 128, 256, 512):
        for N in (1.5, 10.5, 50.5):
            c, want = build(math.sqrt(N), L, M), gather_kernel(math.sqrt(N), L, M)
            assert c.shape == (M,) and c.flags.c_contiguous and not c.flags.writeable
            got = circulant(c)
            if L <= 2:
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (M, N)
            else:
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (M, N)
    if L <= 2:
        # every entry underflows: e^{-2N} on the diagonal at L = 1, everywhere at L = 2
        for M in (8, 512):
            with pytest.raises(FloatingPointError):
                gather_kernel(math.sqrt(400.5), L, M)
            with pytest.raises(FloatingPointError, match="underflows"):
                build(math.sqrt(400.5), L, M)


def test_montecarlo_spec_validation():
    with pytest.raises(ValueError):
        MonteCarloSpec(samples=999)
    spec = MonteCarloSpec(samples=100_000)
    assert sum(spec.batch_sizes()) == 100_000


def test_montecarlo_reproducible_and_worker_independent():
    params = FamilyParams(3, 1.5)
    spec1 = MonteCarloSpec(samples=50_000, seed=42, workers=1)
    spec4 = MonteCarloSpec(samples=50_000, seed=42, workers=4)
    res1 = wigner_montecarlo(0.8 + 0j, params, spec1)
    res1b = wigner_montecarlo(0.8 + 0j, params, spec1)
    res4 = wigner_montecarlo(0.8 + 0j, params, spec4)
    assert res1 == res1b
    assert res1 == res4  # worker count must not change the sample assignment


def test_montecarlo_consistent_with_quadrature():
    params = FamilyParams(3, 1.5)
    truth = wigner_quadrature(0.8 + 0j, params).value
    res = wigner_montecarlo(0.8 + 0j, params, MonteCarloSpec(samples=400_000, seed=1))
    assert abs(res.value - truth) <= 4.0 * res.standard_error
    assert 0.0 < res.mean_phase_magnitude <= 1.0
    assert 0.0 < res.effective_sample_size <= 400_000


def test_montecarlo_z_routes_agree():
    # the closed-path integral estimated on a Monte Carlo run's own draws, the
    # mean of exp(-path term), agrees with the exact number-basis Z(L, N)
    params = FamilyParams(2, 1.5)
    spec = MonteCarloSpec(samples=400_000, seed=9)
    w = np.concatenate(
        [
            np.exp(-circle_phasors(batch_angles(spec, b, size, params.L), params.radius)[1])
            for b, size in enumerate(spec.batch_sizes())
        ]
    ).real
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - math.exp(params.log_z)) <= 4.0 * se


def test_montecarlo_phase_is_unity_for_single_slice():
    params = FamilyParams(1, 1.5)
    res = wigner_montecarlo(0.8 + 0j, params, MonteCarloSpec(samples=10_000, seed=3))
    assert res.mean_phase_magnitude == pytest.approx(1.0, abs=1e-12)


def test_mean_phase_magnitude_non_increasing_in_l():
    rows = []
    for L in range(1, 6):
        params = FamilyParams(L, 1.5)
        res = wigner_montecarlo(0.8 + 0j, params, MonteCarloSpec(samples=200_000, seed=11))
        rows.append(res)
    for a, b in zip(rows, rows[1:]):
        slack = 2.0 * math.hypot(a.phase_standard_error or 0.0, b.phase_standard_error or 0.0)
        assert b.mean_phase_magnitude <= a.mean_phase_magnitude + slack
        assert b.mean_phase_magnitude > 0.0


def batch_angles(spec, b, size, L):
    """The (size, L) angles of batch b, drawn from its own Philox stream."""
    rng = np.random.Generator(np.random.Philox(spec.seed).jumped(b))
    return rng.uniform(0.0, 2.0 * math.pi, size=(size, L))


def per_radius_reference(s, params, spec):
    """Single-radius estimator written out as the per-radius route computes it:
    draw each batch from its own Philox stream, evaluate the actions at one
    radius, reduce over the samples, then combine the batches in order."""
    stats = []
    for b, size in enumerate(spec.batch_sizes()):
        thetas = batch_angles(spec, b, size, params.L)
        totals = circle_actions_batch(thetas, params.radius, np.array([s]))[0]
        w = np.exp(-totals)
        mag = np.exp(-totals.real)
        stats.append(
            (size, complex(w.sum()), float((w.real**2).sum()), float(mag.sum()),
             float((mag**2).sum()))
        )
    # batch totals are added one by one in batch order, as the library adds
    # them; the builtin sum compensates float additions from Python 3.12 on
    n, sum_w, sum_w_re2, sum_mag, sum_mag2 = 0, 0j, 0.0, 0.0, 0.0
    for size, w_total, w_re2, mag_total, mag2 in stats:
        n += size
        sum_w += w_total
        sum_w_re2 += w_re2
        sum_mag += mag_total
        sum_mag2 += mag2
    scale = (2.0 / math.pi) * math.exp(-params.log_z)
    weights = np.array([st[0] for st in stats], dtype=float) / n

    def batch_se(means):
        mean = float((weights * means).sum())
        var = float((weights**2 * (means - mean) ** 2).sum())
        return math.sqrt(var * len(means) / (len(means) - 1))

    estimate = scale * sum_w.real / n
    means = np.array([scale * st[1].real / st[0] for st in stats])
    if len(stats) > 1:
        se = batch_se(means)
        phase_se = batch_se(np.array([min(1.0, abs(st[1]) / st[3]) for st in stats]))
    else:
        var = max(sum_w_re2 / n - (sum_w.real / n) ** 2, 0.0)
        se = scale * math.sqrt(var / max(n - 1, 1))
        phase_se = None
    return WignerSample(
        alpha=complex(s),
        value=estimate,
        method="monte-carlo",
        standard_error=se,
        mean_phase_magnitude=min(1.0, abs(sum_w) / sum_mag),
        effective_sample_size=sum_mag**2 / sum_mag2,
        phase_standard_error=phase_se,
    )


@pytest.mark.parametrize(
    "spec",
    [
        MonteCarloSpec(samples=20_000, seed=5, workers=1),
        MonteCarloSpec(samples=20_000, seed=5, workers=3),
        MonteCarloSpec(samples=6_000, seed=8, batch_size=6_000),  # one batch
        # batches of 7000, 7000 and 6000: one buffer pair for all three, or
        # one pair per batch, the last a size smaller
        MonteCarloSpec(samples=20_000, seed=5, workers=1, batch_size=7_000),
        MonteCarloSpec(samples=20_000, seed=5, workers=3, batch_size=7_000),
    ],
    ids=["workers1", "workers3", "single_batch", "workers1_uneven", "workers3_uneven"],
)
def test_montecarlo_array_call_bit_identical_to_per_radius_reference(spec):
    params = FamilyParams(3, 1.5)
    radii = np.linspace(0.0, 2.7, 6)
    results = wigner_montecarlo(radii.astype(complex), params, spec)
    assert len(results) == len(radii)
    for s, got in zip(radii, results):
        assert got == per_radius_reference(float(s), params, spec)


def test_montecarlo_scalar_call_is_one_point_array_call():
    params = FamilyParams(4, 10.5)
    spec = MonteCarloSpec(samples=10_000, seed=2)
    for alpha in (0.0j, 1.7 - 0.4j, 3.3 + 0j):
        (single,) = wigner_montecarlo(np.array([alpha]), params, spec)
        assert wigner_montecarlo(alpha, params, spec) == single
        assert single.alpha == alpha and single.method == "monte-carlo"
    # no points draws nothing and gives no samples
    assert wigner_montecarlo(np.array([]), params, spec) == []


def test_montecarlo_sign_problem_raises_instead_of_a_silent_zero():
    # uniform sampling at L = 12, N = 30.5, s = 2 keeps an effective sample
    # size of about 1 in 4e5 samples and would report W ~ 1e-19 +- 1e-19,
    # where the exact value is 3.4e-5
    params = FamilyParams(12, 30.5)
    spec = MonteCarloSpec(samples=400_000, seed=1)
    floor_message = (
        r"effective sample size 1\.\d+ of 400000 samples is below the floor 5 at alpha = 2\+0j"
    )
    with pytest.raises(SignProblemError, match=floor_message):
        wigner_montecarlo(2.0 + 0j, params, spec)


def test_sign_problem_error_carries_the_point_diagnostics():
    params = FamilyParams(6, 30.5)
    spec = MonteCarloSpec(samples=20_000, seed=0)
    with pytest.raises(SignProblemError) as info:
        wigner_montecarlo(np.array([0.5, 2.0]), params, spec)
    assert "alpha = 0.5+0j" in str(info.value)
    assert 1.0 <= info.value.effective_sample_size < 5.0
    assert 0.0 <= info.value.mean_phase_magnitude <= 1.0
    assert f"effective sample size {info.value.effective_sample_size:.3g} " in str(info.value)


def test_montecarlo_names_underflow_where_every_weight_is_zero():
    # the first point keeps its weights; at alpha = 30 every exp(-S) underflows
    message = r"every weight exp\(-S\) of 2000 samples underflows to 0 at alpha = 30\+0j"
    with pytest.raises(SignProblemError, match=message) as info:
        wigner_montecarlo(np.array([1.0, 30.0]), FamilyParams(1, 1.5), MonteCarloSpec(2_000))
    assert info.value.effective_sample_size == 0.0
    assert info.value.mean_phase_magnitude is None


def test_montecarlo_radius_blocks_do_not_change_results(monkeypatch):
    params = FamilyParams(2, 1.5)
    spec = MonteCarloSpec(samples=8_000, seed=4, batch_size=1_000)
    points = np.array([0.3 + 0.4j, -1.1j, 2.0, 0.7 - 0.2j, 1.3 + 1j])
    whole = wigner_montecarlo(points, params, spec)
    monkeypatch.setattr(integrate, "_BLOCK_ENTRIES", 2_000)  # blocks of two radii
    assert wigner_montecarlo(points, params, spec) == whole


def test_montecarlo_rejects_2d_points():
    with pytest.raises(ValueError):
        wigner_montecarlo(np.zeros((2, 2)), FamilyParams(2, 1.5), MonteCarloSpec(samples=2_000))


@pytest.mark.parametrize(
    "radii", [np.linspace(12.0, 16.0, 5), np.linspace(14.0, 14.8, 3)], ids=["12-16", "14-14.8"]
)
def test_montecarlo_second_moments_scale_with_the_weights(radii):
    # far outside the L = 1 circle every weight is positive but below 1e-100:
    # their squares, and the squared deviations of the batch means, would
    # underflow to 0 where the weights themselves are normal numbers
    params = FamilyParams(1, 1.5)
    results = wigner_montecarlo(radii.astype(complex), params, MonteCarloSpec(2_000, seed=0))
    exact = wigner_poisson(radii, 1.5)
    for res, w in zip(results, exact):
        assert res.standard_error > 0.0
        assert res.effective_sample_size > 5.0
        assert abs(res.value - w) <= 5.0 * res.standard_error


def log_sum_exp(x):
    top = x.max()
    return top + math.log(np.exp(x - top).sum())


def test_montecarlo_ess_equals_log_sum_exp_reference():
    # (sum |w|)^2 / sum |w|^2 from the logs of the same draws: at alpha = 15
    # the largest |w| is about 1e-165, so no weight is squared on this route
    params, spec = FamilyParams(1, 1.5), MonteCarloSpec(2_000, seed=0)
    actions = [
        circle_actions_batch(batch_angles(spec, b, size, 1), params.radius, np.array([15.0]))[0]
        for b, size in enumerate(spec.batch_sizes())
    ]
    log_mag = -np.concatenate(actions).real
    assert np.exp(2.0 * log_mag.max()) == 0.0
    reference = math.exp(2.0 * log_sum_exp(log_mag) - log_sum_exp(2.0 * log_mag))
    res = wigner_montecarlo(15.0 + 0j, params, spec)
    assert res.effective_sample_size == pytest.approx(reference, rel=1e-12)


def test_midpoint_grid_validation():
    params = FamilyParams(2, 1.5)
    with pytest.raises(ValueError):
        midpoint_histogram(params, MonteCarloSpec(samples=2000, seed=0), MidpointGrid(2.0, 16))
    for half_width, bins in [(0.0, 64), (-1.0, 64), (2.0, 1)]:
        with pytest.raises(ValueError, match="positive half_width and at least 2 bins"):
            MidpointGrid(half_width, bins)


def test_midpoints_of_single_slice_paths_sit_on_circle():
    params = FamilyParams(1, 1.5)
    grid = MidpointGrid(half_width=math.sqrt(1.5) + 3.0, bins=64)
    hist = midpoint_histogram(params, MonteCarloSpec(samples=20_000, seed=5), grid)
    r = params.radius
    cell = 2.0 * grid.half_width / grid.bins
    c = grid.centers()
    cx, cy = np.meshgrid(c, c, indexing="ij")
    dist = np.hypot(cx, cy)
    occupied = np.abs(hist) > 0
    # every occupied bin center is within one cell diagonal of the circle
    assert np.all(np.abs(dist[occupied] - r) <= cell * math.sqrt(2.0))


def test_midpoint_histogram_outside_circle_is_empty():
    params = FamilyParams(3, 1.5)
    grid = MidpointGrid(half_width=math.sqrt(1.5) + 3.0, bins=64)
    hist = midpoint_histogram(params, MonteCarloSpec(samples=50_000, seed=5), grid)
    c = grid.centers()
    cx, cy = np.meshgrid(c, c, indexing="ij")
    cell = 2.0 * grid.half_width / grid.bins
    far = np.hypot(cx, cy) > params.radius + cell * math.sqrt(2.0)
    # chord midpoints cannot leave the circle's disk
    assert np.abs(hist[far]).sum() == 0.0


def test_midpoint_histogram_empty_bin_warning():
    # 1,000 samples leave bins inside the circle empty
    params = FamilyParams(2, 1.5)
    grid = MidpointGrid(half_width=math.sqrt(1.5) + 3.0, bins=64)
    with pytest.warns(UserWarning, match="26 of the 268 midpoint bins centred inside the circle"):
        midpoint_histogram(params, MonteCarloSpec(samples=1000, seed=0), grid)


def test_midpoint_histogram_does_not_count_bins_outside_the_circle():
    # 3,780 of the 4,096 bins stay empty, all outside the circle, where no
    # chord midpoint falls; the 268 bins centred inside it are all reached
    params = FamilyParams(3, 1.5)
    grid = MidpointGrid(half_width=math.sqrt(1.5) + 3.0, bins=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist = midpoint_histogram(params, MonteCarloSpec(samples=50_000, seed=5), grid)
    assert (hist == 0).sum() == 3780


def reference_midpoint_histogram(params, spec, grid):
    # per batch: the path terms of circle_phasors and an np.add.at scatter
    r = params.radius
    hist = np.zeros((grid.bins, grid.bins), dtype=complex)
    for b, size in enumerate(spec.batch_sizes()):
        rng = np.random.Generator(np.random.Philox(spec.seed).jumped(b))
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=(size, params.L))
        path_terms = circle_phasors(thetas, r)[1]
        mid = 0.5 * r * (np.exp(1j * thetas[:, 0]) + np.exp(1j * thetas[:, -1]))
        np.add.at(hist, (grid.index(mid.real), grid.index(mid.imag)), np.exp(-path_terms))
    return hist


def dense_smoothing(hist, grid, params, samples):
    # the (bins^2, bins^2) end-gap kernel applied to the flattened bins, in row chunks
    c = grid.centers()
    cx = np.repeat(c, grid.bins)
    cy = np.tile(c, grid.bins)
    flat = hist.real.ravel()
    out = np.empty(grid.bins * grid.bins)
    chunk = max(1, (1 << 22) // (grid.bins * grid.bins))
    for start in range(0, out.size, chunk):
        stop = min(start + chunk, out.size)
        d2 = (cx[start:stop, None] - cx[None, :]) ** 2 + (cy[start:stop, None] - cy[None, :]) ** 2
        out[start:stop] = np.exp(-2.0 * d2) @ flat
    out *= 2.0 / math.pi * math.exp(-params.log_z) / samples
    return out.reshape(grid.bins, grid.bins)


@pytest.mark.parametrize("L", [1, 3])
def test_midpoint_histogram_equals_reference_loop(L):
    params = FamilyParams(L, 1.5)
    spec = MonteCarloSpec(samples=20_000, seed=9, batch_size=6_000)  # four batches
    grid = MidpointGrid(half_width=math.sqrt(1.5) + 3.0, bins=32)
    hist = midpoint_histogram(params, spec, grid)
    assert np.array_equal(hist, reference_midpoint_histogram(params, spec, grid))


@pytest.mark.parametrize("bins", [16, 64])
def test_smoothed_map_matches_dense_kernel(bins):
    params = FamilyParams(3, 1.5)
    spec = MonteCarloSpec(samples=100_000, seed=11)
    grid = MidpointGrid(half_width=math.sqrt(1.5) + 3.0, bins=bins)
    hist = midpoint_histogram(params, spec, grid)
    out = smoothed_wigner_from_histogram(hist, grid, params, spec.samples)
    ref = dense_smoothing(hist, grid, params, spec.samples)
    assert out.shape == (bins, bins)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(out).max()


def test_smoothed_map_memory_stays_small():
    # the separable map needs a few (bins, bins) arrays, not a (bins^2, bins^2) kernel
    params = FamilyParams(3, 1.5)
    grid = MidpointGrid(half_width=math.sqrt(1.5) + 3.0, bins=64)
    hist = np.random.default_rng(2).normal(size=(64, 64)) + 0j
    tracemalloc.start()
    try:
        smoothed_wigner_from_histogram(hist, grid, params, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_actions_memory_at_one_radius_block():
    # one 1e6-entry (radius, sample) block: 64 radii x 15,625 samples of L = 4
    thetas = np.random.default_rng(6).uniform(0, 2 * math.pi, size=(15_625, 4))
    radii = np.linspace(0.0, 3.0, 64)
    assert traced_peak(lambda: circle_actions_batch(thetas, 1.2, radii)) <= 33_000_000


def test_montecarlo_memory_of_one_radius_block():
    # 64 radii x 15,625 samples fill one block; the four batches share one
    # complex (16 MB) and one real (8 MB) block buffer
    params = FamilyParams(4, 1.5)
    spec = MonteCarloSpec(samples=62_500, seed=3, batch_size=15_625)
    points = np.linspace(0.0, 3.0, 64).astype(complex)
    assert traced_peak(lambda: wigner_montecarlo(points, params, spec)) < 28_000_000


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt counts page faults")
def test_montecarlo_library_call_faults_its_block_memory_in_once():
    # a fresh process, with the allocator as the library finds it: 200 radii
    # in 64 batches take about 1.5e3 minor page faults when the batches share
    # their block buffers, and about 1.1e5 when each batch's block-sized
    # temporaries are returned to the OS and faulted in again by the next
    src = Path(integrate.__file__).resolve().parents[1]
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = (
        "import resource; import numpy as np; "
        "from wigpath import FamilyParams, MonteCarloSpec, wigner_montecarlo; "
        "params, spec = FamilyParams(3, 1.5), MonteCarloSpec(samples=100_000); "
        "points = np.linspace(0.0, 4.0, 200).astype(complex); "
        "f = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
        "wigner_montecarlo(points, params, spec); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True,
        timeout=120,
    )
    assert int(done.stdout.split()[-1]) < 20_000


def test_kernel_build_holds_length_m_vectors():
    # L = 4, M = 2048: a few 32 kB columns and one 64 kB full convolution
    # (measured 0.25 MB), where one 2048 x 2048 complex kernel is 64 MB
    peak = traced_peak(lambda: integrate._circle_kernel.__wrapped__(math.sqrt(10.5), 4, 2048))
    assert peak < 2**20


def test_quadrature_call_from_empty_cache_allocates_no_kernel_sized_array():
    # the kernel build and a 400-radius call at M = 2048 together stay under
    # one real M x M array (32 MB): blocks of 128 points with their (128, M)
    # factors and products and one 2^16-entry column block of the kernel
    params, M = FamilyParams(2, 50.5), 2048
    spec = QuadratureSpec(points_per_dim=M)
    points = np.linspace(0.0, 9.0, 400).astype(complex)
    integrate._circle_kernel.cache_clear()
    assert traced_peak(lambda: wigner_quadrature(points, params, spec)) < 8 * M * M


def test_quadrature_call_allocates_no_kernel_sized_array():
    # with the kernel cached, a 400-radius call holds O(block) memory: under
    # one real M x M array (8 MB at M = 1024), though some points fail the
    # relative realness test and need the incoherent mass, and |B| with it
    params, M = FamilyParams(2, 50.5), 1024
    spec = QuadratureSpec(points_per_dim=M)
    points = np.linspace(0.0, 9.0, 400).astype(complex)
    total, _ = reference_contraction(points, params, M)
    assert (np.abs(total.imag) > 1e-10 * np.abs(total.real)).any()
    wigner_quadrature(points, params, spec)
    assert traced_peak(lambda: wigner_quadrature(points, params, spec)) < 8 * M * M


def test_midpoint_histogram_memory_of_one_batch():
    # one batch at the benchmark's midpoint-map batch size (2e6 samples / 64)
    params = FamilyParams(3, 1.5)
    spec = MonteCarloSpec(samples=31_250, seed=1, batch_size=31_250)
    grid = MidpointGrid(half_width=math.sqrt(1.5) + 3.0, bins=64)
    peak = traced_peak(lambda: midpoint_histogram(params, spec, grid))
    assert peak <= 4_570_000


def test_midpoint_histogram_correlates_with_exact_wigner():
    # smoothed midpoint estimator tracks the exact function over the plane
    params = FamilyParams(3, 1.5)
    samples = 10_000_000
    grid = MidpointGrid(half_width=math.sqrt(1.5) + 3.0, bins=64)
    hist = midpoint_histogram(params, MonteCarloSpec(samples=samples, seed=3), grid)
    est = smoothed_wigner_from_histogram(hist, grid, params, samples)
    c = grid.centers()
    cx, cy = np.meshgrid(c, c, indexing="ij")
    truth = np.array(
        [wigner_spectral(complex(x, y), params) for x, y in zip(cx.ravel(), cy.ravel())]
    )
    r = np.corrcoef(est.ravel(), truth)[0, 1]
    assert r >= 0.9
