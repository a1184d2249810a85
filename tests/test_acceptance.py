"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.

Criterion 8 is checked against exact rational weights computed here.  At
N = 10.5 the total-variation distance to the point mass at n = 10 is
TV(L) = 1 - w_10(L) = x / (1 + x), with x = sum_{n != 10} r_n^L and
r_n = 10.5^(n-10) 10!/n!.  The leading two-sided tail (10.5/11)^L +
(10/10.5)^L first drops below 1e-3 at L = 160, and so does TV itself;
TV(60) = 0.1031.  An earlier form of the criterion asked for TV < 1e-3 by
L = 60, which no N can meet: over N in (10, 11) the smallest TV(60) is about
0.1028, at N = sqrt(110), where the two nearest tail ratios are equal.
"""

import math
import time
from fractions import Fraction

import numpy as np

from wigpath.checks import (
    _normalization_cases,
    check_determinant,
    check_normalization,
    check_oracle,
)
from wigpath.integrate import MonteCarloSpec, wigner_montecarlo, wigner_quadrature
from wigpath.saddle import interior_phase, solve_saddle, wigner_saddle
from wigpath.states import FamilyParams, gaussian_convolve_p1, wigner_number, wigner_poisson


def _report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def crossings_of(fn, lo: float, hi: float, points: int = 4001):
    rs = np.linspace(lo, hi, points)
    vals = fn(rs)
    found = []
    for i in range(points - 1):
        if vals[i] == 0.0:
            found.append(rs[i])
        elif vals[i] * vals[i + 1] < 0.0:
            found.append(rs[i] - vals[i] * (rs[i + 1] - rs[i]) / (vals[i + 1] - vals[i]))
    return np.array(found)


def test_criterion_01_quadrature_equals_spectral():
    start = time.perf_counter()
    results = check_oracle(points=20, M=128)
    assert [r.name for r in results] == [
        f"oracle L={L} N={N}" for L, N in [(1, 1.5), (2, 1.5), (3, 1.5), (2, 10.5)]
    ]
    worst = max(r.detail["worst_over_tolerance"] for r in results)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "path-integral quadrature equals spectral mixture (4 cases x 20 radii)",
        worst <= 1.0 and elapsed <= 60.0,
        f"worst |diff|/tol = {worst:.3g}, elapsed {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_02_poisson_closed_form_vs_convolution():
    start = time.perf_counter()
    worst = 0.0
    for N in (1.0, 10.5):
        for s in np.linspace(0.0, math.sqrt(N) + 2.0, 30):
            direct = wigner_poisson(complex(s), N)
            convolved, _ = gaussian_convolve_p1(complex(s), N)
            worst = max(worst, abs(direct - convolved))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "Bessel closed form vs circle-convolution oracle (2 N values x 30 points)",
        worst <= 1e-8 and elapsed <= 5.0,
        f"worst |diff| = {worst:.3e}, elapsed {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_03_normalization():
    start = time.perf_counter()
    cases = _normalization_cases()
    # s_max: sqrt(ceil(4N + 20)) + 6 for Poisson, sqrt(n) + 6 for number states,
    # sqrt(n_max) + 6 for the family members
    assert [(label, s_max) for label, _, s_max in cases] == [
        ("poisson N=1.0", math.sqrt(24.0) + 6.0),
        ("poisson N=10.5", math.sqrt(62.0) + 6.0),
        ("number n=1", 7.0),
        ("number n=10", math.sqrt(10.0) + 6.0),
        ("family L=3 N=1.5 quadrature", math.sqrt(FamilyParams(3, 1.5).n_max) + 6.0),
        ("family L=2 N=10.5 spectral", math.sqrt(FamilyParams(2, 10.5).n_max) + 6.0),
    ]
    results = check_normalization(tol=1e-6)
    worst = max(abs(r.detail["integral"] - 1.0) for r in results)
    elapsed = time.perf_counter() - start
    _report(
        3,
        "total mass of W equals 1 for six states",
        worst <= 1e-6 and elapsed <= 30.0,
        f"worst |integral - 1| = {worst:.3e}, elapsed {elapsed:.1f}s (limit 30s)",
    )


def wkb_interior(s: float, n: int) -> float:
    """Oracle: the interior WKB asymptotics of the number-state Wigner
    function, with the explicit (pi^3/2)^{-1/2} amplitude."""
    quarter = (s * s * (n + 0.5 - s * s)) ** 0.25
    return math.cos(interior_phase(s, n)) / (math.sqrt(math.pi**3 / 2.0) * quarter)


def test_criterion_04_figure_reproduction():
    # zero crossings of the matched saddle curve against the exact ones
    r10 = math.sqrt(10.5)
    window = (0.8, r10 - 0.3)
    exact10 = crossings_of(lambda rs: wigner_number(rs, 10), *window)
    saddle10 = crossings_of(lambda rs: wigner_saddle(rs, 10), *window)
    deltas10 = [float(np.min(np.abs(saddle10 - e))) for e in exact10]

    r1 = math.sqrt(1.5)
    exact1 = crossings_of(lambda rs: wigner_number(rs, 1), 0.1, r1 - 0.1)
    saddle1 = crossings_of(lambda rs: wigner_saddle(rs, 1), 0.1, r1 - 0.1)
    ok_n1 = len(exact1) == 1 and len(saddle1) == 1 and abs(saddle1[0] - exact1[0]) <= 0.05

    ratios = np.array(
        [
            wigner_saddle(complex(s), 10) / wkb_interior(s, 10)
            for s in np.linspace(1.0, 2.8, 50)
        ]
    )
    flatness = (ratios.max() - ratios.min()) / abs(ratios.mean())

    ok = (
        len(exact10) == len(saddle10)
        and max(deltas10) <= 0.05
        and ok_n1
        and flatness < 0.01
    )
    _report(
        4,
        "matched saddle curve reproduces exact zero crossings; amplitude ratio flat",
        ok,
        f"n=10 worst crossing shift {max(deltas10):.4f} over {len(exact10)} crossings, "
        f"n=1 shift {abs(saddle1[0] - exact1[0]):.4f}, amplitude spread {flatness:.2e}",
    )


def test_criterion_05_hessian_determinant():
    start = time.perf_counter()
    results = check_determinant(n_random=50, seed=314)
    assert [r.name for r in results] == [f"determinant L={L}" for L in range(3, 11)]
    worst = max(r.detail["worst_relative_error"] for r in results)
    elapsed = time.perf_counter() - start
    _report(
        5,
        "closed-form Hessian determinant vs dense elimination (L=3..10, 50 angles each)",
        worst <= 1e-10 and elapsed <= 2.0,
        f"worst relative error {worst:.2e}, elapsed {elapsed:.2f}s (limit 2s)",
    )


def test_criterion_06_saddle_equation():
    ratios = np.concatenate([np.linspace(0.05, 0.97, 25), np.linspace(1.03, 3.0, 25)])
    worst_residual = 0.0
    for L in (4, 8, 16, 64, 256, 1024):
        for ratio in ratios:
            r = math.sqrt(10.5)
            sol = solve_saddle(ratio * r, r, L)
            worst_residual = max(worst_residual, sol.residual() / max(sol.s, r))
    # O(1/L) approach of the stationary action to its limit
    r = math.sqrt(1.5)
    s = 0.8 * r
    limit = solve_saddle(s, r, None).stationary_action
    gaps = [abs(solve_saddle(s, r, L).stationary_action - limit) for L in (64, 128, 256, 512)]
    halving = [b / a for a, b in zip(gaps, gaps[1:])]
    ok_halving = all(0.4 <= h <= 0.6 for h in halving)
    _report(
        6,
        "saddle equation residual <= 1e-12 on 50x6 grid; limit approach is O(1/L)",
        worst_residual <= 1e-12 and ok_halving,
        f"worst residual {worst_residual:.2e}, gap ratios {[f'{h:.3f}' for h in halving]}",
    )


def test_criterion_07_monte_carlo_consistency_and_sign_trend():
    start = time.perf_counter()
    params = FamilyParams(3, 1.5)
    truth = wigner_quadrature(0.8 + 0j, params).value
    hits = 0
    for seed in range(30):
        res = wigner_montecarlo(0.8 + 0j, params, MonteCarloSpec(1_000_000, seed=seed))
        if abs(res.value - truth) <= 3.0 * res.standard_error:
            hits += 1
    phases = []
    for L in range(1, 6):
        res = wigner_montecarlo(
            0.8 + 0j, FamilyParams(L, 1.5), MonteCarloSpec(1_000_000, seed=123)
        )
        phases.append((res.mean_phase_magnitude, res.phase_standard_error))
    positive = all(p > 0.0 for p, _ in phases)
    non_increasing = all(
        b <= a + 2.0 * math.hypot(sa, sb)
        for (a, sa), (b, sb) in zip(phases, phases[1:])
    )
    elapsed = time.perf_counter() - start
    _report(
        7,
        "MC within 3 sigma of quadrature in >= 28/30 seeds; phase trend non-increasing",
        hits >= 28 and positive and non_increasing and elapsed <= 300.0,
        f"hits {hits}/30, phases {[f'{p:.3f}' for p, _ in phases]}, "
        f"elapsed {elapsed:.0f}s (limit 300s)",
    )


def exact_tv_to_level(N: Fraction, level: int, threshold: Fraction):
    """Exact TV(L) = x / (1 + x) for L = 1, 2, ... up to the first L with TV < threshold.

    x = sum_{n != level} r_n^L with r_n = N^(n - level) level!/n!.  Each r_n is
    written as c_n / D over one common denominator D, so x = sum c_n^L / D^L
    is carried in integers.  Levels above 60 are left out; for the case below
    (N = 10.5) their share of x is under 1e-25 at L = 1 and falls with L.
    """
    n_top = 60
    ratios = [
        N ** (n - level) * math.factorial(level) / math.factorial(n)
        for n in range(n_top + 1)
        if n != level
    ]
    D = math.lcm(*(q.denominator for q in ratios))
    c = [q.numerator * (D // q.denominator) for q in ratios]
    powers, d_power, tvs = [1] * len(c), 1, []
    while not tvs or tvs[-1] >= threshold:
        powers = [p * q for p, q in zip(powers, c)]
        d_power *= D
        x_num = sum(powers)
        tvs.append(Fraction(x_num, d_power + x_num))
    return tvs


def test_criterion_08_family_convergence():
    N, level, threshold = Fraction(21, 2), 10, Fraction(1, 1000)
    exact = exact_tv_to_level(N, level, threshold)
    L_star = len(exact)
    # the leading tails (N/(level+1))^L + (level/N)^L cross the threshold at 160
    tail_ratios = (N / (level + 1), level / N)
    tail_crossing = next(
        L for L in range(1, 1000) if sum(q**L for q in tail_ratios) < threshold
    )

    tvs = []
    for L in range(1, L_star + 1):
        w = FamilyParams(L, float(N)).weight_array
        target = np.zeros_like(w)
        target[level] = 1.0
        tvs.append(0.5 * float(np.abs(w - target).sum()))
    worst = max(abs(t - float(e)) / float(e) for t, e in zip(tvs, exact))
    monotone = all(b < a for a, b in zip(tvs, tvs[1:]))
    crosses = tvs[-1] < float(threshold) <= tvs[-2]
    _report(
        8,
        "weights pinch onto level 10 as the exact oracle does: TV < 1e-3 first at "
        "L* = 160, monotone in L, within 1e-10 relative at every L",
        L_star == tail_crossing == 160 and worst <= 1e-10 and monotone and crosses,
        f"L* = {L_star} (tail crossing {tail_crossing}), TV(60) = {tvs[59]:.4f}, "
        f"worst relative diff {worst:.1e}, monotone={monotone}",
    )


def test_criterion_09_marginals():
    start = time.perf_counter()

    def hermite_density(n: int, q: float) -> float:
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

    p = np.linspace(-10.0, 10.0, 4001)
    worst = 0.0
    for n in range(3):
        for q in np.linspace(-2.5, 2.5, 11):
            # the (q, p) line as one array of alpha = (q + i p)/sqrt(2)
            alpha = np.empty(p.shape, dtype=complex)
            alpha.real = q / math.sqrt(2.0)
            alpha.imag = p / math.sqrt(2.0)
            vals = wigner_number(alpha, n)
            marginal = 0.5 * float(np.trapezoid(vals, p))
            worst = max(worst, abs(marginal - hermite_density(n, float(q))))
    elapsed = time.perf_counter() - start
    _report(
        9,
        "p-marginals of number-state W match the oscillator densities (n = 0, 1, 2)",
        worst <= 1e-6 and elapsed <= 5.0,
        f"worst |diff| = {worst:.2e}, elapsed {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_10_exterior_decay():
    params = FamilyParams(3, 1.5)
    rs = np.linspace(math.sqrt(1.5) + 0.3, math.sqrt(1.5) + 2.0, 25)
    vals = [wigner_quadrature(complex(s), params).value for s in rs]
    positive = all(v > 0.0 for v in vals)
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    _report(
        10,
        "quadrature W is positive and strictly decreasing outside the circle",
        positive and decreasing,
        f"W range [{vals[-1]:.3e}, {vals[0]:.3e}] over 25 radii",
    )
