"""Special-function tests with independent series oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from wigpath import special
from wigpath.special import (
    _i0_asymptotic_factor,
    _i0_series,
    laguerre_all,
    log_bessel_i0,
    log_factorial,
    log_factorials,
)
from wigpath.states import FamilyParams

from oracles import log_bessel_i0_reference


def bessel_i0(x: float) -> float:
    # I0 itself, which overflows for x >~ 709 where its log does not
    return math.exp(log_bessel_i0(x))


def i0_series_oracle(x: float, terms: int = 60) -> float:
    # independent power series sum_k (x/2)^{2k} / (k!)^2
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (2 * k) / math.factorial(k) ** 2
    return total


def laguerre_sum_oracle(n: int, x: float) -> float:
    # explicit sum in exact rational arithmetic; floats are exact binary rationals
    xq = Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction(math.comb(n, k)) * (-xq) ** k / Fraction(math.factorial(k))
    return float(total)


def test_log_bessel_i0_array_equals_scalar_reference():
    xs = np.concatenate(
        [
            [0.0, 5e-324, 1e-300, np.nextafter(20.0, -np.inf), 20.0, np.nextafter(20.0, np.inf)],
            np.linspace(0.0, 20.0, 2001),
            # just above the switch the asymptotic sum ends at its smallest term
            np.linspace(20.0, 30.0, 2001),
            np.geomspace(30.0, 1e4, 2001),
        ]
    )
    got = log_bessel_i0(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert got.tolist() == [log_bessel_i0_reference(x) for x in xs.tolist()]
    assert [log_bessel_i0(x) for x in xs[::97].tolist()] == got[::97].tolist()
    assert log_bessel_i0(xs.reshape(3, -1)).tolist() == got.reshape(3, -1).tolist()
    # every 0-d input, Python or numpy, gives a Python float of the same value
    for x in (2, 2.0, np.int64(2), np.float32(2.0), np.float64(2.0), np.array(2.0)):
        value = log_bessel_i0(x)
        assert type(value) is float and value == log_bessel_i0_reference(2.0)


def test_i0_at_zero():
    assert bessel_i0(0.0) == pytest.approx(1.0, abs=0)


def test_i0_matches_series_oracle():
    assert bessel_i0(2.0) == pytest.approx(i0_series_oracle(2.0), rel=1e-13)
    for x in [0.1, 1.0, 5.0, 12.0, 19.5]:
        assert bessel_i0(x) == pytest.approx(i0_series_oracle(x), rel=1e-13)


def test_i0_large_argument_log_form():
    # x = 700 is near the overflow boundary: log form must stay finite
    assert math.isfinite(log_bessel_i0(700.0))
    assert math.isfinite(log_bessel_i0(1e4))
    assert bessel_i0(700.0) > 1e300
    with pytest.raises(OverflowError):
        bessel_i0(750.0)


def test_i0_rejects_negative():
    with pytest.raises(ValueError):
        log_bessel_i0(-0.5)
    with pytest.raises(ValueError):
        bessel_i0(-1.0)


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, -math.inf])
def test_i0_names_the_first_bad_argument(bad):
    with pytest.raises(ValueError, match=f"got {bad!r}"):
        log_bessel_i0(bad)
    with pytest.raises(ValueError, match=f"got {bad!r}"):
        log_bessel_i0(np.array([0.0, 3.0, bad, 25.0, -7.0]))


def test_i0_switchover_continuity():
    # series and asymptotic branches agree at the crossover to 1e-12
    x = np.array([20.0])
    log_series = math.log(_i0_series(x)[0])
    log_asym = 20.0 - 0.5 * math.log(2 * math.pi * 20.0) + math.log(_i0_asymptotic_factor(x)[0])
    assert log_series == pytest.approx(log_asym, abs=1e-12)


def test_i0_monotone_and_asymptote():
    xs = np.linspace(0.0, 50.0, 201)
    vals = [log_bessel_i0(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    x = 1e3
    assert abs(log_bessel_i0(x) - (x - 0.5 * math.log(2 * math.pi * x))) < 1e-3


def laguerre(n: int, x: float) -> float:
    """L_n(x) alone: the last entry of a recurrence pass up to order n."""
    return float(laguerre_all(n, x)[n])


def test_laguerre_closed_forms():
    for x in [-3.0, 0.0, 0.5, 7.0]:
        assert laguerre(0, x) == 1.0
        assert laguerre(1, x) == pytest.approx(1.0 - x, rel=1e-15)
    # L_2(2) = 1 - 4 + 2 = -1 (explicit-sum oracle)
    assert laguerre(2, 2.0) == pytest.approx(-1.0, rel=1e-14)
    assert laguerre(2, 2.0) == pytest.approx(laguerre_sum_oracle(2, 2.0), rel=1e-14)


def test_laguerre_at_zero_is_one():
    for n in range(0, 40, 3):
        assert laguerre(n, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_laguerre_recurrence_vs_exact_sum():
    # agreement with the exact rational explicit sum for n <= 30, |x| <= 50
    for n in [1, 5, 12, 20, 30]:
        for x in np.linspace(-50.0, 50.0, 21):
            exact = laguerre_sum_oracle(n, float(x))
            got = laguerre(n, float(x))
            assert got == pytest.approx(exact, rel=1e-9), (n, x)


def test_laguerre_all_matches_scalar():
    # every entry of one pass equals the pass stopped at that order, and the exact sum
    x = 3.7
    vals = laguerre_all(25, x)
    for n in range(26):
        assert vals[n] == laguerre(n, x)
        assert vals[n] == pytest.approx(laguerre_sum_oracle(n, x), rel=1e-13)
    # an array of arguments gives one column per argument, each as its scalar pass
    xs = np.array([0.0, x, 12.5])
    grid = laguerre_all(25, xs)
    assert grid.shape == (26, 3)
    for j, xj in enumerate(xs):
        assert grid[:, j].tolist() == laguerre_all(25, float(xj)).tolist()


def test_laguerre_rejects_negative_order():
    with pytest.raises(ValueError):
        laguerre_all(-1, 0.0)


def test_log_factorial_small_values():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)


def test_log_factorial_stirling_oracle():
    # Stirling with the 1/(12n) correction
    n = 170
    stirling = (n + 0.5) * math.log(n) - n + 0.5 * math.log(2 * math.pi) + 1.0 / (12 * n)
    assert log_factorial(n) == pytest.approx(stirling, rel=1e-10)


def test_log_factorial_table_consistency():
    table = log_factorials(300)
    assert table[0] == 0.0
    assert table[300] == pytest.approx(math.lgamma(301), rel=1e-14)
    # cumulative property
    assert table[137] - table[136] == pytest.approx(math.log(137.0), rel=1e-12)


def test_log_factorials_do_not_depend_on_call_history(monkeypatch):
    # every entry is one running sum of log k from k = 1, whatever sizes the
    # table grew through on the way
    running = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, 5001.0)))))
    for history in ((), (10, 1500, 3000), (2000,)):
        monkeypatch.setattr(special, "_logfact_table", np.zeros(1))
        for n in history:
            log_factorial(n)
        assert log_factorial(5000) == running[5000]
        assert np.array_equal(log_factorials(5000), running)


def test_family_weights_do_not_depend_on_earlier_members(monkeypatch):
    monkeypatch.setattr(special, "_logfact_table", np.zeros(1))
    fresh = FamilyParams(2, 1000.5)
    monkeypatch.setattr(special, "_logfact_table", np.zeros(1))
    FamilyParams(1, 2000.5)
    later = FamilyParams(2, 1000.5)
    assert np.array_equal(later.weight_array, fresh.weight_array)
    assert later.log_z == fresh.log_z


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        log_factorial(-2)
