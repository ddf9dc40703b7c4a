import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from faplab.special import (
    EULER_GAMMA,
    bessel_k1,
    bessel_k1_scaled,
    digamma,
    log_gamma,
    log_gamma_ratio,
    w2,
)
from faplab.capacity import constraint_constant
from faplab.verify import _check_w2_golden

# Independent oracles ------------------------------------------------------


def k1_oracle_scaled(x: float) -> float:
    """e^x K1(x) by quadrature of the integral representation
    K1(x) = int_0^inf exp(-x cosh t) cosh t dt."""
    f = lambda t: math.exp(-x * (math.cosh(t) - 1.0)) * math.cosh(t)
    val, err = integrate.quad(f, 0.0, 60.0, epsabs=1e-14, epsrel=1e-13, limit=400)
    assert err < 1e-10 * abs(val)
    return val


def digamma_oracle(t: float) -> float:
    """Richardson-extrapolated central difference of the C library's lgamma.

    The step must scale with t: psi''' grows like t^-4 near the origin.
    """
    h = 1e-4 * t
    d1 = (math.lgamma(t + h) - math.lgamma(t - h)) / (2.0 * h)
    d2 = (math.lgamma(t + h / 2) - math.lgamma(t - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


# log_gamma ----------------------------------------------------------------


def test_log_gamma_trivial_integers():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)


def test_log_gamma_half():
    # Gamma(1/2) = sqrt(pi)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)


def test_log_gamma_accuracy_grid():
    worst = max(
        abs(log_gamma(t) - math.lgamma(t)) for t in np.geomspace(1e-3, 1e3, 300)
    )
    assert worst <= 1e-12


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.3)


def test_log_gamma_convexity():
    h = 1e-3
    for t in np.geomspace(0.05, 50.0, 100):
        second = log_gamma(t + h) - 2.0 * log_gamma(t) + log_gamma(t - h) if t > h else 0.0
        assert second >= -1e-12


# digamma ------------------------------------------------------------------


def test_digamma_euler_gamma():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)


def test_digamma_half():
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)


def test_digamma_three_halves_by_recurrence():
    assert digamma(1.5) == pytest.approx(digamma(0.5) + 2.0, abs=1e-13)


def test_digamma_vs_lgamma_derivative():
    for t in np.geomspace(0.01, 500.0, 120):
        assert digamma(t) == pytest.approx(digamma_oracle(t), abs=5e-9)


def test_digamma_recurrence_grid():
    worst = max(
        abs(digamma(t + 1.0) - digamma(t) - 1.0 / t)
        for t in np.linspace(0.1, 100.0, 3000)
    )
    assert worst <= 1e-12


def test_digamma_monotone():
    ts = np.geomspace(1e-3, 1e3, 500)
    vals = [digamma(t) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_digamma_domain():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(-2.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=100.0))
def test_digamma_recurrence_property(t):
    assert abs(digamma(t + 1.0) - digamma(t) - 1.0 / t) <= 1e-12


# bessel_k1 ----------------------------------------------------------------


def test_k1_small_argument_limit():
    x = 1e-6
    assert abs(x * bessel_k1(x) - 1.0) <= 1e-5


def test_k1_reference_values():
    # Frozen from the integral-representation oracle.
    assert bessel_k1(1.0) == pytest.approx(0.6019072301972346, rel=1e-12)
    assert bessel_k1(10.0) == pytest.approx(1.8648773453825582e-05, rel=1e-12)


def test_k1_against_quadrature_oracle():
    for x in np.geomspace(1e-6, 500.0, 60):
        expected = k1_oracle_scaled(x)
        assert bessel_k1_scaled(x) == pytest.approx(expected, rel=1e-10)


def test_k1_deep_tail_via_logs():
    x = 700.0
    log_mine = math.log(bessel_k1(x))
    log_oracle = math.log(k1_oracle_scaled(x)) - x
    assert log_mine == pytest.approx(log_oracle, abs=1e-10)


def test_k1_monotone_decreasing():
    xs = np.geomspace(1e-8, 600.0, 400)
    vals = [bessel_k1(x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_k1_small_x_envelope():
    for x in np.geomspace(1e-8, 1e-4, 40):
        assert abs(x * bessel_k1(x) - 1.0) <= 5e-4 * abs(math.log(x))


def test_k1_underflow_warns_and_returns_zero():
    with pytest.warns(RuntimeWarning):
        assert bessel_k1(5000.0) == 0.0


def test_k1_domain():
    with pytest.raises(ValueError):
        bessel_k1(0.0)
    with pytest.raises(ValueError):
        bessel_k1(-1.0)


# w2 -----------------------------------------------------------------------


def test_w2_dimension_constants():
    assert w2(1.0, 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert w2(1.5, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_w2_integer_offset_is_the_digamma_difference():
    passed, detail = _check_w2_golden(quick=False)
    assert passed, detail


# psi(t) - psi(t - 1/2) by mpmath, at 40 digits past those of t's integer part.
@pytest.mark.parametrize(
    "t, value",
    [
        (40.0, 0.01273833679781207317),
        (40.5, 0.01257811889839045847515),
        (55.5, 0.0091322296977071771652),
        (1e3, 0.00050037525014068752345),
        (1e10, 5.000000000375e-11),
        (1e13, 5.000000000000375e-14),
        (1e16, 5.000000000000000375e-17),
        (1e100, 4.9999999999999999205e-101),
    ],
)
def test_w2_half_offset_at_large_arguments(t, value):
    # From t - 1/2 = 40 w2 differences psi's asymptotic series term by term;
    # the digamma difference it replaces is off by 1.8e-5 at 1e10 and 5e-3 at 1e13.
    assert w2(t, 0.5) == pytest.approx(value, rel=1e-14 if t < 100.0 else 1e-15, abs=0.0)


# psi(t) - psi(t - a) by mpmath at 60 digits.
@pytest.mark.parametrize(
    "t, a, value",
    [
        (40.0, 39.5, 5.639837400056266605351),
        (1e3, 999.5, 8.870765221670235531491),
        (79.5, 39.5, 0.6931271545254993516068),
        (41.5, 1.5, 0.03726947692308181649984),
    ],
)
def test_w2_takes_the_series_only_when_both_arguments_are_large(t, a, value):
    # The switch is on the smaller argument t - a: at t - a = 1/2 the series
    # would be 3 % off.  The constraint constant of p = 79 is w2(40, 39.5).
    assert w2(t, a) == pytest.approx(value, rel=1e-14 if t - a < 100.0 else 1e-15, abs=0.0)
    if a == 39.5 and t == 40.0:
        assert constraint_constant(79) == pytest.approx(value, rel=1e-15, abs=0.0)


def test_w2_zero_offset():
    assert w2(3.0, 0.0) == 0.0


def test_w2_domain():
    with pytest.raises(ValueError):
        w2(1.0, 1.0)
    with pytest.raises(ValueError):
        w2(0.5, 2.0)


# ln Gamma(t - a) - ln Gamma(t) by mpmath at 60 digits.
@pytest.mark.parametrize(
    "t, a, value",
    [
        (40.5, 0.5, -1.841314808421924926997),
        (41.5, 1.5, -5.542616782534418383161),
        (1e3, 0.5, -3.453502514444177896337),
        (1e10, 1.5, -34.53877639472318526026),
        (1e15, 0.5, -17.26938819745534225513),
        (4e15, 0.5, -17.9625353780152878458),
    ],
)
def test_log_gamma_ratio_at_large_arguments(t, a, value):
    # Once t - a >= 40, Stirling's series differenced term by term; the
    # log-gamma difference is off by 3e-3 at t = 1e12 and whole nats at 1e15.
    assert log_gamma_ratio(t, a) == pytest.approx(value, rel=2e-15, abs=0.0)


def test_log_gamma_ratio_below_the_series_and_at_integer_offsets():
    for t in (0.7, 3.3, 12.0, 40.4):
        assert log_gamma_ratio(t, 0.5) == log_gamma(t - 0.5) - log_gamma(t)
    for t in (1.2, 7.0, 1e6, 1e300):
        assert log_gamma_ratio(t, 1.0) == -math.log(t - 1.0)
        expected = -(math.log(t + 1.0) + math.log(t) + math.log(t - 1.0))
        assert log_gamma_ratio(t + 2.0, 3.0) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError):
        log_gamma_ratio(1.0, 1.0)
