"""Scalar special functions used throughout the package.

Thin wrappers over ``scipy.special``: log-gamma (``gammaln``), digamma
(``psi``), trigamma (the Hurwitz ``zeta(2, t)``) and the modified Bessel
function K1, plain (``k1``) and exponentially scaled (``k1e``).  The
wrappers add the domain checks, return plain floats and warn when K1
underflows.  ``w2`` is the digamma difference that fixes the dispersion
constraint constants; for an integer offset it is psi's recurrence, exact
and without scipy, and at large arguments the difference of psi's
asymptotic series, which does not cancel as the digamma difference does.
``log_gamma_ratio``, the log-gamma difference behind the max-entropy
normalizer, is built the same way from the recurrence and Stirling's
series.

``scipy.special`` is imported on first use, through ``scipy_special``, so
that commands which never evaluate a special function (closed-form
capacities, zero-drift densities, simulation, the p = 2 max-entropy
profile) start without it.
"""

from __future__ import annotations

import functools
import math
import warnings

__all__ = [
    "EULER_GAMMA",
    "log_gamma",
    "digamma",
    "trigamma",
    "bessel_k1",
    "bessel_k1_scaled",
    "w2",
    "log_gamma_ratio",
]

EULER_GAMMA = 0.5772156649015328606
_RECURRENCE_MAX = 16  # integer offsets that w2 and log_gamma_ratio sum term by term
# Smaller argument t - a from which w2 and log_gamma_ratio take the
# asymptotic series of psi and ln Gamma.
_ASYMPTOTIC_MIN = 40.0


@functools.cache
def scipy_special():
    """The ``scipy.special`` module, imported on the first call."""
    from scipy import special

    return special


def log_gamma(t: float) -> float:
    """ln Gamma(t) for t > 0."""
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"log_gamma requires t > 0, got {t}")
    return float(scipy_special().gammaln(t))


def digamma(t: float) -> float:
    """psi(t) = d/dt ln Gamma(t) for t > 0."""
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"digamma requires t > 0, got {t}")
    return float(scipy_special().psi(t))


def trigamma(t: float) -> float:
    """psi'(t) for t > 0, as the Hurwitz zeta(2, t): polygamma(1, t) is several times slower."""
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"trigamma requires t > 0, got {t}")
    return float(scipy_special().zeta(2.0, t))


def bessel_k1_scaled(x: float) -> float:
    """e^x K1(x) for x > 0; stays in range for arbitrarily large arguments."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"bessel_k1_scaled requires x > 0, got {x}")
    return float(scipy_special().k1e(x))


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order 1, for x > 0.

    Arguments deep in the exponential tail (x beyond ~745) underflow; the
    function then returns 0.0 and emits a RuntimeWarning rather than raising.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"bessel_k1 requires x > 0, got {x}")
    value = float(scipy_special().k1(x))
    if value == 0.0:
        warnings.warn(
            f"bessel_k1 underflowed to 0 at x={x}", RuntimeWarning, stacklevel=2
        )
    return value


def w2(t: float, a: float) -> float:
    """Digamma difference psi(t) - psi(t - a), defined for t > a (and t - a > 0).

    This is the constant-evaluation function behind the logarithmic
    dispersion constraint: the constraint constant in dimension p is
    w2((1+p)/2, p/2), giving 2 ln 2 for p = 1 and 2 for p = 2.

    For integer a (up to 16) the difference is psi's recurrence,
    sum_{j=1..a} 1/(t - j), summed exactly and without scipy; it stays
    accurate at large t, where the digamma difference cancels.  For other a
    the digamma difference loses about t ln(t) / a rounding units (1.8e-5
    relative at t = 1e10), so once t - a >= 40 it is the difference of psi's
    asymptotic series ln x - 1/(2x) - 1/(12x^2) + 1/(120x^4) - 1/(252x^6)
    at x = t and x = t - a, each term differenced in a form that does not
    cancel: with u = 1/t, v = 1/(t - a) and w = a (u + v) u v,
    -log1p(-a u) + a u v / 2 + w / 12 - w (u^2 + v^2) / 120
    + w (u^4 + u^2 v^2 + v^4) / 252.  Its truncation error falls as
    (t - a)^-8, so the switch is on the smaller argument; at t - a = 40 both
    routes are within about 1e-13, the series within 6e-15.
    """
    t = float(t)
    a = float(a)
    if not t > a:
        raise ValueError(f"w2 requires t > a, got t={t}, a={a}")
    if a.is_integer() and a <= _RECURRENCE_MAX:
        return math.fsum(1.0 / (t - j) for j in range(1, int(a) + 1))
    if t - a < _ASYMPTOTIC_MIN:
        return digamma(t) - digamma(t - a)
    u, v = 1.0 / t, 1.0 / (t - a)
    uv = u * v
    w = a * (u + v) * uv
    return (-math.log1p(-a * u) + 0.5 * a * uv + w / 12.0 - w * (u * u + v * v) / 120.0
            + w * (u**4 + uv * uv + v**4) / 252.0)


def _stirling_tail(x: float) -> float:
    """ln Gamma(x) - ((x - 1/2) ln x - x + ln(2 pi) / 2), to the x^-7 term."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x


def log_gamma_ratio(t: float, a: float) -> float:
    """ln Gamma(t - a) - ln Gamma(t), defined for t > a >= 0.

    Its t-derivative is -w2(t, a), and it is evaluated in the same three
    ways.  For integer a (up to 16) it is -sum_{j=1..a} ln(t - j), without
    scipy (-ln(t - 1) at a = 1).  For other a the log-gamma difference
    loses the rounding of ln Gamma(t), about t ln(t) times the unit, in
    absolute terms (whole nats near t = 1e16), so once t - a >= 40 it is
    the difference of Stirling's series at x = t - a and y = t, rearranged
    so that nothing of size t ln(t) is formed:
    (x - 1/2) log1p(-a/t) + a - a ln(t) plus the difference of the 1/(12x)
    tails, whose truncation is below 1e-17 there.
    """
    t = float(t)
    a = float(a)
    if not (t > a and a >= 0.0):
        raise ValueError(f"log_gamma_ratio requires t > a >= 0, got t={t}, a={a}")
    if a.is_integer() and a <= _RECURRENCE_MAX:
        return -math.fsum(math.log(t - j) for j in range(1, int(a) + 1))
    x = t - a
    if x < _ASYMPTOTIC_MIN:
        return log_gamma(x) - log_gamma(t)
    head = (x - 0.5) * math.log1p(-a / t) + a - a * math.log(t)
    return head + (_stirling_tail(x) - _stirling_tail(t))
