"""Scalar special functions used throughout the package.

Thin wrappers over ``scipy.special``: log-gamma (``gammaln``), digamma
(``psi``), trigamma (the Hurwitz ``zeta(2, t)``) and the modified Bessel
function K1, plain (``k1``) and exponentially scaled (``k1e``).  The
wrappers add the domain checks, return plain floats and warn when K1
underflows.  ``w2`` is the digamma difference that fixes the dispersion
constraint constants; for an integer offset it is psi's recurrence, exact
and without scipy.

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
    "log_beta",
]

EULER_GAMMA = 0.5772156649015328606
_W2_RECURRENCE_MAX = 16  # integer offsets that w2 sums term by term


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


def log_beta(x: float, y: float) -> float:
    """ln B(x, y), evaluated through log_gamma so large arguments stay finite."""
    return log_gamma(x) + log_gamma(y) - log_gamma(x + y)


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
    accurate at large t, where the digamma difference cancels.
    """
    t = float(t)
    a = float(a)
    if not t > a:
        raise ValueError(f"w2 requires t > a, got t={t}, a={a}")
    if a.is_integer() and a <= _W2_RECURRENCE_MAX:
        return math.fsum(1.0 / (t - j) for j in range(1, int(a) + 1))
    return digamma(t) - digamma(t - a)
