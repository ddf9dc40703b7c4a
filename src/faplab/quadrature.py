"""Adaptive quadrature over unbounded domains via cotangent substitutions.

Heavy-tailed integrands (Cauchy-like decay) defeat naive truncation, so
every integral over the real line or the plane in this package goes through
the same change of variables:

* line:  y = center +- scale * cot(theta),   theta in (0, pi/2), both signs summed
* plane: y = center + r e(phi), r = scale * cot(theta),  theta in (0, pi/2)

which maps the tails onto a bounded interval where QUADPACK converges.  The
tails land at theta -> 0, where theta keeps its full relative precision; with
r = scale * tan(theta) they would land at pi/2, where the distance to pi/2
rounds away and QUADPACK stops on roundoff for tails that decay barely faster
than integrable (a max-entropy profile near its exponent's pole).
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

__all__ = [
    "integrate_real_line",
    "integrate_plane",
    "integrate_plane_radial",
    "QuadratureError",
]


class QuadratureError(RuntimeError):
    """Raised when an adaptive quadrature fails to converge."""


def _quad(f, a, b, epsabs, epsrel, limit=300):
    # Imported here so that importing the package does not load scipy.
    from scipy import integrate

    # QUADPACK's IntegrationWarning is advisory; the acceptance policy below
    # (finite value, error estimate small absolutely or relatively) decides.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    if not math.isfinite(value) or err > max(1e4 * epsabs, 1e-6 * abs(value)):
        raise QuadratureError(
            f"quadrature did not converge: value={value}, error estimate={err}"
        )
    return value


def integrate_real_line(
    f: Callable[[float], float],
    center: float = 0.0,
    scale: float = 1.0,
    epsabs: float = 1e-12,
    epsrel: float = 1e-12,
) -> float:
    """Integral of f over the whole real line, folded about center and cot-substituted."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")

    def g(theta: float) -> float:
        t = 1.0 / math.tan(theta)
        return (f(center + scale * t) + f(center - scale * t)) * scale * (1.0 + t * t)

    return _quad(g, 0.0, 0.5 * math.pi, epsabs, epsrel)


def integrate_plane(
    f: Callable[[Sequence[float]], float],
    center: Sequence[float] = (0.0, 0.0),
    scale: float = 1.0,
    epsabs: float = 1e-10,
    epsrel: float = 1e-10,
) -> float:
    """Integral of f over the plane: polar angle times cot-substituted radius."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    cx, cy = float(center[0]), float(center[1])

    def ring(phi: float) -> float:
        c, s = math.cos(phi), math.sin(phi)

        def g(theta: float) -> float:
            t = 1.0 / math.tan(theta)
            r = scale * t
            return f((cx + r * c, cy + r * s)) * r * scale * (1.0 + t * t)

        return _quad(g, 0.0, 0.5 * math.pi, epsabs * 0.1, epsrel * 0.1)

    return _quad(ring, 0.0, 2.0 * math.pi, epsabs, epsrel, limit=100)


def integrate_plane_radial(
    f_radial: Callable[[float], float],
    scale: float = 1.0,
    epsabs: float = 1e-12,
    epsrel: float = 1e-12,
) -> float:
    """Integral over the plane of an isotropic f(r): 2 pi int r f(r) dr, r = scale cot(theta)."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")

    def g(theta: float) -> float:
        t = 1.0 / math.tan(theta)
        r = scale * t
        return 2.0 * math.pi * r * f_radial(r) * scale * (1.0 + t * t)

    return _quad(g, 0.0, 0.5 * math.pi, epsabs, epsrel)
