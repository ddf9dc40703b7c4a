"""Tanh-sinh quadrature over unbounded domains via cotangent substitutions.

Heavy-tailed integrands (Cauchy-like decay) defeat naive truncation, so
every integral over the real line or the plane in this package goes through
the same change of variables:

* line:  y = center +- scale * cot(theta),   theta in (0, pi/2), both signs summed
* plane: y = center + r e(phi), r = scale * cot(theta),  theta in (0, pi/2)

which maps the tails onto a bounded interval.  The tails land at theta -> 0,
where theta keeps its full relative precision; with r = scale * tan(theta)
they would land at pi/2, where the distance to pi/2 rounds away and the rule
stops on roundoff for tails that decay barely faster than integrable (a
max-entropy profile near its exponent's pole).  What remains at theta -> 0
is an endpoint singularity, which the double-exponential nodes of
``scipy.integrate.tanhsinh`` absorb.

The cores ``line_integral``, ``radial_integral`` and ``plane_integral`` take
array integrands: f(y) for a 1-D array of points on the line, f(r) for an
array of radii, f(pts) for an (n, 2) array of points in the plane, each
returning one value per point.  The plane is a nested rule whose inner
radial integrals, one per polar angle, run as one vectorized tanhsinh call
per block of angles.
``integrate_real_line``, ``integrate_plane_radial`` and ``integrate_plane``
are their scalar-callable forms.

Every result must come back with status 0 (error estimate below epsabs or
below epsrel times the value); anything else raises ``QuadratureError``
with the value, error estimate, evaluation count and status.  Every rule
starts at level ``MINLEVEL`` = 4, i.e. with 16 * 2**4 + 1 nodes evaluated in
one call: from tanhsinh's default level 2 the level-to-level error estimate
can fall below the tolerance while the value is still wrong (the 2D arrival
mass at lam = 2, sigma2 = 0.5, drift (0, 1) stopped after 67 evaluations
1.3e-10 off with an error estimate of 2.4e-15).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "line_integral",
    "radial_integral",
    "plane_integral",
    "integrate_real_line",
    "integrate_plane",
    "integrate_plane_radial",
    "QuadratureError",
]

MINLEVEL = 4
# Inner radial integrals (one per polar angle) that share one vectorized
# call; bounds the inner node arrays to this many angles.
_RING_BLOCK = 64


class QuadratureError(RuntimeError):
    """Raised when a quadrature does not reach its tolerance."""


def _tanhsinh(g, b, epsabs, epsrel, args=()):
    """Integral of the array integrand g over (0, b) for each broadcast element of args."""
    # Imported here so that importing the package does not load scipy.
    from scipy.integrate import tanhsinh

    res = tanhsinh(g, 0.0, b, args=args, atol=epsabs, rtol=epsrel, minlevel=MINLEVEL)
    bad = res.status != 0
    if np.any(bad):
        i = np.flatnonzero(np.atleast_1d(bad))[0]
        value, err, nfev, status = (np.atleast_1d(x)[i] for x in
                                    (res.integral, res.error, res.nfev, res.status))
        raise QuadratureError(
            f"quadrature did not converge: value={value}, error estimate={err}, "
            f"nfev={nfev}, status={status}"
        )
    return res.integral


def _cot_radius(theta, scale):
    """r = scale cot(theta) and the Jacobian |dr/dtheta| = scale (1 + cot^2(theta))."""
    t = 1.0 / np.tan(theta)
    return scale * t, scale * (1.0 + t * t)


def _weighted(fx, jac):
    # f * jacobian, 0 where f vanishes in the far tail however large jac is.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(fx == 0.0, 0.0, fx * jac)


def _check_scale(scale: float) -> None:
    if not scale > 0.0:
        raise ValueError("scale must be positive")


def line_integral(f: Callable[[np.ndarray], np.ndarray], center: float = 0.0,
                  scale: float = 1.0, epsabs: float = 1e-12, epsrel: float = 1e-12) -> float:
    """Integral of the array integrand f over the real line, folded about center."""
    _check_scale(scale)

    def g(theta):
        d, jac = _cot_radius(theta.ravel(), scale)
        fx = np.asarray(f(np.concatenate([center + d, center - d])), dtype=float)
        return _weighted(fx[: d.size] + fx[d.size:], jac).reshape(theta.shape)

    return float(_tanhsinh(g, 0.5 * math.pi, epsabs, epsrel))


def radial_integral(f_radial: Callable[[np.ndarray], np.ndarray], scale: float = 1.0,
                    epsabs: float = 1e-12, epsrel: float = 1e-12) -> float:
    """Integral over the plane of an isotropic f(r): 2 pi int r f(r) dr, r = scale cot(theta)."""
    _check_scale(scale)

    def g(theta):
        r, jac = _cot_radius(theta, scale)
        fx = np.asarray(f_radial(r.ravel()), dtype=float).reshape(theta.shape)
        return _weighted(fx, 2.0 * math.pi * r * jac)

    return float(_tanhsinh(g, 0.5 * math.pi, epsabs, epsrel))


def plane_integral(f: Callable[[np.ndarray], np.ndarray],
                   center: Sequence[float] = (0.0, 0.0), scale: float = 1.0,
                   epsabs: float = 1e-10, epsrel: float = 1e-10) -> float:
    """Integral of the array integrand f over the plane: polar angle, cot-substituted radius."""
    _check_scale(scale)
    cx, cy = float(center[0]), float(center[1])

    def radial(theta, c, s):
        r, jac = _cot_radius(theta, scale)
        pts = np.column_stack([(cx + r * c).ravel(), (cy + r * s).ravel()])
        fx = np.asarray(f(pts), dtype=float).reshape(theta.shape)
        return _weighted(fx, r * jac)

    def rings(phi):
        flat = phi.ravel()
        out = np.empty(flat.size)
        for start in range(0, flat.size, _RING_BLOCK):
            block = slice(start, start + _RING_BLOCK)
            out[block] = _tanhsinh(
                radial, 0.5 * math.pi, 0.1 * epsabs, 0.1 * epsrel,
                args=(np.cos(flat[block]), np.sin(flat[block])),
            )
        return out.reshape(phi.shape)

    return float(_tanhsinh(rings, 2.0 * math.pi, epsabs, epsrel))


def _pointwise(f):
    """Array integrand calling the scalar f once per point.

    Points reach f as numpy float64 values, so arithmetic in f that leaves
    the float range near the substitution's endpoint gives inf or nan (which
    the rule discards) instead of raising OverflowError as Python floats do.
    """
    return lambda y: np.fromiter(map(f, y), dtype=float, count=len(y))


def integrate_real_line(
    f: Callable[[float], float],
    center: float = 0.0,
    scale: float = 1.0,
    epsabs: float = 1e-12,
    epsrel: float = 1e-12,
) -> float:
    """Integral of the scalar callable f over the real line (``line_integral``)."""
    return line_integral(_pointwise(f), center, scale, epsabs, epsrel)


def integrate_plane(
    f: Callable[[Sequence[float]], float],
    center: Sequence[float] = (0.0, 0.0),
    scale: float = 1.0,
    epsabs: float = 1e-10,
    epsrel: float = 1e-10,
) -> float:
    """Integral over the plane of the scalar callable f((y1, y2)) (``plane_integral``)."""
    return plane_integral(_pointwise(lambda y: f((y[0], y[1]))), center, scale, epsabs, epsrel)


def integrate_plane_radial(
    f_radial: Callable[[float], float],
    scale: float = 1.0,
    epsabs: float = 1e-12,
    epsrel: float = 1e-12,
) -> float:
    """Integral over the plane of the scalar isotropic callable f(r) (``radial_integral``)."""
    return radial_integral(_pointwise(f_radial), scale, epsabs, epsrel)
