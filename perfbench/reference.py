"""Reference laws and statistics computed apart from faplab (numpy/scipy only).

Everything the checks compare faplab against comes from here or from a
property of the method; nothing is a stored copy of an earlier output.

Conventions match faplab's: the transmitter is at height ``lam`` above the
absorbing receiver plane, ``sigma2`` is the microscopic diffusion
coefficient, and the last drift component points away from the receiver.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

# Kolmogorov tail: P(sqrt(n) D > 3.0) is about 3e-8, so a correct program
# fails a KS check about once in thirty million.
KS_CRIT = 3.0
# Two-sided normal tail of 5.5 standard errors: about 4e-8.
Z_CRIT = 5.5


# ---------------------------------------------------------------------------
# Cauchy laws


def cauchy_cdf(y, scale, loc=0.0):
    return 0.5 + np.arctan((np.asarray(y, dtype=float) - loc) / scale) / math.pi


def cauchy_pdf(y, scale, loc=0.0):
    u = (np.asarray(y, dtype=float) - loc) / scale
    return 1.0 / (math.pi * scale * (1.0 + u * u))


def bivariate_cauchy_pdf(y1, y2, scale, loc=(0.0, 0.0)):
    r2 = (np.asarray(y1, dtype=float) - loc[0]) ** 2 + (np.asarray(y2, dtype=float) - loc[1]) ** 2
    return scale / (2.0 * math.pi * (scale * scale + r2) ** 1.5)


def bivariate_cauchy_radial_cdf(r, scale):
    """P(|Y| <= r) for the isotropic bivariate Cauchy law of the given scale."""
    r = np.asarray(r, dtype=float)
    return 1.0 - scale / np.sqrt(scale * scale + r * r)


def cauchy_entropy(scale: float, p: int) -> float:
    """ln(4 pi g) on the line; 2 ln g + ln(2 pi) + 3 in the plane."""
    if p == 1:
        return math.log(4.0 * math.pi * scale)
    return 2.0 * math.log(scale) + math.log(2.0 * math.pi) + 3.0


def dispersion_constant(p: int) -> float:
    """The log-moment value that defines unit dispersion: 2 ln 2, or 2."""
    return 2.0 * math.log(2.0) if p == 1 else 2.0


# ---------------------------------------------------------------------------
# zero-drift first passage conditioned on the horizon
#
# The hitting time is T = lam^2 / (sigma2 Z^2) and the transverse offset is
# lam G / |Z| with G, Z independent standard normals, so T <= H exactly when
# |Z| >= z0 = lam / sqrt(sigma2 H).  The part of the law with |Z| < z0 is an
# integral over a short z interval, done by Gauss-Legendre on geometrically
# shrinking panels toward z = 0 so that the sharp integrands of far-out
# offsets are resolved.

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _small_z_nodes(z0: float, panels: int = 40):
    edges = z0 * 2.0 ** -np.arange(panels, -1, -1.0)
    edges[0] = 0.0
    a, b = edges[:-1, None], edges[1:, None]
    z = (0.5 * (b - a) * _GL_X + 0.5 * (a + b)).ravel()
    w = (0.5 * (b - a) * _GL_W).ravel()
    return z, w * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def censored_fraction_zero_drift(lam: float, sigma2: float, horizon: float) -> float:
    """P(T > H) = P(|Z| < lam / sqrt(sigma2 H))."""
    z0 = lam / math.sqrt(sigma2 * horizon)
    return math.erf(z0 / math.sqrt(2.0))


def zero_drift_hit_cdf_2d(y, lam: float, sigma2: float, horizon: float):
    """CDF of the 2D arrival offset given arrival within the horizon."""
    y = np.asarray(y, dtype=float)
    z0 = lam / math.sqrt(sigma2 * horizon)
    z, w = _small_z_nodes(z0)
    early = 2.0 * (special.ndtr(np.multiply.outer(y, z) / lam) @ w)
    pc = censored_fraction_zero_drift(lam, sigma2, horizon)
    return (cauchy_cdf(y, lam) - early) / (1.0 - pc)


def zero_drift_hit_radial_cdf_3d(r, lam: float, sigma2: float, horizon: float):
    """CDF of the 3D arrival radius given arrival within the horizon."""
    r = np.asarray(r, dtype=float)
    z0 = lam / math.sqrt(sigma2 * horizon)
    z, w = _small_z_nodes(z0)
    early = 2.0 * (-np.expm1(-0.5 * (np.multiply.outer(r, z) / lam) ** 2) @ w)
    pc = censored_fraction_zero_drift(lam, sigma2, horizon)
    return (bivariate_cauchy_radial_cdf(r, lam) - early) / (1.0 - pc)


# ---------------------------------------------------------------------------
# drifted arrival densities


def fap_density_2d(y, lam: float, sigma2: float, v, x0: float = 0.0):
    """(lam |v| / (pi sigma2 rho)) K1(|v| rho / sigma2) exp((v1 (y - x0) - v2 lam) / sigma2)."""
    y = np.asarray(y, dtype=float)
    v1, v2 = float(v[0]), float(v[1])
    speed = math.hypot(v1, v2)
    rho = np.sqrt((y - x0) ** 2 + lam * lam)
    xi = speed * rho / sigma2
    # k1e(xi) = e^xi K1(xi); the exponent below is never positive.
    expo = (v1 * (y - x0) - v2 * lam - speed * rho) / sigma2
    return lam * speed / (math.pi * sigma2 * rho) * special.k1e(xi) * np.exp(expo)


def fap_density_3d(y1, y2, lam: float, sigma2: float, v, x0=(0.0, 0.0)):
    """(lam / 2 pi) (1 + |v| d / sigma2) / d^3 exp((v_t . (y - x0) - v3 lam - |v| d) / sigma2)."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    v1, v2, v3 = (float(c) for c in v)
    speed = math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    dx, dy = y1 - x0[0], y2 - x0[1]
    d = np.sqrt(dx * dx + dy * dy + lam * lam)
    expo = (v1 * dx + v2 * dy - v3 * lam - speed * d) / sigma2
    return lam / (2.0 * math.pi) * (1.0 + speed * d / sigma2) / d**3 * np.exp(expo)


def arrival_probability(lam: float, sigma2: float, v_traversal: float) -> float:
    """min(1, exp(-2 v lam / sigma2)): certain for drift toward the receiver."""
    return min(1.0, math.exp(-2.0 * v_traversal * lam / sigma2))


def arrival_probability_by(lam: float, sigma2: float, v_traversal: float, horizon: float) -> float:
    """P(arrival at time <= H).

    Given arrival, the hitting time is inverse Gaussian with mean lam / |v|
    and shape lam^2 / sigma2, whichever way the drift points.
    """
    mean = lam / abs(v_traversal)
    shape = lam * lam / sigma2
    p_by = stats.invgauss.cdf(horizon, mean / shape, scale=shape)
    return arrival_probability(lam, sigma2, v_traversal) * float(p_by)


def _tan_cdf(density, center: float, scale: float, half: bool, n: int):
    """Cumulative trapezoid of density on a tan-substituted grid.

    Returns (abscissas, cumulative mass); the last mass is the total.
    """
    lo = 0.0 if half else -0.5 * math.pi
    theta = np.linspace(lo, 0.5 * math.pi, n)[(0 if half else 1):-1]
    t = np.tan(theta)
    x = center + scale * t
    g = density(x) * scale * (1.0 + t * t)
    mass = np.concatenate([[0.0], integrate.cumulative_trapezoid(g, theta)])
    return x, mass


def drifted_hit_cdf_2d(lam: float, sigma2: float, v, x0: float = 0.0, n: int = 40001):
    """(cdf, total mass) of the drifted 2D arrival offset, conditioned on arrival."""
    v1, v2 = float(v[0]), float(v[1])
    # centre the grid on the typical transverse displacement v1 lam / |v2|
    shift = v1 * lam / abs(v2) if v2 != 0.0 else 0.0
    ys, mass = _tan_cdf(lambda y: fap_density_2d(y, lam, sigma2, v, x0),
                        x0 + shift, lam, False, n)
    total = float(mass[-1])
    return (lambda y: np.interp(y, ys, mass / total, left=0.0, right=1.0)), total


def drifted_hit_radial_cdf_3d(lam: float, sigma2: float, v_traversal: float, n: int = 40001):
    """(cdf, total mass) of the 3D arrival radius for purely traversal drift."""
    v = (0.0, 0.0, v_traversal)
    rs, mass = _tan_cdf(
        lambda r: 2.0 * math.pi * r * fap_density_3d(r, 0.0, lam, sigma2, v), 0.0, lam, True, n
    )
    total = float(mass[-1])
    return (lambda r: np.interp(r, rs, mass / total, left=0.0, right=1.0)), total


# ---------------------------------------------------------------------------
# the max-entropy profile family f(y) ~ (1 + |y/k|^2)^(-mu)


def profile_log_norm(p: int, k: float, mu: float) -> float:
    return (0.5 * p * math.log(math.pi) + p * math.log(k)
            + special.gammaln(mu - 0.5 * p) - special.gammaln(mu))


def profile_entropy(p: int, k: float, mu: float) -> float:
    """ln Z + mu (psi(mu) - psi(mu - p/2))."""
    return profile_log_norm(p, k, mu) + mu * (special.psi(mu) - special.psi(mu - 0.5 * p))


def profile_log_moment(p: int, k: float, mu: float, d: float) -> float:
    """E ln(1 + |Y/d|^2) under the profile, by scipy quadrature over r = k tan(t)."""
    log_z = profile_log_norm(p, k, mu)
    surface = 2.0 if p == 1 else 2.0 * math.pi  # 'area' of the unit sphere in R^p

    def g(t):
        u = math.tan(t)
        r = k * u
        f = math.exp(-mu * math.log1p(u * u) - log_z)
        return surface * r ** (p - 1) * f * math.log1p((r / d) ** 2) * k * (1.0 + u * u)

    value, _ = integrate.quad(g, 0.0, 0.5 * math.pi, epsabs=1e-13, epsrel=1e-12, limit=400)
    return value


# ---------------------------------------------------------------------------
# statistics


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance to a vectorized CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = cdf(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_two_sample(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    fa = np.searchsorted(a, both, side="right") / a.size
    fb = np.searchsorted(b, both, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_bound(n: int, bias: float = 0.0) -> float:
    return KS_CRIT / math.sqrt(n) + bias


def ks_two_sample_bound(n: int, m: int) -> float:
    return KS_CRIT * math.sqrt((n + m) / (n * m))


def euler_ks_bias(lam: float, sigma2: float, dt: float) -> float:
    """KS allowance for the Euler walk's discretisation.

    Discrete monitoring acts like a barrier 0.5826 sqrt(sigma2 dt) further
    away (Siegmund's correction), which moves a Cauchy CDF by at most
    0.093 sqrt(sigma2 dt) / lam; the allowance is six times that.
    """
    return 0.6 * math.sqrt(sigma2 * dt) / lam
