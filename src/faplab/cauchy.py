"""Univariate and multivariate Cauchy distributions.

Densities, closed-form differential entropies (in nats), exact samplers,
and the closure rules this package relies on: independent sums of central
isotropic Cauchy variables stay Cauchy with added scales, and linear
combinations of a Cauchy vector's components are univariate Cauchy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .quadrature import line_integral
from .special import digamma, log_beta, log_gamma

__all__ = [
    "UnivariateCauchy",
    "MultivariateCauchy",
    "Degenerate",
    "CauchyParams",
    "isotropic_cauchy",
    "pdf_univariate",
    "cdf_univariate",
    "pdf_multivariate",
    "entropy_univariate",
    "entropy_multivariate",
    "phi_constant",
    "sample_univariate",
    "sample_multivariate",
    "independent_sum",
    "linear_combination",
    "normalization_univariate",
]


@dataclass(frozen=True)
class UnivariateCauchy:
    """Cauchy(location, scale) on the real line; scale must be positive."""

    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.scale > 0.0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if not math.isfinite(self.location):
            raise ValueError("location must be finite")


@dataclass(frozen=True)
class MultivariateCauchy:
    """p-variate Cauchy with location vector and symmetric positive-definite scale matrix."""

    location: np.ndarray
    scale_matrix: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        loc = np.atleast_1d(np.asarray(self.location, dtype=float))
        sig = np.atleast_2d(np.asarray(self.scale_matrix, dtype=float))
        if loc.ndim != 1 or sig.shape != (loc.size, loc.size):
            raise ValueError(
                f"scale matrix shape {sig.shape} does not match location length {loc.size}"
            )
        if not np.allclose(sig, sig.T, rtol=1e-12, atol=1e-12):
            raise ValueError("scale matrix must be symmetric")
        try:
            chol = np.linalg.cholesky(sig)
        except np.linalg.LinAlgError as exc:
            raise ValueError("scale matrix must be positive definite") from exc
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "scale_matrix", sig)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.location.size

    @cached_property
    def log_norm(self) -> float:
        """ln of the density's constant Gamma((1+p)/2) / (Gamma(1/2) pi^{p/2} |Sigma|^{1/2})."""
        p = self.dim
        log_det = 2.0 * np.sum(np.log(np.diag(self._chol)))
        return (
            log_gamma(0.5 * (1 + p))
            - log_gamma(0.5)
            - 0.5 * p * math.log(math.pi)
            - 0.5 * log_det
        )

    def isotropic_scale(self) -> float:
        """The common scale gamma when the scale matrix is diag(gamma^2, ...), else raise."""
        g2 = self.scale_matrix[0, 0]
        if not np.allclose(self.scale_matrix, g2 * np.eye(self.dim), rtol=1e-12, atol=0.0):
            raise ValueError("scale matrix is not isotropic diagonal")
        return math.sqrt(g2)


@dataclass(frozen=True)
class Degenerate:
    """Point mass: the zero-dispersion limit, kept distinct from scale -> 0."""

    location: Union[float, np.ndarray] = 0.0

    @property
    def dim(self) -> int:
        loc = np.atleast_1d(np.asarray(self.location, dtype=float))
        return loc.size


CauchyParams = Union[UnivariateCauchy, MultivariateCauchy, Degenerate]


def isotropic_cauchy(
    p: int, scale: float, location=None
) -> Union[UnivariateCauchy, MultivariateCauchy]:
    """The isotropic p-variate Cauchy law of the given scale, centered at location (default 0).

    UnivariateCauchy(location, scale) for p = 1 and
    MultivariateCauchy(location, scale^2 I_p) for p >= 2.
    """
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    if not scale > 0.0:
        raise ValueError(f"scale must be > 0, got {scale}")
    loc = np.zeros(p) if location is None else np.atleast_1d(np.asarray(location, dtype=float))
    if p == 1:
        return UnivariateCauchy(float(loc[0]), scale)
    s2 = float(scale) * float(scale)
    if not 0.0 < s2 < math.inf:
        raise ValueError(
            f"scale {scale} is out of range: its square {'overflows' if s2 else 'underflows'}"
        )
    return MultivariateCauchy(loc, s2 * np.eye(p))


def pdf_univariate(d: UnivariateCauchy, x):
    """Density (1/(pi gamma)) / (1 + ((x - x0)/gamma)^2); vectorized in x."""
    x = np.asarray(x, dtype=float)
    u = (x - d.location) / d.scale
    return 1.0 / (math.pi * d.scale * (1.0 + u * u))


def cdf_univariate(d: UnivariateCauchy, x):
    """Distribution function 1/2 + arctan((x - x0)/gamma)/pi; vectorized in x."""
    x = np.asarray(x, dtype=float)
    return 0.5 + np.arctan((x - d.location) / d.scale) / math.pi


def pdf_multivariate(d: MultivariateCauchy, x):
    """p-variate Cauchy density; x is a length-p vector or an (n, p) array."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    p = d.dim
    if pts.shape[1] != p:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {p}")
    delta = pts - d.location
    # Quadratic form through the Cholesky factor: q = ||L^-1 (x - mu)||^2, by
    # forward substitution over all points at once, so that a point's value
    # does not depend on how many points are evaluated with it.
    w = np.empty_like(delta)
    for i in range(p):
        w[:, i] = (delta[:, i] - w[:, :i] @ d._chol[i, :i]) / d._chol[i, i]
    q = np.sum(w * w, axis=1)
    out = np.exp(d.log_norm - 0.5 * (1 + p) * np.log1p(q))
    return float(out[0]) if squeeze else out


def entropy_univariate(d: UnivariateCauchy) -> float:
    """Differential entropy ln(4 pi gamma) in nats; independent of location."""
    return math.log(4.0 * math.pi) + math.log(d.scale)


def phi_constant(p: int) -> float:
    """Dimension-only part of the p-variate Cauchy entropy.

    phi(p) = ln[pi^{p/2} / Gamma(p/2) * B(p/2, 1/2)]
             + (1+p)/2 * [psi((1+p)/2) - psi(1/2)].
    """
    if p < 1:
        raise ValueError("dimension must be >= 1")
    half_p = 0.5 * p
    t = 0.5 * (1 + p)
    return (
        half_p * math.log(math.pi)
        - log_gamma(half_p)
        + log_beta(half_p, 0.5)
        + t * (digamma(t) - digamma(0.5))
    )


def entropy_multivariate(d: MultivariateCauchy) -> float:
    """Differential entropy (1/2) ln|Sigma| + phi(p) in nats."""
    log_det = 2.0 * float(np.sum(np.log(np.diag(d._chol))))
    return 0.5 * log_det + phi_constant(d.dim)


def sample_univariate(d: UnivariateCauchy, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws via the inverse CDF x0 + gamma tan(pi (U - 1/2))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    u -= 0.5
    u *= math.pi
    np.tan(u, out=u)
    u *= d.scale
    u += d.location
    return u


def sample_multivariate(d: MultivariateCauchy, n: int, seed: int) -> np.ndarray:
    """n draws via mu + L (G / |Z|) with L L^T = Sigma, G Gaussian, Z independent Gaussian."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, d.dim))
    z = rng.standard_normal(n)
    g /= np.abs(z, out=z)[:, None]
    # The sum goes to a fresh array, not into the product.  Summed in place,
    # a 1e6-draw output changed where glibc's heap put the large arrays made
    # after it, and the KD-tree entropy that follows in perfbench's
    # capacity_samples faulted in ~6,000 fresh pages on every round.
    return d.location + g @ d._chol.T


def _as_central_isotropic(d: CauchyParams):
    """(location, scale) of a summand; a point mass has scale 0."""
    if isinstance(d, Degenerate):
        return np.atleast_1d(np.asarray(d.location, dtype=float)), 0.0
    if isinstance(d, UnivariateCauchy):
        return np.atleast_1d(d.location), d.scale
    if isinstance(d, MultivariateCauchy):
        if d.dim != 2:
            raise ValueError("multivariate sums are supported for dimension 2 only")
        return d.location, d.isotropic_scale()
    raise TypeError(f"unsupported distribution type: {type(d).__name__}")


def independent_sum(a: CauchyParams, b: CauchyParams) -> CauchyParams:
    """Law of U + V for independent Cauchy summands: scales add, locations add.

    Supported pairs: two univariate, two isotropic bivariate, or either with
    a point mass.  Anisotropic or mixed-dimension inputs are rejected.
    """
    loc_a, s_a = _as_central_isotropic(a)
    loc_b, s_b = _as_central_isotropic(b)
    if loc_a.size != loc_b.size:
        raise ValueError("summands have different dimensions")
    loc = loc_a + loc_b
    if isinstance(a, Degenerate) and isinstance(b, Degenerate):
        return Degenerate(float(loc[0]) if loc.size == 1 else loc)
    return isotropic_cauchy(loc.size, s_a + s_b, loc)


def linear_combination(d: MultivariateCauchy, v) -> UnivariateCauchy:
    """Law of v . X for a Cauchy vector X: Cauchy(v . mu, sqrt(v^T Sigma v)).

    The scale is the square root of the quadratic form so that it matches
    the univariate scale convention (picking v = e_i recovers the marginal
    Cauchy(mu_i, sqrt(Sigma_ii))).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (d.dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({d.dim},)")
    if np.all(v == 0.0):
        raise ValueError("zero vector gives a degenerate combination")
    loc = float(v @ d.location)
    scale = math.sqrt(float(v @ d.scale_matrix @ v))
    return UnivariateCauchy(loc, scale)


def normalization_univariate(d: UnivariateCauchy) -> float:
    """Quadrature of the univariate density over the line (sanity hook)."""
    return line_integral(lambda y: pdf_univariate(d, y), center=d.location, scale=d.scale)
