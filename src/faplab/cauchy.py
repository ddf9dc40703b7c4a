"""Univariate and multivariate Cauchy distributions.

Each law class carries its density, closed-form differential entropy (in
nats), exact sampler and JSON form as the methods ``pdf``, ``entropy``,
``sample`` and ``to_dict``; ``pdf_univariate``, ``sample_multivariate`` and
the like are those methods under module-level names.  A law with a density
also states, by ``quadrature_frame``, the center, scale and beta-prime shape
that ``faplab.capacity`` integrates it by, and the 1-D law its log-moment
and slope in closed form, by ``log_moment_and_slope``.  The module also
holds the closure rules this package relies on: independent sums of
isotropic Cauchy variables of any dimension stay Cauchy with added scales,
each summand stating its scale by ``isotropic_scale`` (0 for a point mass),
and linear combinations of a Cauchy vector's components are univariate Cauchy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Union

import numpy as np

from .special import log_gamma, log_gamma_ratio, w2

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
]


@dataclass(frozen=True)
class UnivariateCauchy:
    """Cauchy(location, scale) on the real line; scale must be positive."""

    location: float = 0.0
    scale: float = 1.0
    dim = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be > 0 and finite, got {self.scale}")
        if not math.isfinite(self.location):
            raise ValueError("location must be finite")

    def pdf(self, x):
        """Density (1/(pi gamma)) / (1 + ((x - x0)/gamma)^2); vectorized in x."""
        x = np.asarray(x, dtype=float)
        u = (x - self.location) / self.scale
        return 1.0 / (math.pi * self.scale * (1.0 + u * u))

    def entropy(self) -> float:
        """Differential entropy ln(4 pi gamma) in nats; independent of location."""
        return math.log(4.0 * math.pi) + math.log(self.scale)

    def log_moment_and_slope(self, k: float) -> tuple[float, float]:
        """(L, D) at k > 0: L = E ln(1 + q) = ln(((gamma + k)^2 + x0^2) / k^2), D = E[q / (1 + q)].

        q = (Y/k)^2; D = 1 - (1 + u) / ((1 + u)^2 + v^2) for u = gamma/k, v = x0/k.
        """
        u, v = self.scale / k, self.location / k
        if max(u, abs(v)) > 1e150:
            # The squares overflow past about 1e154 (and u itself for
            # subnormal k); D is within 1e-150 of 1 here.
            return 2.0 * (math.log(math.hypot(self.scale + k, self.location)) - math.log(k)), 1.0
        D = (u * (u + 1.0) + v * v) / ((u + 1.0) ** 2 + v * v)
        return math.log1p(u * (u + 2.0) + v * v), D

    def isotropic_scale(self) -> float:
        """The scale gamma, which ``independent_sum`` adds."""
        return self.scale

    def quadrature_frame(self):
        """(center, scale, shape) of the quadrature route: (location, scale, None)."""
        return self.location, self.scale, None

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws via the inverse CDF x0 + gamma tan(pi (U - 1/2))."""
        if n < 0:
            raise ValueError("n must be >= 0")
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        u -= 0.5
        u *= math.pi
        np.tan(u, out=u)
        u *= self.scale
        u += self.location
        return u

    def to_dict(self) -> dict:
        return {"family": "cauchy", "location": self.location, "scale": self.scale}


class _ByValue:
    """Equality and hashing by the values of the compared fields, numpy arrays among them."""

    def _key(self) -> tuple:
        return tuple(tuple(np.ravel(getattr(self, f.name)).tolist())
                     for f in fields(self) if f.compare)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class MultivariateCauchy(_ByValue):
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
        if not np.isfinite(loc).all():
            raise ValueError("location must be finite")
        if not np.isfinite(sig).all():
            raise ValueError("scale matrix must be finite")
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

    def _isotropy(self) -> tuple[float, bool]:
        """(s2, isotropic): the largest diagonal entry, and allclose(M, s2 I, rtol=1e-12, atol=0).

        Spelled out: off-diagonals exactly 0, diagonals within 1e-12 s2.
        """
        rows = self.scale_matrix.tolist()
        s2 = max(rows[i][i] for i in range(len(rows)))
        return s2, all(abs(v - s2) <= 1e-12 * s2 if i == j else v == 0.0
                       for i, row in enumerate(rows) for j, v in enumerate(row))

    def isotropic_scale(self) -> float:
        """The common scale gamma when the scale matrix is diag(gamma^2, ...), else raise."""
        s2, isotropic = self._isotropy()
        if not isotropic:
            raise ValueError("scale matrix is not isotropic diagonal")
        return math.sqrt(s2)

    def quadrature_frame(self):
        """(center, scale, shape) of the quadrature route; scale = sqrt(largest diagonal entry).

        A central isotropic law has density (1 + ||y/scale||^2)^(-(p + 1)/2) / Z
        on R^p, so its shape is (p/2, 1/2, ln_z) with ln_z() = ln Z, read only
        when asked (the Cauchy constant loads scipy.special); None otherwise.
        """
        s2, isotropic = self._isotropy()
        central = isotropic and not self.location.any()
        return self.location, math.sqrt(s2), (
            (0.5 * self.dim, 0.5, lambda: -self.log_norm) if central else None)

    def pdf(self, x):
        """p-variate Cauchy density; x is a length-p vector or an (n, p) array."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        pts = np.atleast_2d(x)
        p = self.dim
        if pts.shape[1] != p:
            raise ValueError(f"points have dimension {pts.shape[1]}, expected {p}")
        delta = pts - self.location
        # Quadratic form through the Cholesky factor: q = ||L^-1 (x - mu)||^2, by
        # forward substitution over all points at once, so that a point's value
        # does not depend on how many points are evaluated with it.
        w = np.empty_like(delta)
        for i in range(p):
            w[:, i] = (delta[:, i] - w[:, :i] @ self._chol[i, :i]) / self._chol[i, i]
        q = np.sum(w * w, axis=1)
        out = np.exp(self.log_norm - 0.5 * (1 + p) * np.log1p(q))
        return float(out[0]) if squeeze else out

    def entropy(self) -> float:
        """Differential entropy (1/2) ln|Sigma| + phi(p) in nats."""
        log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        return 0.5 * log_det + phi_constant(self.dim)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n draws via mu + L (G / |Z|) with L L^T = Sigma, G Gaussian, Z independent Gaussian."""
        if n < 0:
            raise ValueError("n must be >= 0")
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, self.dim))
        z = rng.standard_normal(n)
        g /= np.abs(z, out=z)[:, None]
        # The sum goes to a fresh array, not into the product.  Summed in place,
        # a 1e6-draw output changed where glibc's heap put the large arrays made
        # after it, and the KD-tree entropy that follows in perfbench's
        # capacity_samples faulted in ~6,000 fresh pages on every round.
        return self.location + g @ self._chol.T

    def to_dict(self) -> dict:
        return {
            "family": "bivariate_cauchy",
            "location": [float(c) for c in self.location],
            "scale_matrix": [[float(v) for v in row] for row in self.scale_matrix],
        }


@dataclass(frozen=True, eq=False)
class Degenerate(_ByValue):
    """Point mass: the zero-dispersion limit, kept distinct from scale -> 0."""

    location: Union[float, np.ndarray] = 0.0

    @property
    def dim(self) -> int:
        return np.size(self.location)

    def isotropic_scale(self) -> float:
        """0.0: a point mass adds its location and no scale to a sum."""
        return 0.0

    def __array__(self, dtype=None, copy=None):
        """The point as one sample: shape (1,) on the line, (1, p) otherwise."""
        loc = np.asarray(self.location, dtype=dtype or float)
        return loc.reshape(1, -1) if loc.size > 1 else loc.reshape(1)

    def to_dict(self) -> dict:
        return {"family": "point_mass", "location": np.ravel(self).tolist()}


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


def cdf_univariate(d: UnivariateCauchy, x):
    """Distribution function 1/2 + arctan((x - x0)/gamma)/pi; vectorized in x."""
    x = np.asarray(x, dtype=float)
    return 0.5 + np.arctan((x - d.location) / d.scale) / math.pi


def phi_constant(p: int) -> float:
    """Dimension-only part of the p-variate Cauchy entropy.

    The entropy of the unit max-entropy profile at the Cauchy exponent
    t = (1+p)/2: phi(p) = (p/2) ln pi + ln[Gamma(1/2) / Gamma(t)] + t w2(t, p/2).
    """
    if p < 1:
        raise ValueError("dimension must be >= 1")
    t = 0.5 * (1 + p)
    return 0.5 * p * math.log(math.pi) + log_gamma_ratio(t, 0.5 * p) + t * w2(t, 0.5 * p)


pdf_univariate = UnivariateCauchy.pdf
entropy_univariate = UnivariateCauchy.entropy
sample_univariate = UnivariateCauchy.sample
pdf_multivariate = MultivariateCauchy.pdf
entropy_multivariate = MultivariateCauchy.entropy
sample_multivariate = MultivariateCauchy.sample


def independent_sum(a: CauchyParams, b: CauchyParams) -> CauchyParams:
    """Law of U + V for independent Cauchy summands: scales add, locations add.

    Each summand states its scale by ``isotropic_scale()`` (0.0 for a point
    mass), so isotropic laws and point masses of any matching dimension sum;
    an anisotropic summand raises there, and mixed dimensions are rejected.
    """
    loc_a, loc_b = (np.atleast_1d(np.asarray(d.location, dtype=float)) for d in (a, b))
    if loc_a.size != loc_b.size:
        raise ValueError("summands have different dimensions")
    loc = loc_a + loc_b
    scale = a.isotropic_scale() + b.isotropic_scale()
    if scale == 0.0:
        return Degenerate(float(loc[0]) if loc.size == 1 else loc)
    return isotropic_cauchy(loc.size, scale, loc)


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

