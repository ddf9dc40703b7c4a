"""Dispersion functionals, entropy estimators, and closed-form capacities.

The signal-power notion used throughout is the logarithmic dispersion: the
unique k > 0 at which E ln(1 + ||Y/k||^2) equals the dimension constant
w2((1+p)/2, p/2) (2 ln 2 on the line, 2 in the plane).  Feasible output
signals are those whose dispersion lies between the channel's noise scale
and a prescribed ceiling A; under that constraint the arrival-position
channel capacities have closed forms, verified here by constrained
maximum-entropy solving and sample-based entropy estimation.

Closed forms are the production path: the Cauchy log-moments and the
max-entropy constraint value w2(mu, p/2) are elementary or digamma
functions, so dispersions and max-entropy exponents are root-solves over
them: dispersions by ``brentq`` on a bracket, exponents by Newton's method
climbing monotonically to the root (see ``maxent_profile``).  At p = 2 (the
3D channel's planar output) the exponent and the profile's normalizer are
elementary, so the p = 2 max-entropy profile loads no scipy; at p = 1 it loads
``scipy.special`` only, and the routes below load more.  What has no
closed form (the log-moment of a max-entropy profile at a foreign scale,
quadrature entropies, the normalization of a custom density) goes through
one quadrature route, ``_law``, which also serves as the independent
cross-check of the closed forms.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .cauchy import (
    Degenerate,
    MultivariateCauchy,
    UnivariateCauchy,
    entropy_multivariate,
    entropy_univariate,
    independent_sum,
    isotropic_cauchy,
    pdf_multivariate,
    pdf_univariate,
)
from .fap import ChannelGeometry, zero_drift_reduction
from .quadrature import line_integral, plane_integral, radial_integral
from .special import EULER_GAMMA, digamma, log_gamma, scipy_special, trigamma, w2

__all__ = [
    "InfeasibleError",
    "DispersionLevel",
    "ConstraintSpec",
    "EntropyEstimate",
    "GaussianSpec",
    "CapacityResult",
    "CustomDensity",
    "MaxentProfile",
    "log_moment",
    "dispersion_of",
    "feasibility",
    "entropy_estimate",
    "mutual_information",
    "capacity_closed_form",
    "maxent_profile",
    "capacity_table",
    "write_capacity_table_csv",
    "write_capacity_table_json",
    "write_curve_files",
]


class InfeasibleError(ValueError):
    """Requested dispersion level sits below the channel noise floor."""


@dataclass(frozen=True)
class DispersionLevel:
    """Largest allowed output dispersion."""

    A: float

    def __post_init__(self) -> None:
        if not self.A > 0.0:
            raise ValueError(f"dispersion level must be > 0, got {self.A}")


def constraint_constant(p: int) -> float:
    """Dimension constant w2((1+p)/2, p/2): 2 ln 2 at p = 1, 2 at p = 2."""
    return w2(0.5 * (1 + p), 0.5 * p)


@dataclass(frozen=True)
class ConstraintSpec:
    """Signal dimension and the log-moment value defining unit dispersion."""

    p: int
    target: Optional[float] = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("signal dimension must be >= 1")
        if self.target is None:
            object.__setattr__(self, "target", constraint_constant(self.p))

    @property
    def c(self) -> float:
        return float(self.target)


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    method: str
    std_error: float = 0.0

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")


@dataclass(frozen=True)
class GaussianSpec:
    """Zero-mean Gaussian described by its variance (the baseline channel family)."""

    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError("variance must be >= 0")


@dataclass(frozen=True)
class CustomDensity:
    """A user-supplied normalized pdf with the hints quadrature needs.

    pdf is called on arrays: a 1-D array of points when dim is 1, an (n, 2)
    array of points when dim is 2, returning one density value per point.
    """

    pdf: Callable
    dim: int
    center: float = 0.0
    scale: float = 1.0


@dataclass(frozen=True)
class MaxentProfile:
    """Constrained max-entropy solution f(y) proportional to (1+||y/k||^2)^(-mu)."""

    p: int
    k: float
    mu: float
    target: float

    @cached_property
    def log_norm(self) -> float:
        """ln of the normalizing constant: pi^{p/2} k^p Gamma(mu - p/2) / Gamma(mu).

        At p = 2 the gamma ratio is 1 / (mu - 1), with no scipy.
        """
        head = 0.5 * self.p * math.log(math.pi) + self.p * math.log(self.k)
        if self.p == 2:
            return head - math.log(self.mu - 1.0)
        return head + log_gamma(self.mu - 0.5 * self.p) - log_gamma(self.mu)

    def pdf(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.p == 1:
            q = (y / self.k) ** 2
        else:
            pts = np.atleast_2d(y)
            q = np.sum((pts / self.k) ** 2, axis=1)
        return np.exp(-self.mu * np.log1p(q) - self.log_norm)

    def entropy_closed_form(self) -> float:
        """ln Z + mu (psi(mu) - psi(mu - p/2)); cross-checked by quadrature in tests."""
        return self.log_norm + self.mu * w2(self.mu, 0.5 * self.p)

    def grid(self, num: int = 257, span: float = 40.0):
        """Tan-spaced abscissas and normalized density values.

        Dimension 1 returns (y, f(y)) over a symmetric grid; dimension 2
        returns (r, f(r)) for the radial profile.
        """
        line = self.p == 1
        theta = np.linspace(-math.atan(span) if line else 0.0, math.atan(span), num)
        y = self.k * np.tan(theta)
        return y, self.pdf(y if line else np.column_stack([y, np.zeros((num, self.p - 1))]))


def _law(obj):
    """(dim, scale, radial, integrate) for a law with a density; None otherwise.

    This is the one quadrature route for laws.  integrate(h, extra=0.0) is
    the integral over R^dim of h(f(y), ||y||) for the law's density f, with
    h evaluated elementwise on arrays of density values and norms, under
    the cotangent substitution around the law's center: on the line in
    dimension 1, radially for a law isotropic about the origin in the plane
    (radial is True), and over the full plane otherwise.  An integrand with
    structure at a second length as well (k in a log-moment) passes it as
    extra; the substitution then uses the sum of the two lengths.
    """
    if isinstance(obj, UnivariateCauchy):
        dim, center, scale, radial = 1, obj.location, obj.scale, False
        pdf = lambda y: pdf_univariate(obj, y)
    elif isinstance(obj, MultivariateCauchy):
        dim, center, pdf = obj.dim, obj.location, lambda y: pdf_multivariate(obj, y)
        s2 = float(np.max(np.diag(obj.scale_matrix)))
        scale = math.sqrt(s2)
        radial = (
            dim == 2
            and not np.any(obj.location)
            and np.allclose(obj.scale_matrix, s2 * np.eye(dim), rtol=1e-12, atol=0.0)
        )
    elif isinstance(obj, MaxentProfile):
        dim, center, scale, radial, pdf = obj.p, 0.0, obj.k, obj.p == 2, obj.pdf
    elif isinstance(obj, CustomDensity):
        dim, center, scale, radial, pdf = obj.dim, obj.center, obj.scale, False, obj.pdf
    else:
        return None
    c = np.broadcast_to(np.asarray(center, dtype=float), (dim,))

    def integrate(h: Callable[[np.ndarray, np.ndarray], np.ndarray], extra: float = 0.0) -> float:
        s = scale + extra
        if dim == 1:
            return line_integral(lambda y: h(pdf(y), np.abs(y)), center=float(c[0]), scale=s)
        if dim != 2:
            raise ValueError("quadrature supports dimensions 1 and 2")
        if radial:
            return radial_integral(
                lambda r: h(pdf(np.column_stack([r, np.zeros_like(r)])), r), scale=s
            )
        return plane_integral(
            lambda y: h(pdf(y), np.hypot(y[:, 0], y[:, 1])), center=tuple(c), scale=s
        )

    return dim, scale, radial, integrate


def _bivariate_cauchy_log_moment(gamma: float, k: float) -> float:
    """E ln(1 + ||Y/k||^2) for the central isotropic bivariate Cauchy law of scale gamma.

    (2 gamma / a) atan(a / gamma) with a = sqrt(k^2 - gamma^2) above gamma,
    (2 gamma / b) artanh(b / gamma) with b = sqrt(gamma^2 - k^2) below it, and
    2 at k = gamma.  Factored differences and artanh(b / gamma) written as
    log1p((gamma - k + b) / k) avoid cancellation near k = gamma and k << gamma.
    """
    if k > gamma:
        a = math.sqrt((k - gamma) * (k + gamma))
        return 2.0 * gamma / a * math.atan(a / gamma)
    if k < gamma:
        b = math.sqrt((gamma - k) * (gamma + k))
        return 2.0 * gamma / b * math.log1p((gamma - k + b) / k)
    return 2.0


def _sample_norms(y: np.ndarray, p: Optional[int]) -> np.ndarray:
    """|y| for scalar samples, row norms for vector samples, of dimension p if given."""
    dim = 1 if y.ndim == 1 else y.shape[1]
    if p is not None and dim != p:
        raise ValueError(f"input has dimension {dim}, expected {p}")
    if y.ndim == 1:
        return np.abs(y)
    # Squares of coordinates above about 1.3e154 overflow; hypot does not.
    with np.errstate(over="ignore"):
        mags = np.linalg.norm(y, axis=1)
    over = np.isinf(mags)
    if over.any():
        mags[over] = np.hypot.reduce(y[over], axis=1)
    return mags


def _sample_log_moment(mags: np.ndarray, k: float) -> float:
    """Mean of ln(1 + (|y|/k)^2) over sample norms."""
    return float(np.mean(np.log1p((mags / k) ** 2)))


def log_moment(dist_or_samples, k: float, p: Optional[int] = None) -> float:
    """E ln(1 + ||Y/k||^2).

    Closed forms for a univariate Cauchy law, ln(((gamma + k)^2 + x0^2) / k^2),
    and for a central isotropic bivariate Cauchy law; the quadrature route of
    ``_law`` for every other law with a density; the mean over samples, a
    point mass counting as one sample.
    """
    if not k > 0.0:
        raise ValueError(f"k must be > 0, got {k}")
    obj = dist_or_samples
    law = _law(obj)
    if law is None:
        y = (
            np.atleast_2d(obj.location)
            if isinstance(obj, Degenerate)
            else np.asarray(obj, dtype=float)
        )
        return _sample_log_moment(_sample_norms(y, p), k)
    dim, gamma, radial, integrate = law
    if p is not None and dim != p:
        raise ValueError(f"input has dimension {dim}, expected {p}")
    if isinstance(obj, UnivariateCauchy):
        u, v = gamma / k, obj.location / k
        return math.log1p(u * (u + 2.0) + v * v)
    if isinstance(obj, MultivariateCauchy) and radial:
        return _bivariate_cauchy_log_moment(gamma, k)
    return integrate(lambda f, r: f * np.log1p((r / k) ** 2), k)


def dispersion_of(dist_or_samples, spec: ConstraintSpec) -> float:
    """The unique k with log_moment(Y, k) = c(p); 0 for a point mass at the origin.

    Bisection-style root finding on a bracket that starts at [s/10, 10 s]
    around a robust scale s (heavy tails make moment-based initial guesses
    useless): the law's own scale, or the median sample norm.  Each end
    moves out tenfold until the log-moment changes sign across it.
    """
    obj = dist_or_samples
    if isinstance(obj, Degenerate):
        loc = np.atleast_1d(np.asarray(obj.location, dtype=float))
        if np.any(loc != 0.0):
            raise ValueError("dispersion of an off-origin point mass is undefined")
        return 0.0
    c = spec.c
    law = _law(obj)
    if law is None:
        y = np.asarray(obj, dtype=float)
        if not np.isfinite(y).all():
            raise ValueError("dispersion of samples needs finite values (got NaN or inf)")
        mags = _sample_norms(y, spec.p)
        s = float(np.median(mags)) or 1.0
        g = lambda k: _sample_log_moment(mags, k) - c
    else:
        s = law[1]
        g = lambda k: log_moment(obj, k, p=spec.p) - c
    from scipy.optimize import brentq

    lo, hi = 0.1 * s, 10.0 * s
    for _ in range(60):
        if g(lo) > 0.0:
            break
        lo *= 0.1
    else:
        raise RuntimeError("failed to bracket the dispersion root from below")
    for _ in range(60):
        if g(hi) < 0.0:
            break
        hi *= 10.0
    else:
        raise RuntimeError("failed to bracket the dispersion root from above")
    return float(brentq(g, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=300))


def feasibility(
    dist_or_samples,
    A: Union[DispersionLevel, float],
    g: ChannelGeometry,
    spec: ConstraintSpec,
    rel_tol: float = 1e-9,
) -> bool:
    """Whether the signal's dispersion lies in [noise scale, A]."""
    level = A.A if isinstance(A, DispersionLevel) else float(A)
    if level < g.lam:
        raise InfeasibleError(
            f"dispersion level {level} below noise floor {g.lam}"
        )
    d = dispersion_of(dist_or_samples, spec)
    slack = rel_tol * max(level, g.lam)
    return g.lam - slack <= d <= level + slack


_KNN_QUERY_BLOCK = 65_536


def _nearest_neighbor_distances(x: np.ndarray) -> np.ndarray:
    """Distance from each row of x to its nearest other row, by a KD-tree.

    Queries in the tree's leaf order walk the nodes the previous query left
    in cache; blocks bound the copies of points and results.  The distances
    do not depend on the order of the queries.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(x, compact_nodes=False)
    order, eps = tree.indices, np.empty(len(x))
    for start in range(0, len(x), _KNN_QUERY_BLOCK):
        block = order[start:start + _KNN_QUERY_BLOCK]
        eps[block] = tree.query(x[block], k=[2])[0][:, 0]
    return eps


def _knn_entropy(samples: np.ndarray) -> EntropyEstimate:
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n < 1000:
        raise ValueError("nearest-neighbor entropy needs at least 1000 samples")
    if not np.isfinite(x).all():
        raise ValueError("nearest-neighbor entropy needs finite samples (got NaN or inf)")
    if d == 1:
        xs = np.sort(x[:, 0])
        gaps = np.diff(xs)
        eps = np.empty(n)
        eps[0] = gaps[0]
        eps[-1] = gaps[-1]
        eps[1:-1] = np.minimum(gaps[:-1], gaps[1:])
    else:
        eps = _nearest_neighbor_distances(x)
    mask = eps > 0.0
    dropped = int(n - mask.sum())
    if dropped:
        warnings.warn(
            f"dropped {dropped} duplicate points in the nearest-neighbor estimator",
            RuntimeWarning,
            stacklevel=3,
        )
    ln_eps = np.log(eps[mask])
    m = ln_eps.size
    log_unit_ball = 0.5 * d * math.log(math.pi) - log_gamma(0.5 * d + 1.0)
    value = digamma(m) + EULER_GAMMA + log_unit_ball + d * float(np.mean(ln_eps))
    stderr = d * float(np.std(ln_eps, ddof=1)) / math.sqrt(m)
    return EntropyEstimate(value, "knn", stderr)


def _histogram_transformed_entropy(samples: np.ndarray) -> EntropyEstimate:
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1:
        raise ValueError("the transformed-histogram estimator is univariate")
    n = y.size
    if n < 1000:
        raise ValueError("the transformed-histogram estimator needs at least 1000 samples")
    s = float(np.median(np.abs(y)))
    if s <= 0.0:
        raise ValueError("degenerate sample: zero robust scale")
    u = np.arctan(y / s)
    nbins = max(64, int(math.sqrt(n)))
    counts, _ = np.histogram(u, bins=nbins, range=(-0.5 * math.pi, 0.5 * math.pi))
    width = math.pi / nbins
    probs = counts[counts > 0] / n
    h_u = -float(np.sum(probs * np.log(probs / width)))
    jac = np.log(s * (1.0 + (y / s) ** 2))  # ln |dy/dU|
    value = h_u + float(np.mean(jac))
    stderr = float(np.std(jac, ddof=1)) / math.sqrt(n)
    return EntropyEstimate(value, "histogram_transformed", stderr)


def _quadrature_entropy(dist) -> EntropyEstimate:
    law = _law(dist)
    if law is None:
        raise TypeError(f"quadrature entropy cannot handle {type(dist).__name__}")
    integrate = law[3]
    if isinstance(dist, CustomDensity):
        mass = integrate(lambda f, r: f)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"density is not normalized: integral = {mass}")
    value = integrate(lambda f, r: scipy_special().entr(f))
    return EntropyEstimate(value, "quadrature")


def entropy_estimate(dist_or_samples, method: str = "quadrature") -> EntropyEstimate:
    """Differential entropy in nats by the requested route.

    quadrature              closed-form pdf integrated with the package-standard
                            tan/radial substitutions (std_error 0);
    knn                     first-nearest-neighbor estimator on samples, tail-robust;
    histogram_transformed   histogram of arctan(y/s) plus the exact Jacobian
                            correction, univariate samples only.
    """
    if method == "quadrature":
        return _quadrature_entropy(dist_or_samples)
    samples = np.asarray(dist_or_samples, dtype=float)
    if method == "knn":
        return _knn_entropy(samples)
    if method == "histogram_transformed":
        return _histogram_transformed_entropy(samples)
    raise ValueError(f"unknown entropy method: {method}")


def _closed_form_entropy(dist) -> float:
    if isinstance(dist, UnivariateCauchy):
        return entropy_univariate(dist)
    if isinstance(dist, MultivariateCauchy):
        return entropy_multivariate(dist)
    raise TypeError(f"no closed-form entropy for {type(dist).__name__}")


def mutual_information(input_dist, g: ChannelGeometry) -> float:
    """I(X;Y) = h(Y) - h(N) for the zero-drift additive channel of geometry g.

    The output law comes from the Cauchy sum closure, so the input must be a
    central univariate Cauchy (2D), a central isotropic bivariate Cauchy
    (3D), or a point mass at the origin.
    """
    noise = zero_drift_reduction(g)
    if isinstance(input_dist, Degenerate):
        loc = np.atleast_1d(np.asarray(input_dist.location, dtype=float))
        if np.any(loc != 0.0):
            raise ValueError("point-mass input must sit at the origin")
        return 0.0
    out = independent_sum(input_dist, noise)
    return _closed_form_entropy(out) - _closed_form_entropy(noise)


@dataclass(frozen=True)
class CapacityResult:
    """Closed-form capacity with the distributions achieving it."""

    channel: str                       # fap2d | fap3d | gaussian
    dispersion_level: float            # A
    floor: float                       # lam for FAP channels, sigma for Gaussian
    capacity: float                    # nats
    achieving_output: object
    achieving_input: object
    note: str = ""

    def to_dict(self) -> dict:
        floor_key = "sigma" if self.channel == "gaussian" else "lam"
        return {
            "channel": self.channel,
            "A": self.dispersion_level,
            floor_key: self.floor,
            "capacity": self.capacity,
            "achieving_output": _spec_dict(self.achieving_output),
            "achieving_input": _spec_dict(self.achieving_input),
            "note": self.note,
        }


def _spec_dict(dist) -> dict:
    if isinstance(dist, UnivariateCauchy):
        return {"family": "cauchy", "location": dist.location, "scale": dist.scale}
    if isinstance(dist, MultivariateCauchy):
        return {
            "family": "bivariate_cauchy",
            "location": [float(c) for c in dist.location],
            "scale_matrix": [[float(v) for v in row] for row in dist.scale_matrix],
        }
    if isinstance(dist, Degenerate):
        loc = np.atleast_1d(np.asarray(dist.location, dtype=float))
        return {"family": "point_mass", "location": [float(c) for c in loc]}
    if isinstance(dist, GaussianSpec):
        return {"family": "gaussian", "variance": dist.variance}
    raise TypeError(f"cannot serialize {type(dist).__name__}")


def _log_ratio(a: float, b: float) -> float:
    """ln(a / b), as ln a - ln b where the quotient overflows."""
    q = a / b
    return math.log(q) if math.isfinite(q) else math.log(a) - math.log(b)


def capacity_closed_form(channel: str, A: float, floor: float) -> CapacityResult:
    """Closed-form capacity at dispersion level A over noise floor.

    fap2d:    ln(A/lam), output Cauchy(0, A), input Cauchy(0, A - lam);
    fap3d:    2 ln(A/lam), output isotropic bivariate Cauchy with scale A
              (input scale A - lam obtained by the sum closure, not an
              independently stated result);
    gaussian: ln(A/sigma) with A^2 = sigma^2 + P, output variance A^2.

    The FAP channels differ only in the number p of transverse coordinates:
    capacity p ln(A/lam), output and input isotropic p-variate Cauchy laws.
    """
    if channel not in ("fap2d", "fap3d", "gaussian"):
        raise ValueError(f"unknown channel: {channel}")
    if not floor > 0.0:
        raise ValueError("noise floor must be > 0")
    if A < floor:
        raise InfeasibleError(
            f"dispersion level A={A} below the noise floor {floor}"
        )
    if channel == "gaussian":
        var = A * A
        if not 0.0 < var < math.inf:
            raise ValueError(
                f"scale {A} is out of range: its square {'overflows' if var else 'underflows'}"
            )
        out = GaussianSpec(var)
        inp = GaussianSpec(var - floor * floor)
        return CapacityResult(channel, A, floor, _log_ratio(A, floor), out, inp)
    p = 1 if channel == "fap2d" else 2
    out = isotropic_cauchy(p, A)
    inp = isotropic_cauchy(p, A - floor) if A > floor else Degenerate(out.location)
    note = (
        "achieving input scale derived from the output via the isotropic Cauchy sum closure"
        if p > 1
        else ""
    )
    return CapacityResult(channel, A, floor, p * _log_ratio(A, floor), out, inp, note)


_NEWTON_MAX_STEPS = 50


def maxent_profile(spec: ConstraintSpec, k: float) -> MaxentProfile:
    """Entropy maximizer under E ln(1 + ||y/k||^2) = c over densities on R^p.

    A single logarithmic constraint forces the exponential-family shape
    f(y) proportional to (1 + ||y/k||^2)^(-mu), whose constraint value is
    w2(mu, a) = psi(mu) - psi(mu - a), a = p/2, at every k.  The exponent
    solves g(mu) = w2(mu, a) - c = 0 by Newton's method, with
    g'(mu) = psi'(mu) - psi'(mu - a).  g is decreasing and convex on
    (a, inf) because psi'' is negative and increasing, and psi is concave,
    so w2(mu, a) >= min(a, 1) / (mu - a).  Newton started at
    mu0 = a + min(a, 1) / c therefore begins left of the root and climbs to
    it without overshooting, each step shrinking |g|.  It stops at the
    first step that does not raise mu or does not shrink |g|: in floating
    point, w2 is flat across steps below its rounding unit.  A target so
    large that mu0 rounds to a, or so small that w2 cancels in rounding,
    is rejected.

    At p = 2, w2(mu, 1) = 1 / (mu - 1), so mu0 = 1 + 1/c is the root itself
    and no step is taken; only a target whose 1/c overflows is too small.
    """
    if not k > 0.0:
        raise ValueError(f"k must be > 0, got {k}")
    c = spec.c
    if not c > 0.0:
        raise ValueError(
            f"constraint value {c} is outside the attainable range (0, inf)"
        )
    p = spec.p
    if p not in (1, 2):
        raise ValueError("profiles are implemented for dimensions 1 and 2")
    a = 0.5 * p
    mu = a + min(a, 1.0) / c
    if not mu > a:
        raise ValueError(f"constraint value {c} is too large: the exponent rounds to p/2 = {a}")
    if p == 2:
        if mu == math.inf:
            raise ValueError(f"constraint value {c} is too small: the exponent 1 + 1/c overflows")
        return MaxentProfile(p=p, k=float(k), mu=mu, target=c)
    g = w2(mu, a) - c
    for _ in range(_NEWTON_MAX_STEPS):
        slope = trigamma(mu - a) - trigamma(mu)  # -g'(mu) > 0
        nxt = mu + g / slope if slope > 0.0 else mu
        if not nxt > mu:
            break
        g_nxt = w2(nxt, a) - c
        if not abs(g_nxt) < abs(g):
            break
        mu, g = nxt, g_nxt
    else:
        raise RuntimeError("Newton's method did not converge on the profile exponent")
    if not abs(g) < c:
        raise ValueError(f"constraint value {c} is too small: w2 cancels near mu = {mu:.6g}")
    # Rounding in w2 can leave g at its smallest size over neighbouring
    # floats, and the climb stops at the lowest of them; the upper neighbour
    # is taken when it fits no worse (mu = 1 exactly at p = 1 and c = 2 ln 2).
    up = math.nextafter(mu, math.inf)
    if abs(w2(up, a) - c) <= abs(g):
        mu = up
    return MaxentProfile(p=p, k=float(k), mu=mu, target=c)


def capacity_table(A_values: Sequence[float], lam: float, sigma: float):
    """Rows (A, C_gaussian, C_2d, C_3d); NaN marks an infeasible entry."""
    rows = []
    for a in A_values:
        a = float(a)
        c2 = _log_ratio(a, lam) if a >= lam else math.nan
        c3 = 2.0 * c2
        cg = _log_ratio(a, sigma) if a >= sigma else math.nan
        rows.append({"A": a, "C_gauss": cg, "C_2d": c2, "C_3d": c3})
    return rows


def write_capacity_table_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["A", "C_gauss", "C_2d", "C_3d"])
        for r in rows:
            writer.writerow(
                [repr(r["A"]), repr(r["C_gauss"]), repr(r["C_2d"]), repr(r["C_3d"])]
            )


def write_capacity_table_json(rows, path) -> None:
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_curve_files(rows, out_dir) -> list:
    """Two-column gnuplot-ready files, one per capacity curve."""
    import os

    paths = []
    for key, name in (
        ("C_gauss", "curve_gaussian.dat"),
        ("C_2d", "curve_fap2d.dat"),
        ("C_3d", "curve_fap3d.dat"),
    ):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write("# A  capacity_nats\n")
            for r in rows:
                if not math.isnan(r[key]):
                    fh.write(f"{r['A']!r} {r[key]!r}\n")
        paths.append(path)
    return paths
