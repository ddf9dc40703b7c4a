"""Dispersion functionals, entropy estimators, and closed-form capacities.

The signal-power notion used throughout is the logarithmic dispersion: the
unique k > 0 at which E ln(1 + ||Y/k||^2) equals the dimension constant
w2((1+p)/2, p/2) (2 ln 2 on the line, 2 in the plane).  Feasible output
signals are those whose dispersion lies between the channel's noise scale
and a prescribed ceiling A; under that constraint the arrival-position
channel capacities have closed forms, verified here by constrained
maximum-entropy solving and sample-based entropy estimation.

Closed forms are the production path: the 1-D Cauchy log-moment and the
max-entropy constraint value w2(mu, p/2) are elementary or digamma
functions, so dispersions and max-entropy exponents are root-solves over
them, both by Newton's method on a decreasing convex function, whose
iterates climb to the root from its left without overshooting: dispersions
in ln k, with the log-moment and its slope from one evaluation per step (see
``dispersion_of``), exponents in mu (see ``maxent_profile``).  Max-entropy
profiles and the central isotropic bivariate Cauchy law take theirs, and
their quadrature entropies, from one beta-prime trapezoid rule (see
``_beta_prime_rule``).  At p = 2 the exponent and the profile's normalizer
are elementary, so the p = 2 max-entropy profile loads no scipy; at p = 1
it loads ``scipy.special`` only.  The rest (off-centre and anisotropic
laws, the 1-D Cauchy law's entropy, custom densities) goes through one
tanh-sinh quadrature route, ``_law``, which also serves as the independent
cross-check of the closed forms and the rule.
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
from .special import EULER_GAMMA, digamma, log_gamma, log_gamma_ratio, scipy_special, trigamma, w2

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
        return head + log_gamma_ratio(self.mu, 0.5 * self.p)

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
    """(dim, scale, radial, integrate, shape) for a law with a density; None otherwise.

    This is the one quadrature route for laws.  integrate(h, extra=0.0) is
    the integral over R^dim of h(f(y), ||y||) for the law's density f, with
    h evaluated elementwise on arrays of density values and norms, under
    the cotangent substitution around the law's center: on the line in
    dimension 1, radially for a law isotropic about the origin in the plane
    (radial is True), and over the full plane otherwise.  An integrand with
    structure at a second length as well (k in a log-moment) passes it as
    extra; the substitution then uses scale + min(extra, scale), as a
    larger one squeezes the law's core.  With rows = m, h returns m rows of
    values and integrate returns the m integrals from one quadrature call.

    shape is (a, b, ln_z) for a profile or central isotropic bivariate Cauchy
    law, density (1 + ||y/scale||^2)^(-(a + b)) / Z on R^(2a), with ln_z()
    giving ln Z; then ||Y/scale||^2 ~ beta-prime(a, b).  None otherwise.
    """
    if isinstance(obj, UnivariateCauchy):
        dim, center, scale, radial, shape = 1, obj.location, obj.scale, False, None
        pdf = lambda y: pdf_univariate(obj, y)
    elif isinstance(obj, MultivariateCauchy):
        dim, center, pdf = obj.dim, obj.location, lambda y: pdf_multivariate(obj, y)
        rows = obj.scale_matrix.tolist()
        s2 = max(rows[i][i] for i in range(dim))
        scale = math.sqrt(s2)
        # allclose(scale_matrix, s2 I, rtol=1e-12, atol=0), spelled out:
        # off-diagonals exactly 0, diagonals within 1e-12 s2.
        radial = (
            dim == 2
            and not obj.location.any()
            and all(abs(v - s2) <= 1e-12 * s2 if i == j else v == 0.0
                    for i, row in enumerate(rows) for j, v in enumerate(row))
        )
        # ln Z is read only when asked: the Cauchy constant loads scipy.special.
        shape = (1.0, 0.5, lambda: -obj.log_norm) if radial else None
    elif isinstance(obj, MaxentProfile):
        dim, center, scale, radial, pdf = obj.p, 0.0, obj.k, obj.p == 2, obj.pdf
        shape = 0.5 * obj.p, obj.mu - 0.5 * obj.p, lambda: obj.log_norm
    elif isinstance(obj, CustomDensity):
        dim, center, scale, radial, pdf = obj.dim, obj.center, obj.scale, False, obj.pdf
        shape = None
    else:
        return None

    def integrate(h: Callable[[np.ndarray, np.ndarray], np.ndarray], extra: float = 0.0,
                  rows: Optional[int] = None):
        s = scale + min(extra, scale)
        c = np.broadcast_to(np.asarray(center, dtype=float), (dim,))
        if dim == 1:
            return line_integral(lambda y: h(pdf(y), np.abs(y)), center=float(c[0]), scale=s,
                                 rows=rows)
        if dim != 2:
            raise ValueError("quadrature supports dimensions 1 and 2")
        if radial:
            return radial_integral(
                lambda r: h(pdf(np.column_stack([r, np.zeros_like(r)])), r), scale=s, rows=rows
            )
        return plane_integral(
            lambda y: h(pdf(y), np.hypot(y[:, 0], y[:, 1])), center=tuple(c), scale=s, rows=rows
        )

    return dim, scale, radial, integrate, shape


def _sample_norms(y: np.ndarray, p: Optional[int]):
    """(norms of y / unit, unit): |y| or row norms, of dimension p if given.

    unit is 1, or the power of 2 that brings finite rows' norms back into the
    float range; halving is exact, so L(y, k) = L(y / unit, k / unit).
    """
    dim = 1 if y.ndim == 1 else y.shape[1]
    if p is not None and dim != p:
        raise ValueError(f"input has dimension {dim}, expected {p}")
    if y.ndim == 1:
        return np.abs(y), 1.0
    # Squares of coordinates above about 1.3e154 overflow; hypot does not.
    with np.errstate(over="ignore"):
        mags = np.linalg.norm(y, axis=1)
        over = np.isinf(mags)
        if over.any():
            mags[over] = np.hypot.reduce(y[over], axis=1)
            if np.isinf(mags[over]).any() and np.isfinite(y).all():
                mags, unit = _sample_norms(0.5 * y, p)
                return mags, 2.0 * unit
    return mags, 1.0


def _norms_or_law(obj, p: Optional[int]):
    """(obj, _law(obj), 1) for a law with a density; (norms, None, unit) otherwise.

    The sample norms and their unit are those of ``_sample_norms``; a point
    mass counts as one sample.  The dimension is checked against p if given.
    """
    law = _law(obj)
    if law is None:
        y = (np.atleast_2d(obj.location) if isinstance(obj, Degenerate)
             else np.asarray(obj, dtype=float))
        norms, unit = _sample_norms(y, p)
        return norms, None, unit
    if p is not None and law[0] != p:
        raise ValueError(f"input has dimension {law[0]}, expected {p}")
    return obj, law, 1.0


def _ratio(q: np.ndarray) -> np.ndarray:
    """q / (1 + q) to full relative precision; 1 at q = inf, and 0 where 1/q overflows."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / (1.0 + 1.0 / q)


_RULE_STEP = 0.2


def _beta_prime_rule(a: float, b: float, ln_s: float):
    """(t, w, tail, t_tail): the trapezoid rule in t = ln Q for Q ~ beta-prime(a, b).

    Nodes t of step h = 0.2 carry w = e^(a t) / (1 + e^t)^(a + b), the density
    of t times B(a, b); h w are the rule's weights.  It converges
    geometrically: the integrands are analytic in |Im t| < pi/2.  Nodes run
    down from T = 40 + max(ln(a + b), -ln s) until e^(a t) is below e^-40 of
    the mass.  Past T, w is e^(-b t) to rounding and ln(1 + s e^t) is
    t + ln s, so the nodes T + j h, j >= 0, sum as geometric series to the
    weight tail with mean node t_tail.
    """
    h = _RULE_STEP
    top = 40.0 + max(math.log(a + b), -ln_s)
    t = top - h * np.arange(1, math.ceil((top + max(math.log(b), 0.0) + 40.0 / a) / h) + 1)
    # The three terms of the log-weight share a sign, so none cancels.
    w = np.exp(a * np.minimum(t, 0.0) - b * np.maximum(t, 0.0)
               - (a + b) * np.log1p(np.exp(-np.abs(t))))
    r, gap = math.exp(-b * h), -math.expm1(-b * h)
    return t, w, math.exp(-b * top) / gap, top + h * r / gap


def _beta_prime_moments(a: float, b: float, ln_s: float):
    """(E ln(1 + sQ), E[sQ / (1 + sQ)]) for Q ~ beta-prime(a, b).

    w2(a + b, a) and a / (a + b) at s = 1; elsewhere ``_beta_prime_rule``, weights
    normalised by their sum.
    """
    if ln_s == 0.0:
        return w2(a + b, a), a / (a + b)
    t, w, tail, t_tail = _beta_prime_rule(a, b, ln_s)
    x = t + ln_s
    with np.errstate(over="ignore"):
        ratio = _ratio(np.exp(x))
    mass = w.sum() + tail
    L = (w @ np.logaddexp(0.0, x) + tail * (t_tail + ln_s)) / mass
    return float(L), float((w @ ratio + tail) / mass)


def _beta_prime_entropy(a: float, b: float, k0: float, ln_z: float):
    """(h, M), entropy and mass of f(y) = (1 + ||y/k0||^2)^(-(a + b)) / Z on R^(2a).

    ``_beta_prime_rule`` at s = 1, in t = ln ||y/k0||^2: f(y) dy is
    e^c0 w(t) dt, c0 = a ln pi - ln Gamma(a) + 2a ln k0 - ln Z, and
    -ln f = ln Z + (a + b) ln(1 + e^t).  ln Z is the law's own normaliser, so
    M = 1 checks it; the rule does not assume it.
    """
    t, w, tail, t_tail = _beta_prime_rule(a, b, 0.0)
    # Formed as a profile's ln Z forms them: the scale terms cancel to ln Z's own rounding.
    unit = _RULE_STEP * math.exp((a * math.log(math.pi) + 2.0 * a * math.log(k0) - ln_z)
                                 - math.lgamma(a))
    mass = unit * (w.sum() + tail)
    return ln_z * mass + (a + b) * unit * (w @ np.logaddexp(0.0, t) + tail * t_tail), mass


def _log_moment_and_slope(obj, law, k: float):
    """(L, D) at k: L = E ln(1 + q) and its slope D = E[q / (1 + q)] = -(1/2) dL/d ln k.

    q = ||Y/k||^2, for (obj, law) from ``_norms_or_law``, by the routes of
    ``log_moment``; on the quadrature route L and D are the two rows of one
    call.
    """
    if law is None:
        with np.errstate(over="ignore"):
            q = (obj / k) ** 2
        L = float(np.mean(np.log1p(q)))
        if L == math.inf:
            # Norms past 1e154 k: ln(1 + q) is 2 ln(|y|/k) to the last bit.
            terms, big = np.log1p(q), np.isinf(q)
            terms[big] = 2.0 * (np.log(obj[big]) - math.log(k))
            L = float(np.mean(terms))
        return L, float(np.mean(_ratio(q)))
    _, scale, _, integrate, shape = law
    if isinstance(obj, UnivariateCauchy):
        u, v = scale / k, obj.location / k
        D = (u * (u + 1.0) + v * v) / ((u + 1.0) ** 2 + v * v)
        return math.log1p(u * (u + 2.0) + v * v), D
    if shape is not None:
        # ln s = 2 ln(k0/k) stays finite where s underflows.
        return _beta_prime_moments(shape[0], shape[1], 2.0 * (math.log(scale) - math.log(k)))

    def rows(f, r):
        q = (r / k) ** 2
        return np.stack([f * np.log1p(q), f * _ratio(q)])

    L, D = integrate(rows, k, rows=2)
    return float(L), float(D)


def log_moment(dist_or_samples, k: float, p: Optional[int] = None) -> float:
    """E ln(1 + ||Y/k||^2).

    A closed form for a univariate Cauchy law, ln(((gamma + k)^2 + x0^2) / k^2);
    the beta-prime rule of ``_beta_prime_moments`` for a max-entropy profile
    and a central isotropic bivariate Cauchy law; the quadrature route of
    ``_law`` for every other law with a density; the mean over samples, a
    point mass counting as one sample.
    """
    if not k > 0.0:
        raise ValueError(f"k must be > 0, got {k}")
    obj, law, unit = _norms_or_law(dist_or_samples, p)
    return _log_moment_and_slope(obj, law, k / unit)[0]


_LN10 = math.log(10.0)
_SQRT_EPS = 2.0**-26
# A decade a step crosses the float range (632 decades) with steps to spare.
_DISPERSION_MAX_STEPS = 700


def dispersion_of(dist_or_samples, spec: ConstraintSpec) -> float:
    """The unique k with log_moment(Y, k) = c(p); 0 for a point mass at the origin.

    Newton's method in u = ln k on g(u) = L(e^u) - c, started at a robust
    scale s (heavy tails make moment-based initial guesses useless): the
    law's own scale, or the median sample norm.  g is decreasing and convex,
    as each ln(1 + q e^(-2u)) is, with g'(u) = -2 D for the slope D of
    ``_log_moment_and_slope``, which gives L and D from one evaluation; the
    step is u += (L - c) / (2 D).  From right of the root (g < 0) a step
    lands left of it, by convexity; from the left the iterates climb to the
    root without overshooting.  No step moves k by more than a decade.

    The solve returns the landing point of the first step shorter than
    sqrt(eps) = 2^-26 in u, without evaluating it.  A step delta lands within
    (g'' / 2|g'|) delta^2 of the root, and g'' / 2|g'| = E[q/(1+q)^2] / E[q/(1+q)]
    is at most 1 for every law, samples included, so the landing point is
    the root to rounding.  Where D vanishes, every sample sits at q = 0 and
    there is no root; a log-moment that is not finite, or a root outside the
    float range (a profile too near its pole), is an error.  Finite samples
    whose norms pass the float range are solved at half scale: the
    dispersion is homogeneous of degree 1.
    """
    obj = dist_or_samples
    if isinstance(obj, Degenerate):
        loc = np.atleast_1d(np.asarray(obj.location, dtype=float))
        if np.any(loc != 0.0):
            raise ValueError("dispersion of an off-origin point mass is undefined")
        return 0.0
    c = spec.c
    if not c > 0.0:
        raise ValueError(f"constraint value {c} is outside the attainable range (0, inf)")
    obj, law, unit = _norms_or_law(obj, spec.p)
    if law is not None:
        k = law[1]
    elif np.isfinite(obj).all():
        k = float(np.median(obj)) or 1.0
    else:
        raise ValueError("dispersion of samples needs finite norms (got NaN or inf)")
    for _ in range(_DISPERSION_MAX_STEPS):
        L, D = _log_moment_and_slope(obj, law, k)
        if not math.isfinite(L):
            raise RuntimeError(f"the log-moment is not finite at k = {k:.6g}")
        if not D > 0.0:
            raise RuntimeError("no dispersion root: the log-moment vanishes at every k")
        step = min(max((L - c) / (2.0 * D), -_LN10), _LN10)
        k *= math.exp(step)
        if not 0.0 < k < math.inf:
            raise RuntimeError("the dispersion root lies outside the float range")
        if abs(step) < _SQRT_EPS:
            return unit * k
    raise RuntimeError("Newton's method did not converge on the dispersion")


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
    _, scale, _, integrate, shape = law
    if shape is not None:
        a, b, ln_z = shape
        return EntropyEstimate(_beta_prime_entropy(a, b, scale, ln_z())[0], "quadrature")
    if isinstance(dist, CustomDensity):
        mass = integrate(lambda f, r: f)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"density is not normalized: integral = {mass}")
    value = integrate(lambda f, r: scipy_special().entr(f))
    return EntropyEstimate(value, "quadrature")


def entropy_estimate(dist_or_samples, method: str = "quadrature") -> EntropyEstimate:
    """Differential entropy in nats by the requested route.

    quadrature              -f ln f of a law's pdf integrated (std_error 0): by the
                            beta-prime rule for a profile or a central isotropic
                            bivariate Cauchy law, else tanh-sinh (see ``_law``);
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
    large that mu0 rounds to a, or so small (below about 1.1e-16) that
    mu - 1/2 rounds, is rejected.

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
    if mu - (mu - a) != a:
        # The normalizer's Gamma(mu - 1/2) needs an exponent offset that rounds away.
        raise ValueError(f"constraint value {c} is too small: mu - p/2 rounds near mu = {mu:.6g}")
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
