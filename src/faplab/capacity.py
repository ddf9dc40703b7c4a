"""Dispersion functionals, entropy estimators, and closed-form capacities.

The signal-power notion used throughout is the logarithmic dispersion: the
unique k > 0 at which E ln(1 + ||Y/k||^2) equals the dimension constant
w2((1+p)/2, p/2) (2 ln 2 on the line, 2 in the plane).  Feasible output
signals are those whose dispersion lies between the channel's noise scale
and a prescribed ceiling A; under that constraint the arrival-position
channel capacities have closed forms, verified here by constrained
maximum-entropy solving and sample-based entropy estimation.

Closed forms are the production path: the 1-D Cauchy log-moment (the law's
own ``log_moment_and_slope``) and the max-entropy constraint value
w2(mu, p/2) are elementary or digamma functions, so dispersions and
max-entropy exponents are root-solves over them, both by Newton's method on
a decreasing convex function, whose iterates climb to the root from its left
without overshooting: dispersions in ln k, with the log-moment and its slope
from one evaluation per step (see ``dispersion_of``), exponents in mu (see
``maxent_profile``).  Max-entropy profiles and central isotropic Cauchy laws
of any dimension take theirs, and their quadrature entropies, from one
beta-prime trapezoid rule (see ``_beta_prime_rule``).  At p = 2 the exponent
and the profile's normalizer are elementary, so the p = 2 max-entropy
profile loads no scipy; at p = 1 it loads ``scipy.special`` only.  The rest
(off-centre and anisotropic laws, the 1-D Cauchy law's entropy, custom
densities) goes through one tanh-sinh quadrature route, ``_law``, which
also serves as the independent cross-check of the closed forms and the
rule.  Each law with a density states its own frame for that route, and
its beta-prime shape if it has one, by its ``quadrature_frame`` method; no
code here reads a law's type.
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

from .cauchy import Degenerate, independent_sum, isotropic_cauchy
from .fap import ChannelGeometry, _rewrite, zero_drift_reduction
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
        if not 0.0 <= self.variance < math.inf:
            raise ValueError(f"variance must be >= 0 and finite, got {self.variance}")

    def to_dict(self) -> dict:
        return {"family": "gaussian", "variance": self.variance}


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

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        c = np.asarray(self.center, dtype=float)
        if c.ndim > 1 or c.size not in (1, self.dim) or not np.isfinite(c).all():
            raise ValueError(
                f"center must be finite, with 1 or {self.dim} coordinates, got {self.center}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be > 0 and finite, got {self.scale}")

    def quadrature_frame(self):
        """(center, scale, shape) of the quadrature route: (center, scale, None)."""
        return self.center, self.scale, None


# The ends of ``MaxentProfile.grid``: tan(theta) reaches +-40 scales there.
_GRID_EDGE = math.atan(40.0)


@dataclass(frozen=True)
class MaxentProfile:
    """Constrained max-entropy solution f(y) proportional to (1+||y/k||^2)^(-mu)."""

    p: int
    k: float
    mu: float
    target: float

    def __post_init__(self) -> None:
        if not (self.p >= 1 and float(self.p).is_integer()):
            raise ValueError(f"p must be a whole number >= 1, got {self.p}")
        object.__setattr__(self, "p", int(self.p))
        if not 0.0 < self.k < math.inf:
            raise ValueError(f"k must be > 0 and finite, got {self.k}")
        if not 0.5 * self.p < self.mu < math.inf:
            raise ValueError(f"mu must be > p/2 = {0.5 * self.p} and finite, got {self.mu}")
        if not math.isfinite(self.target):
            raise ValueError(f"target must be finite, got {self.target}")

    @property
    def dim(self) -> int:
        return self.p

    @cached_property
    def log_norm(self) -> float:
        """ln of the normalizing constant: pi^{p/2} k^p Gamma(mu - p/2) / Gamma(mu).

        At p = 2 the gamma ratio is 1 / (mu - 1), with no scipy.
        """
        head = 0.5 * self.p * math.log(math.pi) + self.p * math.log(self.k)
        return head + log_gamma_ratio(self.mu, 0.5 * self.p)

    def quadrature_frame(self):
        """(center, scale, shape) of the quadrature route: (0, k, (p/2, mu - p/2, ln Z))."""
        return 0.0, self.k, (0.5 * self.p, self.mu - 0.5 * self.p, lambda: self.log_norm)

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

    def grid(self, num: int = 257):
        """Tan-spaced abscissas and normalized density values.

        Dimension 1 returns (y, f(y)) over a symmetric grid; dimension 2
        returns (r, f(r)) for the radial profile.
        """
        line = self.p == 1
        theta = np.linspace(-_GRID_EDGE if line else 0.0, _GRID_EDGE, num)
        y = self.k * np.tan(theta)
        return y, self.pdf(y if line else np.column_stack([y, np.zeros((num, self.p - 1))]))


def _law(obj):
    """(scale, integrate, shape) for a law with a ``quadrature_frame``; None otherwise.

    This is the one quadrature route for laws: each law states its own frame
    (center, scale, shape), and this is the one place that decides how a law
    is integrated.  integrate(h, extra=0.0) is the integral over R^dim of
    h(f(y), ||y||) for the law's density f, with h evaluated elementwise on
    arrays of density values and norms, under the cotangent substitution
    around the law's center: on the line in dimension 1, radially for a law
    with a shape in the plane (isotropic about the origin), and over the full
    plane otherwise.  An integrand with structure at a second length as well
    (k in a log-moment) passes it as extra; the substitution then uses
    scale + min(extra, scale), as a larger one squeezes the law's core.

    shape is (a, b, ln_z) for a profile or central isotropic Cauchy law,
    density (1 + ||y/scale||^2)^(-(a + b)) / Z on R^(2a), with ln_z() giving
    ln Z; then ||Y/scale||^2 ~ beta-prime(a, b).  None otherwise.
    """
    frame = getattr(obj, "quadrature_frame", None)
    if frame is None:
        return None
    center, scale, shape = frame()
    dim, pdf = obj.dim, obj.pdf
    radial = dim == 2 and shape is not None

    def integrate(h: Callable[[np.ndarray, np.ndarray], np.ndarray], extra: float = 0.0) -> float:
        s = scale + min(extra, scale)
        c = np.broadcast_to(np.asarray(center, dtype=float), (dim,))
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

    return scale, integrate, shape


def _sample_norms(y: np.ndarray, p: Optional[int]):
    """(norms of y / unit, unit): |y| or row norms, of dimension p if given.

    unit is 1, or a power of 2 that brings finite rows' norms back into the
    float range; dividing by it is exact, so L(y, k) = L(y / unit, k / unit).
    A norm that is NaN or inf (a sample holding one) is an error.
    """
    dim = 1 if y.ndim == 1 else y.shape[1]
    if p is not None and dim != p:
        raise ValueError(f"input has dimension {dim}, expected {p}")
    unit = 1.0
    if y.ndim == 1:
        mags = np.abs(y)
    else:
        # Squares of coordinates above about 1.3e154 overflow, and those below
        # about 1e-154 lose digits as they go subnormal; hypot does neither.
        # In place, column by column: np.linalg.norm's bits below 8 columns, 4x faster at 2.
        with np.errstate(over="ignore"):
            mags = np.square(y[:, 0])
            for j in range(1, dim):
                mags += np.square(y[:, j])
            np.sqrt(mags, out=mags)
            off = np.isinf(mags) | (mags < 2.0 ** -500)
            if off.any():
                mags[off] = np.hypot.reduce(y[off], axis=1)
                if np.isinf(mags[off]).any():
                    # A finite row's norm is at most sqrt(dim) times its largest coordinate.
                    unit = 2.0 ** math.ceil(0.5 * math.log2(dim))
                    mags = np.hypot.reduce(y / unit, axis=1)
    if not np.isfinite(mags).all():
        raise ValueError("samples need finite norms (got NaN or inf)")
    return mags, unit


def _norms_or_law(obj, p: Optional[int]):
    """(obj, _law(obj), 1) for a law with a density; (norms, None, unit) otherwise.

    The sample norms and their unit are those of ``_sample_norms``; a point
    mass is the one sample that ``np.asarray`` makes of it.  The dimension is
    checked against p if given.
    """
    law = _law(obj)
    if law is None:
        norms, unit = _sample_norms(np.asarray(obj, dtype=float), p)
        return norms, None, unit
    if p is not None and obj.dim != p:
        raise ValueError(f"input has dimension {obj.dim}, expected {p}")
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
    -ln f = ln Z + (a + b) ln(1 + e^t), so h = ln Z + (a + b) E ln(1 + e^t),
    the mean taken with the weights normalised by their own sum: h does not
    carry the rounding of M, whose unit cancels terms of size |ln Z|.  ln Z
    is the law's own normaliser, so M = 1 checks it; the rule does not assume it.
    """
    t, w, tail, t_tail = _beta_prime_rule(a, b, 0.0)
    total = w.sum() + tail
    mean = (w @ np.logaddexp(0.0, t) + tail * t_tail) / total
    # Formed as a profile's ln Z forms them: the scale terms cancel to ln Z's own rounding.
    unit = _RULE_STEP * math.exp((a * math.log(math.pi) + 2.0 * a * math.log(k0) - ln_z)
                                 - math.lgamma(a))
    return ln_z + (a + b) * mean, unit * total


def _log_moment_and_slope(obj, law, k: float, slope: bool = True):
    """(L, D) at k: L = E ln(1 + q) and its slope D = E[q / (1 + q)] = -(1/2) dL/d ln k.

    q = ||Y/k||^2, for (obj, law) from ``_norms_or_law``, by the routes of
    ``log_moment``.  With slope False the quadrature route skips D's
    integral and returns D = nan.
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
    closed_form = getattr(obj, "log_moment_and_slope", None)
    if closed_form is not None:
        return closed_form(k)
    scale, integrate, shape = law
    if shape is not None:
        # ln s = 2 ln(k0/k) stays finite where s underflows.
        return _beta_prime_moments(shape[0], shape[1], 2.0 * (math.log(scale) - math.log(k)))
    L = integrate(lambda f, r: f * np.log1p((r / k) ** 2), k)
    return L, integrate(lambda f, r: f * _ratio((r / k) ** 2), k) if slope else math.nan


def log_moment(dist_or_samples, k: float, p: Optional[int] = None) -> float:
    """E ln(1 + ||Y/k||^2).

    A closed form for a univariate Cauchy law, ln(((gamma + k)^2 + x0^2) / k^2);
    the beta-prime rule of ``_beta_prime_moments`` for a max-entropy profile
    and a central isotropic Cauchy law of any dimension; the quadrature route of
    ``_law`` for every other law with a density; the mean over samples, a
    point mass counting as one sample.  k and the sample norms must be finite.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    obj, law, unit = _norms_or_law(dist_or_samples, p)
    return _log_moment_and_slope(obj, law, k / unit, slope=False)[0]


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
    whose norms pass the float range are solved at a power-of-2 scale: the
    dispersion is homogeneous of degree 1.
    """
    obj = dist_or_samples
    if isinstance(obj, Degenerate):
        if np.any(np.asarray(obj) != 0.0):
            raise ValueError("dispersion of an off-origin point mass is undefined")
        return 0.0
    c = spec.c
    if not c > 0.0:
        raise ValueError(f"constraint value {c} is outside the attainable range (0, inf)")
    obj, law, unit = _norms_or_law(obj, spec.p)
    k = law[0] if law is not None else float(np.median(obj)) or 1.0
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


_FEASIBILITY_REL_TOL = 1e-9


def feasibility(
    dist_or_samples,
    A: Union[DispersionLevel, float],
    g: ChannelGeometry,
    spec: ConstraintSpec,
) -> bool:
    """Whether the signal's dispersion lies in [noise scale, A], to a relative slack of 1e-9."""
    level = (A if isinstance(A, DispersionLevel) else DispersionLevel(float(A))).A
    if level < g.lam:
        raise InfeasibleError(
            f"dispersion level {level} below noise floor {g.lam}"
        )
    d = dispersion_of(dist_or_samples, spec)
    slack = _FEASIBILITY_REL_TOL * max(level, g.lam)
    return g.lam - slack <= d <= level + slack


_KNN_QUERY_BLOCK = 65_536
# Twice scipy's default: half the tree nodes (4.5 MiB fewer at 1e6 points),
# which offsets part of the ordered copy's memory for about 2 % more kNN time.
_KNN_LEAF_SIZE = 32


def _cell_order(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Stable permutation that sorts the rows of w = y / t (n, d) by grid cell, row-major.

    Each column's [-2, 2] is cut into 2^(16 // d) equal cells, a row past it
    falling in an end cell, and the cells form one uint16 code.
    """
    n, d = y.shape
    cells = 1 << (16 // d)
    code = np.zeros(n, dtype=np.uint16)
    c = np.empty(n)
    for j in range(d):
        np.divide(y[:, j], t, out=c)
        c += 2.0
        c *= 0.25 * cells
        np.clip(c, 0, cells - 1, out=c)
        np.floor(c, out=c)
        code *= cells
        np.add(code, c, out=code, casting="unsafe")
    del c  # the sort's output may take the scratch's place
    return np.argsort(code, kind="stable")


def _nearest_neighbor_distances(x: np.ndarray):
    """Yield (start, eps): each row's distance to its nearest other row of x, block by block.

    The tree is built on x and queried in contiguous blocks of its rows,
    which bound the query's result arrays; rows in cell order (see
    ``_cell_order``) are near in memory where they are near in space, so the
    tree's build, its leaf scans and the queries read memory almost in
    sequence.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(x, _KNN_LEAF_SIZE, compact_nodes=False, copy_data=False)
    for start in range(0, len(x), _KNN_QUERY_BLOCK):
        yield start, tree.query(x[start:start + _KNN_QUERY_BLOCK], k=[2])[0][:, 0]


def _knn_entropy(samples: np.ndarray) -> EntropyEstimate:
    """Kozachenko-Leonenko entropy of y on the line, else of w = y / t plus the Jacobian.

    t = (r + s) / 2 for row norms r and their median s.  Any w = y / (a ||y|| + b),
    a, b > 0, has the Jacobian term -ln b + (d + 1) E ln(a ||y|| + b): the norms' unit drops out.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("nearest-neighbor entropy takes 1-D samples or (n, d >= 1) rows, "
                         f"got shape {x.shape}")
    n, d = x.shape
    if n < 1000:
        raise ValueError("nearest-neighbor entropy needs at least 1000 samples")
    with np.errstate(divide="ignore"):  # a duplicate's distance is 0: its term is -inf
        if d == 1:
            # The smaller gap to a sorted neighbour; only the gap across 0 can
            # pass the float range, and none of y / 2 can.
            y = np.sort(x[:, 0])
            if not np.isfinite(y[[0, -1]]).all():  # NaN sorts last
                raise ValueError("nearest-neighbor entropy needs finite samples (got NaN or inf)")
            shift = math.log(2.0) if float(y[-1]) - float(y[0]) == math.inf else 0.0
            if shift:
                y *= 0.5
            gaps = np.diff(y)
            terms = y  # spent: it takes the distances
            terms[0], terms[-1] = gaps[0], gaps[-1]
            np.minimum(gaps[:-1], gaps[1:], out=terms[1:-1])
            del gaps
            np.log(terms, out=terms)
        else:
            t = _sample_norms(x, None)[0]
            s = float(np.partition(t, n // 2)[n // 2]) or 1.0  # a median that cannot overflow
            shift = -math.log(0.5 * s)
            t *= 0.5  # (r + s) / 2 cannot overflow
            t += 0.5 * s
            perm = _cell_order(x, t)
            t = t[perm]
            w = np.take(x, perm, axis=0)
            del perm
            w /= t[:, None]
            terms = np.log(t, out=t)
            terms *= d + 1
            for start, eps in _nearest_neighbor_distances(w):
                np.log(eps, out=eps)
                eps *= d
                terms[start:start + len(eps)] += eps
                del eps  # the block's result goes before the next query
            del w  # the tree's data
    mask = terms > -math.inf
    m = int(mask.sum())
    if m < 2:
        raise ValueError("nearest-neighbor entropy needs 2 or more points without a duplicate, "
                         f"got {m} of {n}")
    if m < n:
        warnings.warn(
            f"dropped {n - m} duplicate points in the nearest-neighbor estimator",
            RuntimeWarning,
            stacklevel=3,
        )
        terms = terms[mask]
    log_unit_ball = 0.5 * d * math.log(math.pi) - log_gamma(0.5 * d + 1.0)
    value = digamma(m) + EULER_GAMMA + log_unit_ball + float(np.mean(terms)) + shift
    stderr = float(np.std(terms, ddof=1)) / math.sqrt(m)
    return EntropyEstimate(value, "knn", stderr)


def _histogram_transformed_entropy(samples: np.ndarray) -> EntropyEstimate:
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1:
        raise ValueError("the transformed-histogram estimator is univariate")
    n = y.size
    if n < 1000:
        raise ValueError("the transformed-histogram estimator needs at least 1000 samples")
    if not np.isfinite(y).all():
        raise ValueError("the transformed-histogram estimator needs finite samples")
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
    scale, integrate, shape = law
    if shape is not None:
        h, mass = _beta_prime_entropy(shape[0], shape[1], scale, shape[2]())
    else:
        mass = integrate(lambda f, r: f)
        h = integrate(lambda f, r: scipy_special().entr(f))
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"density is not normalized: integral = {mass}")
    return EntropyEstimate(h, "quadrature")


def entropy_estimate(dist_or_samples, method: str = "quadrature") -> EntropyEstimate:
    """Differential entropy in nats by the requested route.

    quadrature              -f ln f of a law's pdf integrated (std_error 0): by the
                            beta-prime rule for a profile or a central isotropic
                            Cauchy law, else tanh-sinh (see ``_law``); a law whose
                            mass misses 1 by more than 1e-6 is an error;
    knn                     Kozachenko-Leonenko first-nearest-neighbor estimator on 1000
                            or more finite samples, 1-D or (n, d) rows, at any float
                            scale: gaps of sorted samples on the line, else distances
                            of u = y / (||y|| + s), s the median norm, plus the exact
                            Jacobian -ln s + (d + 1) E ln(||y|| + s); duplicate points
                            are dropped, with a RuntimeWarning;
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


def mutual_information(input_dist, g: ChannelGeometry) -> float:
    """I(X;Y) = h(Y) - h(N) for the zero-drift additive channel of geometry g.

    The output law comes from the Cauchy sum closure, so the input must be a
    univariate Cauchy law (2D), an isotropic bivariate Cauchy law (3D), or a
    point mass of the channel's dimension, each centred anywhere: the input's
    location shifts the output and leaves the entropies unchanged.
    """
    noise = zero_drift_reduction(g)
    return independent_sum(input_dist, noise).entropy() - noise.entropy()


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
            "achieving_output": self.achieving_output.to_dict(),
            "achieving_input": self.achieving_input.to_dict(),
            "note": self.note,
        }


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
    """Rows (A, C_gaussian, C_2d, C_3d); NaN marks an infeasible entry.

    lam and sigma must be > 0 and finite, and every A finite.
    """
    for name, floor in (("lam", lam), ("sigma", sigma)):
        if not 0.0 < floor < math.inf:
            raise ValueError(f"{name} must be > 0 and finite, got {floor}")
    A_values = [float(a) for a in A_values]
    if not all(map(math.isfinite, A_values)):
        raise ValueError("every A must be finite")
    rows = []
    for a in A_values:
        c2 = _log_ratio(a, lam) if a >= lam else math.nan
        c3 = 2.0 * c2
        cg = _log_ratio(a, sigma) if a >= sigma else math.nan
        rows.append({"A": a, "C_gauss": cg, "C_2d": c2, "C_3d": c3})
    return rows


def write_capacity_table_csv(rows, path) -> None:
    with _rewrite(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["A", "C_gauss", "C_2d", "C_3d"])
        for r in rows:
            writer.writerow(
                [repr(r["A"]), repr(r["C_gauss"]), repr(r["C_2d"]), repr(r["C_3d"])]
            )


def write_capacity_table_json(rows, path) -> None:
    with _rewrite(path) as fh:
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
        with _rewrite(path) as fh:
            fh.write("# A  capacity_nats\n")
            for r in rows:
                if not math.isnan(r[key]):
                    fh.write(f"{r['A']!r} {r[key]!r}\n")
        paths.append(path)
    return paths
