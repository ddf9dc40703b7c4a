"""First-arrival-position channel densities in 2D and 3D.

Geometry: the transmitter sits on the hyperplane at height ``lam`` above an
absorbing receiver hyperplane at height 0.  A particle released at the
transmitter diffuses (optionally with drift) until it first touches the
receiver plane; these functions give the analytic density of that arrival
point over the receiver plane.

Sign convention for the drift component along the traversal axis (v2 in 2D,
v3 in 3D): positive values point from the receiver back toward the
transmitter, i.e. away from the receiver.  The convention is pinned by
cross-validating ``arrival_probability`` against the Monte Carlo simulator:
with a positive traversal component the arrival probability drops below 1.

With zero drift the arrival law collapses to a Cauchy distribution whose
scale is the transmission distance; that closed form is exposed separately
because the drifted 2D formula degenerates into a 0 * inf product at |v| = 0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .cauchy import MultivariateCauchy, UnivariateCauchy, pdf_multivariate, pdf_univariate
from .quadrature import integrate_plane, integrate_real_line
from .special import bessel_k1_scaled

__all__ = [
    "ChannelGeometry",
    "DriftVector",
    "FapPoint",
    "fap_pdf_2d",
    "fap_pdf_3d",
    "fap_pdf",
    "zero_drift_reduction",
    "arrival_probability",
    "density_grid",
    "write_density_grid_csv",
]


@dataclass(frozen=True)
class ChannelGeometry:
    """Spatial dimension (2 or 3), transmission distance, diffusion coefficient."""

    dimension: int
    lam: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"transmission distance must be finite and > 0, got {self.lam}")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"diffusion coefficient must be finite and > 0, got {self.sigma2}")

    @property
    def n_transverse(self) -> int:
        return self.dimension - 1


@dataclass(frozen=True)
class DriftVector:
    """Drift velocity components; the last one is along the traversal axis."""

    components: tuple

    def __init__(self, *components: float) -> None:
        if len(components) == 1 and isinstance(components[0], (tuple, list, np.ndarray)):
            components = tuple(components[0])
        comps = tuple(float(c) for c in components)
        if not all(math.isfinite(c) for c in comps):
            raise ValueError("drift components must be finite")
        object.__setattr__(self, "components", comps)

    def __len__(self) -> int:
        return len(self.components)

    @property
    def magnitude(self) -> float:
        return math.sqrt(sum(c * c for c in self.components))

    @property
    def transverse(self) -> tuple:
        return self.components[:-1]

    @property
    def traversal(self) -> float:
        return self.components[-1]

    @classmethod
    def zero(cls, dimension: int) -> "DriftVector":
        return cls(*([0.0] * dimension))


def _check_drift(g: ChannelGeometry, v: DriftVector) -> None:
    if len(v) != g.dimension:
        raise ValueError(
            f"drift has {len(v)} components; geometry dimension is {g.dimension}"
        )


@dataclass(frozen=True)
class FapPoint:
    """Transverse input/output coordinates on the Tx and Rx hyperplanes."""

    x: tuple
    y: tuple

    def __init__(self, x, y) -> None:
        xt = tuple(float(c) for c in np.atleast_1d(x))
        yt = tuple(float(c) for c in np.atleast_1d(y))
        if len(xt) != len(yt):
            raise ValueError("input and output positions must have the same arity")
        object.__setattr__(self, "x", xt)
        object.__setattr__(self, "y", yt)


def fap_pdf_2d(g: ChannelGeometry, v: DriftVector, pt: FapPoint) -> float:
    """Drifted 2D arrival density at transverse output y1 given input x1.

    Requires |v| > 0; the zero-drift case must go through
    ``zero_drift_reduction`` because this expression becomes 0 * inf there.
    """
    if g.dimension != 2:
        raise ValueError("fap_pdf_2d requires a 2D geometry")
    _check_drift(g, v)
    if len(pt.x) != 1:
        raise ValueError("2D geometry carries one transverse coordinate")
    speed = v.magnitude
    if speed == 0.0:
        raise ValueError(
            "zero drift is a degenerate limit here; use zero_drift_reduction"
        )
    v1, v2 = v.components
    x1, y1 = pt.x[0], pt.y[0]
    s2 = g.sigma2
    rho = math.sqrt((x1 - y1) ** 2 + g.lam**2)
    xi = speed * rho / s2
    # Assemble through the scaled Bessel factor e^xi K1(xi): the exponent
    # -v1 (x1 - y1)/s2 - xi is <= |v1||x1 - y1|/s2 - xi <= 0, so the
    # combined exponential never overflows even though its factors would.
    exponent = (-v2 * g.lam - v1 * (x1 - y1) - speed * rho) / s2
    return (
        (speed * g.lam / (s2 * math.pi))
        * math.exp(exponent)
        * bessel_k1_scaled(xi)
        / rho
    )


def fap_pdf_3d(g: ChannelGeometry, v: DriftVector, pt: FapPoint) -> float:
    """Drifted 3D arrival density at transverse output (y1, y2) given (x1, x2).

    Well-defined for any drift including zero, where it reduces to the
    isotropic bivariate Cauchy with scale equal to the transmission distance.
    """
    if g.dimension != 3:
        raise ValueError("fap_pdf_3d requires a 3D geometry")
    _check_drift(g, v)
    if len(pt.x) != 2:
        raise ValueError("3D geometry carries two transverse coordinates")
    v1, v2, v3 = v.components
    x1, x2 = pt.x
    y1, y2 = pt.y
    s2 = g.sigma2
    dist = math.sqrt((y1 - x1) ** 2 + (y2 - x2) ** 2 + g.lam**2)
    speed = v.magnitude
    xi = speed * dist / s2
    # Transverse and radial exponentials combined: the exponent is bounded
    # above by -v3 lam / s2, so only harmless underflow can occur.
    exponent = (-v3 * g.lam + v1 * (y1 - x1) + v2 * (y2 - x2) - speed * dist) / s2
    return (g.lam / (2.0 * math.pi)) * math.exp(exponent + math.log1p(xi)) / dist**3


def zero_drift_reduction(
    g: ChannelGeometry, x=None
) -> Union[UnivariateCauchy, MultivariateCauchy]:
    """Zero-drift arrival law: Cauchy(x1, lam) in 2D, isotropic bivariate in 3D."""
    if x is None:
        x = np.zeros(g.n_transverse)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != g.n_transverse:
        raise ValueError(
            f"input position has {x.size} coordinates, expected {g.n_transverse}"
        )
    if g.dimension == 2:
        return UnivariateCauchy(float(x[0]), g.lam)
    return MultivariateCauchy(x, g.lam**2 * np.eye(2))


def fap_pdf(g: ChannelGeometry, v: DriftVector, pt: FapPoint) -> float:
    """Arrival density for any drift, routing |v| = 0 to the closed-form reduction."""
    _check_drift(g, v)
    if v.magnitude == 0.0:
        noise = zero_drift_reduction(g, pt.x)
        if g.dimension == 2:
            return float(pdf_univariate(noise, pt.y[0]))
        return float(pdf_multivariate(noise, np.asarray(pt.y)))
    if g.dimension == 2:
        return fap_pdf_2d(g, v, pt)
    return fap_pdf_3d(g, v, pt)


def arrival_probability(g: ChannelGeometry, v: DriftVector) -> float:
    """Total arrival mass over the receiver hyperplane for the given drift.

    Equals 1 for zero drift (Cauchy normalization) and for drift with no
    away-component; drops below 1 when the traversal drift points away from
    the receiver.
    """
    _check_drift(g, v)
    if v.magnitude == 0.0:
        return 1.0 if g.dimension == 2 else _bivariate_norm(g)
    # Center the substitution on the transverse displacement a typical
    # arriving particle accumulates, so strong transverse drift still lands
    # inside the quadrature's well-resolved region.
    s2 = g.sigma2
    t_typ = g.lam / (abs(v.traversal) + math.sqrt(s2) / g.lam)
    shift = min(t_typ, 10.0 * g.lam**2 / s2)
    if g.dimension == 2:
        f = lambda y1: fap_pdf_2d(g, v, FapPoint((0.0,), (y1,)))
        return integrate_real_line(
            f, center=v.transverse[0] * shift, scale=g.lam, epsabs=1e-11, epsrel=1e-11
        )
    f2 = lambda y: fap_pdf_3d(g, v, FapPoint((0.0, 0.0), y))
    center = (v.transverse[0] * shift, v.transverse[1] * shift)
    return integrate_plane(f2, center=center, scale=g.lam, epsabs=1e-8, epsrel=1e-8)


def _bivariate_norm(g: ChannelGeometry) -> float:
    f = lambda y: fap_pdf_3d(g, DriftVector.zero(3), FapPoint((0.0, 0.0), y))
    return integrate_plane(f, center=(0.0, 0.0), scale=g.lam, epsabs=1e-8, epsrel=1e-8)


def density_grid(
    g: ChannelGeometry,
    v: DriftVector,
    x=None,
    y_min: float = -10.0,
    y_max: float = 10.0,
    points: int = 201,
):
    """Evaluate the arrival density on a regular transverse grid.

    Returns (columns, rows): column names and a list of row tuples, one per
    grid node (row-major over (y1, y2) in 3D).
    """
    if x is None:
        x = np.zeros(g.n_transverse)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    axis = np.linspace(y_min, y_max, points)
    if v.magnitude == 0.0:
        _check_drift(g, v)
        noise = zero_drift_reduction(g, x)
        if g.dimension == 2:
            return ("y1", "density"), list(zip(axis.tolist(), pdf_univariate(noise, axis).tolist()))
        y1, y2 = np.repeat(axis, points), np.tile(axis, points)
        density = pdf_multivariate(noise, np.column_stack([y1, y2]))
        return ("y1", "y2", "density"), list(zip(y1.tolist(), y2.tolist(), density.tolist()))
    rows = []
    if g.dimension == 2:
        for y1 in axis:
            rows.append((y1, fap_pdf(g, v, FapPoint(x, (y1,)))))
        return ("y1", "density"), rows
    for y1 in axis:
        for y2 in axis:
            rows.append((y1, y2, fap_pdf(g, v, FapPoint(x, (y1, y2)))))
    return ("y1", "y2", "density"), rows


def write_density_grid_csv(path, columns: Sequence[str], rows) -> None:
    """CSV export with header (y1[,y2],density); floats use shortest round-trip form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(c)) for c in row])
