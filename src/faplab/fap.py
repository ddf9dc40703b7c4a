"""First-arrival-position channel densities in 2D and 3D.

Geometry: the transmitter sits on the hyperplane at height ``lam`` above an
absorbing receiver hyperplane at height 0.  A particle released at the
transmitter diffuses (optionally with drift) until it first touches the
receiver plane; these functions give the analytic density of that arrival
point over the receiver plane.

``fap_density`` is the one implementation: it takes an input position and
an (n, d-1) array of outputs and returns the n densities in closed form.
``fap_pdf_2d``, ``fap_pdf_3d`` and ``fap_pdf`` evaluate it at a single
``FapPoint``, and ``density_grid`` evaluates it once over a whole grid,
which ``density_grid_csv`` renders as CSV text.  This module opens no file;
the command line writes every output.

Sign convention for the drift component along the traversal axis (v2 in 2D,
v3 in 3D): positive values point from the receiver back toward the
transmitter, i.e. away from the receiver.  The convention is pinned by
cross-validating ``arrival_probability`` against the Monte Carlo simulator:
with a positive traversal component the arrival probability drops below 1.

With zero drift the arrival law collapses to a Cauchy distribution whose
scale is the transmission distance (``zero_drift_reduction``).  The 2D
density takes that closed form at |v| = 0, where the drifted formula
degenerates into a 0 * inf product; the 3D drifted formula already equals it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .cauchy import MultivariateCauchy, UnivariateCauchy, isotropic_cauchy
from .special import scipy_special

__all__ = [
    "ChannelGeometry",
    "DriftVector",
    "FapPoint",
    "fap_density",
    "fap_pdf_2d",
    "fap_pdf_3d",
    "fap_pdf",
    "zero_drift_reduction",
    "arrival_probability",
    "density_grid",
    "density_grid_csv",
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


def fap_density(g: ChannelGeometry, v: DriftVector, x, y) -> np.ndarray:
    """Arrival densities at the n transverse outputs ``y`` (shape (n, d-1)) for input ``x``.

    2D: the drifted Bessel-K1 form, or at zero drift the Cauchy density of
    scale lam (the drifted form is 0 * inf there).  3D: the drifted algebraic
    form, which at zero drift is the isotropic bivariate Cauchy of scale lam.
    Outputs infinitely far from ``x`` get density 0.
    """
    _check_drift(g, v)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape != (g.n_transverse,) or y.ndim != 2 or y.shape[1] != g.n_transverse:
        raise ValueError(
            f"expected an input of {g.n_transverse} coordinates and outputs of shape "
            f"(n, {g.n_transverse}), got {x.shape} and {y.shape}"
        )
    d = y - x
    far = np.isinf(d).any(axis=1)
    d[far] = 0.0
    lam, s2, speed = g.lam, g.sigma2, v.magnitude
    if g.dimension == 2:
        rho = np.hypot(d[:, 0], lam)
        if speed == 0.0:
            density = lam / math.pi / rho / rho
        else:
            v1, v2 = v.components
            # Assemble through the scaled Bessel factor e^xi K1(xi): the exponent
            # (-v2 lam + v1 d - |v| rho)/s2 is <= 0 by Cauchy-Schwarz, so the
            # combined exponential never overflows even though its factors would.
            exponent = (-v2 * lam + v1 * d[:, 0] - speed * rho) / s2
            bessel = scipy_special().k1e(speed * rho / s2)
            density = (speed * lam / (s2 * math.pi)) * np.exp(exponent) * bessel / rho
    else:
        v1, v2, v3 = v.components
        dist = np.hypot(np.hypot(d[:, 0], d[:, 1]), lam)
        # Transverse and radial exponentials and the 1/dist^3 decay combined in
        # log space: the exponent is <= 0 by Cauchy-Schwarz, so only harmless
        # underflow can occur, even where dist^3 would overflow.
        exponent = (-v3 * lam + v1 * d[:, 0] + v2 * d[:, 1] - speed * dist) / s2
        density = (lam / (2.0 * math.pi)) * np.exp(
            exponent + np.log1p(speed * dist / s2) - 3.0 * np.log(dist)
        )
    density[far] = 0.0
    return density


def _check_point(g: ChannelGeometry, v: DriftVector, pt: FapPoint, dimension: int,
                 coordinates: str) -> None:
    if g.dimension != dimension:
        raise ValueError(f"fap_pdf_{dimension}d requires a {dimension}D geometry")
    _check_drift(g, v)
    if len(pt.x) != dimension - 1:
        raise ValueError(f"{dimension}D geometry carries {coordinates}")


def fap_pdf_2d(g: ChannelGeometry, v: DriftVector, pt: FapPoint) -> float:
    """Drifted 2D arrival density at transverse output y1 given input x1.

    Requires |v| > 0; the zero-drift case must go through
    ``zero_drift_reduction`` because this expression becomes 0 * inf there.
    """
    _check_point(g, v, pt, 2, "one transverse coordinate")
    if v.magnitude == 0.0:
        raise ValueError(
            "zero drift is a degenerate limit here; use zero_drift_reduction"
        )
    return fap_pdf(g, v, pt)


def fap_pdf_3d(g: ChannelGeometry, v: DriftVector, pt: FapPoint) -> float:
    """Drifted 3D arrival density at transverse output (y1, y2) given (x1, x2).

    Well-defined for any drift including zero, where it reduces to the
    isotropic bivariate Cauchy with scale equal to the transmission distance.
    """
    _check_point(g, v, pt, 3, "two transverse coordinates")
    return fap_pdf(g, v, pt)


def _input_position(g: ChannelGeometry, x=None) -> np.ndarray:
    """The transverse input position x (default the origin) as a checked 1-D array."""
    if x is None:
        x = np.zeros(g.n_transverse)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != g.n_transverse:
        raise ValueError(
            f"input position has {x.size} coordinates, expected {g.n_transverse}"
        )
    if not np.isfinite(x).all():
        raise ValueError(f"input position must be finite, got {x.tolist()}")
    return x


def zero_drift_reduction(
    g: ChannelGeometry, x=None
) -> Union[UnivariateCauchy, MultivariateCauchy]:
    """Zero-drift arrival law: the isotropic Cauchy law of scale lam centered at x.

    Cauchy(x1, lam) in 2D, the isotropic bivariate Cauchy in 3D.
    """
    return isotropic_cauchy(g.n_transverse, g.lam, _input_position(g, x))


def fap_pdf(g: ChannelGeometry, v: DriftVector, pt: FapPoint) -> float:
    """Arrival density for any drift, including zero."""
    return float(fap_density(g, v, pt.x, [pt.y])[0])


def arrival_probability(g: ChannelGeometry, v: DriftVector) -> float:
    """Total arrival mass over the receiver hyperplane: min(1, exp(-2 v_z lam / sigma2)).

    v_z is the traversal drift component.  The mass is 1 for zero drift
    and for drift with no away-component; it drops below 1 when the
    traversal drift points away from the receiver.
    """
    _check_drift(g, v)
    return math.exp(min(0.0, -2.0 * v.traversal * g.lam / g.sigma2))


def density_grid(
    g: ChannelGeometry,
    v: DriftVector,
    x=None,
    y_min: float = -10.0,
    y_max: float = 10.0,
    points: int = 201,
):
    """Evaluate the arrival density on a regular transverse grid.

    Returns (columns, grid): the column names y1..yp, density and an
    (n, p + 1) float array, one row per grid node, row-major over
    (y1, ..., yp), with the density in the last column.
    """
    p = g.n_transverse
    if x is None:
        x = np.zeros(p)
    axis = np.linspace(y_min, y_max, points)
    nodes = np.stack(np.meshgrid(*[axis] * p, indexing="ij"), axis=-1).reshape(-1, p)
    columns = tuple(f"y{i + 1}" for i in range(p)) + ("density",)
    return columns, np.column_stack([nodes, fap_density(g, v, x, nodes)])


def density_grid_csv(columns: Sequence[str], rows) -> str:
    """CSV text with header (y1[,y2],density); floats use shortest round-trip form."""
    lines = [",".join(columns)]
    lines += [",".join(map(repr, row)) for row in np.asarray(rows, dtype=float).tolist()]
    return "\r\n".join(lines) + "\r\n"
