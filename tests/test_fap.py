import csv
import math

import numpy as np
import pytest

from faplab.cauchy import MultivariateCauchy, UnivariateCauchy, pdf_multivariate, pdf_univariate
from faplab.fap import (
    ChannelGeometry,
    DriftVector,
    FapPoint,
    arrival_probability,
    density_grid,
    density_grid_csv,
    fap_density,
    fap_pdf,
    fap_pdf_2d,
    fap_pdf_3d,
    zero_drift_reduction,
)
from faplab.quadrature import integrate_real_line


def test_geometry_validation():
    with pytest.raises(ValueError):
        ChannelGeometry(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        ChannelGeometry(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        ChannelGeometry(2, 1.0, -1.0)


@pytest.mark.parametrize("lam, sigma2", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
def test_geometry_rejects_non_finite(lam, sigma2):
    with pytest.raises(ValueError, match="finite"):
        ChannelGeometry(2, lam, sigma2)


def test_drift_vector_validation():
    with pytest.raises(ValueError):
        DriftVector(float("nan"), 0.0)
    v = DriftVector(3.0, 4.0)
    assert v.magnitude == 5.0
    assert v.transverse == (3.0,) and v.traversal == 4.0


def test_fap_point_arity():
    with pytest.raises(ValueError):
        FapPoint((0.0,), (0.0, 0.0))


# 2D density -----------------------------------------------------------------


def test_2d_near_zero_drift_tends_to_cauchy_peak():
    g = ChannelGeometry(2, 1.0, 1.0)
    val = fap_pdf_2d(g, DriftVector(0.0, 1e-8), FapPoint((0.0,), (0.0,)))
    assert val == pytest.approx(1.0 / math.pi, abs=1e-4)


def test_2d_symmetric_when_no_transverse_drift():
    g = ChannelGeometry(2, 1.7, 0.6)
    v = DriftVector(0.0, 0.8)
    for delta in np.linspace(0.1, 8.0, 17):
        a = fap_pdf_2d(g, v, FapPoint((0.0,), (delta,)))
        b = fap_pdf_2d(g, v, FapPoint((0.0,), (-delta,)))
        assert abs(a - b) <= 1e-12 * a


def test_2d_traversal_sign_ratio():
    g = ChannelGeometry(2, 1.0, 1.0)
    pt = FapPoint((0.0,), (0.0,))
    toward = fap_pdf_2d(g, DriftVector(0.0, -1.0), pt)
    away = fap_pdf_2d(g, DriftVector(0.0, 1.0), pt)
    assert toward / away == pytest.approx(math.exp(2.0), rel=1e-12)


def test_2d_rejects_zero_drift():
    g = ChannelGeometry(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        fap_pdf_2d(g, DriftVector(0.0, 0.0), FapPoint((0.0,), (0.0,)))


# 3D density -----------------------------------------------------------------


def test_3d_zero_drift_at_origin():
    g = ChannelGeometry(3, 1.0, 1.0)
    val = fap_pdf_3d(g, DriftVector.zero(3), FapPoint((0.0, 0.0), (0.0, 0.0)))
    assert val == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_3d_transverse_isotropy_without_transverse_drift():
    g = ChannelGeometry(3, 1.0, 1.0)
    v = DriftVector(0.0, 0.0, 0.7)
    r = 2.3
    vals = [
        fap_pdf_3d(g, v, FapPoint((0.0, 0.0), (r * math.cos(a), r * math.sin(a))))
        for a in np.linspace(0.0, 2.0 * math.pi, 13)
    ]
    assert max(vals) - min(vals) <= 1e-12 * max(vals)


def test_3d_near_zero_drift_offset_value():
    g = ChannelGeometry(3, 1.0, 1.0)
    val = fap_pdf_3d(g, DriftVector(0.0, 0.0, 1e-8), FapPoint((0.0, 0.0), (1.0, 1.0)))
    assert val == pytest.approx((1.0 / (2.0 * math.pi)) * 3.0**-1.5, abs=1e-4)


# zero-drift reduction ---------------------------------------------------------


def test_reduction_2d():
    g = ChannelGeometry(2, 2.0, 1.0)
    red = zero_drift_reduction(g, 0.0)
    assert isinstance(red, UnivariateCauchy)
    assert red.location == 0.0 and red.scale == 2.0
    assert pdf_univariate(red, 0.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_reduction_3d():
    g = ChannelGeometry(3, 1.0, 1.0)
    red = zero_drift_reduction(g, (0.0, 0.0))
    assert isinstance(red, MultivariateCauchy)
    assert np.allclose(red.scale_matrix, np.eye(2))


@pytest.mark.parametrize("lam", [1.0, 1.3, 2.5])
def test_reduction_equals_hand_built_laws(lam):
    red2 = zero_drift_reduction(ChannelGeometry(2, lam, 1.0), 0.4)
    assert red2 == UnivariateCauchy(0.4, lam)
    red3 = zero_drift_reduction(ChannelGeometry(3, lam, 1.0), (0.4, -1.0))
    assert isinstance(red3, MultivariateCauchy)
    assert np.array_equal(red3.location, [0.4, -1.0])
    assert np.array_equal(red3.scale_matrix, lam * lam * np.eye(2))
    assert np.array_equal(zero_drift_reduction(ChannelGeometry(3, lam, 1.0)).location, [0.0, 0.0])


def test_reduction_is_pointwise_limit_2d():
    g = ChannelGeometry(2, 1.0, 1.0)
    red = zero_drift_reduction(g, 0.0)
    ys = np.linspace(-10.0, 10.0, 201)
    sup = max(
        abs(
            fap_pdf_2d(g, DriftVector(0.0, 1e-8), FapPoint((0.0,), (y,)))
            - float(pdf_univariate(red, y))
        )
        for y in ys
    )
    assert sup < 1e-3


def test_reduction_limit_monotone_2d_and_3d():
    g2 = ChannelGeometry(2, 1.0, 1.0)
    g3 = ChannelGeometry(3, 1.0, 1.0)
    red2 = zero_drift_reduction(g2, 0.0)
    red3 = zero_drift_reduction(g3, (0.0, 0.0))
    ys = np.linspace(-10.0, 10.0, 101)
    gaps2, gaps3 = [], []
    for speed in (1e-2, 1e-4, 1e-6, 1e-8):
        gaps2.append(
            max(
                abs(
                    fap_pdf_2d(g2, DriftVector(0.0, speed), FapPoint((0.0,), (y,)))
                    - float(pdf_univariate(red2, y))
                )
                for y in ys
            )
        )
        gaps3.append(
            max(
                abs(
                    fap_pdf_3d(
                        g3, DriftVector(0.0, 0.0, speed), FapPoint((0.0, 0.0), (y, 0.0))
                    )
                    - float(pdf_multivariate(red3, [[y, 0.0]])[0])
                )
                for y in np.linspace(0.0, 10.0, 51)
            )
        )
    assert all(b < a for a, b in zip(gaps2, gaps2[1:]))
    assert all(b < a for a, b in zip(gaps3, gaps3[1:]))
    assert gaps2[-1] < 1e-3 and gaps3[-1] < 1e-3


def test_fap_pdf_routes_zero_drift():
    g = ChannelGeometry(2, 1.0, 1.0)
    val = fap_pdf(g, DriftVector(0.0, 0.0), FapPoint((0.0,), (0.0,)))
    assert val == pytest.approx(1.0 / math.pi, rel=1e-14)


# translation covariance and positivity ---------------------------------------


def test_translation_covariance():
    g = ChannelGeometry(2, 1.2, 0.9)
    v = DriftVector(0.5, -0.3)
    for shift in (-4.0, 2.5):
        a = fap_pdf_2d(g, v, FapPoint((0.0,), (1.1,)))
        b = fap_pdf_2d(g, v, FapPoint((shift,), (shift + 1.1,)))
        assert abs(a - b) <= 1e-12 * a
    g3 = ChannelGeometry(3, 1.2, 0.9)
    v3 = DriftVector(0.5, 0.1, -0.3)
    a3 = fap_pdf_3d(g3, v3, FapPoint((0.0, 0.0), (0.4, -0.8)))
    b3 = fap_pdf_3d(g3, v3, FapPoint((3.0, -1.0), (3.4, -1.8)))
    assert abs(a3 - b3) <= 1e-12 * a3


def test_positivity_on_grid():
    g = ChannelGeometry(2, 1.0, 1.0)
    for y in np.linspace(-100.0, 100.0, 41):
        assert fap_pdf_2d(g, DriftVector(0.7, 1.3), FapPoint((0.0,), (y,))) > 0.0


# marginal consistency ---------------------------------------------------------


def test_3d_zero_drift_marginal_matches_2d():
    g3 = ChannelGeometry(3, 1.5, 1.0)
    g2 = ChannelGeometry(2, 1.5, 1.0)
    red2 = zero_drift_reduction(g2, 0.0)
    for y1 in (0.0, 1.2, 4.0):
        marg = integrate_real_line(
            lambda y2: fap_pdf_3d(
                g3, DriftVector.zero(3), FapPoint((0.0, 0.0), (y1, y2))
            ),
            center=0.0,
            scale=math.hypot(y1, g3.lam),
        )
        assert marg == pytest.approx(float(pdf_univariate(red2, y1)), abs=1e-6)


# arrival probability ----------------------------------------------------------


def test_arrival_probability_zero_drift():
    assert arrival_probability(ChannelGeometry(2, 1.0, 1.0), DriftVector.zero(2)) == 1.0
    p3 = arrival_probability(ChannelGeometry(3, 1.0, 1.0), DriftVector.zero(3))
    assert p3 == pytest.approx(1.0, abs=1e-6)


def test_arrival_probability_matches_hitting_law():
    # Traversal drift away from the receiver at speed m gives total mass
    # exp(-2 m lam / sigma2); toward the receiver gives 1.
    g = ChannelGeometry(2, 1.0, 1.0)
    assert arrival_probability(g, DriftVector(0.0, 1.0)) == pytest.approx(
        math.exp(-2.0), rel=1e-8
    )
    assert arrival_probability(g, DriftVector(0.0, -1.0)) == pytest.approx(1.0, rel=1e-8)
    assert arrival_probability(g, DriftVector(1.0, 0.0)) == pytest.approx(1.0, rel=1e-8)
    g3 = ChannelGeometry(3, 1.0, 1.0)
    assert arrival_probability(g3, DriftVector(0.5, -0.3, 0.75)) == pytest.approx(
        math.exp(-1.5), rel=1e-6
    )


# grid export ------------------------------------------------------------------


def test_density_grid_csv_roundtrip(tmp_path):
    g = ChannelGeometry(2, 1.0, 1.0)
    cols, grid = density_grid(g, DriftVector(0.0, -0.5), points=11, y_min=-2, y_max=2)
    path = tmp_path / "density.csv"
    path.write_text(density_grid_csv(cols, grid), newline="")
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == ["y1", "density"]
    assert len(body) == 11
    assert float(body[5][0]) == 0.0
    assert float(body[5][1]) == pytest.approx(grid[5, 1], rel=1e-15)


def test_density_grid_3d_row_major():
    g = ChannelGeometry(3, 1.0, 1.0)
    cols, grid = density_grid(g, DriftVector.zero(3), points=3, y_min=-1, y_max=1)
    assert cols == ("y1", "y2", "density")
    assert grid.shape == (9, 3) and grid.dtype == np.float64
    assert grid[0, :2].tolist() == [-1.0, -1.0]
    assert grid[1, :2].tolist() == [-1.0, 0.0]  # inner index runs over y2
    _, grid = density_grid(g, DriftVector(0.3, 0.2, -0.5), points=7, y_min=-2.5, y_max=4.0)
    axis = np.linspace(-2.5, 4.0, 7)
    assert np.array_equal(grid[:, :2], np.column_stack([np.repeat(axis, 7), np.tile(axis, 7)]))


@pytest.mark.parametrize(
    "dim, points, drift",
    [
        pytest.param(2, 401, (0.0, 0.0), id="2-401"),
        pytest.param(3, 41, (0.0, 0.0, 0.0), id="3-41"),
        pytest.param(2, 401, (0.3, -0.5), id="2-401-drifted"),
        pytest.param(3, 41, (0.3, 0.2, -0.5), id="3-41-drifted"),
    ],
)
def test_density_grid_zero_drift_matches_pointwise(dim, points, drift):
    g = ChannelGeometry(dim, 1.3, 0.7)
    v = DriftVector(*drift)
    x = np.full(dim - 1, 0.4)
    _, grid = density_grid(g, v, x, -10.0, 10.0, points)
    for row in grid[:: max(1, len(grid) // 97)]:
        want = fap_pdf(g, v, FapPoint(x, row[:-1]))
        assert row[-1] == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "dim, drift",
    [
        pytest.param(2, (0.0, 0.0), id="2"),
        pytest.param(3, (0.0, 0.0, 0.0), id="3"),
        pytest.param(2, (0.3, -0.5), id="2-drifted"),
        pytest.param(3, (0.3, 0.2, -0.5), id="3-drifted"),
    ],
)
def test_density_grid_zero_drift_far_tails_are_zero(dim, drift):
    _, grid = density_grid(ChannelGeometry(dim), DriftVector(*drift), None, -1e300, 1e300, 3)
    densities = grid[:, -1]
    assert np.all(np.isfinite(densities))
    assert np.count_nonzero(densities) == 1  # only the node at the origin


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "dim, drift, y",
    [
        (3, (0.0, 0.0, -0.5), (1e200, 0.0)),
        (2, (0.3, -0.5), (1e300,)),
        (2, (0.3, -0.5), (math.inf,)),
    ],
)
def test_drifted_density_far_tail_is_zero(dim, drift, y):
    pdf = fap_pdf_2d if dim == 2 else fap_pdf_3d
    pt = FapPoint((0.0,) * (dim - 1), y)
    assert pdf(ChannelGeometry(dim), DriftVector(*drift), pt) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("drift", [(0.3, -0.5), (1e-3, 0.0), (0.0, 0.0)])
def test_2d_density_at_tiny_lambda(drift):
    # rho^2 = 2e-600 underflows; the density 1 / (2 pi 1e-300) must not.
    g = ChannelGeometry(2, 1e-300, 1.0)
    f = fap_density(g, DriftVector(*drift), [0.0], [[1e-300]])
    assert f[0] == pytest.approx(1.0 / (2.0 * math.pi * 1e-300), rel=1e-12)
