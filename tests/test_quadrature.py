import math

import numpy as np
import pytest

from faplab import fap
from faplab.capacity import log_moment
from faplab.cauchy import UnivariateCauchy, isotropic_cauchy, pdf_multivariate, pdf_univariate
from faplab.quadrature import (
    QuadratureError,
    integrate_plane,
    integrate_plane_radial,
    integrate_real_line,
    line_integral,
    plane_integral,
    radial_integral,
)
from faplab.verify import _arrival_mass_by_quadrature


def test_non_integrable_integrand_raises_with_its_work():
    with pytest.raises(QuadratureError) as info:
        line_integral(lambda y: 1.0 / (1.0 + np.abs(y)))
    msg = str(info.value)
    for part in ("status=", "error estimate=", "nfev=", "value="):
        assert part in msg


@pytest.mark.parametrize(
    "lam, sigma2, drift, tol",
    [(2.0, 0.5, (0.0, 1.0), 1e-12), (1.0, 1.0, (1e-6, 0.0), 1e-11)],
)
def test_arrival_mass_cases_that_stop_early_at_the_default_level(lam, sigma2, drift, tol):
    # From tanhsinh's default starting level both stop with status 0 and a wrong value.
    g, v = fap.ChannelGeometry(2, lam, sigma2), fap.DriftVector(*drift)
    mass = _arrival_mass_by_quadrature(g, v)
    assert abs(mass - fap.arrival_probability(g, v)) <= tol


def test_array_cores_agree_with_scalar_adapters():
    d = UnivariateCauchy(0.3, 1.7)
    by_array = line_integral(lambda y: pdf_univariate(d, y), center=0.3, scale=1.7)
    by_scalar = integrate_real_line(lambda y: float(pdf_univariate(d, y)), center=0.3, scale=1.7)
    assert by_array == pytest.approx(1.0, abs=1e-12)
    assert by_scalar == pytest.approx(by_array, rel=1e-15)

    b = isotropic_cauchy(2, 0.7)
    by_array = radial_integral(
        lambda r: pdf_multivariate(b, np.column_stack([r, np.zeros_like(r)])), scale=0.7
    )
    by_scalar = integrate_plane_radial(
        lambda r: float(pdf_multivariate(b, [[r, 0.0]])[0]), scale=0.7
    )
    assert by_array == pytest.approx(1.0, abs=1e-12)
    assert by_scalar == pytest.approx(by_array, rel=1e-15)

    # Anisotropic bivariate Cauchy density with scale matrix diag(4, 1), off center.
    c = 1.0 / (2.0 * math.pi * 2.0)

    def scalar(y):
        u, w = (y[0] - 0.5) / 2.0, y[1] + 0.2
        return c * (1.0 + u * u + w * w) ** -1.5

    def array(pts):
        u, w = (pts[:, 0] - 0.5) / 2.0, pts[:, 1] + 0.2
        return c * (1.0 + u * u + w * w) ** -1.5

    by_array = plane_integral(array, center=(0.5, -0.2), scale=2.0)
    by_scalar = integrate_plane(scalar, center=(0.5, -0.2), scale=2.0)
    assert by_array == pytest.approx(1.0, abs=1e-9)
    assert by_scalar == pytest.approx(by_array, rel=1e-14)


def _aniso(pts):
    # Anisotropic bivariate Cauchy density with scale matrix diag(4, 1), off center.
    u, w = (pts[:, 0] - 0.5) / 2.0, pts[:, 1] + 0.2
    return (1.0 + u * u + w * w) ** -1.5 / (4.0 * math.pi)


@pytest.mark.parametrize(
    "core, f, kwargs",
    [
        (line_integral, lambda y: pdf_univariate(UnivariateCauchy(0.3, 1.7), y),
         {"center": 0.3, "scale": 1.7}),
        (radial_integral, lambda r: pdf_multivariate(isotropic_cauchy(2, 0.7),
                                                     np.column_stack([r, np.zeros_like(r)])),
         {"scale": 0.7}),
        (plane_integral, _aniso, {"center": (0.5, -0.2), "scale": 2.0}),
    ],
    ids=["line", "radial", "plane"],
)
def test_rows_integrate_as_their_single_row_calls(core, f, kwargs):
    # Rows are elements of one tanhsinh call that converge on their own, so
    # each equals the integral of that row alone.
    def q(y):
        return y * y if y.ndim == 1 else y[:, 0] ** 2 + y[:, 1] ** 2

    parts = (f, lambda y: f(y) * np.log1p(q(y)), lambda y: f(y) / (1.0 + q(y)))
    rows = core(lambda y: np.stack([h(y) for h in parts]), rows=3, **kwargs)
    assert rows.shape == (3,)
    assert list(rows) == [core(h, **kwargs) for h in parts]


def test_scalar_callable_may_overflow_python_float_arithmetic():
    # Nodes near theta = 0 sit at |y| ~ 1e300, where (y / k) ** 2 on a Python
    # float raises OverflowError; the scalar forms pass numpy floats instead.
    d, k = UnivariateCauchy(0.0, 1.3), 0.7
    val = integrate_real_line(
        lambda y: float(pdf_univariate(d, y)) * math.log1p((y / k) ** 2), scale=1.3 + k
    )
    assert val == pytest.approx(log_moment(d, k), rel=1e-12)
    b = isotropic_cauchy(2, 1.3)
    val = integrate_plane_radial(
        lambda r: float(pdf_multivariate(b, [[r, 0.0]])[0]) * math.log1p((r / k) ** 2),
        scale=1.3 + k,
    )
    assert val == pytest.approx(log_moment(b, k), rel=1e-12)


@pytest.mark.parametrize(
    "core", [line_integral, radial_integral, plane_integral, integrate_real_line]
)
def test_cores_reject_non_positive_scale(core):
    with pytest.raises(ValueError, match="scale must be positive"):
        core(lambda y: y, scale=0.0)
