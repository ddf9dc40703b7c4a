import math

import numpy as np
import pytest

from faplab import capacity, fap, quadrature
from faplab.capacity import (
    ConstraintSpec,
    CustomDensity,
    dispersion_of,
    entropy_estimate,
    log_moment,
)
from faplab.cauchy import (
    MultivariateCauchy,
    UnivariateCauchy,
    isotropic_cauchy,
    pdf_multivariate,
    pdf_univariate,
)
from faplab.quadrature import (
    QuadratureError,
    integrate_plane,
    integrate_plane_radial,
    integrate_real_line,
    line_integral,
    plane_integral,
    radial_integral,
)
from faplab.verify import _arrival_mass_by_quadrature, check_names, run_checks


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


# pinned outputs -----------------------------------------------------------------

# The tanh-sinh fallback of the capacity layer: laws that are neither a
# profile, a central isotropic Cauchy law nor a univariate Cauchy law.  Per
# law: dispersion_of, log_moment at k = 0.05 and 3.0, and the quadrature
# entropy, as float.hex, taken with numpy 2.4.6 and scipy 1.17.1 on x86-64.
_CAUCHY_1D = UnivariateCauchy(0.3, 1.2)
PINNED_LAWS = {
    "bivariate_anisotropic": (
        MultivariateCauchy([0.0, 0.0], [[1.69, 0.3], [0.3, 1.0]]),
        ("0x1.25594b6671e2ap+0", "0x1.e9a0d6a23b70ep+2", "0x1.f3baefe8bc6b5p-1",
         "0x1.44aa0c2e2151ep+2"),
    ),
    "bivariate_off_centre": (
        MultivariateCauchy([0.5, -0.2], 1.69 * np.eye(2)),
        ("0x1.552a888e4f69dp+0", "0x1.ff333792dbb27p+2", "0x1.17e451ab8ce4ap+0",
         "0x1.5734ee19566e9p+2"),
    ),
    "custom_1d": (
        CustomDensity(lambda y: pdf_univariate(_CAUCHY_1D, y), 1, 0.3, 1.2),
        ("0x1.37f1ed8c8aa06p+0", "0x1.9f99a9b49bfe3p+2", "0x1.5b2736676755cp-1",
         "0x1.5b4eea50f373dp+1"),
    ),
    "custom_2d_anisotropic_off_centre": (
        CustomDensity(_aniso, 2, (0.5, -0.2), 2.0),
        ("0x1.8af81022d106fp+0", "0x1.07dbd91643750p+3", "0x1.3c7ed4efb9262p+0",
         "0x1.61fc4d1f87cb2p+2"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_LAWS))
def test_law_quadrature_fallback_is_pinned(name):
    law, pinned = PINNED_LAWS[name]
    got = (dispersion_of(law, ConstraintSpec(law.dim)), log_moment(law, 0.05),
           log_moment(law, 3.0), entropy_estimate(law, "quadrature").value)
    assert tuple(v.hex() for v in got) == pinned


@pytest.mark.parametrize("name", sorted(PINNED_LAWS))
def test_log_moment_on_the_fallback_is_one_integral(name, monkeypatch):
    # log_moment needs no slope: it costs the tanhsinh calls of its one integral.
    law = PINNED_LAWS[name][0]
    calls = []
    real = quadrature._tanhsinh
    monkeypatch.setattr(quadrature, "_tanhsinh", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    capacity._law(law)[1](lambda f, r: f * np.log1p((r / 3.0) ** 2), 3.0)
    one = len(calls)
    calls.clear()
    log_moment(law, 3.0)
    assert 0 < len(calls) == one


# Arrival mass on the line (2D, drift (0.8, 0.75)) and radially (3D, drift
# (0, 0, 0.75)); the plane is pinned through the bivariate laws above.
@pytest.mark.parametrize(
    "geometry, drift, pinned",
    [((2, 2.0, 0.5), (0.8, 0.75), "0x1.44e51f113d4d3p-9"),
     ((3, 0.8, 1.5), (0.0, 0.0, 0.75), "0x1.cc1ce4581db89p-2")],
    ids=["line", "radial"],
)
def test_arrival_mass_by_quadrature_is_pinned(geometry, drift, pinned):
    g, v = fap.ChannelGeometry(*geometry), fap.DriftVector(*drift)
    assert _arrival_mass_by_quadrature(g, v).hex() == pinned


# Every check of verify's one table, in quick mode; the table's names are the ids.
@pytest.mark.parametrize("name", check_names())
def test_verify_quadrature_cross_check_passes(name):
    results = run_checks(only=name, quick=True)
    assert len(results) == 1 and results[0].name == name and results[0].passed, results
