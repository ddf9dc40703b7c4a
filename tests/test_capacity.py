import contextlib
import math
import platform
import sys
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import faplab.capacity as capacity_module
from faplab.capacity import (
    ConstraintSpec,
    CustomDensity,
    DispersionLevel,
    GaussianSpec,
    InfeasibleError,
    MaxentProfile,
    capacity_closed_form,
    capacity_table,
    dispersion_of,
    entropy_estimate,
    feasibility,
    log_moment,
    maxent_profile,
    mutual_information,
)
from faplab.cauchy import (
    Degenerate,
    MultivariateCauchy,
    UnivariateCauchy,
    entropy_multivariate,
    entropy_univariate,
    independent_sum,
    isotropic_cauchy,
    sample_multivariate,
    sample_univariate,
)
from faplab.fap import ChannelGeometry
from faplab.special import log_gamma, w2

SPEC1 = ConstraintSpec(1)
SPEC2 = ConstraintSpec(2)
LN_4PI = math.log(4.0 * math.pi)


def iso2(gamma: float) -> MultivariateCauchy:
    return MultivariateCauchy([0.0, 0.0], gamma**2 * np.eye(2))


# constraint constants ---------------------------------------------------------


def test_constraint_constants():
    assert SPEC1.c == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert SPEC2.c == pytest.approx(2.0, abs=1e-12)


# log moment ---------------------------------------------------------------------


def test_log_moment_at_own_scale():
    assert log_moment(UnivariateCauchy(0.0, 1.3), 1.3) == pytest.approx(
        2.0 * math.log(2.0), abs=1e-9
    )
    assert log_moment(iso2(2.5), 2.5) == pytest.approx(2.0, abs=1e-9)


def test_log_moment_degenerate():
    assert log_moment(Degenerate(0.0), 1.0) == 0.0
    # A point mass is the one sample that np.asarray makes of it.
    for x in (1.5, np.array([0.3, -2.0])):
        for k in (1e-3, 0.7, 1e200):
            assert log_moment(Degenerate(x), k) == log_moment(np.array([x]), k)


def test_log_moment_general_k_closed_form():
    # For Cauchy(0, g): E ln(1 + (Y/k)^2) = 2 ln((k + g)/k).
    g = 2.0
    for k in (0.25, 1.0, 8.0):
        assert log_moment(UnivariateCauchy(0.0, g), k) == pytest.approx(
            2.0 * math.log((k + g) / k), abs=1e-6
        )


def test_log_moment_bivariate_closed_form():
    # Radial integration gives (2g/b) atan(b/g) with b = sqrt(k^2 - g^2) above g,
    # (2g/b) artanh(b/g) with b = sqrt(g^2 - k^2) below it, and 2 at k = g.
    g = 1.0
    for k in (0.01, 0.5, 1.0, 2.0, 5.0):
        if k > g:
            b = math.sqrt(k * k - g * g)
            expected = 2.0 * g / b * math.atan(b / g)
        elif k < g:
            b = math.sqrt(g * g - k * k)
            expected = 2.0 * g / b * math.atanh(b / g)
        else:
            expected = 2.0
        assert log_moment(iso2(g), k) == pytest.approx(expected, abs=1e-9)


def test_log_moment_samples_path():
    x = sample_univariate(UnivariateCauchy(0.0, 1.0), 400_000, seed=1)
    assert log_moment(x, 1.0) == pytest.approx(2.0 * math.log(2.0), abs=0.02)


def test_log_moment_monotone_in_k():
    d = UnivariateCauchy(0.0, 1.0)
    ks = np.geomspace(1e-2, 1e2, 17)
    vals = [log_moment(d, k) for k in ks]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[0] > 8.0 and vals[-1] < 0.03


def test_log_moment_rejects_bad_k():
    with pytest.raises(ValueError):
        log_moment(UnivariateCauchy(0.0, 1.0), 0.0)


@pytest.mark.parametrize("k", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("law", [np.ones((4, 2)), UnivariateCauchy(0.0, 1.0)], ids=["samples", "law"])
def test_log_moment_rejects_k_that_is_not_positive_and_finite(law, k):
    with pytest.raises(ValueError, match="k must be positive and finite"):
        log_moment(law, k)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("solve", [lambda y: log_moment(y, 1.0),
                                   lambda y: dispersion_of(y, ConstraintSpec(y.ndim))],
                         ids=["log_moment", "dispersion_of"])
def test_non_finite_samples_are_rejected(solve, dim, bad):
    # One check on the norms serves both; a NaN or inf no longer reaches the mean.
    y = np.ones(50) if dim == 1 else np.ones((50, 2))
    y.reshape(50, -1)[7, 0] = bad
    with pytest.raises(ValueError, match=r"samples need finite norms \(got NaN or inf\)"):
        solve(y)


def _cauchy_log_moment_by_mpmath(x0: float, gamma: float, k: float) -> float:
    """ln(((gamma + k)^2 + x0^2) / k^2) at the float arguments, by mpmath at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        x0, gamma, k = mp.mpf(x0), mp.mpf(gamma), mp.mpf(k)
        return float(mp.log(((gamma + k) ** 2 + x0**2) / k**2))


# The closed form squares gamma/k and x0/k: past about 1e154 the square
# overflows (and gamma/k itself for subnormal k), and the log-moment is taken
# from the hypotenuse of gamma + k and x0 instead.
@pytest.mark.parametrize("x0, gamma, k", [
    (0.0, 1.0, 1.0), (2.0, 0.5, 0.3), (-3.0, 1.7, 40.0), (0.0, 1.0, 1e-150),
    (0.0, 1.0, 1e-160), (0.0, 1.0, 1e-300), (1e200, 1.0, 1.0), (-2e150, 3.0, 1.5),
    (0.0, 1.0, 5e-324), (1e300, 1e300, 1e-10),
])
def test_cauchy_log_moment_matches_mpmath(x0, gamma, k):
    want = _cauchy_log_moment_by_mpmath(x0, gamma, k)
    assert log_moment(UnivariateCauchy(x0, gamma), k) == pytest.approx(want, rel=1e-15, abs=0.0)


# Roots near 4.5e-157 and 1e200 / sqrt(3), where the slope D is 1 and 3/4:
# the log-moment at the root is held against the target.
@pytest.mark.parametrize("x0, target", [(0.0, 720.0), (1e200, None)])
def test_cauchy_dispersion_past_the_square_meets_the_constraint(x0, target):
    spec = ConstraintSpec(1, target)
    d = dispersion_of(UnivariateCauchy(x0, 1.0), spec)
    assert _cauchy_log_moment_by_mpmath(x0, 1.0, d) == pytest.approx(spec.c, rel=1e-15, abs=0.0)


# dispersion ---------------------------------------------------------------------


def test_dispersion_recovers_cauchy_scale():
    for gamma in (0.3, 1.0, 5.0):
        assert dispersion_of(UnivariateCauchy(0.0, gamma), SPEC1) == pytest.approx(
            gamma, abs=1e-10 * max(gamma, 1.0)
        )
    assert dispersion_of(iso2(2.4), SPEC2) == pytest.approx(2.4, abs=1e-9)


@pytest.mark.parametrize("x0, gamma", [(2.0, 0.5), (-3.0, 1.7), (10.0, 0.1)])
def test_dispersion_off_center_cauchy(x0, gamma):
    # (gamma + k)^2 + x0^2 = 4 k^2 at the dispersion: a root away from the scale.
    expected = (gamma + math.sqrt(4.0 * gamma**2 + 3.0 * x0**2)) / 3.0
    assert dispersion_of(UnivariateCauchy(x0, gamma), SPEC1) == pytest.approx(expected, rel=1e-12)


def test_dispersion_homogeneity():
    base = 0.7
    d0 = dispersion_of(UnivariateCauchy(0.0, base), SPEC1)
    for c in (0.5, 2.0, 10.0):
        dc = dispersion_of(UnivariateCauchy(0.0, c * base), SPEC1)
        assert abs(dc - c * d0) <= 1e-8 * c


def test_dispersion_degenerate_is_zero():
    assert dispersion_of(Degenerate(0.0), SPEC1) == 0.0


def test_dispersion_on_samples():
    x = sample_univariate(UnivariateCauchy(0.0, 1.5), 200_000, seed=5)
    d = dispersion_of(x, SPEC1)
    assert d == pytest.approx(1.5, rel=0.02)
    assert dispersion_of(3.0 * x, SPEC1) == pytest.approx(3.0 * d, rel=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dispersion_on_bivariate_samples():
    y = sample_multivariate(iso2(1.5), 200_000, seed=9)
    d = dispersion_of(y, SPEC2)
    assert d == pytest.approx(1.5, rel=0.02)
    assert dispersion_of(3.0 * y, SPEC2) == pytest.approx(3.0 * d, rel=1e-10)
    # Some rows' squared norms overflow at this scale.
    assert dispersion_of(1e150 * y, SPEC2) == pytest.approx(1e150 * d, rel=1e-10)
    # Squares of coordinates below about 1e-154 go subnormal, or to 0, inside
    # np.linalg.norm; rows whose norms are below 2^-500 take hypot instead.
    for s in (1e-160, 1e-170, 1e-200, 1e-300):
        assert dispersion_of(s * y, SPEC2) == pytest.approx(s * d, rel=1e-15, abs=0.0)
        assert log_moment(s * y, s * d, 2) == pytest.approx(log_moment(y, d, 2), rel=1e-15)
    with pytest.raises(ValueError, match="input has dimension 2, expected 1"):
        dispersion_of(y, SPEC1)
    with pytest.raises(ValueError, match="input has dimension 1, expected 2"):
        dispersion_of(y[:, 0], SPEC2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dispersion_rejects_non_finite_samples(bad):
    x = sample_univariate(UnivariateCauchy(0.0, 1.5), 5000, seed=6)
    x[17] = bad
    with pytest.raises(ValueError, match="finite"):
        dispersion_of(x, SPEC1)


# Roots of E ln(1 + (Y/k)^2) = 2 ln 2 for the unit-scale line profile, by mpmath at
# 30 digits: ln(1 + (1-u)/(u k^2)) over u = 1/(1 + Y^2) ~ Beta(mu - 1/2, 1/2).
@pytest.mark.parametrize("mu, root", [(0.55, 2.11465398166979e11), (0.6, 11395.5695872191)])
def test_dispersion_of_near_pole_profile(mu, root):
    prof = MaxentProfile(1, 1.0, mu, SPEC1.c)
    assert dispersion_of(prof, SPEC1) == pytest.approx(root, rel=1e-9)


def _beta_prime_log_moment_by_mpmath(a: float, b: float, ln_s: float) -> float:
    """E ln(1 + sQ), Q ~ beta-prime(a, b), s = e^ln_s < 1, by mpmath at 40 digits.

    With U = Q / (1 + Q) ~ Beta(a, b), E (1 + sQ)^nu is
    B(a, b - nu) / B(a, b) 2F1(-nu, a; a + b - nu; 1 - s), whose nu-derivative
    at 0 is the log-moment.  It is taken at 1/s, where 1 - 1/s is far from 1,
    through 1/Q ~ beta-prime(b, a): E ln(1 + sQ) = ln s + psi(a) - psi(b)
    + E ln(1 + 1/(sQ)).
    """
    import mpmath as mp

    with mp.workdps(40):
        a, b, ls = mp.mpf(a), mp.mpf(b), mp.mpf(ln_s)
        z = 1 - mp.exp(-ls)
        swapped = mp.psi(0, a + b) - mp.psi(0, a) + mp.diff(
            lambda nu: mp.hyp2f1(-nu, b, a + b - nu, z), 0)
        return float(ls + mp.psi(0, a) - mp.psi(0, b) + swapped)


@pytest.mark.parametrize("p, mu", [(1, 0.51), (1, 0.53), (2, 1.03), (2, 1.05)])
def test_dispersion_of_profile_near_its_pole_meets_the_constraint(p, mu):
    # Roots near 4.1e92, 5.5e22, 2.4e20 and 1.0e10.  The slope D is small here
    # (0.014 at mu = 0.51), so the root is ill-conditioned and the log-moment
    # at it is held instead, with b = mu - p/2 from the float mu.
    spec = ConstraintSpec(p)
    d = dispersion_of(MaxentProfile(p, 1.0, mu, spec.c), spec)
    L = _beta_prime_log_moment_by_mpmath(0.5 * p, mu - 0.5 * p, -2.0 * math.log(d))
    assert L == pytest.approx(spec.c, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("p, mu", [(1, 0.5001), (2, 1.001)])
def test_dispersion_of_profile_past_the_float_range_is_a_runtime_error(p, mu):
    spec = ConstraintSpec(p)
    with pytest.raises(RuntimeError, match="outside the float range"):
        dispersion_of(MaxentProfile(p, 1.0, mu, spec.c), spec)


# (a, b, s, L, D): L = E ln(1 + sQ) and D = E[sQ / (1 + sQ)] for Q ~ beta-prime(a, b)
# at s = e^ln(s) for the float ln(s), by mpmath at 60 digits: below s = 1 by
# Gauss's hypergeometric function (the nu-derivative at 0 of
# E (1 + sQ)^nu = B(a, b - nu) / B(a, b) 2F1(-nu, a; a + b - nu; 1 - s), and
# D = 1 - b / (a + b) 2F1(1, a; a + b + 1; 1 - s)), above it by quadrature in
# t = ln Q at 30 digits; the two routes agree within 3e-24 at s = 0.01.
_BETA_PRIME_TABLE = [
    (0.5, 0.001, 1e-30, 931.96449577647696979, 0.93196449577647698919),
    (0.5, 0.001, 1e-10, 975.88662929740981124, 0.97588662929625290860),
    (0.5, 0.001, 0.01, 994.02968632801640778, 0.99400461794556190687),
    (0.5, 0.001, 7.0, 1000.5601036728181226, 0.99903553144092105903),
    (0.5, 0.001, 10000.0, 1007.8224648237192897, 0.99996882598495151702),
    (0.5, 0.01, 1e-30, 49.444871400532489504, 0.49444871400532490533),
    (0.5, 0.01, 1e-10, 78.364840084808208666, 0.78364840083765246776),
    (0.5, 0.01, 0.01, 94.214966066320500202, 0.94190526834332602810),
    (0.5, 0.01, 7.0, 100.56431367356268432, 0.99049749145743849569),
    (0.5, 0.01, 10000.0, 107.80833358304930814, 0.99969209995104770495),
    (0.5, 0.05, 1e-30, 0.59481154332629056290, 0.029740577166314529796),
    (0.5, 0.05, 1e-10, 5.9481154332258523859, 0.29740577162687103337),
    (0.5, 0.05, 0.01, 14.939635672974230668, 0.74588642104952507089),
    (0.5, 0.05, 7.0, 20.579523276243885268, 0.95537793634414030798),
    (0.5, 0.05, 10000.0, 27.747607859401296359, 0.99853868550144025300),
    (0.5, 0.5, 1e-30, 2.0000000000000013695e-15, 1.0000000000000001848e-15),
    (0.5, 0.5, 1e-10, 0.000019999900000666657723, 9.9999000009999880281e-6),
    (0.5, 0.5, 0.01, 0.19062035960864976136, 0.090909090909090927852),
    (0.5, 0.5, 7.0, 2.5871249304519605782, 0.72570811482256822763),
    (0.5, 0.5, 10000.0, 9.2302410336825197615, 0.99009900990099010327),
    (0.5, 1.0, 1e-30, 3.4731923575470711683e-29, 3.4231923575470710498e-29),
    (0.5, 1.0, 1e-10, 1.1706072646401874758e-9, 1.1206072647236080404e-9),
    (0.5, 1.0, 0.01, 0.025139752601655178025, 0.020285880301563831075),
    (0.5, 1.0, 7.0, 1.5256942486644165583, 0.60312089790808687263),
    (0.5, 1.0, 10000.0, 7.8552634949719371508, 0.98448970691286920422),
    (0.5, 3.0, 1e-30, 2.5000000000000059238e-31, 2.5000000000000059238e-31),
    (0.5, 3.0, 1e-10, 2.4999999998124990147e-11, 2.4999999996249990160e-11),
    (0.5, 3.0, 0.01, 0.0024823006862143041781, 0.0024653643531849242930),
    (0.5, 3.0, 7.0, 0.68650923175342033589, 0.39685368042515227500),
    (0.5, 3.0, 10000.0, 6.3823576662622363603, 0.97113741823390235586),
    (0.5, 49.5, 1e-30, 1.0309278350515488346e-32, 1.0309278350515488346e-32),
    (0.5, 49.5, 1e-10, 1.0309278350499182044e-12, 1.0309278350482904236e-12),
    (0.5, 49.5, 0.01, 0.00010307651152820933131, 0.00010306024537887996071),
    (0.5, 49.5, 7.0, 0.065655784382001961261, 0.060249315881770807822),
    (0.5, 49.5, 10000.0, 3.5942686268669967662, 0.88492118893762981004),
    (0.5, 999999.0, 1e-30, 5.0000100000200118876e-37, 5.0000100000200118876e-37),
    (0.5, 999999.0, 1e-10, 5.0000100000199976930e-17, 5.0000100000199973180e-17),
    (0.5, 999999.0, 0.01, 5.0000099625198154344e-9, 5.0000099250196291837e-9),
    (0.5, 999999.0, 7.0, 3.4999886251364974128e-6, 3.4999702504733641053e-6),
    (0.5, 999999.0, 10000.0, 0.0049631189766465760175, 0.0049268218165601924965),
    (1.0, 0.001, 1e-30, 933.25583594055108533, 0.93325583594055110476),
    (1.0, 0.001, 1e-10, 977.23882844845538097, 0.97723882844617928416),
    (1.0, 0.001, 0.01, 995.40699853360917497, 0.99536060457940322795),
    (1.0, 0.001, 7.0, 1001.9447144780749916, 0.99967588092032083123),
    (1.0, 0.001, 10000.0, 1009.2086976598031945, 0.99999907903813783346),
    (1.0, 0.01, 1e-30, 50.126968511652184188, 0.50126968511652185231),
    (1.0, 0.01, 1e-10, 79.445891152808574900, 0.79445891150753165669),
    (1.0, 0.01, 0.01, 95.514417356117585841, 0.95469108440522815968),
    (1.0, 0.01, 7.0, 101.93404153754750674, 0.99677659743742081830),
    (1.0, 0.01, 10000.0, 109.19402035944356790, 0.99999080506014657109),
    (1.0, 0.05, 1e-30, 0.63506390763961015059, 0.031753195381980509292),
    (1.0, 0.05, 1e-10, 6.3506390763225914775, 0.31753195374788278688),
    (1.0, 0.05, 0.01, 15.949521666366706814, 0.79543038719023776165),
    (1.0, 0.05, 7.0, 21.888440255068697670, 0.98426299787442750794),
    (1.0, 0.05, 10000.0, 29.131020355763812271, 0.99995434033225440641),
    (1.0, 0.5, 1e-30, 3.1415926535897949605e-15, 1.5707963267948964802e-15),
    (1.0, 0.5, 1e-10, 0.000031415726537468709183, 0.000015707763270305130919),
    (1.0, 0.5, 0.01, 0.29560753247495502371, 0.13919572347219950297),
    (1.0, 0.5, 7.0, 3.5175450993126125063, 0.87353790839061561367),
    (1.0, 0.5, 10000.0, 10.597114600198035562, 0.99957010128011811041),
    (1.0, 1.0, 1e-30, 6.9077552789821531831e-29, 6.8077552789821529462e-29),
    (1.0, 1.0, 1e-10, 2.3025850932243033246e-9, 2.2025850934445618734e-9),
    (1.0, 1.0, 0.01, 0.046516870565536293192, 0.036885727843976049312),
    (1.0, 1.0, 7.0, 2.2702285072311987982, 0.78829524879480018221),
    (1.0, 1.0, 10000.0, 9.2112614981259962032, 0.99917879172936033713),
    (1.0, 3.0, 1e-30, 5.0000000000000118476e-31, 5.0000000000000118476e-31),
    (1.0, 3.0, 1e-10, 4.9999999994999980302e-11, 4.9999999989999980344e-11),
    (1.0, 3.0, 0.01, 0.0049532207805903028385, 0.0049087498401726303005),
    (1.0, 3.0, 7.0, 1.1455888015091317327, 0.59387226591210076563),
    (1.0, 3.0, 10000.0, 7.7128539917958154469, 0.99778592239470072736),
    (1.0, 49.5, 1e-30, 2.0618556701030976691e-32, 2.0618556701030976691e-32),
    (1.0, 49.5, 1e-10, 2.0618556700987512215e-12, 2.0618556700944104728e-12),
    (1.0, 49.5, 0.01, 0.00020614217818010618663, 0.00020609880799520373623),
    (1.0, 49.5, 7.0, 0.12758184704978089993, 0.11411642850597416659),
    (1.0, 49.5, 10000.0, 4.7696840755453169019, 0.97648771259731043279),
    (1.0, 999999.0, 1e-30, 1.0000020000040023775e-36, 1.0000020000040023775e-36),
    (1.0, 999999.0, 1e-10, 1.0000020000039995136e-16, 1.0000020000039994136e-16),
    (1.0, 999999.0, 0.01, 1.0000019900039506618e-8, 1.0000019800039010617e-8),
    (1.0, 999999.0, 7.0, 6.9999650004689903806e-6, 6.9999160015959585807e-6),
    (1.0, 999999.0, 10000.0, 0.0099019618039762218256, 0.0098057903775968345367),
]


@pytest.mark.parametrize("a, b, s, L, D", _BETA_PRIME_TABLE)
def test_beta_prime_rule_matches_mpmath(a, b, s, L, D):
    # Step 0.2 in t: a step of 0.4 misses by 8.8e-12 at b = 49.5 and by 6.5e-10
    # at b = 1e6 - 1, where light tails narrow the usable strip to |Im t| < pi/2.
    got = capacity_module._beta_prime_moments(a, b, math.log(s))
    assert got[0] == pytest.approx(L, rel=1e-14, abs=0.0)
    assert got[1] == pytest.approx(D, rel=1e-14, abs=0.0)


def _profile_entropy_by_mpmath(p: int, k: float, mu: float) -> float:
    """ln Z + mu (psi(mu) - psi(mu - p/2)) at the float k and mu, by mpmath at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        a, k, mu = mp.mpf(p) / 2, mp.mpf(k), mp.mpf(mu)
        ln_z = a * mp.log(mp.pi) + p * mp.log(k) + mp.loggamma(mu - a) - mp.loggamma(mu)
        return float(ln_z + mu * (mp.psi(0, mu) - mp.psi(0, mu - a)))


@pytest.mark.parametrize("k", [1e-5, 1.0, 1e6])
@pytest.mark.parametrize("b", [0.01, 0.05, 0.5, 4.0])
@pytest.mark.parametrize("p", [1, 2])
def test_beta_prime_rule_entropy_matches_mpmath(p, b, k):
    # The rule integrates with the profile's own float normaliser, so its mass
    # M carries the rounding of ln Z (an ulp of ln Z is 7.1e-15 at ln Z = 33):
    # 3.0e-15 at worst, at p = 2, b = 0.01, k = 1e6.  The entropy is ln Z plus
    # a mean under self-normalised weights and does not carry it: 1.1e-15 at
    # worst, at p = 1, b = 0.05, k = 1e-5.
    mu = 0.5 * p + b
    prof = MaxentProfile(p, k, mu, ConstraintSpec(p).c)
    h, mass = capacity_module._beta_prime_entropy(0.5 * p, mu - 0.5 * p, k, prof.log_norm)
    assert h == pytest.approx(_profile_entropy_by_mpmath(p, k, mu), rel=4e-15, abs=0.0)
    assert mass == pytest.approx(1.0, rel=0.0, abs=4e-15)
    # h(k) = h(1) + p ln k, to the rounding of the terms of size p |ln k|.
    unit = entropy_estimate(MaxentProfile(p, 1.0, mu, ConstraintSpec(p).c), "quadrature").value
    shift = p * math.log(k)
    assert h == pytest.approx(unit + shift, rel=0.0, abs=4e-15 * (abs(unit) + abs(shift)))


@pytest.mark.parametrize("s", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("p", [2, 3, 10])
def test_beta_prime_rule_entropy_at_extreme_scales(p, s):
    # |ln Z| reaches about 3450 at p = 10 and s = 1e150; the entropy does not
    # carry the rounding of the mass, whose unit cancels terms of that size.
    law = isotropic_cauchy(p, s)
    assert entropy_estimate(law, "quadrature").value == pytest.approx(law.entropy(), rel=0.0,
                                                                      abs=1e-12)


@pytest.mark.parametrize("p, mu", [(1, 0.51), (2, 1.05), (2, 1.01)])
def test_entropy_of_profile_near_its_pole_matches_mpmath(p, mu):
    # tanh-sinh in the substituted angle raised QuadratureError here; the
    # rule sums the slowly decaying tail e^(-(mu - p/2) t) as a geometric series.
    h = entropy_estimate(MaxentProfile(p, 1.0, mu, ConstraintSpec(p).c), "quadrature").value
    assert h == pytest.approx(_profile_entropy_by_mpmath(p, 1.0, mu), rel=4e-15, abs=0.0)


@pytest.mark.parametrize("p, mu", [(1, 4.5), (1, 4.3), (2, 4.2)])
def test_quadrature_log_moment_far_above_the_scale_matches_mpmath(p, mu):
    # The quadrature route, the cross-check of the rule in verify, at
    # k = 100 k0: with the substitution scale k0 + k it missed by 2.6e-11,
    # 2.3e-11 and 1.7e-11 here.
    prof = MaxentProfile(p, 1.0, mu, ConstraintSpec(p).c)
    by_quad = capacity_module._law(prof)[1](lambda f, r: f * np.log1p((r / 100.0) ** 2), 100.0)
    want = _beta_prime_log_moment_by_mpmath(0.5 * p, mu - 0.5 * p, -2.0 * math.log(100.0))
    assert by_quad == pytest.approx(want, rel=4e-15, abs=0.0)


@pytest.mark.parametrize(
    "law, spec",
    [
        (MaxentProfile(1, 1.1, 1.7, SPEC1.c), SPEC1),
        (MaxentProfile(2, 0.9, 2.2, SPEC2.c), SPEC2),
        (maxent_profile(SPEC1, 1.3), SPEC1),
        (maxent_profile(SPEC2, 0.7), SPEC2),
        (UnivariateCauchy(0.0, 1.8), SPEC1),
        (sample_univariate(UnivariateCauchy(0.0, 1.8), 100_000, seed=3), SPEC1),
    ],
    ids=["profile_1d", "profile_2d", "cauchy_exponent_1d", "cauchy_exponent_2d", "cauchy",
         "cauchy_samples"],
)
def test_dispersion_solve_work(law, spec, monkeypatch):
    # Newton steps in ln k from the robust scale s, each on one joint
    # (log-moment, slope) evaluation: at most 8 per solve.  No solve makes a
    # tanhsinh call: a profile's evaluations are the beta-prime rule (in
    # closed form at its own scale, where the solve starts), the Cauchy law's
    # a closed form, and the samples' two means.
    import scipy.integrate

    calls = {"joint": 0, "tanhsinh": 0}

    def counted(name, real):
        def f(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return f

    monkeypatch.setattr(capacity_module, "_log_moment_and_slope",
                        counted("joint", capacity_module._log_moment_and_slope))
    monkeypatch.setattr(scipy.integrate, "tanhsinh", counted("tanhsinh", scipy.integrate.tanhsinh))
    d = dispersion_of(law, spec)
    assert 0 < calls["joint"] <= 8
    assert calls["tanhsinh"] == 0
    if isinstance(law, MaxentProfile) and law.mu == 0.5 * (1 + law.p):
        # The Cauchy exponent meets the constraint at the profile's own
        # scale, w2(mu, p/2) = c: the closed-form first step is 0.
        assert d == law.k


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([1, 2]),
    t=st.floats(min_value=0.0, max_value=1.0),
    k=st.floats(min_value=0.1, max_value=10.0),
)
def test_profile_log_moment_and_slope_at_its_own_scale_match_quadrature(p, t, k):
    # The beta-prime rule at s = 1 is the closed form: L = w2(mu, p/2) and
    # D = (p/2) / mu, against the quadrature route.  mu runs
    # to 6 from p/2 + 0.05 on the line and from 1.08 in the plane, where the
    # radial quadrature falls short of 1e-12 nearer the pole (1.7e-11 off at
    # mu = 1.06, unconverged at 1.05).
    lo = 0.5 * p + (0.05 if p == 1 else 0.08)
    mu = lo + t * (6.0 - lo)
    prof = MaxentProfile(p, k, mu, ConstraintSpec(p).c)
    law = capacity_module._law(prof)
    L, D = capacity_module._log_moment_and_slope(prof, law, k)
    integrate = law[1]
    assert L == pytest.approx(integrate(lambda f, r: f * np.log1p((r / k) ** 2), k), rel=1e-12)
    assert D == pytest.approx(integrate(lambda f, r: f * (r / k) ** 2 / (1.0 + (r / k) ** 2), k),
                              rel=1e-12)
    assert log_moment(prof, k) == L


@pytest.mark.parametrize("p, mu", [(1, 3.5), (2, 4.0)])
def test_dispersion_of_light_tailed_profile_solves_the_constraint(p, mu):
    # Lighter tails than Cauchy put the root well below k.  The log-moment
    # at the root is integrated by quadrature, apart from the beta-prime
    # rule the solve ran on.
    spec = ConstraintSpec(p)
    prof = MaxentProfile(p, 1.0, mu, spec.c)
    d = dispersion_of(prof, spec)
    assert d < 0.25
    integrate = capacity_module._law(prof)[1]
    assert integrate(lambda f, r: f * np.log1p((r / d) ** 2), d) == pytest.approx(spec.c, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([1, 2]),
    dmu=st.floats(min_value=0.4, max_value=3.5),
    k=st.floats(min_value=0.1, max_value=10.0),
    e=st.floats(min_value=-3.0, max_value=3.0),
)
def test_dispersion_of_profile_scales_with_the_profile(p, dmu, k, e):
    spec = ConstraintSpec(p)
    mu, s = 0.5 * p + dmu, 10.0**e
    d = dispersion_of(MaxentProfile(p, k, mu, spec.c), spec)
    scaled = dispersion_of(MaxentProfile(p, s * k, mu, spec.c), spec)
    assert scaled == pytest.approx(s * d, rel=1e-12)


@pytest.mark.parametrize(
    "law", [UnivariateCauchy(0.0, 1.3), UnivariateCauchy(2.0, 1.3), iso2(1.3)],
    ids=["central", "off_center", "bivariate"],
)
def test_cauchy_slopes_match_quadrature(law):
    # D = E[q / (1 + q)], q = ||Y/k||^2, in closed form on the line and by the
    # beta-prime rule in the plane, against the quadrature route, across k = gamma.
    near = [-0.04, -0.026, -0.024, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 0.024, 0.026, 0.04]
    ks = 1.3 * np.concatenate([np.geomspace(0.1, 10.0, 9), 1.0 + np.array(near)])
    law_ = capacity_module._law(law)
    for k in ks:
        by_quad = law_[1](lambda f, r: f * ((r / k) ** 2 / (1.0 + (r / k) ** 2)), k)
        D = capacity_module._log_moment_and_slope(law, law_, k)[1]
        assert D == pytest.approx(by_quad, rel=1e-12), k


_S2 = 1.69
_RADIAL_CASES = {
    "isotropic": ([0.0, 0.0], [[_S2, 0.0], [0.0, _S2]]),
    "anisotropic": ([0.0, 0.0], [[_S2, 0.0], [0.0, 0.5 * _S2]]),
    "correlated": ([0.0, 0.0], [[_S2, 0.3], [0.3, _S2]]),
    "off_centre": ([0.0, 1e-300], [[_S2, 0.0], [0.0, _S2]]),
    "diagonal_1e-13_low": ([0.0, 0.0], [[_S2, 0.0], [0.0, _S2 * (1.0 - 1e-13)]]),
    "diagonal_1e-13_high": ([0.0, 0.0], [[_S2 * (1.0 + 1e-13), 0.0], [0.0, _S2]]),
    "diagonal_1e-11": ([0.0, 0.0], [[_S2, 0.0], [0.0, _S2 * (1.0 - 1e-11)]]),
    "off_diagonal_1e-13": ([0.0, 0.0], [[_S2, 1e-13 * _S2], [1e-13 * _S2, _S2]]),
    "3d_isotropic": ([0.0, 0.0, 0.0], np.diag([_S2, _S2, _S2]).tolist()),
    "1d": ([0.0], [[_S2]]),
    # Off the origin, so for independent_sum only: the largest diagonal
    # entry is the second.
    "sum_1e-13_first_low": ([0.5, -0.2], [[_S2 * (1.0 - 1e-13), 0.0], [0.0, _S2]]),
    "sum_1e-11_first_low": ([0.5, -0.2], [[_S2 * (1.0 - 1e-11), 0.0], [0.0, _S2]]),
}


@pytest.mark.parametrize("case", sorted(_RADIAL_CASES))
def test_law_routes_only_central_isotropic_bivariate_cauchy_radially(case, monkeypatch):
    # The decision is allclose(scale_matrix, s2 I, rtol=1e-12, atol=0), s2 the
    # largest diagonal entry, for a central law: such a law has the beta-prime
    # shape (p/2, 1/2) in every dimension, and is integrated radially in the
    # plane.  independent_sum makes the same isotropy decision wherever the law
    # is centred.
    loc, sig = _RADIAL_CASES[case]
    law = MultivariateCauchy(np.array(loc), np.array(sig))
    s2 = float(np.max(np.diag(law.scale_matrix)))
    isotropic = np.allclose(law.scale_matrix, s2 * np.eye(law.dim), rtol=1e-12, atol=0.0)
    expected = not np.any(law.location) and isotropic
    scale, integrate, shape = capacity_module._law(law)
    assert (shape is not None) is expected
    assert scale == math.sqrt(s2)
    assert expected is (case in ("isotropic", "diagonal_1e-13_low", "diagonal_1e-13_high",
                                 "3d_isotropic", "1d"))
    if expected:
        assert shape[:2] == (0.5 * law.dim, 0.5)
    if law.dim == 2:
        routes = []
        for route in ("radial_integral", "plane_integral"):
            monkeypatch.setattr(capacity_module, route,
                                lambda *a, route=route, **kw: routes.append(route) or 1.0)
        integrate(lambda f, r: f)
        assert routes == ["radial_integral" if expected else "plane_integral"]
    if law.dim == 2 and isotropic:
        total = isotropic_cauchy(2, 2.0 * math.sqrt(s2)).scale_matrix
        assert np.array_equal(independent_sum(law, law).scale_matrix, total)
    elif law.dim == 2:
        with pytest.raises(ValueError, match="not isotropic"):
            independent_sum(law, law)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_central_isotropic_cauchy_of_any_dimension_takes_the_rule(p):
    # The law is the max-entropy profile at mu = (1 + p)/2, and takes the
    # beta-prime rule as the profile does; before, p >= 3 raised "quadrature
    # supports dimensions 1 and 2".
    spec = ConstraintSpec(p)
    law = isotropic_cauchy(p, 1.7)
    prof = MaxentProfile(p, 1.7, 0.5 * (1 + p), spec.c)
    assert dispersion_of(law, spec) == 1.7
    h = entropy_estimate(law, "quadrature").value
    assert h == pytest.approx(law.entropy(), rel=4e-15, abs=0.0)
    for k in (1e-3, 0.5, 1.7, 3.0, 1e5):
        assert log_moment(law, k) == log_moment(prof, k)


def test_every_law_states_its_quadrature_frame():
    # _law reads each law's own quadrature_frame(): (scale, integrate, shape)
    # for the four classes with a density, None for a point mass and samples.
    biv, prof = iso2(1.5), MaxentProfile(2, 0.8, 2.5, SPEC2.c)
    laws = [
        (UnivariateCauchy(0.3, 1.2), 1.2, None),
        (biv, 1.5, (1.0, 0.5, -biv.log_norm)),
        (prof, 0.8, (1.0, 1.5, prof.log_norm)),
        (CustomDensity(_cauchy_pdf, 1, 0.3, 1.2), 1.2, None),
    ]
    for law, scale, shape in laws:
        got_scale, integrate, got_shape = capacity_module._law(law)
        assert got_scale == scale
        assert (got_shape if shape is None else (*got_shape[:2], got_shape[2]())) == shape
        assert integrate(lambda f, r: f) == pytest.approx(1.0, abs=1e-9)
    for other in (Degenerate(0.0), Degenerate(np.zeros(2)), np.ones(5), np.ones((5, 2))):
        assert capacity_module._law(other) is None


@pytest.mark.parametrize("y, spec", [(np.zeros(100), SPEC1), (np.zeros((100, 2)), SPEC2)],
                         ids=["1d", "2d"])
def test_dispersion_of_samples_at_the_origin_has_no_root(y, spec):
    with pytest.raises(RuntimeError, match="no dispersion root"):
        dispersion_of(y, spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("y, spec", [(np.array([]), SPEC1), (np.empty((0, 2)), SPEC2)],
                         ids=["1d", "2d"])
def test_empty_samples_are_rejected(y, spec):
    with pytest.raises(ValueError, match="samples must hold at least one point"):
        log_moment(y, 1.0, spec.p)
    with pytest.raises(ValueError, match="samples must hold at least one point"):
        dispersion_of(y, spec)


def test_dispersion_of_samples_decades_from_the_start():
    # Mostly zeros put the median norm, and so the start, at k = 1 whatever
    # the scale of the rest: the solve walks twelve decades down or up, a
    # decade a step, from slopes near 1e-20 that 1 - E[1 / (1 + q)] rounds to 0.
    x = sample_univariate(UnivariateCauchy(0.0, 1.0), 400, seed=4)
    y = np.concatenate([np.zeros(600), x])
    d = dispersion_of(y, SPEC1)
    for s in (1e-12, 1e12):
        assert dispersion_of(s * y, SPEC1) == pytest.approx(s * d, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_dispersion_of_samples_with_a_far_outlier():
    # (|y|/k)^2 overflows for the outlier at the start k = 1; ln(1 + q) is
    # then 2 ln(|y|/k), not inf.  The root is by mpmath at 50 digits.
    y = np.array([1.0] * 999 + [1e200])
    assert dispersion_of(y, SPEC1) == pytest.approx(1.2974967350050678272, rel=1e-14)
    y2 = np.column_stack([y, np.zeros_like(y)])
    d2 = dispersion_of(y2, SPEC2)
    assert log_moment(y2, d2) == pytest.approx(SPEC2.c, rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_dispersion_of_samples_whose_norm_overflows():
    # The row [1.5e308, 1.5e308] has finite coordinates and a norm past the
    # float range.  The dispersion is homogeneous of degree 1, so the solve runs
    # on y / 2 and doubles the root.  The root of the mean of
    # ln(1 + |y|^2 / k^2) = 2 is by mpmath at 50 digits.
    y = np.ones((100, 2))
    y[0] = 1.5e308
    assert dispersion_of(y, SPEC2) == pytest.approx(7.8914728475204924118e264, rel=1e-14)
    y[1, 0] = math.inf
    with pytest.raises(ValueError, match="finite"):
        dispersion_of(y, SPEC2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1, 2])
def test_dispersion_of_samples_whose_middle_norms_sum_past_the_float_range(p):
    # The mean of the two middle norms overflows; the solve starts at the upper
    # one, and is exact in scale by a power of 2.
    rng = np.random.default_rng(29)
    y = np.sign(rng.standard_cauchy(3000)) * rng.uniform(0.5, 1.0, 3000) * 1.7e308
    if p == 2:
        y = np.column_stack([y, np.zeros_like(y)])
    spec = ConstraintSpec(p)
    assert dispersion_of(y, spec) == dispersion_of(y * 2.0**-600, spec) * 2.0**600


@pytest.mark.filterwarnings("error")
def test_log_moment_of_samples_whose_norm_overflows():
    # The same halving as the dispersion: L(Y, k) = L(Y / 2, k / 2).  The mean of
    # ln(1 + |y|^2 / k^2) is by mpmath at 50 digits.
    y = np.ones((100, 2))
    y[99] = 1.5e308
    assert log_moment(y, 1e264, 2) == pytest.approx(2.0413156558025229420, rel=1e-14, abs=0.0)


def test_dispersion_of_a_non_finite_log_moment_is_an_error(monkeypatch):
    # An infinite log-moment is never taken for the root.
    monkeypatch.setattr(capacity_module, "_log_moment_and_slope",
                        lambda obj, law, k: (math.inf, 1.0))
    with pytest.raises(RuntimeError, match="not finite"):
        dispersion_of(np.ones(10), SPEC1)


def test_dispersion_of_a_non_positive_target_is_a_value_error():
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="attainable range"):
            dispersion_of(UnivariateCauchy(0.0, 1.0), ConstraintSpec(1, target=c))


# feasibility ---------------------------------------------------------------------


def test_feasibility_window():
    g = ChannelGeometry(2, 1.0, 1.0)
    assert feasibility(UnivariateCauchy(0.0, 2.0), 2.0, g, SPEC1)
    assert feasibility(UnivariateCauchy(0.0, 1.0), 2.0, g, SPEC1)  # at the floor
    assert not feasibility(UnivariateCauchy(0.0, 2.001), 2.0, g, SPEC1)
    assert feasibility(UnivariateCauchy(0.0, 1.4), DispersionLevel(2.0), g, SPEC1)


def test_feasibility_below_floor_errors():
    g = ChannelGeometry(2, 1.0, 1.0)
    with pytest.raises(InfeasibleError):
        feasibility(UnivariateCauchy(0.0, 1.0), 0.5, g, SPEC1)


_C1 = ConstraintSpec(1).c


def _cauchy_pdf(y):
    return 1.0 / (math.pi * (1.0 + y * y))


@pytest.mark.parametrize("make, match", [
    (lambda: MaxentProfile(1, 0.0, 1.0, _C1), "k must be > 0"),
    (lambda: MaxentProfile(1, -1.0, 1.0, _C1), "k must be > 0"),
    (lambda: MaxentProfile(1, math.nan, 1.0, _C1), "k must be > 0"),
    (lambda: MaxentProfile(1, 1.0, 0.4, _C1), "mu must be > p/2"),
    (lambda: MaxentProfile(2, 1.0, 1.0, _C1), "mu must be > p/2"),
    (lambda: MaxentProfile(1, 1.0, math.inf, _C1), "mu must be > p/2"),
    (lambda: MaxentProfile(1, 1.0, 1.0, math.nan), "target must be finite"),
    (lambda: maxent_profile(SPEC1, math.inf), "k must be > 0"),
    (lambda: GaussianSpec(math.nan), "variance must be >= 0"),
    (lambda: GaussianSpec(math.inf), "variance must be >= 0"),
    (lambda: GaussianSpec(-1.0), "variance must be >= 0"),
    (lambda: feasibility(UnivariateCauchy(0.0, 1.0), math.nan, ChannelGeometry(2), SPEC1),
     "dispersion level must be > 0"),
    (lambda: MaxentProfile(0, 1.0, 1.0, _C1), "p must be a whole number >= 1"),
    (lambda: MaxentProfile(1.5, 1.0, 1.0, _C1), "p must be a whole number >= 1"),
    (lambda: MaxentProfile(-1, 1.0, 1.0, _C1), "p must be a whole number >= 1"),
    (lambda: MaxentProfile(math.nan, 1.0, 1.0, _C1), "p must be a whole number >= 1"),
    (lambda: CustomDensity(_cauchy_pdf, 0), "dim must be 1 or 2"),
    (lambda: CustomDensity(_cauchy_pdf, 3), "dim must be 1 or 2"),
    (lambda: CustomDensity(_cauchy_pdf, 1, center=math.nan), "center must be finite"),
    (lambda: CustomDensity(_cauchy_pdf, 2, center=(0.0, math.inf)), "center must be finite"),
    (lambda: CustomDensity(_cauchy_pdf, 1, center=(0.0, 0.0)), "center must be finite"),
    (lambda: CustomDensity(_cauchy_pdf, 2, center=(0.0, 0.0, 0.0)), "center must be finite"),
    (lambda: CustomDensity(_cauchy_pdf, 1, scale=0.0), "scale must be > 0"),
    (lambda: CustomDensity(_cauchy_pdf, 1, scale=math.inf), "scale must be > 0"),
    (lambda: CustomDensity(_cauchy_pdf, 1, scale=math.nan), "scale must be > 0"),
    (lambda: capacity_table([2.0], lam=0.0, sigma=1.0), "lam must be > 0"),
    (lambda: capacity_table([2.0], lam=-1.0, sigma=1.0), "lam must be > 0"),
    (lambda: capacity_table([2.0], lam=math.nan, sigma=1.0), "lam must be > 0"),
    (lambda: capacity_table([2.0], lam=math.inf, sigma=1.0), "lam must be > 0"),
    (lambda: capacity_table([2.0], lam=1.0, sigma=0.0), "sigma must be > 0"),
    (lambda: capacity_table([2.0], lam=1.0, sigma=math.nan), "sigma must be > 0"),
    (lambda: capacity_table([2.0, math.inf], lam=1.0, sigma=1.0), "every A must be finite"),
    (lambda: capacity_table([math.nan], lam=1.0, sigma=1.0), "every A must be finite"),
], ids=["profile_k_0", "profile_k_negative", "profile_k_nan", "profile_mu_below_pole",
        "profile_mu_at_pole", "profile_mu_inf", "profile_target_nan", "maxent_k_inf",
        "gaussian_nan", "gaussian_inf", "gaussian_negative", "feasibility_level_nan",
        "profile_p_0", "profile_p_1.5", "profile_p_negative", "profile_p_nan",
        "custom_dim_0", "custom_dim_3", "custom_center_nan", "custom_center_inf",
        "custom_center_2_coords_on_the_line", "custom_center_3_coords_in_the_plane",
        "custom_scale_0", "custom_scale_inf", "custom_scale_nan",
        "table_lam_0", "table_lam_negative", "table_lam_nan", "table_lam_inf", "table_sigma_0",
        "table_sigma_nan", "table_A_inf", "table_A_nan"])
def test_law_parameters_are_checked(make, match):
    with pytest.raises(ValueError, match=match):
        make()


# entropy estimation ---------------------------------------------------------------


def test_entropy_quadrature_values():
    assert entropy_estimate(UnivariateCauchy(0.0, 1.0)).value == pytest.approx(
        LN_4PI, abs=1e-8
    )
    est = entropy_estimate(iso2(1.0))
    assert est.value == pytest.approx(math.log(2.0 * math.pi) + 3.0, abs=1e-4)
    assert est.std_error == 0.0 and est.method == "quadrature"


def test_entropy_knn_on_exact_samples():
    d = UnivariateCauchy(0.0, 1.0)
    est = entropy_estimate(sample_univariate(d, 200_000, seed=11), "knn")
    assert est.method == "knn" and est.std_error > 0.0
    assert abs(est.value - LN_4PI) <= 3.0 * est.std_error + 0.005


def test_entropy_histogram_transformed():
    d = UnivariateCauchy(0.0, 2.0)
    est = entropy_estimate(sample_univariate(d, 200_000, seed=12), "histogram_transformed")
    assert abs(est.value - entropy_univariate(d)) <= 0.02


def test_entropy_requires_enough_samples():
    with pytest.raises(ValueError):
        entropy_estimate(np.zeros(10), "knn")


@pytest.mark.parametrize("d", [3, 4])
def test_entropy_knn_in_three_and_more_columns(d):
    # The unit-ball volume pi^(d/2) / Gamma(d/2 + 1) enters the estimate; a
    # wrong one shifts it by a constant (ln(3/4) at d = 3, ln(2/pi) at d = 4).
    n = 100_000
    gauss = np.random.default_rng(7).standard_normal((n, d))
    cauchy = MultivariateCauchy(np.zeros(d), np.diag(np.linspace(0.5, 2.0, d)))
    for samples, exact in (
        (gauss, 0.5 * d * math.log(2.0 * math.pi * math.e)),
        (sample_multivariate(cauchy, n, seed=8), entropy_multivariate(cauchy)),
    ):
        est = entropy_estimate(samples, "knn")
        assert abs(est.value - exact) <= 3.0 * est.std_error + 0.03


@pytest.mark.parametrize("d", [2, 3])
def test_knn_distances_equal_a_plain_tree_query(d):
    from scipy.spatial import cKDTree

    from faplab.capacity import _cell_order, _nearest_neighbor_distances

    # 150,001 rows end the last query block at an uneven boundary; three
    # planted duplicate pairs give six zero distances.  The distances come in
    # the order of the rows they are given, here the cell order of x / t.
    n = 150_001
    x = np.random.default_rng(21).standard_cauchy((n, d))
    x[[10, 70_000, 150_000]] = x[[5, 69_999, 3]]
    ref = cKDTree(x).query(x, k=2)[0][:, 1]
    r = np.linalg.norm(x, axis=1)
    perm = _cell_order(x, 0.5 * (r + np.median(r)))
    assert np.array_equal(np.sort(perm), np.arange(n))
    xs = x[perm]
    eps = np.concatenate([e for _, e in _nearest_neighbor_distances(xs)])
    assert np.array_equal(eps, ref[perm])
    dropped = int(np.count_nonzero(ref == 0.0))
    assert dropped == 6
    with pytest.warns(RuntimeWarning, match=f"dropped {dropped} duplicate points"):
        entropy_estimate(x, "knn")


def _reference_cell_codes(y, t):
    """The row-major cell code of each row of w = y / t, spelled out from its definition."""
    n, d = y.shape
    cells = 2 ** (16 // d)
    w = y / t[:, None]
    code = np.zeros(n, dtype=np.int64)
    for j in range(d):
        cell = np.clip(np.floor((w[:, j] + 2.0) / 4.0 * cells), 0, cells - 1)
        code = code * cells + cell.astype(np.int64)
    return code


@settings(max_examples=20, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4]),
    case=st.sampled_from(["cauchy", "constant_column", "cell_edges"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cell_order_is_a_stable_sort_by_cell(d, case, seed):
    from faplab.capacity import _cell_order

    rng = np.random.default_rng(seed)
    y = rng.standard_cauchy((1000, d))
    if case == "constant_column":
        y[:, 1] = 0.0 if seed % 2 else 3.5
    r = np.linalg.norm(y, axis=1)
    t = 0.5 * (r + (np.median(r) or 1.0))
    if case == "cell_edges":
        # w on the cell edges, -2 and 2 among them, and a step past each end
        cells = 2 ** (16 // d)
        y = rng.integers(-cells // 2 - 1, cells // 2 + 2, (1000, d)) / (cells // 4)
        t = np.ones(1000)
    code = _reference_cell_codes(y, t)
    assert code.min() >= 0 and code.max() < 2**16
    perm = _cell_order(y, t)
    assert np.array_equal(np.sort(perm), np.arange(len(y)))
    assert np.array_equal(perm, np.argsort(code, kind="stable"))


@pytest.mark.parametrize("case", ["a_third", "all"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_entropy_knn_is_exact_in_scale_near_the_float_maximum(d, case):
    # A third of the rows, or every row, near 1.7e308: the norms overflow
    # (d > 1), and with every row there the median norm plus the largest
    # would too; on the line, gaps across 0 pass the float range.  Each case
    # is a power of 2 away from one in the float range.
    rng = np.random.default_rng(29)
    y = rng.standard_cauchy((3000, d))
    rows = slice(None, None, 3) if case == "a_third" else slice(None)
    y[rows] = np.sign(y[rows]) * rng.uniform(0.5, 1.0, y[rows].shape) * 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near = entropy_estimate(y, "knn")
        scaled = entropy_estimate(np.ldexp(y, -600), "knn")
    assert math.isfinite(near.value) and near.std_error > 0.0
    assert near.value == pytest.approx(scaled.value + d * 600 * math.log(2.0), rel=0.0, abs=1e-12)
    assert near.std_error == pytest.approx(scaled.std_error, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("far", [1e160, 1e200, 1e300])
def test_entropy_knn_takes_one_row_far_past_the_rest(far):
    # The outlier moves the estimate by its own share of the Jacobian term,
    # 3 ln ||y_0|| / n, and by almost nothing else: it drops no point.
    y = isotropic_cauchy(2, 1.0).sample(20_000, seed=3)
    base = entropy_estimate(y, "knn")
    y[0] = far
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = entropy_estimate(y, "knn")
    share = 3.0 * math.log(math.hypot(far, far)) / len(y)
    assert math.isfinite(est.value)
    assert abs(est.value - (base.value + share)) <= 0.005


@pytest.mark.parametrize("d", [1, 2, 3])
def test_entropy_knn_does_not_depend_on_row_order(d):
    x = np.random.default_rng(25).standard_cauchy((20_000, d))
    a = entropy_estimate(x, "knn")
    for seed in (26, 27):
        b = entropy_estimate(x[np.random.default_rng(seed).permutation(len(x))], "knn")
        assert b.value == pytest.approx(a.value, rel=1e-12)
        assert b.std_error == pytest.approx(a.std_error, rel=1e-12)


# kNN estimates (value, std_error) as float.hex, of 20,000 isotropic Cauchy
# rows of scale 1 drawn with the seed given, taken with numpy 2.4.6 and
# scipy 1.17.1 on x86-64.  A change to the estimator that is meant to leave
# it bit for bit as it was must leave these.  Other versions or machines may
# round differently, so the test runs only where the pins were taken.
PINNED_KNN = {
    1: (41, "0x1.446b7088518bcp+1", "0x1.ffb4ead4fe7bfp-7"),
    2: (42, "0x1.37372e8c0e39fp+2", "0x1.7fa676abf07eap-6"),
    3: (43, "0x1.c4e362ec8a3e0p+2", "0x1.f4b608f15dd59p-6"),
}


@pytest.mark.skipif(
    (np.__version__, scipy.__version__, platform.machine()) != ("2.4.6", "1.17.1", "x86_64"),
    reason="the pins hold for numpy 2.4.6 and scipy 1.17.1 on x86-64",
)
@pytest.mark.parametrize("d", sorted(PINNED_KNN))
def test_entropy_knn_is_pinned(d):
    seed, value, std_error = PINNED_KNN[d]
    est = entropy_estimate(isotropic_cauchy(d, 1.0).sample(20_000, seed), "knn")
    assert (est.value.hex(), est.std_error.hex()) == (value, std_error)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [500, 997, -1000])
def test_entropy_knn_is_exact_in_scale_at_the_ends_of_the_float_range(k, d):
    # Squared distances of 2-D samples near 2^500 overflow, and those of
    # samples near 2^-1000 underflow to 0; distances of the bounded map's
    # image do neither, and the map takes the scale out exactly.  On the
    # line the gaps of sorted samples scale exactly.
    y = np.random.default_rng(23).standard_cauchy((20_000, d))
    unit = entropy_estimate(y, "knn")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = entropy_estimate(np.ldexp(y, k), "knn")
    assert far.value == pytest.approx(unit.value + d * k * math.log(2.0), rel=0.0, abs=1e-12)
    assert far.std_error == pytest.approx(unit.std_error, rel=0.0, abs=1e-12)


@pytest.mark.parametrize(
    "samples, match",
    [
        (np.ones((2000, 2, 2)), r"got shape \(2000, 2, 2\)"),
        (np.empty((2000, 0)), r"got shape \(2000, 0\)"),
        (np.zeros(2000), "got 0 of 2000"),
        (np.full((2000, 2), 3.0), "got 0 of 2000"),
        (np.repeat(np.arange(1000.0), 2), "got 0 of 2000"),
        (np.r_[np.zeros(1999), 1.0], "got 1 of 2000"),
    ],
    ids=["3d_array", "no_columns", "zeros", "constant_rows", "pairs", "one_distinct"],
)
def test_entropy_knn_rejects_out_of_domain_samples(samples, match):
    with pytest.raises(ValueError, match=match):
        entropy_estimate(samples, "knn")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("dim, method", [(1, "knn"), (2, "knn"), (1, "histogram_transformed")],
                         ids=["1", "2", "histogram_transformed"])
def test_entropy_knn_rejects_non_finite_samples(bad, dim, method):
    samples = sample_univariate(UnivariateCauchy(0.0, 1.0), 5000 * dim, seed=4).reshape(5000, dim)
    samples[17, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        entropy_estimate(samples[:, 0] if dim == 1 else samples, method)


def test_entropy_unnormalized_pdf_rejected():
    bad = CustomDensity(pdf=lambda y: 2.0 / (math.pi * (1.0 + y * y)), dim=1)
    with pytest.raises(ValueError, match="not normalized"):
        entropy_estimate(bad, "quadrature")
    short = CustomDensity(pdf=lambda y: 0.9 / (math.pi * (1.0 + y * y)), dim=1)
    with pytest.raises(ValueError, match="not normalized"):
        entropy_estimate(short, "quadrature")


def test_entropy_custom_density_ok():
    good = CustomDensity(pdf=lambda y: 1.0 / (math.pi * (1.0 + y * y)), dim=1)
    assert entropy_estimate(good).value == pytest.approx(LN_4PI, abs=1e-8)


def test_entropy_unknown_method():
    with pytest.raises(ValueError):
        entropy_estimate(np.zeros(2000), "parzen")


# mutual information ----------------------------------------------------------------


def test_mutual_information_2d():
    g = ChannelGeometry(2, 1.0, 1.0)
    a_over_lam = 2.0
    mi = mutual_information(UnivariateCauchy(0.0, a_over_lam - 1.0), g)
    assert mi == pytest.approx(math.log(a_over_lam), abs=1e-12)


def test_mutual_information_degenerate_input():
    assert mutual_information(Degenerate(0.0), ChannelGeometry(2, 1.0, 1.0)) == 0.0
    # A point mass anywhere carries nothing: it only shifts the output.
    assert mutual_information(Degenerate(2.5), ChannelGeometry(2, 1.3, 1.0)) == 0.0
    assert mutual_information(Degenerate([0.5, -1.0]), ChannelGeometry(3, 1.3, 1.0)) == 0.0


def test_mutual_information_3d():
    g = ChannelGeometry(3, 1.0, 1.0)
    mi = mutual_information(iso2(1.0), g)  # A = 2 lam
    assert mi == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_mutual_information_rejects_mismatched_family():
    g = ChannelGeometry(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        mutual_information(UnivariateCauchy(0.0, 1.0), g)
    with pytest.raises(ValueError, match="different dimensions"):
        mutual_information(Degenerate([0.0, 0.0]), ChannelGeometry(2, 1.0, 1.0))


# closed-form capacities ---------------------------------------------------------------


def test_capacity_closed_form_2d():
    r = capacity_closed_form("fap2d", 2.0, 1.0)
    assert r.capacity == pytest.approx(0.6931471805599453, abs=1e-12)
    assert isinstance(r.achieving_output, UnivariateCauchy) and r.achieving_output.scale == 2.0
    assert isinstance(r.achieving_input, UnivariateCauchy) and r.achieving_input.scale == 1.0


def test_capacity_closed_form_3d():
    r = capacity_closed_form("fap3d", 2.0, 1.0)
    assert r.capacity == pytest.approx(1.3862943611198906, abs=1e-12)
    assert isinstance(r.achieving_output, MultivariateCauchy)
    assert np.allclose(r.achieving_output.scale_matrix, 4.0 * np.eye(2))
    assert "sum closure" in r.note


@pytest.mark.parametrize("A, floor", [(2.0, 1.0), (3.7, 1.3), (1.5, 1.5)])
def test_capacity_closed_form_laws_equal_hand_built(A, floor):
    r2 = capacity_closed_form("fap2d", A, floor)
    assert r2.capacity == math.log(A / floor) and r2.note == ""
    assert r2.achieving_output == UnivariateCauchy(0.0, A)
    if A > floor:
        assert r2.achieving_input == UnivariateCauchy(0.0, A - floor)
    else:
        assert r2.achieving_input == Degenerate(0.0) and r2.achieving_input.location == 0.0
    r3 = capacity_closed_form("fap3d", A, floor)
    assert r3.capacity == 2.0 * math.log(A / floor)
    assert r3.note == (
        "achieving input scale derived from the output via the isotropic Cauchy sum closure"
    )
    out, inp = r3.achieving_output, r3.achieving_input
    assert np.array_equal(out.location, [0.0, 0.0])
    assert np.array_equal(out.scale_matrix, A * A * np.eye(2))
    if A > floor:
        assert np.array_equal(inp.location, [0.0, 0.0])
        assert np.array_equal(inp.scale_matrix, (A - floor) * (A - floor) * np.eye(2))
    else:
        assert isinstance(inp, Degenerate) and np.array_equal(inp.location, np.zeros(2))


@pytest.mark.parametrize("channel", ["fap2d", "fap3d"])
@pytest.mark.parametrize("A", [3.0, 1.0])
def test_capacity_results_compare_and_hash_by_value(channel, A):
    r = capacity_closed_form(channel, A, 1.0)
    assert r == capacity_closed_form(channel, A, 1.0)
    assert hash(r) == hash(capacity_closed_form(channel, A, 1.0))
    assert r != capacity_closed_form(channel, A + 1.0, 1.0)
    assert r != capacity_closed_form("fap3d" if channel == "fap2d" else "fap2d", A, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_capacity_closed_form_3d_scale_too_large_to_square():
    with pytest.raises(ValueError, match="its square overflows"):
        capacity_closed_form("fap3d", 1e160, 1.0)
    assert capacity_closed_form("fap2d", 1e160, 1.0).capacity == math.log(1e160)


@pytest.mark.parametrize(
    "A, floor, how", [(1e155, 1.0, "overflows"), (1e-200, 1e-200, "underflows")]
)
def test_capacity_closed_form_gaussian_rejects_a_level_whose_square_leaves_the_float_range(
    A, floor, how
):
    with pytest.raises(ValueError, match=f"its square {how}"):
        capacity_closed_form("gaussian", A, floor)


def test_capacity_closed_form_gaussian():
    r = capacity_closed_form("gaussian", 2.0, 1.0)
    assert r.capacity == pytest.approx(math.log(2.0), abs=1e-14)
    assert isinstance(r.achieving_output, GaussianSpec) and r.achieving_output.variance == 4.0
    assert r.achieving_input.variance == pytest.approx(3.0)


def test_capacity_zero_at_floor_and_infeasible_below():
    r = capacity_closed_form("fap2d", 1.0, 1.0)
    assert r.capacity == 0.0
    assert isinstance(r.achieving_input, Degenerate)
    with pytest.raises(InfeasibleError):
        capacity_closed_form("fap2d", 0.99, 1.0)


def test_capacity_strictly_increasing():
    caps = [capacity_closed_form("fap3d", a, 1.0).capacity for a in np.linspace(1.0, 5.0, 9)]
    assert all(b > a for a, b in zip(caps, caps[1:]))


# max-entropy profiles -------------------------------------------------------------------


def test_maxent_profile_recovers_cauchy_exponents():
    p1 = maxent_profile(SPEC1, 1.0)
    assert p1.mu == pytest.approx(1.0, abs=1e-6)
    p2 = maxent_profile(SPEC2, 1.0)
    assert p2.mu == pytest.approx(1.5, abs=1e-6)


def test_maxent_profile_matches_cauchy_shape():
    p1 = maxent_profile(SPEC1, 2.0)
    d = UnivariateCauchy(0.0, 2.0)
    from faplab.cauchy import pdf_univariate

    for y in (-5.0, 0.0, 1.1, 14.0):
        assert float(p1.pdf(y)) == pytest.approx(float(pdf_univariate(d, y)), rel=1e-6)


@pytest.mark.parametrize("p, k", [(1, 1.7), (2, 0.8)])
def test_maxent_cached_normalizer_is_exact(p, k):
    # The normalizer restated as the code forms it: the head plus the gamma
    # ratio, which at p = 2 is the closed form 1 / (mu - 1) and at p = 1
    # (mu = 1 here) the log-gamma difference.
    prof = maxent_profile(ConstraintSpec(p), k)
    mu = prof.mu
    head = 0.5 * p * math.log(math.pi) + p * math.log(k)
    if p == 2:
        log_norm = head - math.log(mu - 1.0)
    else:
        log_norm = head + (log_gamma(mu - 0.5) - log_gamma(mu))
    y = np.random.default_rng(2).normal(size=(40, p)) * 5.0
    if p == 1:
        y = y[:, 0]
        q = (y / k) ** 2
    else:
        q = np.sum((y / k) ** 2, axis=1)
    first = prof.pdf(y)
    assert np.array_equal(first, np.exp(-mu * np.log1p(q) - log_norm))
    assert np.array_equal(prof.pdf(y), first)
    assert prof.entropy_closed_form() == log_norm + mu * w2(mu, 0.5 * p)


def test_maxent_plane_normalizer_closed_form_is_the_gamma_ratio():
    # -ln(mu - 1) against log_gamma(mu - 1) - log_gamma(mu), to 2 ulp of the
    # terms (the sum cancels near k = 1 / sqrt(2 pi)).
    mu = maxent_profile(SPEC2, 1.0).mu
    by_gamma = log_gamma(mu - 1.0) - log_gamma(mu)
    for k in np.linspace(0.1, 3.0, 30):
        head = math.log(math.pi) + 2.0 * math.log(k)
        log_norm = MaxentProfile(2, float(k), mu, SPEC2.c).log_norm
        assert abs(log_norm - (head + by_gamma)) <= 2.0 * math.ulp(abs(head) + abs(by_gamma)), k


def test_maxent_exponent_monotone_in_target():
    mus = [maxent_profile(ConstraintSpec(1, target=c), 1.0).mu for c in (0.9, 1.39, 2.1)]
    assert mus[0] > mus[1] > mus[2]


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([1, 2]),
    e1=st.floats(min_value=-3.0, max_value=6.0),
    e2=st.floats(min_value=-3.0, max_value=6.0),
)
def test_maxent_exponent_solves_the_target_and_falls_with_it(p, e1, e2):
    assume(abs(e1 - e2) >= 1e-3)
    c1, c2 = 10.0**e1, 10.0**e2
    mu1 = maxent_profile(ConstraintSpec(p, target=c1), 1.0).mu
    mu2 = maxent_profile(ConstraintSpec(p, target=c2), 1.0).mu
    assert w2(mu1, 0.5 * p) == pytest.approx(c1, rel=1e-9)
    assert w2(mu2, 0.5 * p) == pytest.approx(c2, rel=1e-9)
    assert (mu1 > mu2) == (c1 < c2)


@pytest.mark.parametrize("p", [1, 2])
def test_maxent_exponent_at_the_paper_constant_is_exact(p):
    assert maxent_profile(ConstraintSpec(p), 1.0).mu == 0.5 * (1 + p)


# Roots of psi(mu) - psi(mu - 1/2) = c by mpmath at 50 digits.
@pytest.mark.parametrize(
    "c, mu", [(1e-9, 500000000.749999999875), (1e-12, 500000000000.7499999999999),
              (1e-14, 50000000000000.75)],
)
def test_maxent_exponent_on_the_line_at_small_targets(c, mu):
    assert maxent_profile(ConstraintSpec(1, target=c), 1.0).mu == pytest.approx(mu, rel=1e-15)


# ln Z + mu c at the roots of psi(mu) - psi(mu - 1/2) = c, by mpmath at 60 digits.
@pytest.mark.parametrize(
    "c, h", [(1e-6, -5.488815995777526810274), (1e-9, -8.942694384518532836363),
             (1e-12, -12.39657202475885136233), (1e-15, -15.85044966425066913835)],
)
def test_maxent_entropy_on_the_line_at_small_targets(c, h):
    # The normalizer's log-gamma difference is taken from Stirling's series:
    # as log_gamma(mu - 1/2) - log_gamma(mu) it is off by 2e-3 nats at
    # c = 1e-12 and whole nats at 1e-15.
    prof = maxent_profile(ConstraintSpec(1, target=c), 1.0)
    assert prof.entropy_closed_form() == pytest.approx(h, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("p", [1, 2])
def test_maxent_targets_past_the_float_range_are_value_errors(p):
    # Newton's start point rounds to p/2 above about 1e16.  At p = 1 the
    # exponent's offset mu - 1/2 rounds below about 1.1e-16; at p = 2 every
    # target in the sweep solves (see the test below).  Near those ends
    # either outcome is right, but no other exception may escape.
    smallest = -15.0 if p == 1 else -300.0
    for e in np.linspace(-300.0, 300.0, 1201):
        spec = ConstraintSpec(p, target=10.0**e)
        if smallest <= e <= 15.0:
            assert 0.5 * p < maxent_profile(spec, 1.0).mu < math.inf
        elif abs(e) >= 16.0:
            with pytest.raises(ValueError, match="too large" if e > 0 else "too small"):
                maxent_profile(spec, 1.0)
        else:
            with contextlib.suppress(ValueError):
                maxent_profile(spec, 1.0)


def test_maxent_exponent_in_the_plane_is_exact_down_to_the_smallest_targets():
    # mu = 1 + 1/c solves w2(mu, 1) = 1/(mu - 1) = c to within rounding for
    # every target up to 1, down to the smallest whose reciprocal is finite;
    # a target whose reciprocal overflows is too small.
    tiny = math.nextafter(1.0 / sys.float_info.max, 1.0)
    assert 1.0 / tiny < math.inf and 1.0 / math.nextafter(tiny, 0.0) == math.inf
    for c in [tiny, *10.0 ** np.linspace(-300.0, 0.0, 601)]:
        mu = maxent_profile(ConstraintSpec(2, target=c), 1.0).mu
        assert w2(mu, 1.0) == pytest.approx(c, rel=4e-16), c
    with pytest.raises(ValueError, match="too small"):
        maxent_profile(ConstraintSpec(2, target=math.nextafter(tiny, 0.0)), 1.0)


@pytest.mark.parametrize("p", [1, 2])
def test_maxent_solve_work(monkeypatch, p):
    # Where w2 rounds to the same value across Newton steps, the climb stops
    # instead of creeping across the flat stretch.
    calls = []
    real = capacity_module.w2
    monkeypatch.setattr(capacity_module, "w2", lambda t, a: calls.append(t) or real(t, a))
    for e in np.linspace(-13.0, 15.0, 561):
        calls.clear()
        maxent_profile(ConstraintSpec(p, target=10.0**e), 1.0)
        assert len(calls) <= 10, e


def test_maxent_rejects_bad_target():
    with pytest.raises(ValueError):
        maxent_profile(ConstraintSpec(1, target=-1.0), 1.0)
    with pytest.raises(ValueError):
        maxent_profile(SPEC1, 0.0)


def test_maxent_profile_entropy_and_dispersion():
    prof = maxent_profile(SPEC1, 1.7)
    assert entropy_estimate(prof).value == pytest.approx(math.log(4.0 * math.pi * 1.7), abs=1e-8)
    assert dispersion_of(prof, SPEC1) == pytest.approx(1.7, abs=1e-9)
    assert prof.entropy_closed_form() == pytest.approx(math.log(4.0 * math.pi * 1.7), abs=1e-10)


def test_maxent_grid_normalized_shape():
    prof = maxent_profile(SPEC2, 1.0)
    r, f = prof.grid(num=33)
    assert r[0] == 0.0 and f[0] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-6)
    assert np.all(np.diff(f) < 0.0)


# capacity table ------------------------------------------------------------------------


def test_capacity_table_values_and_identities():
    rows = capacity_table([1.0, math.e, 4.0], lam=1.0, sigma=1.0)
    assert rows[0]["C_gauss"] == 0.0 and rows[0]["C_2d"] == 0.0 and rows[0]["C_3d"] == 0.0
    assert rows[1]["C_2d"] == pytest.approx(1.0, abs=1e-15)
    assert rows[1]["C_3d"] == pytest.approx(2.0, abs=1e-15)
    for r in rows:
        assert r["C_3d"] == 2.0 * r["C_2d"]
        assert r["C_gauss"] == r["C_2d"]  # sigma = lam


def test_capacity_past_the_float_range_of_the_ratio():
    # A / floor overflows; ln A - ln floor does not.
    want = math.log(1e308) - math.log(1e-308)
    assert capacity_closed_form("fap2d", 1e308, 1e-308).capacity == pytest.approx(want, rel=1e-15)
    row = capacity_table([1e308], lam=1e-308, sigma=1e-308)[0]
    assert row["C_2d"] == row["C_gauss"] == pytest.approx(want, rel=1e-15)
    assert row["C_3d"] == 2.0 * row["C_2d"]


def test_capacity_table_marks_infeasible():
    rows = capacity_table([0.5, 2.0], lam=1.0, sigma=1.0)
    assert math.isnan(rows[0]["C_2d"]) and math.isnan(rows[0]["C_gauss"])
    assert not math.isnan(rows[1]["C_2d"])
