import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faplab.cauchy import (
    Degenerate,
    MultivariateCauchy,
    UnivariateCauchy,
    cdf_univariate,
    entropy_multivariate,
    entropy_univariate,
    independent_sum,
    isotropic_cauchy,
    linear_combination,
    pdf_multivariate,
    pdf_univariate,
    phi_constant,
    sample_multivariate,
    sample_univariate,
)
from faplab.capacity import entropy_estimate
from faplab.sim import ks_statistic, ks_two_sample
from faplab.special import log_gamma
from faplab.verify import _check_norm, _check_sum_closure

LN_4PI = math.log(4.0 * math.pi)


# construction and densities -------------------------------------------------


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        UnivariateCauchy(0.0, 0.0)
    with pytest.raises(ValueError):
        UnivariateCauchy(0.0, -1.0)
    with pytest.raises(ValueError):
        MultivariateCauchy([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # not PD
    with pytest.raises(ValueError):
        MultivariateCauchy([0.0, 0.0], [[1.0, 0.3], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        MultivariateCauchy([0.0], np.eye(2))  # shape mismatch
    with pytest.raises(ValueError, match="scale must be > 0"):
        UnivariateCauchy(0.0, math.inf)
    with pytest.raises(ValueError, match="location must be finite"):
        MultivariateCauchy([math.nan, 0.0], np.eye(2))
    with pytest.raises(ValueError, match="scale matrix must be finite"):
        MultivariateCauchy([0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="location must be finite"):
        isotropic_cauchy(2, 1.0, [math.nan, 0.0])


@pytest.mark.parametrize("p", [1, 2, 3])
def test_isotropic_cauchy_class_scale_and_location(p):
    loc = np.arange(1.0, p + 1.0)
    central, shifted = isotropic_cauchy(p, 1.7), isotropic_cauchy(p, 1.7, loc)
    if p == 1:
        assert central == UnivariateCauchy(0.0, 1.7)
        assert shifted == UnivariateCauchy(1.0, 1.7)
        return
    for d, mu in ((central, np.zeros(p)), (shifted, loc)):
        assert isinstance(d, MultivariateCauchy) and d.dim == p
        assert np.array_equal(d.location, mu)
        assert np.array_equal(d.scale_matrix, 1.7 * 1.7 * np.eye(p))
        assert d.isotropic_scale() == 1.7


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("scale", [0.0, -1.0, -2.5, math.nan])
def test_isotropic_cauchy_rejects_non_positive_scale(p, scale):
    with pytest.raises(ValueError, match="scale must be > 0"):
        isotropic_cauchy(p, scale)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "scale, word",
    [
        pytest.param(1e160, "overflows", id="large"),
        pytest.param(np.float64(1e160), "overflows", id="large-float64"),
        pytest.param(1e-170, "underflows", id="small"),
    ],
)
def test_isotropic_cauchy_rejects_scale_whose_square_leaves_float_range(p, scale, word):
    with pytest.raises(ValueError, match=f"out of range: its square {word}"):
        isotropic_cauchy(p, scale)
    # The univariate law never forms the square.
    assert isotropic_cauchy(1, scale).scale == scale


@pytest.mark.parametrize("p", [2, 3])
def test_multivariate_laws_compare_and_hash_by_value(p):
    a, b = isotropic_cauchy(p, 1.0), isotropic_cauchy(p, 1.0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a == MultivariateCauchy(np.zeros(p), np.eye(p))
    assert a != isotropic_cauchy(p, 2.0)
    assert a != isotropic_cauchy(p, 1.0, np.r_[1.0, np.zeros(p - 1)])
    assert a != isotropic_cauchy(5 - p, 1.0) and a != "law"
    skew = np.eye(p)
    skew[0, 1] = skew[1, 0] = 0.5
    assert MultivariateCauchy(np.zeros(p), skew) != a
    # -0.0 == 0.0, so their hashes agree too.
    assert hash(MultivariateCauchy(-np.zeros(p), np.eye(p))) == hash(a)
    point = Degenerate(np.zeros(p))
    assert point == Degenerate(np.zeros(p)) and hash(point) == hash(Degenerate(np.zeros(p)))
    assert point != Degenerate(np.ones(p)) and point != a


def test_isotropic_cauchy_rejects_bad_dimension_and_location():
    with pytest.raises(ValueError, match="dimension"):
        isotropic_cauchy(0, 1.0)
    with pytest.raises(ValueError, match="does not match"):
        isotropic_cauchy(2, 1.0, [0.0, 0.0, 0.0])


def test_pdf_univariate_peak_and_half_peak():
    d = UnivariateCauchy(0.0, 1.0)
    assert pdf_univariate(d, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert pdf_univariate(d, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_pdf_univariate_shifted_scaled():
    d = UnivariateCauchy(2.0, 3.0)
    assert pdf_univariate(d, 5.0) == pytest.approx(1.0 / (6.0 * math.pi), rel=1e-14)


def test_pdf_multivariate_origin_values():
    b = MultivariateCauchy([0.0, 0.0], np.eye(2))
    assert pdf_multivariate(b, [0.0, 0.0]) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    lam = 1.8
    bl = MultivariateCauchy([0.0, 0.0], lam**2 * np.eye(2))
    assert pdf_multivariate(bl, [0.0, 0.0]) == pytest.approx(
        1.0 / (2.0 * math.pi * lam**2), rel=1e-12
    )


def test_pdf_multivariate_isotropic_matches_concise_form():
    lam = 1.3
    b = MultivariateCauchy([0.0, 0.0], lam**2 * np.eye(2))
    pts = np.random.default_rng(0).normal(size=(100, 2)) * 4.0
    concise = lam / (2.0 * math.pi * (np.sum(pts**2, axis=1) + lam**2) ** 1.5)
    got = pdf_multivariate(b, pts)
    assert np.max(np.abs(got - concise) / concise) <= 1e-12


def test_pdf_multivariate_p1_equals_univariate():
    m = MultivariateCauchy([2.0], [[9.0]])
    u = UnivariateCauchy(2.0, 3.0)
    for y in np.linspace(-25.0, 25.0, 101):
        assert pdf_multivariate(m, [[y]])[0] == pytest.approx(
            float(pdf_univariate(u, y)), abs=1e-12
        )


def test_pdf_multivariate_cached_normalizer_is_exact():
    sig = np.array([[2.0, 0.7], [0.7, 0.9]])
    d = MultivariateCauchy([0.3, -1.1], sig)
    pts = np.random.default_rng(1).normal(size=(50, 2)) * 3.0
    chol = np.linalg.cholesky(sig)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    log_norm = log_gamma(1.5) - log_gamma(0.5) - math.log(math.pi) - 0.5 * log_det
    delta = pts - d.location
    w0 = delta[:, 0] / chol[0, 0]
    w1 = (delta[:, 1] - w0 * chol[1, 0]) / chol[1, 1]
    want = np.exp(log_norm - 1.5 * np.log1p(w0 * w0 + w1 * w1))
    first = pdf_multivariate(d, pts)
    assert np.array_equal(first, want)
    assert np.array_equal(pdf_multivariate(d, pts), first)


def test_pdf_dimension_mismatch():
    b = MultivariateCauchy([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        pdf_multivariate(b, [[1.0, 2.0, 3.0]])


# entropies ------------------------------------------------------------------


def test_entropy_univariate_closed_form():
    assert entropy_univariate(UnivariateCauchy(0.0, 1.0)) == pytest.approx(LN_4PI, abs=1e-14)
    assert entropy_univariate(UnivariateCauchy(0.0, math.e / (4.0 * math.pi))) == pytest.approx(
        1.0, abs=1e-13
    )
    # translation invariance
    assert entropy_univariate(UnivariateCauchy(7.0, 1.0)) == entropy_univariate(
        UnivariateCauchy(0.0, 1.0)
    )


def test_phi_constants():
    assert phi_constant(1) == pytest.approx(LN_4PI, abs=1e-10)
    assert phi_constant(2) == pytest.approx(math.log(2.0 * math.pi) + 3.0, abs=1e-10)


def test_entropy_multivariate_values():
    for k in (0.5, 1.0, 2.7):
        d = MultivariateCauchy([0.0, 0.0], k**2 * np.eye(2))
        assert entropy_multivariate(d) == pytest.approx(
            math.log(2.0 * math.pi * math.e**3 * k**2), abs=1e-12
        )
    d1 = MultivariateCauchy([0.0], [[2.0**2]])
    assert entropy_multivariate(d1) == pytest.approx(
        entropy_univariate(UnivariateCauchy(0.0, 2.0)), abs=1e-12
    )


def test_entropy_matches_quadrature():
    for g in (0.1, 1.0, 10.0):
        d = UnivariateCauchy(0.4, g)
        assert entropy_estimate(d, "quadrature").value == pytest.approx(
            entropy_univariate(d), abs=1e-8
        )
    for k in (0.5, 1.0, 3.0):
        b = MultivariateCauchy([0.0, 0.0], k**2 * np.eye(2))
        assert entropy_estimate(b, "quadrature").value == pytest.approx(
            entropy_multivariate(b), abs=1e-12
        )


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.01, max_value=100.0))
def test_entropy_scaling_property(g0, c):
    diff = entropy_univariate(UnivariateCauchy(0.0, c * g0)) - entropy_univariate(
        UnivariateCauchy(0.0, g0)
    )
    assert diff == pytest.approx(math.log(c), abs=1e-12)
    d0 = MultivariateCauchy([0.0, 0.0], g0**2 * np.eye(2))
    d1 = MultivariateCauchy([0.0, 0.0], (c * g0) ** 2 * np.eye(2))
    assert entropy_multivariate(d1) - entropy_multivariate(d0) == pytest.approx(
        2.0 * math.log(c), abs=1e-12
    )


# normalization --------------------------------------------------------------


def test_normalization_univariate():
    ok, detail = _check_norm(lambda: [UnivariateCauchy(0.0, g) for g in (0.1, 1.0, 10.0)],
                             "1e-9", False)
    assert ok, detail


def test_normalization_bivariate():
    # Radially for the central isotropic laws, over the plane for the other.
    ok, detail = _check_norm(
        lambda: [MultivariateCauchy([0.0, 0.0], g**2 * np.eye(2)) for g in (0.5, 2.0)]
        + [MultivariateCauchy([0.3, -0.5], [[1.5, 0.4], [0.4, 0.9]])], "1e-6", False)
    assert ok, detail


# sampling -------------------------------------------------------------------


def test_sample_univariate_statistics():
    d = UnivariateCauchy(0.0, 1.0)
    x = sample_univariate(d, 100_000, seed=7)
    assert abs(np.median(x)) <= 0.02
    assert 0.495 <= np.mean(np.abs(x) <= 1.0) <= 0.505


def test_sample_univariate_deterministic():
    d = UnivariateCauchy(1.0, 2.0)
    assert np.array_equal(sample_univariate(d, 1000, 3), sample_univariate(d, 1000, 3))
    assert sample_univariate(d, 0, 3).size == 0


@pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (-3.5, 0.25), (1e8, 7.0)])
def test_sample_univariate_matches_its_inverse_cdf_bit_for_bit(loc, scale):
    u = np.random.default_rng(17).random(3000)
    assert np.array_equal(sample_univariate(UnivariateCauchy(loc, scale), 3000, seed=17),
                          loc + scale * np.tan(math.pi * (u - 0.5)))


@pytest.mark.parametrize("loc, sig", [
    ([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
    ([1.5, -2.0], [[2.0, 0.6], [0.6, 0.5]]),
    ([0.0, 3.0, -1.0], [[1.0, 0.2, 0.0], [0.2, 2.0, 0.3], [0.0, 0.3, 0.7]]),
])
def test_sample_multivariate_matches_its_defining_expression_bit_for_bit(loc, sig):
    d = MultivariateCauchy(loc, sig)
    rng = np.random.default_rng(19)
    g = rng.standard_normal((3000, d.dim))
    z = rng.standard_normal(3000)
    assert np.array_equal(sample_multivariate(d, 3000, seed=19),
                          d.location + (g / np.abs(z)[:, None]) @ d._chol.T)


def test_sample_multivariate_marginals_ks():
    b = MultivariateCauchy([0.0, 0.0], np.eye(2))
    ref = UnivariateCauchy(0.0, 1.0)
    failures = 0
    for seed in range(10):
        s = sample_multivariate(b, 100_000, seed=seed)
        for c in range(2):
            if ks_statistic(s[:, c], lambda x: cdf_univariate(ref, x)) >= 0.0052:
                failures += 1
    assert failures <= 1


def test_sample_multivariate_isotropy():
    b = MultivariateCauchy([0.0, 0.0], np.eye(2))
    s = sample_multivariate(b, 100_000, seed=4)
    theta = math.pi / 6.0
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    rotated = s @ rot.T
    assert ks_two_sample(np.linalg.norm(s, axis=1), np.linalg.norm(rotated, axis=1)) < 0.01
    assert ks_two_sample(s[:, 0], rotated[:, 0]) < 0.01


def test_sample_multivariate_p1_matches_univariate_sampler():
    m = MultivariateCauchy([0.0], [[1.0]])
    u = UnivariateCauchy(0.0, 1.0)
    a = sample_multivariate(m, 100_000, seed=5)[:, 0]
    b = sample_univariate(u, 100_000, seed=6)
    assert ks_two_sample(a, b) < 0.01


def test_sample_multivariate_rejects_bad_scale():
    with pytest.raises(ValueError):
        MultivariateCauchy([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])


# independent sums -----------------------------------------------------------


def test_independent_sum_univariate():
    z = independent_sum(UnivariateCauchy(0.0, 1.0), UnivariateCauchy(0.0, 2.0))
    assert isinstance(z, UnivariateCauchy)
    assert z.location == 0.0 and z.scale == 3.0
    # A central 1-D multivariate law states its scale as the univariate law does.
    assert independent_sum(MultivariateCauchy([0.0], [[2.25]]),
                           UnivariateCauchy(0.5, 0.5)) == UnivariateCauchy(0.5, 2.0)


def test_independent_sum_bivariate():
    u = MultivariateCauchy([0.0, 0.0], 1.0 * np.eye(2))
    v = MultivariateCauchy([0.0, 0.0], 4.0 * np.eye(2))
    z = independent_sum(u, v)
    assert isinstance(z, MultivariateCauchy)
    assert np.allclose(z.scale_matrix, 9.0 * np.eye(2))


def test_independent_sum_with_point_mass():
    z = independent_sum(UnivariateCauchy(0.0, 1.5), Degenerate(0.0))
    assert isinstance(z, UnivariateCauchy) and z.scale == 1.5 and z.location == 0.0
    shifted = independent_sum(UnivariateCauchy(0.0, 1.5), Degenerate(2.0))
    assert shifted.location == 2.0
    assert independent_sum(Degenerate(1.0), Degenerate(-0.25)) == Degenerate(0.75)
    both = independent_sum(Degenerate([1.0, 2.0, 3.0]), Degenerate(np.array([0.5, 0.0, -1.0])))
    assert isinstance(both, Degenerate) and isinstance(both.location, np.ndarray)
    assert np.array_equal(both.location, [1.5, 2.0, 2.0])


def test_independent_sum_rejects_unsupported():
    u = UnivariateCauchy(0.0, 1.0)
    b = MultivariateCauchy([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        independent_sum(u, b)
    aniso = MultivariateCauchy([0.0, 0.0], np.diag([1.0, 4.0]))
    with pytest.raises(ValueError):
        independent_sum(b, aniso)
    aniso = MultivariateCauchy(np.zeros(3), np.diag([1.0, 1.0, 4.0]))
    for other in (isotropic_cauchy(3, 1.0), Degenerate(np.zeros(3))):
        for x, y in ((aniso, other), (other, aniso)):
            with pytest.raises(ValueError, match="not isotropic"):
                independent_sum(x, y)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_independent_sum_in_every_dimension(p):
    loc_a, loc_b = np.linspace(-1.0, 1.0, p), np.arange(p) * 0.25
    z = independent_sum(isotropic_cauchy(p, 1.25, loc_a), isotropic_cauchy(p, 0.5, loc_b))
    assert isinstance(z, MultivariateCauchy) and z.isotropic_scale() == 1.75
    assert np.array_equal(z.scale_matrix, 1.75**2 * np.eye(p))
    assert np.array_equal(z.location, loc_a + loc_b)
    shifted = independent_sum(Degenerate(loc_b), isotropic_cauchy(p, 1.25, loc_a))
    assert shifted.isotropic_scale() == 1.25
    assert np.array_equal(shifted.location, loc_b + loc_a)


def test_sum_closure_in_law_in_three_dimensions():
    # The first coordinate and the radius of summed draws against direct draws,
    # n = 1e5 each, for three scale pairs.
    ok, detail = _check_sum_closure(3, (4700, 4800, 4900), False)
    assert ok, detail


def test_sum_closure_in_law():
    ok, detail = _check_sum_closure(1, (10, 40, 70), False)
    assert ok, detail


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_sum_scale_additive_property(s, t):
    z = independent_sum(UnivariateCauchy(0.0, s), UnivariateCauchy(0.0, t))
    assert z.scale == pytest.approx(s + t, rel=1e-15)


# linear combinations --------------------------------------------------------


def test_linear_combination_marginal():
    b = MultivariateCauchy([0.0, 0.0], 2.5**2 * np.eye(2))
    out = linear_combination(b, [1.0, 0.0])
    assert out.location == 0.0 and out.scale == pytest.approx(2.5, rel=1e-14)
    samples = sample_multivariate(b, 100_000, seed=8)[:, 0]
    assert ks_statistic(samples, lambda x: cdf_univariate(out, x)) < 0.0052 * 1.3


def test_linear_combination_diagonal_direction():
    b = MultivariateCauchy([0.0, 0.0], np.eye(2))
    out = linear_combination(b, [1.0, 1.0])
    assert out.scale == pytest.approx(math.sqrt(2.0), rel=1e-14)
    s = sample_multivariate(b, 100_000, seed=9)
    assert ks_statistic(s @ np.ones(2), lambda x: cdf_univariate(out, x)) < 0.0052 * 1.3


def test_linear_combination_location():
    b = MultivariateCauchy([3.0, 4.0], np.eye(2))
    assert linear_combination(b, [1.0, 0.0]).location == 3.0


def test_linear_combination_zero_vector():
    b = MultivariateCauchy([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        linear_combination(b, [0.0, 0.0])
