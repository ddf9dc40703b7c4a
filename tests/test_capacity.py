import contextlib
import math
import sys

import numpy as np
import pytest
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
    sample_multivariate,
    sample_univariate,
)
from faplab.fap import ChannelGeometry
from faplab.quadrature import QuadratureError
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


def test_dispersion_of_profile_at_the_pole_is_a_quadrature_error():
    with pytest.raises(QuadratureError):
        dispersion_of(MaxentProfile(1, 1.0, 0.51, SPEC1.c), SPEC1)


@pytest.mark.parametrize(
    "law, spec",
    [
        (MaxentProfile(1, 1.1, 1.7, SPEC1.c), SPEC1),
        (MaxentProfile(2, 0.9, 2.2, SPEC2.c), SPEC2),
        (UnivariateCauchy(0.0, 1.8), SPEC1),
        (sample_univariate(UnivariateCauchy(0.0, 1.8), 100_000, seed=3), SPEC1),
    ],
    ids=["profile_1d", "profile_2d", "cauchy", "cauchy_samples"],
)
def test_dispersion_solve_work(law, spec, monkeypatch):
    # Log-moment evaluations per solve: the starting bracket [s/10, 10 s]
    # around the robust scale s keeps them at 13-17 (31-36 from [s/1e6, 1e6 s]).
    calls = []

    def counted(real):
        def f(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return f

    for name in ("log_moment", "_sample_log_moment"):
        monkeypatch.setattr(capacity_module, name, counted(getattr(capacity_module, name)))
    dispersion_of(law, spec)
    assert 0 < len(calls) <= 20


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

    from faplab.capacity import _nearest_neighbor_distances

    # 150,001 rows end the last query block at an uneven boundary; three
    # planted duplicate pairs give six zero distances.
    n = 150_001
    x = np.random.default_rng(21).standard_cauchy((n, d))
    x[[10, 70_000, 150_000]] = x[[5, 69_999, 3]]
    ref = cKDTree(x).query(x, k=2)[0][:, 1]
    assert np.array_equal(_nearest_neighbor_distances(x), ref)
    dropped = int(np.count_nonzero(ref == 0.0))
    assert dropped == 6
    with pytest.warns(RuntimeWarning, match=f"dropped {dropped} duplicate points"):
        entropy_estimate(x, "knn")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("dim", [1, 2])
def test_entropy_knn_rejects_non_finite_samples(bad, dim):
    samples = sample_univariate(UnivariateCauchy(0.0, 1.0), 5000 * dim, seed=4).reshape(5000, dim)
    samples[17, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        entropy_estimate(samples[:, 0] if dim == 1 else samples, "knn")


def test_entropy_unnormalized_pdf_rejected():
    bad = CustomDensity(pdf=lambda y: 2.0 / (math.pi * (1.0 + y * y)), dim=1)
    with pytest.raises(ValueError, match="not normalized"):
        entropy_estimate(bad, "quadrature")


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


def test_mutual_information_3d():
    g = ChannelGeometry(3, 1.0, 1.0)
    mi = mutual_information(iso2(1.0), g)  # A = 2 lam
    assert mi == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_mutual_information_rejects_mismatched_family():
    g = ChannelGeometry(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        mutual_information(UnivariateCauchy(0.0, 1.0), g)


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
    prof = maxent_profile(ConstraintSpec(p), k)
    mu = prof.mu
    log_norm = (
        0.5 * p * math.log(math.pi) + p * math.log(k) + log_gamma(mu - 0.5 * p) - log_gamma(mu)
    )
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


@pytest.mark.parametrize("p", [1, 2])
def test_maxent_targets_past_the_float_range_are_value_errors(p):
    # Newton's start point rounds to p/2 above about 1e16.  At p = 1 the
    # digamma difference cancels below about 1e-14; at p = 2 every target in
    # the sweep solves (see the test below).  Near those ends either outcome
    # is right, but no other exception may escape.
    smallest = -13.0 if p == 1 else -300.0
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
