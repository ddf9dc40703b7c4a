"""Named self-checks: every module invariant as an executable test.

Each check returns pass/fail plus a one-line diagnostic; the CLI ``verify``
subcommand runs them all and exits nonzero if any fail.  ``quick`` mode
shrinks the Monte Carlo sample sizes so the whole suite stays interactive;
the full suite reproduces the documented tolerances at their stated sizes.

``_CHECKS`` is the one list of check names and the one implementation of
each invariant: the CLI filters it, the test suite runs every entry in
quick mode, and the tests and acceptance criteria that restate an invariant
call its check, passing their own seeds or exponent grid where they differ.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import capacity as cap
from . import cauchy as cy
from . import fap
from . import sim
from . import special
from .quadrature import line_integral, plane_integral, radial_integral

__all__ = ["CheckResult", "run_checks", "check_names"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _grid_worst(values) -> float:
    return float(np.max(np.asarray(list(values), dtype=float)))


# ---------------------------------------------------------------------------
# special functions


def _check_w2_golden(quick: bool):
    # w2 at integer a is psi's recurrence, which meets the 3D constant 2 by
    # construction; it is held to scipy's digamma difference instead, at that
    # constant and across (a, 1e6), relative to max(1, |w2|).
    golden = abs(special.w2(1.0, 0.5) - 2.0 * math.log(2.0))
    cases = [(1.5, 1.0)] + [(a + d, a) for a in (1.0, 2.0) for d in np.geomspace(1e-3, 1e6 - a, 7)]
    recurrence = _grid_worst(
        abs(special.w2(t, a) - (special.digamma(t) - special.digamma(t - a)))
        / max(1.0, special.w2(t, a))
        for t, a in cases
    )
    worst = max(golden, recurrence)
    return worst <= 1e-12, (
        f"golden-value error {golden:.2e}, integer-offset deviation from the digamma "
        f"difference {recurrence:.2e} (tol 1e-12)"
    )


# ---------------------------------------------------------------------------
# cauchy


def _check_norm(laws: Callable[[], list], bound: str, quick: bool):
    # Each law's pdf integrated by the quadrature route of cap._law.  laws()
    # builds the laws when the check runs, not on import; bound is the
    # tolerance as text, printed verbatim in the detail.
    worst = _grid_worst(abs(cap._law(d)[1](lambda f, r: f) - 1.0) for d in laws())
    return worst <= float(bound), f"worst |integral - 1| = {worst:.2e} (tol {bound})"


def _check_entropy_quad(p: int, scales, bound: str, quick: bool):
    # bound is the tolerance as text ("1e-8"), printed verbatim in the detail
    tol = float(bound)
    worst = 0.0
    for g in scales:
        d = cy.isotropic_cauchy(p, g)
        est = cap.entropy_estimate(d, "quadrature").value
        worst = max(worst, abs(est - d.entropy()))
    return worst <= tol, f"worst quadrature-vs-closed-form gap {worst:.2e} (tol {bound})"


def _check_sum_closure(p: int, seeds, quick: bool):
    # Summed draws against direct draws from the closure law: the first
    # coordinate, and in the plane also the radius.  seeds holds the first
    # seed of each stream (first term, second term, direct draw).
    n = 20_000 if quick else 100_000
    tol = 0.02 if quick else 0.01
    worst = 0.0
    for i, (s, t) in enumerate([(1.0, 2.0), (0.3, 0.7), (5.0, 0.1)]):
        du, dv = cy.isotropic_cauchy(p, s), cy.isotropic_cauchy(p, t)
        u = du.sample(n, seed=seeds[0] + i)
        v = dv.sample(n, seed=seeds[1] + i)
        direct = cy.independent_sum(du, dv).sample(n, seed=seeds[2] + i)
        summed = u + v
        pairs = [(summed.reshape(n, p)[:, 0], direct.reshape(n, p)[:, 0])]
        if p > 1:
            pairs.append((np.linalg.norm(summed, axis=1), np.linalg.norm(direct, axis=1)))
        worst = max([worst] + [sim.ks_two_sample(a, b) for a, b in pairs])
    return worst <= tol, f"worst two-sample KS {worst:.4f} (tol {tol})"


def _check_entropy_scaling(quick: bool):
    entropy = lambda p, scale: cy.isotropic_cauchy(p, scale).entropy()
    worst = 0.0
    for c in (0.5, 2.0, 10.0):
        g0 = 0.7
        for p in (1, 2):
            worst = max(worst, abs(entropy(p, c * g0) - entropy(p, g0) - p * math.log(c)))
    return worst <= 1e-12, f"worst scaling-law residual {worst:.2e}"


# ---------------------------------------------------------------------------
# fap channel


def _sup_gap(dim: int, speed: float, outputs) -> float:
    """Sup over outputs (y, 0, ...) of |drifted density - Cauchy limit| (lam = sigma2 = 1).

    The drift of magnitude speed is along the traversal axis.
    """
    g = fap.ChannelGeometry(dim, 1.0, 1.0)
    p = g.n_transverse
    outputs = np.asarray(outputs, dtype=float)
    pts = np.column_stack([outputs, np.zeros((len(outputs), p - 1))])
    drift = fap.DriftVector(*[0.0] * p, speed)
    drifted = fap.fap_density(g, drift, np.zeros(p), pts)
    # The line's density keeps the (n, 1) shape of pts: ravel it.
    limit = fap.zero_drift_reduction(g).pdf(pts).ravel()
    return float(np.max(np.abs(drifted - limit)))


def _check_zero_drift_limit(dim: int, outputs, quick: bool):
    gaps = [_sup_gap(dim, s, outputs) for s in (1e-2, 1e-4, 1e-6, 1e-8)]
    mono = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = mono and gaps[-1] < 1e-3
    return ok, f"sup gaps {['%.2e' % g for g in gaps]} (monotone {mono})"


def _check_translation_covariance(quick: bool):
    g2 = fap.ChannelGeometry(2, 1.3, 0.8)
    g3 = fap.ChannelGeometry(3, 1.3, 0.8)
    v2 = fap.DriftVector(0.4, -0.6)
    v3 = fap.DriftVector(0.4, -0.2, 0.5)
    deltas = np.array([-3.0, 0.7, 4.2])
    a = fap.fap_density(g2, v2, (0.0,), deltas[:, None])
    a3 = fap.fap_density(g3, v3, (0.0, 0.0), np.column_stack([deltas, -deltas]))
    worst = 0.0
    for shift in (-2.0, 5.0):
        b = fap.fap_density(g2, v2, (shift,), (shift + deltas)[:, None])
        b3 = fap.fap_density(g3, v3, (shift, -shift),
                             np.column_stack([shift + deltas, -shift - deltas]))
        worst = max(worst, float(np.max(np.abs(a - b) / a)), float(np.max(np.abs(a3 - b3) / a3)))
    return worst <= 1e-12, f"worst relative translation defect {worst:.2e}"


def _check_positivity(quick: bool):
    ys = np.linspace(-50, 50, 101)[:, None]
    rs = np.linspace(0, 50, 51)
    f2 = fap.fap_density(fap.ChannelGeometry(2, 1.0, 1.0), fap.DriftVector(0.3, 0.9), (0.0,), ys)
    f3 = fap.fap_density(
        fap.ChannelGeometry(3, 1.0, 1.0), fap.DriftVector(0.1, -0.2, 0.8), (0.0, 0.0),
        np.column_stack([rs, rs]),
    )
    ok = bool(np.all(f2 > 0) and np.all(f3 > 0))
    return ok, "density positive on the grid" if ok else "non-positive value found"


def _check_marginal_3d_to_2d(quick: bool):
    g3 = fap.ChannelGeometry(3, 1.4, 1.0)
    g2 = fap.ChannelGeometry(2, 1.4, 1.0)
    red2 = fap.zero_drift_reduction(g2, 0.0)
    zero = fap.DriftVector.zero(3)
    worst = 0.0
    for y1 in (0.0, 0.9, 3.5):
        marg = line_integral(
            lambda y2: fap.fap_density(
                g3, zero, (0.0, 0.0), np.column_stack([np.full_like(y2, y1), y2])
            ),
            center=0.0,
            scale=math.sqrt(y1 * y1 + g3.lam**2),
        )
        worst = max(worst, abs(marg - float(cy.pdf_univariate(red2, y1))))
    return worst <= 1e-6, f"worst marginalization gap {worst:.2e} (tol 1e-6)"


def _arrival_mass_by_quadrature(g: fap.ChannelGeometry, v: fap.DriftVector) -> float:
    """Total arrival mass by integrating the density over the receiver plane (input at 0)."""
    origin = (0.0,) * g.n_transverse
    f = lambda y: fap.fap_density(g, v, origin, y)
    if g.dimension == 2:
        return line_integral(lambda y: f(y[:, None]), scale=g.lam, epsabs=1e-11, epsrel=1e-11)
    if not any(v.transverse):  # isotropic in the plane
        return radial_integral(lambda r: f(np.column_stack([r, np.zeros_like(r)])), scale=g.lam)
    return plane_integral(f, scale=g.lam, epsabs=1e-8, epsrel=1e-8)


def _check_arrival_probability_zero_drift(quick: bool):
    g2, g3 = fap.ChannelGeometry(2, 2.0, 0.5), fap.ChannelGeometry(3, 0.8, 1.5)
    cases = [(g2, v) for v in ((0.0, 0.0), (0.8, 0.75), (0.0, 1.0), (1.0, 0.0), (0.8, -0.5))]
    cases += [(g3, (0.0, 0.0, 0.0)), (g3, (0.0, 0.0, 0.75))]
    if not quick:  # nested plane quadrature, under a second
        cases.append((g3, (0.5, -0.3, 0.75)))
    worst = 0.0
    for g, comps in cases:
        v = fap.DriftVector(*comps)
        worst = max(worst, abs(_arrival_mass_by_quadrature(g, v) - fap.arrival_probability(g, v)))
    return worst <= 1e-8, (
        f"worst |quadrature mass - closed form| = {worst:.2e} over {len(cases)} drifts (tol 1e-8)"
    )


# ---------------------------------------------------------------------------
# particle simulation


def _tan_grid_cdf(thetas, nodes, f):
    """CDF on nodes = lam tan(thetas) from density values f there, by cumulative trapezoid."""
    fw = f * (1.0 + np.tan(thetas) ** 2)
    mass = np.concatenate([[0.0], np.cumsum(0.5 * (fw[1:] + fw[:-1]) * np.diff(thetas))])
    mass /= mass[-1]
    return lambda x: np.interp(x, nodes, mass, left=0.0, right=1.0)


def _drifted_arrival_cdf_2d(g: fap.ChannelGeometry, v: fap.DriftVector, n_grid=4001):
    """Conditional arrival CDF on the receiver line (input at the origin),
    by cumulative trapezoid on the tan-substituted grid."""
    thetas = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_grid)[1:-1]
    ys = g.lam * np.tan(thetas)
    return _tan_grid_cdf(thetas, ys, fap.fap_density(g, v, (0.0,), ys[:, None]))


def _drifted_radial_cdf_3d(g: fap.ChannelGeometry, v_z: float, n_grid=3001):
    """Conditional CDF of the transverse arrival radius for purely traversal drift."""
    thetas = np.linspace(0.0, 0.5 * math.pi, n_grid)[:-1]
    rs = g.lam * np.tan(thetas)
    pts = np.column_stack([rs, np.zeros_like(rs)])
    f = 2.0 * math.pi * rs * fap.fap_density(g, fap.DriftVector(0.0, 0.0, v_z), (0.0, 0.0), pts)
    return _tan_grid_cdf(thetas, rs, f)


def _shape_tolerance(n_hits: int) -> float:
    # discretization-bias allowance plus the ~99.5% KS noise quantile for
    # the conditional (hits-only) sample size
    return 0.006 + 1.7 / math.sqrt(n_hits)


def _check_drifted_shape_2d(quick: bool):
    g = fap.ChannelGeometry(2, 1.0, 1.0)
    n = 8_000 if quick else 20_000
    settings = [(fap.DriftVector(0.8, -0.5), 5e-4, 100_000)]
    if not quick:
        settings.append((fap.DriftVector(0.0, 1.0), 2.5e-4, 80_000))  # away drift
    ok = True
    details = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i, (v, dt, max_steps) in enumerate(settings):
            cfg = sim.SimConfig(g, v, dt=dt, n_particles=n, max_steps=max_steps, seed=130 + i)
            run = sim.simulate_first_arrival(cfg)
            cdf = _drifted_arrival_cdf_2d(g, v)
            ks = sim.ks_statistic(run.transverse_1d(), cdf)
            tol = _shape_tolerance(len(run.hit_times))
            ok = ok and ks <= tol
            details.append(f"{v.components}: KS {ks:.4f} (tol {tol:.4f})")
    return ok, "; ".join(details)


def _check_drifted_shape_3d(quick: bool):
    g = fap.ChannelGeometry(3, 1.0, 1.0)
    n = 8_000 if quick else 20_000
    v_z = -0.5
    cfg = sim.SimConfig(
        g, fap.DriftVector(0.0, 0.0, v_z), dt=1e-3, n_particles=n, max_steps=50_000, seed=140
    )
    run = sim.simulate_first_arrival(cfg)
    radii = np.linalg.norm(run.positions, axis=1)
    ks = sim.ks_statistic(radii, _drifted_radial_cdf_3d(g, v_z))
    tol = _shape_tolerance(len(run.hit_times))
    return ks <= tol, f"radial KS {ks:.4f} (tol {tol:.4f})"


def _check_em_vs_exact(quick: bool):
    g = fap.ChannelGeometry(2, 1.0, 1.0)
    if quick:
        cfg = sim.SimConfig(
            g, fap.DriftVector.zero(2), dt=4e-4, n_particles=20_000, max_steps=2_500_000, seed=7
        )
        tol = 0.025
    else:
        cfg = sim.SimConfig(
            g, fap.DriftVector.zero(2), dt=1e-4, n_particles=100_000, max_steps=10_000_000, seed=7
        )
        tol = 0.02
    run = sim.simulate_first_arrival(cfg)
    horizon = cfg.max_steps * cfg.dt
    exact = sim.sample_exact_zero_drift(g, n=cfg.n_particles, seed=997)
    keep = exact.hit_times <= horizon  # compare like with like under censoring
    ks = sim.ks_two_sample(run.transverse_1d(), exact.positions[keep, 0])
    return ks <= tol, f"two-sample KS {ks:.4f} (tol {tol}), censored {run.censored_fraction:.2%}"


def _check_dt_refinement(quick: bool):
    g = fap.ChannelGeometry(2, 1.0, 1.0)
    noise = fap.zero_drift_reduction(g, 0.0)
    cdf = lambda x: cy.cdf_univariate(noise, x)
    if quick:
        dts, n, slack = (1.6e-3, 4e-4, 1e-4), 20_000, 0.006
    else:
        dts, n, slack = (4e-4, 2e-4, 1e-4), 100_000, 0.004
    stats = []
    for i, dt in enumerate(dts):
        cfg = sim.SimConfig(
            g,
            fap.DriftVector.zero(2),
            dt=dt,
            n_particles=n,
            max_steps=int(round(1000.0 / dt)),
            seed=50 + i,
        )
        run = sim.simulate_first_arrival(cfg)
        stats.append(sim.ks_statistic(run.transverse_1d(), cdf))
    ok = all(b <= a + slack for a, b in zip(stats, stats[1:]))
    return ok, f"KS by dt {['%.4f' % s for s in stats]} (slack {slack})"


def _check_hit_fraction(quick: bool):
    g = fap.ChannelGeometry(2, 1.0, 1.0)
    n = 10_000 if quick else 30_000
    settings = [
        (fap.DriftVector(0.0, -1.0), 1e-4, 200_000),
        (fap.DriftVector(0.0, 1.0), 2e-4, 100_000),
    ]
    if not quick:
        settings.append((fap.DriftVector(0.8, 0.75), 2e-4, 150_000))
    worst_sigma = 0.0
    details = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i, (v, dt, max_steps) in enumerate(settings):
            p = fap.arrival_probability(g, v)
            cfg = sim.SimConfig(g, v, dt=dt, n_particles=n, max_steps=max_steps, seed=70 + i)
            run = sim.simulate_first_arrival(cfg)
            frac = len(run.hit_times) / n
            se = math.sqrt(p * (1.0 - p) / n) if 0.0 < p < 1.0 else 1.0 / n
            sig = abs(frac - p) / se
            worst_sigma = max(worst_sigma, sig)
            details.append(f"{v.components}: {frac:.4f} vs {p:.4f} ({sig:.1f} SE)")
    return worst_sigma <= 3.0, "; ".join(details)


def _check_worker_determinism(quick: bool):
    g = fap.ChannelGeometry(2, 1.0, 1.0)
    cfg = sim.SimConfig(
        g, fap.DriftVector(0.2, -0.4), dt=1e-3, n_particles=6000, max_steps=50_000, seed=13
    )
    a = sim.simulate_first_arrival(cfg, workers=1)
    b = sim.simulate_first_arrival(cfg, workers=3)
    same = (
        np.array_equal(a.positions, b.positions)
        and np.array_equal(a.hit_times, b.hit_times)
        and np.array_equal(a.hit_particle_ids, b.hit_particle_ids)
        and a.censored_count == b.censored_count
    )
    return same, "bit-identical across worker counts" if same else "outputs differ"


def _check_exact_sampler_ks(quick: bool):
    g = fap.ChannelGeometry(2, 1.0, 1.0)
    noise = fap.zero_drift_reduction(g, 0.0)
    cdf = lambda x: cy.cdf_univariate(noise, x)
    total = 10 if quick else 100
    budget = max(1, total // 100)
    fails = 0
    for s in range(total):
        run = sim.sample_exact_zero_drift(g, n=100_000, seed=s)
        if sim.ks_statistic(run.transverse_1d(), cdf) >= 0.0052:
            fails += 1
    return fails <= budget, f"{fails} of {total} seeds exceeded KS 0.0052 (allowed {budget})"


def _check_literal_vs_bridge(quick: bool):
    g = fap.ChannelGeometry(2, 1.0, 1.0)
    n = 6000 if quick else 10_000
    shared = dict(dt=1e-3, n_particles=n, max_steps=25_000)
    a = sim.simulate_first_arrival(
        sim.SimConfig(g, fap.DriftVector.zero(2), seed=21, stepper="block_bridge", **shared)
    )
    b = sim.simulate_first_arrival(
        sim.SimConfig(g, fap.DriftVector.zero(2), seed=22, stepper="per_step", **shared)
    )
    crit = 1.95 * math.sqrt(2.0 / min(len(a.hit_times), len(b.hit_times)))
    ks_pos = sim.ks_two_sample(a.transverse_1d(), b.transverse_1d())
    ks_time = sim.ks_two_sample(np.log(a.hit_times), np.log(b.hit_times))
    ok = ks_pos <= crit and ks_time <= crit
    return ok, f"positions KS {ks_pos:.4f}, times KS {ks_time:.4f} (crit {crit:.4f})"


# ---------------------------------------------------------------------------
# capacity


def _check_log_moment_monotone(quick: bool):
    d = cy.UnivariateCauchy(0.0, 1.0)
    ks = np.geomspace(1e-3, 1e3, 25)
    vals = [cap.log_moment(d, k) for k in ks]
    mono = all(b < a for a, b in zip(vals, vals[1:]))
    limits = vals[0] > 10.0 and vals[-1] < 1e-2
    ok = mono and limits
    return ok, f"decreasing {mono}, ends {vals[0]:.1f} -> {vals[-1]:.2e}"


def _check_dispersion_homogeneity(quick: bool):
    spec = cap.ConstraintSpec(1)
    base = cap.dispersion_of(cy.UnivariateCauchy(0.0, 0.7), spec)
    worst = 0.0
    for c in (0.5, 2.0, 10.0):
        d = cap.dispersion_of(cy.UnivariateCauchy(0.0, c * 0.7), spec)
        worst = max(worst, abs(d - c * base) / c)
    return worst <= 1e-8, f"worst scaled homogeneity defect {worst:.2e} (tol 1e-8)"


def _check_dispersion_identity(quick: bool):
    spec1, spec2 = cap.ConstraintSpec(1), cap.ConstraintSpec(2)
    worst = 0.0
    for gamma in (0.3, 1.0, 5.0):
        worst = max(
            worst, abs(cap.dispersion_of(cy.UnivariateCauchy(0.0, gamma), spec1) - gamma)
        )
    worst = max(worst, abs(cap.dispersion_of(cy.isotropic_cauchy(2, 2.4), spec2) - 2.4))
    return worst <= 1e-10, f"worst |dispersion - scale| = {worst:.2e} (tol 1e-10)"


def _check_closed_form_log_moments(quick: bool):
    # The production closed forms and the beta-prime rule against the
    # quadrature route they replaced, from k0 / 100 to 100 k0; for the laws
    # on the rule, also the rule's entropy against -f ln f by quadrature.
    gamma = 1.3
    ks = gamma * np.geomspace(0.01, 100.0, 25)
    laws = [cy.UnivariateCauchy(0.0, gamma), cy.UnivariateCauchy(2.0, gamma),
            cy.isotropic_cauchy(2, gamma)]
    for p in (1, 2):
        laws += [cap.MaxentProfile(p=p, k=gamma, mu=float(mu), target=cap.ConstraintSpec(p).c)
                 for mu in np.linspace(0.5 * p + 0.2, 0.5 * p + 4.0, 6 if quick else 20)]
    worst = worst_h = 0.0
    for d in laws:
        _, integrate, shape = cap._law(d)
        for k in ks:
            by_quad = integrate(lambda f, r: f * np.log1p((r / k) ** 2), k)
            worst = max(worst, abs(cap.log_moment(d, k) / by_quad - 1.0))
        if shape is not None:
            by_quad = integrate(lambda f, r: special.scipy_special().entr(f))
            worst_h = max(worst_h, abs(cap.entropy_estimate(d, "quadrature").value - by_quad))
    return worst <= 1e-10 and worst_h <= 1e-12, (
        f"worst closed-form/quadrature relative gap {worst:.2e} (tol 1e-10); "
        f"worst rule/quadrature entropy gap {worst_h:.2e} (tol 1e-12)"
    )


def _capacity_formula_chain(p: int, A: float, quick: bool, mus=None):
    # mus: the profile exponents to scale to the ceiling A; None for the default grid.
    spec = cap.ConstraintSpec(p)
    achieving = cy.isotropic_cauchy(p, A)
    h_star = achieving.entropy()
    disp_err = abs(cap.dispersion_of(achieving, spec) - A)
    if mus is None:
        mus = np.concatenate([np.linspace(0.5 * p + 0.15, 0.5 * p + 0.45, 3),
                              np.linspace(0.5 * p + 0.5, 0.5 * p + 3.0, 6 if quick else 12)])
    worst_excess = -math.inf
    for mu in mus:
        prof_unit = cap.MaxentProfile(p=p, k=1.0, mu=float(mu), target=spec.c)
        d_unit = cap.dispersion_of(prof_unit, spec)
        # Scale the profile so its dispersion sits exactly at the ceiling A;
        # entropy shifts by p ln(scale), which is the best this shape can do.
        k_star = A / d_unit
        prof = cap.MaxentProfile(p=p, k=k_star, mu=float(mu), target=spec.c)
        h = cap.entropy_estimate(prof, "quadrature").value
        worst_excess = max(worst_excess, h - h_star)
    ok = disp_err <= 1e-9 and worst_excess <= 1e-6
    return ok, (
        f"dispersion error {disp_err:.2e}; max entropy excess over the achieving "
        f"law {worst_excess:.2e} (tol 1e-6)"
    )


def _check_knn_consistency(quick: bool):
    n = 200_000 if quick else 1_000_000
    gaps = []
    for p, seed in ((1, 31), (2, 32)):
        d = cy.isotropic_cauchy(p, 2.0)
        est = cap.entropy_estimate(d.sample(n, seed), "knn")
        gaps.append((abs(est.value - d.entropy()), 3.0 * est.std_error))
    ok = all(gap <= band for gap, band in gaps)
    detail = ", ".join(f"{gap:.4f} (3se {band:.4f})" for gap, band in gaps)
    return ok, f"knn gaps {detail} at n={n}"


def _check_capacity_endpoint(quick: bool):
    zero = cap.capacity_closed_form("fap2d", 1.5, 1.5).capacity
    zero3 = cap.capacity_closed_form("fap3d", 0.9, 0.9).capacity
    grid = [cap.capacity_closed_form("fap2d", a, 1.0).capacity for a in np.linspace(1.0, 6.0, 12)]
    increasing = all(b > a for a, b in zip(grid, grid[1:]))
    ok = zero == 0.0 and zero3 == 0.0 and increasing
    return ok, f"endpoint capacities ({zero}, {zero3}), strictly increasing {increasing}"


def _check_maxent_certification(quick: bool):
    m1 = cap.maxent_profile(cap.ConstraintSpec(1), 1.0).mu
    m2 = cap.maxent_profile(cap.ConstraintSpec(2), 1.0).mu
    worst = max(abs(m1 - 1.0), abs(m2 - 1.5))
    return worst <= 1e-6, f"exponents ({m1:.10f}, {m2:.10f}), worst error {worst:.2e}"


def _check_table_columns(quick: bool):
    rows = cap.capacity_table(np.linspace(1.0, 8.0, 15), lam=1.0, sigma=1.0)
    ok = all(r["C_3d"] == 2.0 * r["C_2d"] for r in rows)
    ok = ok and all(r["C_gauss"] == r["C_2d"] for r in rows)
    return ok, "C_3d = 2 C_2d and Gaussian column matches 2D at sigma = lam"


def _check_manifest_roundtrip(quick: bool):
    import io
    import tempfile
    from contextlib import redirect_stdout
    from pathlib import Path

    from . import cli

    # The runs' "wrote <temporary path>" lines would make the check report
    # differ from run to run; they are dropped.
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        out1, out2 = Path(tmp) / "a", Path(tmp) / "b"
        table1 = ["table1", "--a-min", "1", "--a-max", "4", "--out", str(out1), "--a-count"]
        names = ["table.csv", "table.json", "curve_gaussian.dat", "curve_fap2d.dat",
                 "curve_fap3d.dat"]
        # The 7-row table rerun into a fresh directory, then rerun in place
        # over a 29-row table, where a stale tail would survive an untruncated write.
        for rows, src, out, what in (("7", out1, out2, "rerun"),
                                     ("29", out2, out1, "rerun in place")):
            rc = cli.run(table1 + [rows])
            if rc != 0:
                return False, f"table1 exited {rc}"
            rc = cli.rerun_from_manifest(src / "manifest.json", out_dir=out)
            if rc != 0:
                return False, f"{what} exited {rc}"
            if any((out1 / n).read_bytes() != (out2 / n).read_bytes() for n in names):
                return False, f"{what} output differs"
        return True, "byte-identical rerun"


_CHECKS: List[Tuple[str, Callable[[bool], Tuple[bool, str]]]] = [
    ("special/w2_golden_values", _check_w2_golden),
    ("cauchy/normalization_univariate",
     partial(_check_norm, lambda: [cy.UnivariateCauchy(0.3, g) for g in (0.1, 1.0, 10.0)],
             "1e-9")),
    ("cauchy/normalization_bivariate",
     partial(_check_norm, lambda: [cy.isotropic_cauchy(2, g) for g in (0.5, 1.0, 4.0)]
             + [cy.MultivariateCauchy([0.2, -0.4], [[2.0, 0.5], [0.5, 1.0]])], "1e-6")),
    ("cauchy/entropy_quadrature_univariate",
     partial(_check_entropy_quad, 1, (0.1, 1.0, 10.0), "1e-8")),
    ("cauchy/entropy_quadrature_bivariate",
     partial(_check_entropy_quad, 2, (0.5, 1.0, 3.0), "1e-12")),
    ("cauchy/sum_closure_univariate", partial(_check_sum_closure, 1, (100, 200, 300))),
    ("cauchy/sum_closure_bivariate", partial(_check_sum_closure, 2, (400, 500, 600))),
    ("cauchy/entropy_scaling", _check_entropy_scaling),
    ("fap/zero_drift_limit_2d",
     partial(_check_zero_drift_limit, 2, np.linspace(-10.0, 10.0, 241))),
    ("fap/zero_drift_limit_3d",
     partial(_check_zero_drift_limit, 3, np.linspace(0.0, 10.0, 101))),
    ("fap/translation_covariance", _check_translation_covariance),
    ("fap/positivity", _check_positivity),
    ("fap/marginal_3d_to_2d", _check_marginal_3d_to_2d),
    ("fap/arrival_probability_zero_drift", _check_arrival_probability_zero_drift),
    ("sim/em_vs_exact_sampler", _check_em_vs_exact),
    ("sim/drifted_shape_2d", _check_drifted_shape_2d),
    ("sim/drifted_shape_3d", _check_drifted_shape_3d),
    ("sim/dt_refinement", _check_dt_refinement),
    ("sim/hit_fraction_vs_quadrature", _check_hit_fraction),
    ("sim/worker_determinism", _check_worker_determinism),
    ("sim/exact_sampler_ks", _check_exact_sampler_ks),
    ("sim/stepper_equivalence", _check_literal_vs_bridge),
    ("capacity/log_moment_monotone", _check_log_moment_monotone),
    ("capacity/dispersion_homogeneity", _check_dispersion_homogeneity),
    ("capacity/dispersion_identity", _check_dispersion_identity),
    ("capacity/closed_form_log_moments", _check_closed_form_log_moments),
    ("capacity/entropy_maximizer_2d", partial(_capacity_formula_chain, 1, 2.0)),
    ("capacity/entropy_maximizer_3d", partial(_capacity_formula_chain, 2, 2.0)),
    ("capacity/knn_consistency", _check_knn_consistency),
    ("capacity/capacity_endpoint", _check_capacity_endpoint),
    ("capacity/maxent_certification", _check_maxent_certification),
    ("capacity/table_columns", _check_table_columns),
    ("cli/manifest_roundtrip", _check_manifest_roundtrip),
]


def check_names() -> List[str]:
    return [name for name, _ in _CHECKS]


def run_checks(
    only: Optional[str] = None, quick: bool = False, progress: Optional[Callable] = None
) -> List[CheckResult]:
    """Run the invariant suite (optionally filtered by substring)."""
    results = []
    for name, func in _CHECKS:
        if only and only not in name:
            continue
        try:
            passed, detail = func(quick)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = CheckResult(name, bool(passed), detail)
        results.append(result)
        if progress is not None:
            progress(result)
    return results
