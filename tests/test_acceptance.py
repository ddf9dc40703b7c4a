"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line (visible with ``pytest -s`` or in the
captured-output section) so the gate doubles as a checklist.  The Euler
reference run (criterion 5) is the long pole; it is shared through a
session fixture.
"""

import math

import numpy as np

from faplab.capacity import (
    ConstraintSpec,
    MaxentProfile,
    capacity_table,
    dispersion_of,
    entropy_estimate,
)
from faplab.cauchy import (
    MultivariateCauchy,
    UnivariateCauchy,
    cdf_univariate,
    independent_sum,
    phi_constant,
    sample_multivariate,
    sample_univariate,
)
from faplab.cli import EXIT_OK, rerun_from_manifest, run
from faplab.fap import ChannelGeometry
from faplab.sim import ks_statistic, ks_two_sample, sample_exact_zero_drift
from faplab.special import digamma, w2
from faplab.verify import (
    _check_dispersion_homogeneity,
    _check_dispersion_identity,
    _check_exact_sampler_ks,
    _check_maxent_certification,
    _check_zero_drift_limit,
)

LN_4PI = math.log(4.0 * math.pi)


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_special_function_golden_values():
    e_w2_1 = abs(w2(1.0, 0.5) - 2.0 * math.log(2.0))
    e_w2_2 = abs(w2(1.5, 1.0) - 2.0)
    assert e_w2_1 <= 1e-12 and e_w2_2 <= 1e-12
    residual = max(
        abs(digamma(t + 1.0) - digamma(t) - 1.0 / t)
        for t in np.linspace(0.1, 100.0, 4000)
    )
    assert residual <= 1e-12
    report(1, f"w2 constants to {max(e_w2_1, e_w2_2):.1e}, recurrence residual {residual:.1e}")


def test_criterion_02_entropy_closed_forms_by_quadrature():
    worst1 = 0.0
    for g in (0.1, 1.0, 10.0):
        d = UnivariateCauchy(0.0, g)
        worst1 = max(worst1, abs(entropy_estimate(d).value - math.log(4.0 * math.pi * g)))
    assert worst1 <= 1e-8
    worst2 = 0.0
    for k in (0.5, 1.0, 3.0):
        b = MultivariateCauchy([0.0, 0.0], k**2 * np.eye(2))
        worst2 = max(
            worst2,
            abs(entropy_estimate(b).value - math.log(2.0 * math.pi * math.e**3 * k**2)),
        )
    assert worst2 <= 1e-4
    report(2, f"quadrature gaps: univariate {worst1:.1e} (tol 1e-8), bivariate {worst2:.1e} (tol 1e-4)")


def test_criterion_03_phi_cross_consistency():
    e1 = abs(phi_constant(1) - LN_4PI)
    e2 = abs(phi_constant(2) - (math.log(2.0 * math.pi) + 3.0))
    assert e1 <= 1e-10 and e2 <= 1e-10
    report(3, f"phi(1) error {e1:.1e}, phi(2) error {e2:.1e} (tol 1e-10)")


def test_criterion_04_zero_drift_reduction():
    ok2, detail2 = _check_zero_drift_limit(2, np.linspace(-10.0, 10.0, 241), False)
    assert ok2, detail2
    ok3, detail3 = _check_zero_drift_limit(3, np.linspace(0.0, 10.0, 121), False)
    assert ok3, detail3
    report(4, f"2D {detail2}; 3D {detail3}")


def test_criterion_05_simulation_ground_truth(reference_em_run):
    run_ = reference_em_run
    assert run_.censored_fraction < 0.05
    cdf = lambda x: cdf_univariate(UnivariateCauchy(0.0, 1.0), x)
    ks = ks_statistic(run_.transverse_1d(), cdf)
    assert ks < 0.015

    ok, detail = _check_exact_sampler_ks(False)
    assert ok, detail
    report(
        5,
        f"EM KS {ks:.4f} (tol 0.015), censored {run_.censored_fraction:.2%} "
        f"(tol 5%); exact sampler: {detail}",
    )


def _mi_gap_2d(ratio: float, n: int, seed: int) -> float:
    lam = 1.0
    g = ChannelGeometry(2, lam, 1.0)
    x = sample_univariate(UnivariateCauchy(0.0, ratio * lam - lam), n, seed=seed)
    noise = sample_exact_zero_drift(g, n=n, seed=seed + 5000)
    y = x + noise.transverse_1d()
    h_y = entropy_estimate(y, "knn").value
    h_n = entropy_estimate(noise.transverse_1d(), "knn").value
    return abs((h_y - h_n) - math.log(ratio))


def test_criterion_06_capacity_formula_2d():
    gaps = {r: _mi_gap_2d(r, 1_000_000, seed=int(10 * r)) for r in (1.5, 2.0, 4.0)}
    assert all(gap <= 0.02 for gap in gaps.values())
    detail = ", ".join(f"A/lam={r}: {gap:.4f}" for r, gap in gaps.items())
    report(6, f"2D mutual-information gaps {detail} (tol 0.02)")


def _mi_gap_3d(ratio: float, n: int, seed: int) -> float:
    lam = 1.0
    g = ChannelGeometry(3, lam, 1.0)
    x_dist = MultivariateCauchy([0.0, 0.0], (ratio * lam - lam) ** 2 * np.eye(2))
    x = sample_multivariate(x_dist, n, seed=seed)
    noise = sample_exact_zero_drift(g, n=n, seed=seed + 6000)
    y = x + noise.positions
    h_y = entropy_estimate(y, "knn").value
    h_n = entropy_estimate(noise.positions, "knn").value
    return abs((h_y - h_n) - 2.0 * math.log(ratio))


def test_criterion_07_capacity_formula_3d():
    gaps = {r: _mi_gap_3d(r, 1_000_000, seed=int(100 * r)) for r in (1.5, 2.0, 4.0)}
    assert all(gap <= 0.04 for gap in gaps.values())
    rows = capacity_table(np.linspace(1.0, 8.0, 29), lam=1.0, sigma=1.0)
    assert all(r["C_3d"] == 2.0 * r["C_2d"] for r in rows)
    detail = ", ".join(f"A/lam={r}: {gap:.4f}" for r, gap in gaps.items())
    report(7, f"3D mutual-information gaps {detail} (tol 0.04); C_3d = 2 C_2d exact on all rows")


def test_criterion_08_maxent_certification():
    spec1, spec2 = ConstraintSpec(1), ConstraintSpec(2)
    ok, detail = _check_maxent_certification(False)
    assert ok, detail

    worst_excess = -math.inf
    big_a = 2.0
    for p, spec, h_star in (
        (1, spec1, math.log(4.0 * math.pi * big_a)),
        (2, spec2, math.log(2.0 * math.pi * math.e**3 * big_a**2)),
    ):
        mu_grid = np.append(np.linspace(0.5 * p + 0.15, 0.5 * p + 3.0, 10), 0.5 * (1 + p))
        for mu in mu_grid:
            unit = MaxentProfile(p=p, k=1.0, mu=float(mu), target=spec.c)
            d_unit = dispersion_of(unit, spec)
            scaled = MaxentProfile(p=p, k=big_a / d_unit, mu=float(mu), target=spec.c)
            h = entropy_estimate(scaled, "quadrature").value
            worst_excess = max(worst_excess, h - h_star)
    assert worst_excess <= 1e-6
    report(8, f"{detail} (tol 1e-6); max feasible-profile entropy excess {worst_excess:.1e} "
              "(tol 1e-6)")


def test_criterion_09_dispersion_axioms():
    ok_h, detail_h = _check_dispersion_homogeneity(False)
    assert ok_h, detail_h
    ok_id, detail_id = _check_dispersion_identity(False)
    assert ok_id, detail_id
    report(9, f"{detail_h}; {detail_id}")


def test_criterion_10_sum_closure():
    n = 100_000
    pairs = [(1.0, 2.0), (0.3, 0.7), (5.0, 0.1)]
    worst_uni = 0.0
    for i, (s, t) in enumerate(pairs):
        u = sample_univariate(UnivariateCauchy(0.0, s), n, seed=800 + i)
        v = sample_univariate(UnivariateCauchy(0.0, t), n, seed=830 + i)
        z = independent_sum(UnivariateCauchy(0.0, s), UnivariateCauchy(0.0, t))
        direct = sample_univariate(z, n, seed=860 + i)
        worst_uni = max(worst_uni, ks_two_sample(u + v, direct))
    assert worst_uni < 0.01

    worst_bi = 0.0
    for i, (s, t) in enumerate(pairs):
        du = MultivariateCauchy([0.0, 0.0], s**2 * np.eye(2))
        dv = MultivariateCauchy([0.0, 0.0], t**2 * np.eye(2))
        u = sample_multivariate(du, n, seed=900 + i)
        v = sample_multivariate(dv, n, seed=930 + i)
        direct = sample_multivariate(independent_sum(du, dv), n, seed=960 + i)
        summed = u + v
        worst_bi = max(worst_bi, ks_two_sample(summed[:, 0], direct[:, 0]))
        worst_bi = max(
            worst_bi,
            ks_two_sample(np.linalg.norm(summed, axis=1), np.linalg.norm(direct, axis=1)),
        )
    assert worst_bi < 0.01
    report(10, f"sum-closure two-sample KS: univariate {worst_uni:.4f}, bivariate {worst_bi:.4f} (tol 0.01)")


def test_criterion_11_table_reproduction(tmp_path):
    out = tmp_path / "table"
    assert run(["table1", "--a-min", "1", "--a-max", "8", "--a-count", "29",
                "--out", str(out)]) == EXIT_OK
    import csv as csv_mod

    with open(out / "table.csv") as fh:
        rows = list(csv_mod.DictReader(fh))
    assert len(rows) == 29
    for r in rows:
        a = float(r["A"])
        assert float(r["C_2d"]) == math.log(a / 1.0)
        assert float(r["C_3d"]) == 2.0 * math.log(a / 1.0)
        assert float(r["C_gauss"]) == math.log(a / 1.0)
        assert r["C_gauss"] == r["C_2d"]  # identical bytes, sigma = lam
    report(11, "table columns satisfy the three formulas exactly; Gaussian column identical to 2D")


def test_criterion_12_manifest_determinism(tmp_path, monkeypatch):
    argv = ["simulate", "--dt", "1e-3", "--particles", "2000", "--max-steps", "50000",
            "--seed", "77", "--out", None]
    monkeypatch.setenv("FAPLAB_THREADS", "1")
    first = tmp_path / "run1"
    argv[-1] = str(first)
    assert run(argv) == EXIT_OK

    monkeypatch.setenv("FAPLAB_THREADS", "8")
    second = tmp_path / "run8"
    assert rerun_from_manifest(first / "manifest.json", out_dir=second) == EXIT_OK

    for name in ("samples.csv", "simulate_config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    report(12, "manifest rerun with 1 vs 8 workers reproduces byte-identical outputs")
