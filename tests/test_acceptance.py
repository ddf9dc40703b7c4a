"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line (visible with ``pytest -s`` or in the
captured-output section) so the gate doubles as a checklist.  The Euler
reference run (criterion 5) is the long pole; it is shared through a
session fixture.
"""

import math

import numpy as np

from faplab.capacity import capacity_table, entropy_estimate
from faplab.cauchy import (
    MultivariateCauchy,
    UnivariateCauchy,
    cdf_univariate,
    phi_constant,
    sample_multivariate,
    sample_univariate,
)
from faplab.cli import EXIT_OK, rerun_from_manifest, run
from faplab.fap import ChannelGeometry
from faplab.sim import ks_statistic, sample_exact_zero_drift
from faplab.special import digamma, w2
from faplab.verify import (
    _capacity_formula_chain,
    _check_dispersion_homogeneity,
    _check_dispersion_identity,
    _check_exact_sampler_ks,
    _check_maxent_certification,
    _check_sum_closure,
    _check_zero_drift_limit,
    run_checks,
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
    results = run_checks(only="cauchy/entropy_quadrature_")
    assert len(results) == 2 and all(r.passed for r in results), results
    report(2, "; ".join(f"{r.name}: {r.detail}" for r in results))


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
    ok, detail = _check_maxent_certification(False)
    assert ok, detail
    details = []
    for p in (1, 2):
        mus = np.append(np.linspace(0.5 * p + 0.15, 0.5 * p + 3.0, 10), 0.5 * (1 + p))
        ok_p, detail_p = _capacity_formula_chain(p, 2.0, False, mus=mus)
        assert ok_p, detail_p
        details.append(f"p={p}: {detail_p}")
    report(8, f"{detail} (tol 1e-6); " + "; ".join(details))


def test_criterion_09_dispersion_axioms():
    ok_h, detail_h = _check_dispersion_homogeneity(False)
    assert ok_h, detail_h
    ok_id, detail_id = _check_dispersion_identity(False)
    assert ok_id, detail_id
    report(9, f"{detail_h}; {detail_id}")


def test_criterion_10_sum_closure():
    ok_uni, detail_uni = _check_sum_closure(1, (800, 830, 860), False)
    assert ok_uni, detail_uni
    ok_bi, detail_bi = _check_sum_closure(2, (900, 930, 960), False)
    assert ok_bi, detail_bi
    report(10, f"sum closure: univariate {detail_uni}; bivariate {detail_bi}")


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
