"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Each output check must fail when handed a wrong answer and pass on a right
one; every workload must run end to end at its smoke size, at two seeds;
the traced run must produce every per-layer metric; and the benchmark must
refuse to run without faplab's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
from harness import Checker  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, make  # noqa: E402

# known failed operations per round, by workload
KNOWN_FAULTS = {"mc_first_passage": 0, "capacity_analytic": 3, "capacity_samples": 0,
                "cli_session": 2}


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def checked(w, out) -> Checker:
    chk = Checker()
    w.check(out, chk)
    return chk


# ---------------------------------------------------------------------------
# checks reject wrong answers


def exact_zero_drift_hits(rng, n, lam, horizon, scale_error=1.0, dim=2):
    """Exact first-passage hits within the horizon, drawn by numpy alone."""
    z = rng.standard_normal(n)
    g = rng.standard_normal((n, dim - 1))
    t = lam**2 / z**2
    keep = t <= horizon
    pos = scale_error * lam * g[keep] / np.abs(z[keep])[:, None]
    return {"positions": pos, "hit_times": t[keep], "ids": np.flatnonzero(keep),
            "censored": int(n - keep.sum())}


@pytest.mark.parametrize("scale_error", [1.0, 2.0])
def test_mc_zero_drift_check_rejects_wrong_scale(scale_error):
    w = make("mc_first_passage", 3, False, ROOT / "src", None)
    rng = np.random.default_rng(5)
    out = {}
    for name, cfg, x_in in w.runs:
        if name in ("2d_zero", "3d_zero"):
            res = exact_zero_drift_hits(rng, cfg.n_particles, 1.0, cfg.max_steps * cfg.dt,
                                        scale_error, cfg.geometry.dimension)
            res["positions"] = res["positions"] + x_in
            out[name] = res
    chk = checked(w, out)
    failed = {n.split(":")[0] for n in chk.failures()}
    if scale_error == 1.0:
        assert chk.ok, chk.failures()
    else:
        assert {"2d_zero/ks", "3d_zero/radius/ks"} <= failed


def test_mc_away_drift_check_rejects_wrong_hit_fraction():
    w = make("mc_first_passage", 3, False, ROOT / "src", None)
    cfg = next(c for name, c, _ in w.runs if name == "2d_away")
    p = ref.arrival_probability_by(1.0, 1.0, 1.0, cfg.max_steps * cfg.dt)
    n = cfg.n_particles
    for hits, ok in ((round(p * n), True), (round(math.exp(-1.0) * n), False)):
        out = {"2d_away": {"positions": np.zeros((hits, 1)), "hit_times": np.full(hits, 1.0),
                           "ids": np.arange(hits), "censored": n - hits}}
        assert checked(w, out).ok is ok


def test_drifted_reference_matches_closed_form_mass():
    _, total2 = ref.drifted_hit_cdf_2d(1.0, 1.0, (0.8, 0.75))
    assert abs(total2 - math.exp(-1.5)) < 1e-6
    _, total3 = ref.drifted_hit_radial_cdf_3d(1.0, 1.0, 0.6)
    assert abs(total3 - math.exp(-1.2)) < 1e-6


@pytest.fixture(scope="module")
def analytic():
    from harness import Round
    from spans import NullTracer

    w = make("capacity_analytic", 4, True, ROOT / "src", None)
    return w, w.round(Round(NullTracer()))


def test_analytic_checks_pass_on_real_outputs(analytic):
    w, out = analytic
    chk = checked(w, out)
    assert chk.ok, chk.failures()


@pytest.mark.parametrize("mutate", [
    "capacity", "table", "dispersion", "profile_dispersion", "exponent", "grid", "arrival",
    "entropy", "far_tail",
])
def test_analytic_checks_reject_wrong_answers(analytic, mutate):
    import copy

    w, out = analytic
    bad = copy.deepcopy(out)
    if mutate == "capacity":
        bad["capacity"]["fap3d"]["capacity"] = 1.01 * bad["capacity"]["fap3d"]["capacity"]
    elif mutate == "table":
        bad["table"][-1]["C_3d"] += 1e-6
    elif mutate == "dispersion":
        bad["disp_cauchy_2d"] *= 1.001
    elif mutate == "profile_dispersion":
        bad["disp_profile_1d"] *= 1.001
    elif mutate == "exponent":
        p, k, mu, target = bad["maxent"][2]
        bad["maxent"][2] = (p, k, mu + 1e-3, target)
    elif mutate == "grid":
        cols, rows = bad["grid_3d_drift"]
        rows[7] = rows[7][:2] + (rows[7][2] * (1 + 1e-6),)
    elif mutate == "arrival":
        bad["arrival_(0.3, 0.2, 0.6)"] += 1e-4
    elif mutate == "entropy":
        bad["entropy"]["profile_2"] += 1e-4
    elif mutate == "far_tail":
        bad["fap.fap_pdf_2d.far_tail"] = 1e-3
    assert not checked(w, bad).ok


@pytest.fixture(scope="module")
def samples():
    from harness import Round
    from spans import NullTracer

    w = make("capacity_samples", 4, True, ROOT / "src", None)
    return w, w.round(Round(NullTracer()))


def test_samples_checks_pass_on_real_outputs(samples):
    w, out = samples
    chk = checked(w, out)
    assert chk.ok, chk.failures()


@pytest.mark.parametrize("mutate", ["noise_scale", "output_scale", "knn", "hist", "dispersion"])
def test_samples_checks_reject_wrong_answers(samples, mutate):
    w, out = samples
    bad = dict(out)
    if mutate == "noise_scale":
        bad["noise_1d"] = 1.5 * out["noise_1d"]
    elif mutate == "output_scale":
        bad["output_2d"] = 1.5 * out["output_2d"]
    elif mutate == "knn":
        h, se = out["h_knn_2d"]
        bad["h_knn_2d"] = (h + 0.5, se)
    elif mutate == "hist":
        h, se = out["h_hist_1d"]
        bad["h_hist_1d"] = (h - 0.5, se)
    elif mutate == "dispersion":
        bad["disp_1d"] = 1.2 * out["disp_1d"]
    assert not checked(w, bad).ok


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    from harness import Round
    from spans import NullTracer

    w = make("cli_session", 4, True, ROOT / "src", tmp_path_factory.mktemp("cli"))
    r = Round(NullTracer())
    out = w.round(r)
    w.close()
    return w, out, r


def test_cli_checks_pass_on_real_outputs(cli):
    w, out, r = cli
    out = dict(out, capacity_nan=2, density_points0=2)  # as if the usage faults were mended
    chk = checked(w, out)
    assert chk.ok, chk.failures()
    assert r.failed == KNOWN_FAULTS["cli_session"]


@pytest.mark.parametrize("mutate", ["exit_code", "capacity", "table", "maxent", "density",
                                    "verify"])
def test_cli_checks_reject_wrong_answers(cli, mutate):
    import copy

    w, out, _ = cli
    bad = copy.deepcopy(out)
    if mutate == "exit_code":
        bad["capacity_nan"] = 1
    elif mutate == "capacity":
        bad["capacity_fap2d"]["capacity"] *= 1.0001
    elif mutate == "table":
        bad["table1"][3][3] *= 1.0001
    elif mutate == "maxent":
        bad["maxent_p2"]["mu"] = 1.51
    elif mutate == "density":
        bad["density"][1][5, 2] *= 1.01
    elif mutate == "verify":
        bad["verify"] = bad["verify"][:-1] + ["5/6 checks passed"]
    assert not checked(w, bad).ok


# ---------------------------------------------------------------------------
# end to end


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, seed):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())
    rounds = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    assert result["failed"] == KNOWN_FAULTS[workload] * rounds["rounds"]


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench("--workload", "capacity_samples", "--seed", "3", "--seconds", "1",
                     "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)
    for name, m in result["metrics"].items():
        assert m["unit"] == PER_LAYER_UNITS[name]
        assert math.isfinite(m["value"])
    trace = json.loads((HERE / "out" / "trace-capacity_samples-seed3.json").read_text())
    spans = [s for src in trace["sources"] for s in src["spans"]]
    assert spans and all({"name", "start", "end", "parent"} <= set(s) for s in spans)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "capacity_analytic", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
