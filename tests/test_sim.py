import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faplab import cli
from faplab.cauchy import UnivariateCauchy, cdf_univariate
from faplab.fap import ChannelGeometry, DriftVector, arrival_probability, zero_drift_reduction
from faplab.sim import (
    SimConfig,
    _bridge_points,
    _first_crossings,
    effective_workers,
    ks_statistic,
    ks_two_sample,
    sample_exact_zero_drift,
    samples_csv,
    simulate_first_arrival,
)
from faplab.verify import _check_literal_vs_bridge

G2 = ChannelGeometry(2, 1.0, 1.0)
G3 = ChannelGeometry(3, 1.0, 1.0)
STD_CAUCHY_CDF = lambda x: cdf_univariate(UnivariateCauchy(0.0, 1.0), x)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(G2, DriftVector(0.0, 0.0), dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(G2, DriftVector(0.0, 0.0), n_particles=0)
    with pytest.raises(ValueError):
        SimConfig(G2, DriftVector(0.0, 0.0, 0.0))  # drift arity mismatch


@pytest.mark.parametrize("field", ["n_particles", "max_steps"])
def test_config_counts_must_be_integers(field):
    with pytest.raises(ValueError, match=field):
        SimConfig(G2, DriftVector(0.0, 0.0), **{field: 2000.0})
    cfg = SimConfig(G2, DriftVector(0.0, 0.0), **{field: np.int64(2000)})
    assert type(cfg.to_dict()[field]) is int


@pytest.mark.parametrize("dt", [math.inf, math.nan])
def test_config_rejects_non_finite_dt(dt):
    with pytest.raises(ValueError, match="finite"):
        SimConfig(G2, DriftVector(0.0, 0.0), dt=dt)


_ENTRIES = {
    "zero_drift_reduction": zero_drift_reduction,
    "simulate_first_arrival": lambda g, x: simulate_first_arrival(
        SimConfig(g, DriftVector.zero(g.dimension), n_particles=10), x_in=x),
    "sample_exact_zero_drift": lambda g, x: sample_exact_zero_drift(g, x_in=x, n=10),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("g, x_in, match", [
    (G2, math.nan, "input position must be finite"),
    (G2, math.inf, "input position must be finite"),
    (G3, (math.nan, 0.0), "input position must be finite"),
    (G3, 0.5, "input position has 1 coordinates, expected 2"),
], ids=["2d_nan", "2d_inf", "3d_nan", "3d_count"])
def test_input_position_is_checked(entry, g, x_in, match):
    # Every entry point that takes an input position checks it the same way.
    with pytest.raises(ValueError, match=match):
        _ENTRIES[entry](g, x_in)


@pytest.mark.parametrize("cap", ["abc", "0", "-2", "1.5"])
def test_threads_env_must_be_positive_integer(monkeypatch, cap):
    monkeypatch.setenv("FAPLAB_THREADS", cap)
    with pytest.raises(ValueError, match="FAPLAB_THREADS must be a positive integer"):
        effective_workers(4)


def test_threads_env_caps_workers(monkeypatch):
    monkeypatch.setenv("FAPLAB_THREADS", "2")
    assert effective_workers(4) == 2
    assert effective_workers(1) == 1


# ks_statistic ----------------------------------------------------------------


def test_ks_statistic_worked_example():
    # D+ at the last point: |1.0 - 0.3| = 0.7
    stat = ks_statistic([0.1, 0.2, 0.3], lambda x: np.clip(x, 0.0, 1.0))
    assert stat == pytest.approx(0.7, abs=1e-15)


def test_ks_statistic_self_comparison_bound():
    x = np.sort(np.random.default_rng(0).random(1001))
    n = x.size
    empirical = lambda q: np.searchsorted(x, q, side="right") / n
    assert ks_statistic(x, empirical) <= 1.0 / n + 1e-12


def test_ks_statistic_empty_errors():
    with pytest.raises(ValueError):
        ks_statistic([], lambda x: x)


def test_ks_statistics_reject_nan_samples():
    cdf = lambda x: np.clip(x, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        ks_statistic([0.1, math.nan, 0.5], cdf)
    with pytest.raises(ValueError, match="NaN"):
        ks_two_sample([0.1, math.nan], [0.2, 0.3])
    with pytest.raises(ValueError, match="NaN"):
        ks_two_sample([0.2, 0.3], [math.nan, 0.1])


def test_ks_statistics_take_infinite_samples():
    # A CDF is defined at +-inf: 0 and 1 there.
    cdf = lambda x: np.clip(x, 0.0, 1.0)
    assert ks_statistic([-math.inf, 0.5, math.inf], cdf) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ks_two_sample([-math.inf, 0.5], [0.5, math.inf]) == 0.5


def test_ks_exact_cauchy_samples():
    run = sample_exact_zero_drift(G2, n=100_000, seed=3)
    assert ks_statistic(run.transverse_1d(), STD_CAUCHY_CDF) < 0.0052


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=200))
def test_ks_statistic_in_unit_interval(xs):
    stat = ks_statistic(xs, STD_CAUCHY_CDF)
    assert 0.0 <= stat <= 1.0


# exact zero-drift sampler ------------------------------------------------------


def test_exact_sampler_median_and_marginals():
    run = sample_exact_zero_drift(G2, x_in=0.7, n=100_000, seed=12)
    assert abs(np.median(run.transverse_1d()) - 0.7) <= 0.02
    run3 = sample_exact_zero_drift(G3, n=100_000, seed=13)
    from faplab.cauchy import sample_univariate

    ref = sample_univariate(UnivariateCauchy(0.0, 1.0), 100_000, seed=77)
    for c in range(2):
        assert ks_two_sample(run3.positions[:, c], ref) < 0.01


def test_exact_sampler_hit_times_scale_with_sigma2():
    # T = lam^2/(sigma2 Z^2): doubling sigma2 halves every hit time.
    a = sample_exact_zero_drift(ChannelGeometry(2, 1.0, 1.0), n=1000, seed=5)
    b = sample_exact_zero_drift(ChannelGeometry(2, 1.0, 2.0), n=1000, seed=5)
    assert np.allclose(a.hit_times, 2.0 * b.hit_times)


def test_exact_sampler_deterministic():
    a = sample_exact_zero_drift(G2, n=500, seed=2)
    b = sample_exact_zero_drift(G2, n=500, seed=2)
    assert np.array_equal(a.positions, b.positions)


@pytest.mark.parametrize("g, x_in", [
    (G2, 0.7), (ChannelGeometry(2, 2.5, 0.3), -1.25),
    (G3, (0.4, -2.0)), (ChannelGeometry(3, 0.7, 3.0), (0.0, 1e6)),
])
def test_exact_sampler_matches_its_defining_expressions_bit_for_bit(g, x_in):
    run = sample_exact_zero_drift(g, x_in=x_in, n=2000, seed=21)
    rng = np.random.default_rng(21)
    z = rng.standard_normal(2000)
    gauss = rng.standard_normal((2000, g.n_transverse))
    assert np.array_equal(run.hit_times, g.lam * g.lam / (g.sigma2 * z * z))
    assert np.array_equal(run.positions,
                          np.atleast_1d(x_in) + g.lam * gauss / np.abs(z)[:, None])


# Euler-Maruyama simulation ------------------------------------------------------


def test_em_zero_drift_ks_light():
    # Light version of the reference run: coarser dt, fewer particles.
    cfg = SimConfig(G2, DriftVector(0.0, 0.0), dt=4e-4, n_particles=20_000,
                    max_steps=2_500_000, seed=7)
    run = simulate_first_arrival(cfg)
    assert run.censored_fraction < 0.05
    assert ks_statistic(run.transverse_1d(), STD_CAUCHY_CDF) < 0.02


def test_em_matches_exact_sampler_within_horizon():
    cfg = SimConfig(G2, DriftVector(0.0, 0.0), dt=4e-4, n_particles=20_000,
                    max_steps=2_500_000, seed=8)
    run = simulate_first_arrival(cfg)
    exact = sample_exact_zero_drift(G2, n=20_000, seed=900)
    keep = exact.hit_times <= cfg.dt * cfg.max_steps
    assert ks_two_sample(run.transverse_1d(), exact.positions[keep, 0]) < 0.025


def test_steppers_agree_in_law():
    ok, detail = _check_literal_vs_bridge(False)
    assert ok, detail


def test_steppers_agree_in_law_with_transverse_drift():
    # Drift toward the receiver plus a transverse component, with a horizon
    # short enough that both steppers censor a sizeable share.
    shared = dict(dt=1e-3, n_particles=6000, max_steps=4000)
    v = DriftVector(0.8, -0.5)
    bridge = simulate_first_arrival(SimConfig(G2, v, seed=41, stepper="block_bridge", **shared))
    literal = simulate_first_arrival(SimConfig(G2, v, seed=42, stepper="per_step", **shared))
    crit = 1.95 * math.sqrt(2.0 / min(len(bridge.hit_times), len(literal.hit_times)))
    assert ks_two_sample(bridge.transverse_1d(), literal.transverse_1d()) < crit
    assert ks_two_sample(np.log(bridge.hit_times), np.log(literal.hit_times)) < crit
    n = shared["n_particles"]
    pooled = (bridge.censored_count + literal.censored_count) / (2 * n)
    assert 0.02 < pooled < 0.5
    se = math.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
    assert abs(bridge.censored_fraction - literal.censored_fraction) <= 3.0 * se


@pytest.mark.parametrize("n_steps", [2, 7, 250])
def test_bridge_point_mean_and_variance(n_steps):
    # Step j = n // 2 of an n-step walk bridge from a to b (step variance s2):
    # mean a + (j/n)(b - a), variance s2 j (n - j) / n.
    size, a, b, s2 = 200_000, 0.7, -0.2, 0.3
    rng = np.random.Generator(np.random.Philox(key=np.array([5, n_steps], dtype=np.uint64)))
    j, rest, z = _bridge_points(rng, np.full(size, a), np.full(size, b), np.full(size, n_steps),
                                s2)
    assert np.all(j == n_steps // 2) and np.all(rest == n_steps - n_steps // 2)
    j = n_steps // 2
    mean = a + (j / n_steps) * (b - a)
    var = s2 * j * (n_steps - j) / n_steps
    assert abs(z.mean() - mean) <= 5.0 * math.sqrt(var / size)
    assert abs(z.var(ddof=1) - var) <= 5.0 * var * math.sqrt(2.0 / (size - 1))


def test_first_crossings_finds_first_crossing_step():
    # With zero step variance every bridge is a straight line, so the first
    # step at or below 0 is known exactly.  Blocks are 8 steps long.
    # Particle 0 crosses in its first block (1 -> -1: 0 at step 4); particle
    # 1 only in its second (0.5 -> 0.5 -> -1.5: 0 at step 10); particle 2
    # never does.
    z = np.array([1.0, 0.5, 0.9])
    path = np.array([[-1.0, -3.0], [0.5, -1.5], [0.8, 0.7]])
    p, s, a, b = _first_crossings(np.random.default_rng(0), z, path, 8, 0.0, 0.0)
    order = np.argsort(p)
    assert p[order].tolist() == [0, 1]
    assert s[order].tolist() == [3, 9]
    assert a[order].tolist() == [0.25, 0.25] and b[order].tolist() == [0.0, 0.0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [1, 8])
def test_first_crossings_ignores_products_that_overflow(size):
    # Block ends near +-1e200, so a*b overflows to +-inf: +inf is no
    # crossing, silently, and -inf (a stretch from 1e200 to -1e200) is one.
    # Particle 2 is ordinary.  Zero step variance makes every bridge a line.
    z = np.array([1e200, 3e200, 1.0, 1e200])
    path = np.array([[2e200, 1e200, 5e199], [1e200, 4e200, 2e200], [0.5, -0.5, 1.0],
                     [2e200, 1e200, -1e200]])
    p, s, a, b = _first_crossings(np.random.default_rng(0), z, path, size, 0.0, 0.0)
    order = np.argsort(p)
    p, s, a, b = p[order], s[order], a[order], b[order]
    assert p.tolist() == [2, 3]
    assert np.all(b <= 0.0) and np.all(a > 0.0)
    assert size <= s[0] < 2 * size and 2 * size <= s[1] < 3 * size


def test_drifted_positions_match_analytic_density():
    # Dual route: the simulator's conditional arrival law against the
    # drifted closed-form density, compared through its quadrature CDF.
    from faplab.verify import _drifted_arrival_cdf_2d

    v = DriftVector(0.8, -0.5)
    cfg = SimConfig(G2, v, dt=5e-4, n_particles=10_000, max_steps=100_000, seed=31)
    run = simulate_first_arrival(cfg)
    ks = ks_statistic(run.transverse_1d(), _drifted_arrival_cdf_2d(G2, v))
    assert ks < 0.006 + 1.7 / math.sqrt(len(run.hit_times))


def test_strong_drift_toward_receiver():
    cfg = SimConfig(G2, DriftVector(0.0, -5.0), dt=1e-4, n_particles=5000,
                    max_steps=1_000_000, seed=1)
    run = simulate_first_arrival(cfg)
    assert run.censored_count == 0
    zero = simulate_first_arrival(
        SimConfig(G2, DriftVector(0.0, 0.0), dt=1e-3, n_particles=5000,
                  max_steps=100_000, seed=2)
    )
    iqr = lambda x: np.subtract(*np.percentile(x, [75, 25]))
    assert iqr(run.transverse_1d()) < iqr(zero.transverse_1d())


def test_away_drift_hit_fraction_matches_quadrature():
    v = DriftVector(0.0, 1.0)
    cfg = SimConfig(G2, v, dt=2e-4, n_particles=20_000, max_steps=100_000, seed=2)
    with pytest.warns(RuntimeWarning, match="censored fraction"):
        run = simulate_first_arrival(cfg)
    assert run.high_censoring
    p = arrival_probability(G2, v)
    frac = len(run.hit_times) / cfg.n_particles
    se = math.sqrt(p * (1.0 - p) / cfg.n_particles)
    assert abs(frac - p) <= 3.0 * se


def test_worker_determinism():
    cfg = SimConfig(G2, DriftVector(0.3, -0.2), dt=1e-3, n_particles=6000,
                    max_steps=50_000, seed=13)
    one = simulate_first_arrival(cfg, workers=1)
    many = simulate_first_arrival(cfg, workers=3)
    assert np.array_equal(one.positions, many.positions)
    assert np.array_equal(one.hit_times, many.hit_times)
    assert np.array_equal(one.hit_particle_ids, many.hit_particle_ids)
    assert one.censored_count == many.censored_count


def test_3d_simulation_matches_exact():
    cfg = SimConfig(G3, DriftVector(0.0, 0.0, 0.0), dt=1e-3, n_particles=10_000,
                    max_steps=1_000_000, seed=3)
    run = simulate_first_arrival(cfg)
    exact = sample_exact_zero_drift(G3, n=10_000, seed=9)
    keep = exact.hit_times <= cfg.dt * cfg.max_steps
    for c in range(2):
        assert ks_two_sample(run.positions[:, c], exact.positions[keep, c]) < 0.03


@pytest.mark.filterwarnings("ignore:censored fraction")
def test_sample_set_invariants():
    cfg = SimConfig(G2, DriftVector(0.0, 0.0), dt=1e-3, n_particles=2000,
                    max_steps=20_000, seed=4)
    run = simulate_first_arrival(cfg)
    assert len(run.positions) == len(run.hit_times) == cfg.n_particles - run.censored_count
    assert run.censored_count >= 0
    assert np.all(run.hit_times > 0.0)
    assert run.config_echo == cfg


# pinned outputs -----------------------------------------------------------------

# (dimension, drift, dt, max_steps, n_particles, stepper).  Every drift regime
# in 2D and 3D with both steppers; the last run spans two 4,096-particle
# Philox chunks.  Any change to the draws, their order or the arithmetic on
# them changes a digest.
PINNED_RUNS = {
    "2d_zero": (2, (0.0, 0.0), 1e-4, 1_000_000, 500, "block_bridge"),
    "3d_zero": (3, (0.0, 0.0, 0.0), 1e-3, 100_000, 500, "block_bridge"),
    "2d_toward": (2, (0.8, -0.5), 5e-4, 100_000, 500, "block_bridge"),
    "3d_toward": (3, (0.0, 0.0, -0.5), 1e-3, 100_000, 500, "block_bridge"),
    "2d_away": (2, (0.0, 1.0), 2e-4, 100_000, 500, "block_bridge"),
    "3d_away": (3, (0.3, 0.0, 1.0), 1e-3, 100_000, 500, "block_bridge"),
    "2d_zero_per_step": (2, (0.0, 0.0), 1e-3, 2_000, 200, "per_step"),
    "3d_toward_per_step": (3, (0.0, 0.2, -0.5), 1e-3, 2_000, 200, "per_step"),
    "2d_toward_two_chunks": (2, (0.5, -1.0), 1e-3, 5_000, 5_000, "block_bridge"),
}

# SHA-256 of (positions, hit_times, hit_particle_ids, censored_count), taken
# with numpy 2.4.6 on x86-64.
PINNED_DIGESTS = {
    "2d_away":
        "af539ca8f295eccd9f3c2ec3780bf643bf20f7460518a7e86c99e1609de0ffe2",
    "2d_toward":
        "7f1ca734cb05ae108436c522376c8dae32792dc8cbe10960eaea28bfa850fe28",
    "2d_toward_two_chunks":
        "bdfa6aaf025408bd59e3d57d34476896030dfc442cd0ce7ab32f9a8f6b999739",
    "2d_zero":
        "210540c2bcc813630d8c130d4783dacfa5b400a3bc1ab0b65bb010b2dd037c7b",
    "2d_zero_per_step":
        "bd09f970843114ed0ef815a53979ddbb70fd8f8b6210f5a33cd360f6d80b292b",
    "3d_away":
        "1c7083f097d7ef743794f1fa12e28f01b467de61c9d434045dafefff071361dc",
    "3d_toward":
        "fca6624c1e18fb7a66cfa4d56ea9a1efab60aeafc1970f1fa0b82b4aebe6e836",
    "3d_toward_per_step":
        "68978d47ebe1ac07b7b0abb9df6608068f96e087fb945003d96a034b68d4d750",
    "3d_zero":
        "02b3f1d26e5358bc446e83bbe3a7def1f15f41e415f28cc8128beb17a1c10225",
}


def _run_digest(run):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(run.positions, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(run.hit_times, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(run.hit_particle_ids, dtype="<i8").tobytes())
    h.update(str(run.censored_count).encode())
    return h.hexdigest()


@pytest.mark.filterwarnings("ignore:censored fraction")
@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_simulator_outputs_are_pinned(name):
    dim, drift, dt, max_steps, n, stepper = PINNED_RUNS[name]
    cfg = SimConfig(ChannelGeometry(dim, 1.0, 1.0), DriftVector(*drift), dt=dt,
                    n_particles=n, max_steps=max_steps, seed=7, stepper=stepper)
    assert _run_digest(simulate_first_arrival(cfg, workers=1)) == PINNED_DIGESTS[name]


# export -------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:censored fraction")
def test_csv_and_sidecar_roundtrip(tmp_path, monkeypatch):
    cfg = SimConfig(G2, DriftVector(0.0, 0.0), dt=1e-3, n_particles=300,
                    max_steps=5_000, seed=6)
    run = simulate_first_arrival(cfg)
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text(samples_csv(run), newline="")
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["particle_id", "y1", "hit_time", "censored"]
    assert len(rows) == 1 + cfg.n_particles
    censored_rows = [r for r in rows[1:] if r[3] == "1"]
    assert len(censored_rows) == run.censored_count
    hit_rows = [r for r in rows[1:] if r[3] == "0"]
    assert float(hit_rows[0][1]) == run.positions[0, 0]

    # The sidecar is the command line's, written for the same configuration.
    monkeypatch.setattr(cli, "__version__", "0.0-test")
    assert cli.run(["simulate", "--dt", "1e-3", "--particles", "300", "--max-steps", "5000",
                    "--seed", "6", "--out", str(tmp_path / "cli")]) == cli.EXIT_OK
    side = tmp_path / "cli" / "simulate_config.json"
    payload = json.loads(side.read_text())
    assert payload["dt"] == cfg.dt
    assert payload["seed"] == cfg.seed
    assert payload["version"] == "0.0-test"
