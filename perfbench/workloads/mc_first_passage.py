"""Euler first-passage runs across the regimes whose code paths differ.

The ``sim`` layer does almost all the work; the analytic layers do almost
none.  Every regime uses lam = sigma2 = 1, one worker, and a transverse
input position and a simulation seed drawn from the workload seed.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

import reference as ref
from harness import Checker, Round, Workload

# name, dimension, drift, dt, max_steps, particles (full, smoke), stepper
REGIMES = (
    # the refinement-heavy configuration of acceptance criterion 05
    ("2d_zero", 2, (0.0, 0.0), 1e-4, 10_000_000, (2000, 60), "block_bridge"),
    ("3d_zero", 3, (0.0, 0.0, 0.0), 1e-3, 1_000_000, (1500, 60), "block_bridge"),
    ("2d_toward", 2, (0.8, -0.5), 5e-4, 200_000, (2000, 60), "block_bridge"),
    ("3d_toward", 3, (0.0, 0.0, -0.5), 1e-3, 100_000, (2000, 60), "block_bridge"),
    # censoring-heavy: most particles drift away and run to the horizon
    ("2d_away", 2, (0.0, 1.0), 2e-4, 100_000, (3000, 200), "block_bridge"),
    # the literal oracle and the block_bridge run it is compared with in law
    ("2d_zero_per_step", 2, (0.0, 0.0), 1e-3, 20_000, (300, 40), "per_step"),
    ("2d_zero_twin", 2, (0.0, 0.0), 1e-3, 20_000, (1500, 100), "block_bridge"),
)

LAM = 1.0
SIGMA2 = 1.0


class McFirstPassage(Workload):
    name = "mc_first_passage"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        from faplab import fap, sim

        self.sim = sim
        self.runs = []
        for name, dim, drift, dt, max_steps, sizes, stepper in REGIMES:
            x_in = self.rng.uniform(-1.0, 1.0, size=dim - 1)
            if name == "2d_zero_twin":  # same input as the oracle it is compared with
                x_in = self.runs[-1][2]
            cfg = sim.SimConfig(
                geometry=fap.ChannelGeometry(dim, LAM, SIGMA2),
                drift=fap.DriftVector(*drift),
                dt=dt,
                n_particles=sizes[1] if smoke else sizes[0],
                max_steps=max_steps,
                seed=self.draw_seed(),
                stepper=stepper,
            )
            self.runs.append((name, cfg, x_in))

    def warm_up(self) -> None:
        from dataclasses import replace

        # one small run per stepper
        steppers = {cfg.stepper: (cfg, x_in) for _, cfg, x_in in self.runs}
        for cfg, x_in in steppers.values():
            small = replace(cfg, n_particles=4, max_steps=2000)
            self._simulate(small, x_in)

    def _simulate(self, cfg, x_in):
        with warnings.catch_warnings():
            # the away-drift run is censoring-heavy by design
            warnings.simplefilter("ignore", RuntimeWarning)
            return self.sim.simulate_first_arrival(cfg, x_in=x_in, workers=1)

    def round(self, r: Round) -> dict:
        out = {}
        for name, cfg, x_in in self.runs:
            res = r.op(f"sim.simulate_first_arrival.{name}",
                       lambda: self._simulate(cfg, x_in), work=cfg.n_particles)
            if res is not None:
                out[name] = {
                    "positions": res.positions,
                    "hit_times": res.hit_times,
                    "ids": res.hit_particle_ids,
                    "censored": res.censored_count,
                }
        return out

    def check(self, out: dict, chk: Checker) -> None:
        runs = {name: (cfg, x_in) for name, cfg, x_in in self.runs}
        for name, res in out.items():
            cfg, x_in = runs[name]
            horizon = cfg.max_steps * cfg.dt
            n_hits = len(res["hit_times"])
            chk.equal(f"{name}/particles", n_hits + res["censored"], cfg.n_particles)
            t = res["hit_times"]
            chk.record(f"{name}/hit_times", bool(np.all((t > 0.0) & (t <= horizon + cfg.dt))),
                       f"all {n_hits} hit times in (0, {horizon:g}]")
            chk.record(f"{name}/positions_finite", bool(np.all(np.isfinite(res["positions"]))),
                       "all arrival positions finite")

        def ks(label, samples, cdf, bias):
            stat = ref.ks_statistic(samples, cdf)
            chk.at_most(f"{label}/ks", stat, ref.ks_bound(len(samples), bias))

        def censoring(label, res, n, p, bias=0.0):
            se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
            frac = res["censored"] / n
            chk.at_most(f"{label}/censored_fraction", abs(frac - p), ref.Z_CRIT * se + bias)

        for name in ("2d_zero", "2d_zero_per_step"):
            if name in out:
                cfg, x_in = runs[name]
                horizon = cfg.max_steps * cfg.dt
                bias = ref.euler_ks_bias(LAM, SIGMA2, cfg.dt)
                ks(name, out[name]["positions"][:, 0] - x_in[0],
                   lambda y: ref.zero_drift_hit_cdf_2d(y, LAM, SIGMA2, horizon), bias)
                censoring(name, out[name], cfg.n_particles,
                          ref.censored_fraction_zero_drift(LAM, SIGMA2, horizon), bias)

        if "3d_zero" in out:
            cfg, x_in = runs["3d_zero"]
            horizon = cfg.max_steps * cfg.dt
            bias = ref.euler_ks_bias(LAM, SIGMA2, cfg.dt)
            radii = np.linalg.norm(out["3d_zero"]["positions"] - x_in, axis=1)
            ks("3d_zero/radius", radii,
               lambda r: ref.zero_drift_hit_radial_cdf_3d(r, LAM, SIGMA2, horizon), bias)
            censoring("3d_zero", out["3d_zero"], cfg.n_particles,
                      ref.censored_fraction_zero_drift(LAM, SIGMA2, horizon), bias)

        if "2d_toward" in out:
            cfg, x_in = runs["2d_toward"]
            cdf, _ = ref.drifted_hit_cdf_2d(LAM, SIGMA2, cfg.drift.components)
            ks("2d_toward", out["2d_toward"]["positions"][:, 0] - x_in[0], cdf,
               ref.euler_ks_bias(LAM, SIGMA2, cfg.dt))

        if "3d_toward" in out:
            cfg, x_in = runs["3d_toward"]
            cdf, _ = ref.drifted_hit_radial_cdf_3d(LAM, SIGMA2, cfg.drift.traversal)
            radii = np.linalg.norm(out["3d_toward"]["positions"] - x_in, axis=1)
            ks("3d_toward/radius", radii, cdf, ref.euler_ks_bias(LAM, SIGMA2, cfg.dt))

        if "2d_away" in out:
            cfg, _ = runs["2d_away"]
            v = cfg.drift.traversal
            p_hit = ref.arrival_probability_by(LAM, SIGMA2, v, cfg.max_steps * cfg.dt)
            # discrete monitoring misses crossings: at most about
            # 2 v 0.5826 sqrt(sigma2 dt) / sigma2 of the hits, allowed twice over
            bias = 2.0 * p_hit * 2.0 * v * 0.5826 * math.sqrt(SIGMA2 * cfg.dt) / SIGMA2
            censoring("2d_away", out["2d_away"], cfg.n_particles, 1.0 - p_hit, bias)

        if "2d_zero_per_step" in out and "2d_zero_twin" in out:
            a = out["2d_zero_per_step"]
            b = out["2d_zero_twin"]
            na, nb = len(a["hit_times"]), len(b["hit_times"])
            x_in = runs["2d_zero_twin"][1][0]
            stat = ref.ks_two_sample(a["positions"][:, 0] - x_in, b["positions"][:, 0] - x_in)
            chk.at_most("per_step_vs_block_bridge/ks", stat, ref.ks_two_sample_bound(na, nb))
            ma = runs["2d_zero_per_step"][0].n_particles
            mb = runs["2d_zero_twin"][0].n_particles
            pa, pb = a["censored"] / ma, b["censored"] / mb
            pool = (a["censored"] + b["censored"]) / (ma + mb)
            se = math.sqrt(max(pool * (1.0 - pool), 1.0 / (ma + mb)) * (1.0 / ma + 1.0 / mb))
            chk.at_most("per_step_vs_block_bridge/censored_fraction", abs(pa - pb),
                        ref.Z_CRIT * se)
