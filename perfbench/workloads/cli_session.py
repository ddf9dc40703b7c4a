"""A fixed sequence of ``faplab`` command-line invocations, one at a time.

Interpreter start-up and module imports dominate.  This is the only
workload that measures the ``cli`` and ``verify`` layers.  Children run as
``python -m faplab.cli`` from the checkout's ``src`` with one thread and
write into a scratch directory under the benchmark's output directory.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import reference as ref
from harness import Checker, OperationFailed, Round, Workload

VERIFY_SUBSET = "fap/"  # six analytic checks, no simulation
TIMEOUT_S = 150


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["FAPLAB_THREADS"] = "1"
    return env


def faplab_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "faplab.cli", *args]


class CliSession(Workload):
    name = "cli_session"

    def __init__(self, seed: int, smoke: bool = False, src: Path | None = None,
                 out_dir: Path | None = None) -> None:
        super().__init__(seed, smoke)
        u = self.rng.uniform
        self.env = child_env(src)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        self.lam = u(0.8, 1.2)
        self.sigma = u(0.8, 1.2)
        self.A = max(self.lam, self.sigma) * u(1.5, 3.0)
        self.k = (u(0.5, 2.0), u(0.5, 2.0))
        self.density_lam = u(0.8, 1.2)
        self.density_points = 11 if smoke else 41
        self.sim_seed = self.draw_seed()
        self.sim_particles = 100 if smoke else 400
        a_min = max(self.lam, self.sigma)
        self.commands = [
            ("cli.capacity", "capacity_fap2d",
             ["capacity", "--channel", "fap2d", "--A", repr(self.A), "--lambda", repr(self.lam)]),
            ("cli.capacity", "capacity_fap3d",
             ["capacity", "--channel", "fap3d", "--A", repr(self.A), "--lambda", repr(self.lam)]),
            ("cli.capacity", "capacity_gaussian",
             ["capacity", "--channel", "gaussian", "--A", repr(self.A),
              "--sigma", repr(self.sigma)]),
            ("cli.table1", "table1",
             ["table1", "--a-min", repr(a_min), "--a-max", repr(8.0 * a_min), "--a-count", "29",
              "--lambda", repr(self.lam), "--sigma", repr(self.sigma), "--out", "table1"]),
            ("cli.maxent", "maxent_p1", ["maxent", "--p", "1", "--k", repr(self.k[0])]),
            ("cli.maxent", "maxent_p2", ["maxent", "--p", "2", "--k", repr(self.k[1])]),
            ("cli.density", "density",
             ["density", "-n", "3", "--lambda", repr(self.density_lam),
              "--points", str(self.density_points), "--out", "density"]),
            ("cli.simulate", "simulate",
             ["simulate", "-n", "2", "--dt", "1e-3", "--particles", str(self.sim_particles),
              "--max-steps", "20000", "--seed", str(self.sim_seed), "--out", "simulate"]),
            ("cli.verify", "verify", ["verify", "--quick", "--only", VERIFY_SUBSET]),
        ]
        # Usage probes on fixed inputs: the documented exit code is 2, and
        # faplab exits 1 and 0: kept as known failed operations.
        self.usage_probes = [
            ("cli.capacity.usage_probe", "capacity_nan",
             ["capacity", "--channel", "fap2d", "--A", "nan"]),
            ("cli.density.usage_probe", "density_points0",
             ["density", "--points", "0", "--out", "density_points0"]),
        ]

    def _run(self, args, expect: int):
        proc = subprocess.run(faplab_argv(*args), cwd=self.work, env=self.env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        if proc.returncode != expect:
            raise OperationFailed(
                f"exit {proc.returncode}, expected {expect}: {proc.stderr.strip()[-200:]}")
        return proc

    def round(self, r: Round) -> dict:
        out = {}
        for span, key, args in self.commands:
            layer = "verify" if key == "verify" else "cli"
            proc = r.op(span, lambda: self._run(args, 0), layer=layer)
            out[key] = None if proc is None else self._parse(key, proc.stdout)
        for span, key, args in self.usage_probes:
            proc = r.op(span, lambda: self._run(args, 2))
            out[key] = None if proc is None else proc.returncode
        return out

    def _parse(self, key: str, stdout: str):
        if key.startswith(("capacity", "maxent")):
            return json.loads(stdout)
        if key == "verify":
            return stdout.splitlines()
        if key == "table1":
            with open(self.work / "table1" / "table.csv", newline="") as fh:
                return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        if key == "density":
            with open(self.work / "density" / "density.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            return rows[0], np.array(rows[1:], dtype=float)
        if key == "simulate":
            with open(self.work / "simulate" / "samples.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            return rows[0], rows[1:]
        raise KeyError(key)

    def check(self, out: dict, chk: Checker) -> None:
        c2d = math.log(self.A / self.lam)
        for key, want in (("capacity_fap2d", c2d), ("capacity_fap3d", 2.0 * c2d),
                          ("capacity_gaussian", math.log(self.A / self.sigma))):
            res = out.get(key)
            if res is not None:
                chk.close(f"{key}/capacity", res["capacity"], want, rtol=1e-14, atol=1e-15)
                chk.close(f"{key}/A", res["A"], self.A)
        if out.get("capacity_fap2d") is not None:
            chk.close("capacity_fap2d/output_scale",
                      out["capacity_fap2d"]["achieving_output"]["scale"], self.A)

        rows = out.get("table1")
        if rows is not None:
            arr = np.array(rows)
            chk.equal("table1/rows", arr.shape, (29, 4))
            a = arr[:, 0]
            chk.close("table1/C_gauss", arr[:, 1], np.log(a / self.sigma), rtol=1e-14, atol=1e-15)
            chk.close("table1/C_2d", arr[:, 2], np.log(a / self.lam), rtol=1e-14, atol=1e-15)
            chk.close("table1/C_3d", arr[:, 3], 2.0 * np.log(a / self.lam), rtol=1e-14,
                      atol=1e-15)

        for p, key in ((1, "maxent_p1"), (2, "maxent_p2")):
            res = out.get(key)
            if res is None:
                continue
            k = self.k[p - 1]
            chk.close(f"{key}/mu", res["mu"], 1.0 if p == 1 else 1.5, atol=1e-6)
            chk.close(f"{key}/target", res["target"], ref.dispersion_constant(p), atol=1e-12)
            # the maximizer is the Cauchy law of scale k
            chk.close(f"{key}/entropy", res["entropy_nats"], ref.cauchy_entropy(k, p), atol=1e-6)
            grid = np.array(res["grid"])
            want = (ref.cauchy_pdf(grid[:, 0], k) if p == 1
                    else ref.bivariate_cauchy_pdf(grid[:, 0], 0.0, k))
            chk.close(f"{key}/grid", grid[:, 1], want, rtol=1e-5)

        dens = out.get("density")
        if dens is not None:
            header, arr = dens
            chk.equal("density/header", header, ["y1", "y2", "density"])
            chk.equal("density/rows", len(arr), self.density_points**2)
            chk.close("density/values", arr[:, 2],
                      ref.bivariate_cauchy_pdf(arr[:, 0], arr[:, 1], self.density_lam),
                      rtol=1e-9)

        sim = out.get("simulate")
        if sim is not None:
            header, rows = sim
            chk.equal("simulate/header", header, ["particle_id", "y1", "hit_time", "censored"])
            chk.equal("simulate/rows", len(rows), self.sim_particles)
            hits = np.array([float(r[1]) for r in rows if r[3] == "0"])
            censored = sum(r[3] == "1" for r in rows)
            horizon = 20000 * 1e-3
            stat = ref.ks_statistic(hits, lambda y: ref.zero_drift_hit_cdf_2d(y, 1.0, 1.0, horizon))
            chk.at_most("simulate/ks", stat,
                        ref.ks_bound(len(hits), ref.euler_ks_bias(1.0, 1.0, 1e-3)))
            p = ref.censored_fraction_zero_drift(1.0, 1.0, horizon)
            se = math.sqrt(p * (1.0 - p) / self.sim_particles)
            chk.at_most("simulate/censored_fraction", abs(censored / self.sim_particles - p),
                        ref.Z_CRIT * se + ref.euler_ks_bias(1.0, 1.0, 1e-3))

        lines = out.get("verify")
        if lines is not None:
            total = sum(ln.startswith(f"[PASS] {VERIFY_SUBSET}") for ln in lines)
            last = lines[-1] if lines else ""
            ok = (total > 0 and last == f"{total}/{total} checks passed"
                  and not any(ln.startswith("[FAIL]") for ln in lines))
            chk.record("verify/pass_line", ok, f"last line {last!r} after {total} PASS lines")

        for key in ("capacity_nan", "density_points0"):
            if out.get(key) is not None:
                chk.equal(f"{key}/exit_code", out[key], 2)

    def probes(self, tracer) -> None:
        """Interpreter start-up plus ``import faplab.cli``, on its own."""
        for _ in range(3):
            with tracer.span("cli.import"):
                subprocess.run([sys.executable, "-c", "import faplab.cli"], cwd=self.work,
                               env=self.env, check=True, timeout=TIMEOUT_S)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
