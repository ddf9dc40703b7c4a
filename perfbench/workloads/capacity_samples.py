"""The capacity claim reached from samples.

Exact zero-drift noise N and a Cauchy input X of scale A - lam give the
capacity-achieving output Y = X + N, in 2D (line) and 3D (plane); kNN and
transformed-histogram entropies and the sample dispersion of Y recover
ln(A/lam), 2 ln(A/lam) and A.  ``capacity`` runs through its array path, not
through quadrature, and the 1e6-point KD-tree makes this the heavy-memory
workload.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from harness import Checker, Round, Workload

N_FULL = 1_000_000
N_SMOKE = 20_000


class CapacitySamples(Workload):
    name = "capacity_samples"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        from faplab import capacity, cauchy, fap, sim

        self.cap, self.cy, self.sim = capacity, cauchy, sim
        self.n = N_SMOKE if smoke else N_FULL
        self.lam = self.rng.uniform(0.8, 1.2)
        self.A = self.lam * self.rng.uniform(1.5, 3.0)
        self.g = {d: fap.ChannelGeometry(d, self.lam, 1.0) for d in (2, 3)}
        self.seeds = {k: self.draw_seed() for k in ("noise_2d", "noise_3d", "input_1d", "input_2d")}
        self.spec = {1: capacity.ConstraintSpec(1), 2: capacity.ConstraintSpec(2)}

    def warm_up(self) -> None:
        cap, cy, sim = self.cap, self.cy, self.sim
        n = 2000
        y1 = sim.sample_exact_zero_drift(self.g[2], n=n, seed=1).positions[:, 0]
        y2 = sim.sample_exact_zero_drift(self.g[3], n=n, seed=1).positions
        cy.sample_univariate(cy.UnivariateCauchy(0.0, 1.0), n, 1)
        cy.sample_multivariate(cy.MultivariateCauchy([0.0, 0.0], np.eye(2)), n, 1)
        for method in ("knn", "histogram_transformed"):
            cap.entropy_estimate(y1, method)
        cap.entropy_estimate(y2, "knn")
        cap.dispersion_of(y1, self.spec[1])

    def round(self, r: Round) -> dict:
        cap, cy, sim, n = self.cap, self.cy, self.sim, self.n
        s = self.seeds
        in_scale = self.A - self.lam
        noise1 = r.op("sim.sample_exact_zero_drift", work=n,
                      fn=lambda: sim.sample_exact_zero_drift(self.g[2], n=n, seed=s["noise_2d"]))
        noise2 = r.op("sim.sample_exact_zero_drift", work=n,
                      fn=lambda: sim.sample_exact_zero_drift(self.g[3], n=n, seed=s["noise_3d"]))
        x1 = r.op("cauchy.sample_univariate", work=n,
                  fn=lambda: cy.sample_univariate(cy.UnivariateCauchy(0.0, in_scale), n,
                                                  s["input_1d"]))
        x2 = r.op("cauchy.sample_multivariate", work=n,
                  fn=lambda: cy.sample_multivariate(
                      cy.MultivariateCauchy([0.0, 0.0], in_scale**2 * np.eye(2)), n,
                      s["input_2d"]))
        out = {"noise_1d": noise1.positions[:, 0], "noise_2d": noise2.positions,
               "input_1d": x1, "input_2d": x2}
        y1 = out["output_1d"] = x1 + out["noise_1d"]
        y2 = out["output_2d"] = x2 + out["noise_2d"]

        for key, label, samples, method in (
            ("h_knn_1d", "knn_1d", y1, "knn"),
            ("h_knn_2d", "knn_2d", y2, "knn"),
            ("h_hist_1d", "histogram_transformed", y1, "histogram_transformed"),
        ):
            est = r.op(f"capacity.entropy_estimate.{label}", work=n,
                       fn=lambda: cap.entropy_estimate(samples, method))
            out[key] = None if est is None else (est.value, est.std_error)
        for p, samples in ((1, y1), (2, y2)):
            out[f"disp_{p}d"] = r.op(f"capacity.dispersion_of.samples_{p}d",
                                     lambda: cap.dispersion_of(samples, self.spec[p]))
        return out

    def check(self, out: dict, chk: Checker) -> None:
        lam, A, n = self.lam, self.A, self.n
        in_scale = A - lam
        laws = (
            ("noise_1d", lambda y: ref.cauchy_cdf(y, lam)),
            ("noise_2d", lambda r: ref.bivariate_cauchy_radial_cdf(r, lam)),
            ("input_1d", lambda y: ref.cauchy_cdf(y, in_scale)),
            ("input_2d", lambda r: ref.bivariate_cauchy_radial_cdf(r, in_scale)),
            # independent Cauchy scales add
            ("output_1d", lambda y: ref.cauchy_cdf(y, A)),
            ("output_2d", lambda r: ref.bivariate_cauchy_radial_cdf(r, A)),
        )
        for key, cdf in laws:
            x = out[key]
            chk.equal(f"{key}/count", len(x), n)
            stat = ref.ks_statistic(x if x.ndim == 1 else np.linalg.norm(x, axis=1), cdf)
            chk.at_most(f"{key}/ks", stat, ref.ks_bound(n))

        # I(X;Y) = h(Y) - h(N) with h(N) in closed form
        for key, p, h_noise in (("h_knn_1d", 1, ref.cauchy_entropy(lam, 1)),
                                ("h_knn_2d", 2, ref.cauchy_entropy(lam, 2)),
                                ("h_hist_1d", 1, ref.cauchy_entropy(lam, 1))):
            est = out.get(key)
            if est is None:
                continue
            h, se = est
            want = p * math.log(A / lam)
            chk.at_most(f"{key}/mutual_information", abs((h - h_noise) - want),
                        ref.Z_CRIT * se + self.entropy_bias(key))

        for p in (1, 2):
            d = out.get(f"disp_{p}d")
            if d is None:
                continue
            y = out[f"output_{p}d"]
            q = (y / A) ** 2 if p == 1 else np.sum((y / A) ** 2, axis=1)
            # delta method: the sample log-moment's standard error over its slope in ln k
            slope = float(np.mean(2.0 * q / (1.0 + q)))
            se = A * float(np.std(np.log1p(q))) / math.sqrt(n) / slope
            chk.at_most(f"dispersion_of/samples_{p}d", abs(d - A), ref.Z_CRIT * se)

    def entropy_bias(self, key: str) -> float:
        """Allowance for the estimators' own bias at this sample size.

        The kNN estimator's bias on heavy-tailed laws falls like n^(-1/2)
        up to logs; the transformed histogram's binning bias is of order
        (bins / n).
        """
        n = self.n
        if key == "h_hist_1d":
            return 2.0 * max(64, int(math.sqrt(n))) / n
        return 2.0 / math.sqrt(n)
