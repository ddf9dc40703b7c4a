"""Monte Carlo ground truth: drifted diffusion to an absorbing hyperplane.

Particles start on the transmitter plane (traversal coordinate at the
transmission distance) and take Gaussian Euler steps of size dt until the
traversal coordinate first crosses 0.  The arrival position is the linear
interpolation of the transverse coordinates at the crossing fraction within
the crossing step; particles that exhaust ``max_steps`` are censored.

Two steppers produce the same law for that discrete-time walk:

* ``per_step`` draws every coordinate at every step, literally.
* ``block_bridge`` (default) advances the traversal coordinate in coarse
  blocks that lengthen with the elapsed time.  A block that could
  plausibly touch the barrier is refined lazily by dyadic bisection (Levy's
  Brownian-bridge construction): each midpoint is drawn from the discrete
  Gaussian bridge between its two known neighbours, stretches after a
  particle's earliest known crossing are dropped, and so are stretches
  whose bridge crossing probability is below 1e-18, so the total law error
  is bounded by the number of dropped stretches times 1e-18.  The
  transverse coordinates at the crossing step are drawn from their exact
  conditional law given the crossing time, which matches literal stepping
  plus interpolation distributionally.

Both steppers advance a whole chunk of 4,096 particles at once as arrays.
Randomness is one counter-based stream per chunk (Philox keyed by (seed,
chunk index)), and chunk bounds are fixed, so results are bit-identical for
any worker count and across reruns; a particle's draws do depend on the
other particles of its chunk.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fap import ChannelGeometry, DriftVector, _input_position

__all__ = [
    "SimConfig",
    "FapSampleSet",
    "simulate_first_arrival",
    "sample_exact_zero_drift",
    "ks_statistic",
    "ks_two_sample",
    "effective_workers",
    "samples_csv",
]

# Drop a stretch of walk only when its continuous-bridge crossing
# probability (an upper bound for the discrete walk) is below this.
_BRIDGE_SKIP_PROB = 1e-18
_LOG_SKIP = -math.log(_BRIDGE_SKIP_PROB)  # ~41.45
_CHUNK = 4096  # particles per random stream; fixed, so no result depends on the worker count
# Values in the coarse (block_bridge) and literal (per_step) arrays of one
# batch.  Bisection arrays grow to several times the coarse array, hence its
# smaller bound; larger batches are no faster and raise peak memory.
_BRIDGE_BATCH_VALUES = 1 << 13
_LITERAL_BATCH_VALUES = 1 << 15
# A block_bridge batch holds at most this many coarse blocks per particle,
# and blocks grow to 1/_BLOCK_GROWTH of the steps already taken.
_BLOCK_GROWTH = 16
_HIGH_CENSORING_FRACTION = 0.20


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run."""

    geometry: ChannelGeometry
    drift: DriftVector
    dt: float = 1e-4
    n_particles: int = 100_000
    max_steps: int = 10_000_000
    seed: int = 42
    stepper: str = "block_bridge"

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        for name in ("n_particles", "max_steps"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))  # keeps to_dict() JSON-serializable
        if self.stepper not in ("block_bridge", "per_step"):
            raise ValueError(f"unknown stepper: {self.stepper}")
        if len(self.drift) != self.geometry.dimension:
            raise ValueError("drift dimension does not match geometry")

    def to_dict(self) -> dict:
        return {
            "dimension": self.geometry.dimension,
            "lam": self.geometry.lam,
            "sigma2": self.geometry.sigma2,
            "drift": list(self.drift.components),
            "dt": self.dt,
            "n_particles": self.n_particles,
            "max_steps": self.max_steps,
            "seed": self.seed,
            "crossing_rule": "linear_interpolation",
            "stepper": self.stepper,
        }


@dataclass
class FapSampleSet:
    """Arrival positions and times for the uncensored particles of one run."""

    positions: np.ndarray          # (n_hits, n_transverse)
    hit_times: np.ndarray          # (n_hits,)
    hit_particle_ids: np.ndarray   # (n_hits,)
    censored_count: int
    config_echo: Optional[SimConfig] = None
    high_censoring: bool = False

    @property
    def n_particles(self) -> int:
        return len(self.hit_times) + self.censored_count

    @property
    def censored_fraction(self) -> float:
        return self.censored_count / self.n_particles

    def transverse_1d(self) -> np.ndarray:
        """First transverse coordinate of every hit (the 2D arrival positions)."""
        return self.positions[:, 0]


def effective_workers(requested: Optional[int] = None) -> int:
    """Worker count after applying the FAPLAB_THREADS cap (results never depend on it)."""
    if requested is None:
        requested = os.cpu_count() or 1
    cap = os.environ.get("FAPLAB_THREADS")
    if cap:
        if not cap.strip().isdecimal() or int(cap) < 1:
            raise ValueError(f"FAPLAB_THREADS must be a positive integer, got {cap!r}")
        requested = min(requested, int(cap))
    return max(1, requested)


def _coarse_block_size(g: ChannelGeometry, dt: float) -> int:
    # First block span ~2.5% of the diffusive time scale lam^2/sigma2: the
    # bridge trigger then fires within ~0.7 lam of the barrier.  Clamped
    # before the conversion to int, which an infinite quotient would overflow.
    m = min(0.025 * g.lam * g.lam / (g.sigma2 * dt), 8192.0)
    return max(8, int(round(m)))


def _bridge_points(rng, a, b, n, step_var):
    """Split n-step walk bridges from a to b at j = n // 2; returns (j, n - j, walk at step j).

    Given both ends, step j of a Gaussian walk with step variance step_var is
    Gaussian with mean a + (j/n)(b - a) and variance step_var j (n - j) / n,
    whatever the drift, and the two halves are independent bridges again.
    """
    j = n // 2
    rest = n - j
    mean = a + (j / n) * (b - a)
    return j, rest, mean + np.sqrt(step_var * j * rest / n) * rng.standard_normal(a.size)


@np.errstate(over="ignore")  # a product a*b that overflows is +inf: no crossing
def _first_crossings(rng, z, path, size, thresh, step_var):
    """Earliest crossing step of each particle within one batch of coarse blocks.

    Row i of path holds particle i's walk at the ends of consecutive
    `size`-step blocks that start from z[i] > 0.  A stretch from a to b over
    n steps may cross only if a*b <= thresh*n (bridge crossing probability
    at least _BRIDGE_SKIP_PROB).  Such stretches are bisected level by level
    over flat arrays (particle p, first step s, steps n, end values a, b),
    dropping those that start at or after the particle's earliest known
    crossing.  Returns the crossing unit steps (p, s, a, b), at most one per
    particle, with s counted from the batch start.
    """
    prev = np.concatenate([z[:, None], path[:, :-1]], axis=1)
    p, s = np.nonzero(prev * path <= thresh * size)
    a = prev[p, s]
    b = path[p, s]
    s = s * size
    n = np.full(p.size, size)
    # Block ends are exact walk values: a particle crosses no later than the
    # end of its first block that ends at or below 0.
    absorbed = path <= 0.0
    first = (np.where(absorbed.any(axis=1), absorbed.argmax(axis=1), path.shape[1]) + 1) * size
    while True:
        # Boolean-mask gathers on these random masks cost several times one
        # np.flatnonzero, so every compaction gathers through an index array.
        keep = np.flatnonzero((s < first[p]) & ((b <= 0.0) | ((n > 1) & (a * b <= thresh * n))))
        p, s, n, a, b = p[keep], s[keep], n[keep], a[keep], b[keep]
        if not (n > 1).any():
            return p, s, a, b
        # A unit step splits at j = 0 into an empty stretch, which is dropped,
        # and itself: its "midpoint" is a, drawn with variance 0.
        j, rest, c = _bridge_points(rng, a, b, n, step_var)
        below = np.flatnonzero(c <= 0.0)
        np.minimum.at(first, p[below], s[below] + j[below])
        p = np.concatenate([p, p])
        s = np.concatenate([s, s + j])
        n = np.concatenate([j, rest])
        a, b = np.concatenate([a, c]), np.concatenate([c, b])


def _bridge_chunk(rng, cfg: SimConfig, x_in: np.ndarray, n: int):
    """block_bridge stepper for n particles; returns (hit times, NaN if censored; positions)."""
    g = cfg.geometry
    dt = cfg.dt
    step_var = g.sigma2 * dt
    thresh = 0.5 * _LOG_SKIP * step_var  # per step of a stretch's duration
    v_t = np.asarray(cfg.drift.transverse, dtype=float)
    v_z = cfg.drift.traversal
    m = _coarse_block_size(g, dt)

    t_hit = np.full(n, np.nan)
    pos = np.empty((n, g.n_transverse))
    alive = np.arange(n)
    z = np.full(n, g.lam)
    steps_done = 0
    while steps_done < cfg.max_steps and alive.size:
        # Survivors wander away from the barrier as time passes, so blocks
        # lengthen with the elapsed time; bisection refines any that may cross.
        steps_left = cfg.max_steps - steps_done
        size = min(max(m, steps_done // _BLOCK_GROWTH), steps_left)
        k = min(steps_left // size, _BLOCK_GROWTH, max(1, _BRIDGE_BATCH_VALUES // alive.size))
        path = rng.standard_normal((alive.size, k))
        path *= math.sqrt(step_var * size)
        path += v_z * dt * size
        np.cumsum(path, axis=1, out=path)
        path += z[:, None]
        p, s, a, b = _first_crossings(rng, z, path, size, thresh, step_var)
        # Linear interpolation within the crossing step; the transverse
        # coordinates there follow their exact law given the crossing time,
        # Gaussian with variance sigma2 (t_prev + alpha^2 dt).
        alpha = a / (a - b)
        t_prev = (steps_done + s) * dt
        ids = alive[p]
        t_hit[ids] = t_prev + alpha * dt
        sd = np.sqrt(g.sigma2 * (t_prev + alpha * alpha * dt))
        pos[ids] = (x_in + np.outer(t_hit[ids], v_t)
                    + sd[:, None] * rng.standard_normal((p.size, g.n_transverse)))
        stay = np.ones(alive.size, dtype=bool)
        stay[p] = False
        rows = np.flatnonzero(stay)
        z = path[rows, -1]
        alive = alive[rows]
        steps_done += k * size
    return t_hit, pos


def _literal_chunk(rng, cfg: SimConfig, x_in: np.ndarray, n: int):
    """per_step stepper for n particles; returns (hit times, NaN if censored; positions)."""
    g = cfg.geometry
    dt = cfg.dt
    n_t = g.n_transverse
    sd = math.sqrt(g.sigma2 * dt)
    drift = np.asarray(cfg.drift.components, dtype=float) * dt  # traversal last

    t_hit = np.full(n, np.nan)
    pos = np.empty((n, n_t))
    alive = np.arange(n)
    w = np.empty((n, n_t + 1))  # walker state, traversal coordinate last
    w[:, :-1] = x_in
    w[:, -1] = g.lam
    steps_done = 0
    while steps_done < cfg.max_steps and alive.size:
        k = min(cfg.max_steps - steps_done,
                max(1, _LITERAL_BATCH_VALUES // (alive.size * (n_t + 1))))
        path = rng.standard_normal((alive.size, k, n_t + 1))
        path *= sd
        path += drift
        np.cumsum(path, axis=1, out=path)
        path += w[:, None, :]
        below = path[:, :, -1] <= 0.0
        hit = below.any(axis=1)
        rows = np.flatnonzero(hit)
        i = below[rows].argmax(axis=1)
        cur = path[rows, i]
        prev = np.where((i == 0)[:, None], w[rows], path[rows, i - 1])
        alpha = prev[:, -1] / (prev[:, -1] - cur[:, -1])
        ids = alive[rows]
        pos[ids] = prev[:, :-1] + alpha[:, None] * (cur[:, :-1] - prev[:, :-1])
        t_hit[ids] = (steps_done + i) * dt + alpha * dt
        miss = np.flatnonzero(~hit)
        w = path[miss, -1]
        alive = alive[miss]
        steps_done += k
    return t_hit, pos


def _simulate_chunk(cfg: SimConfig, x_in: np.ndarray, start: int, stop: int):
    key = np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF, start // _CHUNK], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    runner = _bridge_chunk if cfg.stepper == "block_bridge" else _literal_chunk
    t_hit, pos = runner(rng, cfg, x_in, stop - start)
    hit = ~np.isnan(t_hit)
    return start + np.flatnonzero(hit), pos[hit], t_hit[hit], int(np.count_nonzero(~hit))


def simulate_first_arrival(
    cfg: SimConfig, x_in=None, workers: Optional[int] = None
) -> FapSampleSet:
    """Run the first-passage simulation described by cfg from input position x_in.

    Deterministic for a fixed (seed, n_particles) regardless of worker count.
    A censored fraction above 20% flags the result and emits a warning.
    """
    x_in = _input_position(cfg.geometry, x_in)

    n = cfg.n_particles
    n_workers = effective_workers(workers)
    bounds = [(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]

    if n_workers == 1 or len(bounds) == 1:
        parts = [_simulate_chunk(cfg, x_in, s, e) for s, e in bounds]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(_simulate_chunk, cfg, x_in, s, e) for s, e in bounds]
            parts = [f.result() for f in futures]

    ids = np.concatenate([p[0] for p in parts])
    positions = np.concatenate([p[1] for p in parts], axis=0)
    times = np.concatenate([p[2] for p in parts])
    censored = sum(p[3] for p in parts)

    high = censored > _HIGH_CENSORING_FRACTION * n
    if high:
        warnings.warn(
            f"censored fraction {censored / n:.1%} exceeds "
            f"{_HIGH_CENSORING_FRACTION:.0%}; fit statistics on this sample "
            "set cover only the uncensored sub-population",
            RuntimeWarning,
            stacklevel=2,
        )
    return FapSampleSet(
        positions=positions,
        hit_times=times,
        hit_particle_ids=ids,
        censored_count=censored,
        config_echo=cfg,
        high_censoring=high,
    )


def sample_exact_zero_drift(
    g: ChannelGeometry, x_in=None, n: int = 100_000, seed: int = 42
) -> FapSampleSet:
    """Exact zero-drift arrivals via the first-passage decomposition.

    The traversal coordinate's hitting time is T = lam^2 / (sigma2 Z^2) with
    Z standard Gaussian; the transverse offsets are then independent
    Gaussians of variance sigma2 T.  The resulting positions are exactly
    Cauchy(x, lam) in 2D and isotropic bivariate Cauchy with scale lam in 3D.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x_in = _input_position(g, x_in)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    positions = rng.standard_normal((n, g.n_transverse))
    # In place, in the order of lam^2 / (sigma2 z z) and x_in + lam G / |z|.
    times = g.sigma2 * z
    times *= z
    np.divide(g.lam * g.lam, times, out=times)
    positions *= g.lam
    positions /= np.abs(z, out=z)[:, None]
    positions += x_in
    return FapSampleSet(
        positions=positions,
        hit_times=times,
        hit_particle_ids=np.arange(n, dtype=np.int64),
        censored_count=0,
        config_echo=None,
    )


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF; NaN samples are an error."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0 or np.isnan(x[-1]):  # sorting puts NaN last
        raise ValueError("ks_statistic requires a non-empty sample without NaN")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic; NaN samples are an error."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0 or np.isnan(a[-1]) or np.isnan(b[-1]):  # NaN sorts last
        raise ValueError("ks_two_sample requires non-empty samples without NaN")
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / a.size
    cdf_b = np.searchsorted(b, both, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def samples_csv(sample_set: FapSampleSet) -> str:
    """CSV text, one row per particle: particle_id, y1[, y2], hit_time, censored.

    Censored particles carry empty position/time fields.
    """
    n_t = sample_set.positions.shape[1]
    cols = ["particle_id"] + [f"y{i + 1}" for i in range(n_t)] + ["hit_time", "censored"]
    hits = {int(pid): k for k, pid in enumerate(sample_set.hit_particle_ids)}
    positions, times = sample_set.positions.tolist(), sample_set.hit_times.tolist()
    lines = [",".join(cols)]
    for pid in range(sample_set.n_particles):
        k = hits.get(pid)
        if k is None:
            lines.append(f"{pid}{',' * (n_t + 2)}1")
        else:
            lines.append(",".join([str(pid), *map(repr, positions[k]), repr(times[k]), "0"]))
    return "\r\n".join(lines) + "\r\n"
