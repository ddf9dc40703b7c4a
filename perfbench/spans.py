"""Spans recorded around the benchmark's calls into faplab, and the
per-layer metrics derived from them.

A span holds its name, layer, start, end, parent span and, where the call
does countable work, a ``work`` count (particles, points, samples, calls)
or an ``evals`` count (quadrature integrand evaluations).  Spans are kept in
memory and written out when the run ends.  The layers are faplab's module
names: special, quadrature, cauchy, fap, sim, capacity, verify, cli.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

LAYERS = ("special", "quadrature", "cauchy", "fap", "sim", "capacity", "verify", "cli")

_SIM_REGIMES = ("2d_zero", "3d_zero", "2d_toward", "3d_toward", "2d_away", "2d_zero_per_step")

# (metric, unit, span name, how the spans of that name reduce to a number)
#   rate          total work / total seconds
#   ns_per_work   total seconds / total work, in ns
#   ms_per_call   mean span duration, in ms
#   s_per_call    mean span duration, in s
#   evals         mean integrand evaluations per call
#   us_per_eval   total seconds / total evaluations, in us
PER_LAYER = (
    [(f"sim.simulate_first_arrival.{r}.particles_per_s", "1/s",
      f"sim.simulate_first_arrival.{r}", "rate") for r in _SIM_REGIMES]
    + [(f"{s}.samples_per_s", "1/s", s, "rate") for s in (
        "sim.sample_exact_zero_drift", "cauchy.sample_univariate",
        "cauchy.sample_multivariate")]
    + [(f"fap.density_grid.{g}.ns_per_point", "ns", f"fap.density_grid.{g}", "ns_per_work")
       for g in ("2d_zero", "2d_drift", "3d_zero", "3d_drift")]
    + [(f"fap.arrival_probability.{c}.ms_per_call", "ms", f"fap.arrival_probability.{c}",
        "ms_per_call") for c in ("2d_drift", "3d_drift")]
    + [(f"capacity.dispersion_of.{c}.ms_per_call", "ms", f"capacity.dispersion_of.{c}",
        "ms_per_call") for c in ("cauchy_1d", "cauchy_2d", "profile_1d", "profile_2d",
                                 "samples_1d", "samples_2d")]
    + [(f"capacity.maxent_profile.{p}.ms_per_call", "ms", f"capacity.maxent_profile.{p}",
        "ms_per_call") for p in ("p1", "p2")]
    + [("capacity.entropy_estimate.quadrature.ms_per_call", "ms",
        "capacity.entropy_estimate.quadrature", "ms_per_call")]
    + [(f"capacity.entropy_estimate.{m}.points_per_s", "1/s", f"capacity.entropy_estimate.{m}",
        "rate") for m in ("knn_1d", "knn_2d", "histogram_transformed")]
    + [("cauchy.pdf_multivariate.ns_per_point", "ns", "cauchy.pdf_multivariate", "ns_per_work")]
    + [(f"special.{f}.ns_per_call", "ns", f"special.{f}", "ns_per_work")
       for f in ("bessel_k1_scaled", "log_gamma", "digamma")]
    + [(f"quadrature.{q}.evals_per_call", "count", f"quadrature.{q}", "evals")
       for q in ("integrate_real_line", "integrate_plane_radial", "integrate_plane")]
    + [("quadrature.integrate_real_line.us_per_eval", "us", "quadrature.integrate_real_line",
        "us_per_eval")]
    + [("cli.import_s", "s", "cli.import", "s_per_call")]
    + [(f"cli.{c}.s", "s", f"cli.{c}", "s_per_call")
       for c in ("capacity", "table1", "maxent", "density", "simulate", "verify")]
)

PER_LAYER_UNITS = (
    {m: u for m, u, _, _ in PER_LAYER}
    | {f"{layer}.busy_s": "s" for layer in LAYERS}
    | {f"{layer}.calls": "count" for layer in LAYERS}
    | {"trace.overhead_s": "s"}
)


class Tracer:
    """Records one span per call; nested spans point at their parent."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str | None = None, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "layer": layer or name.split(".", 1)[0],
            "parent": self._stack[-1] if self._stack else None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, layer: str | None = None, **attrs):
        yield attrs


def _reduce(spans: list[dict], kind: str) -> float:
    dur = sum(s["end"] - s["start"] for s in spans)
    if kind == "rate":
        return sum(s["work"] for s in spans) / dur
    if kind == "ns_per_work":
        return 1e9 * dur / sum(s["work"] for s in spans)
    if kind == "ms_per_call":
        return 1e3 * dur / len(spans)
    if kind == "s_per_call":
        return dur / len(spans)
    if kind == "evals":
        return sum(s["evals"] for s in spans) / len(spans)
    if kind == "us_per_eval":
        return 1e6 * dur / sum(s["evals"] for s in spans)
    raise ValueError(f"unknown reduction {kind!r}")


def _op_spans(spans: list[dict]) -> list[dict]:
    """Spans around calls into faplab (not the benchmark's own round spans)."""
    return [s for s in spans if s["layer"] in LAYERS]


def layer_busy(spans: list[dict], rounds: int) -> dict[str, tuple[float, float]]:
    """Per layer: (self seconds per round, calls per round)."""
    ops = _op_spans(spans)
    child_time: dict[int, float] = {}
    for s in ops:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, tuple[float, float]] = {}
    for layer in LAYERS:
        mine = [s for s in ops if s["layer"] == layer]
        if mine:
            busy = sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in mine)
            out[layer] = (busy / rounds, len(mine) / rounds)
    return out


def per_layer_metrics(sources: list[tuple[list[dict], int]]) -> dict[str, float]:
    """Every per-layer metric, each from the first source whose spans have it.

    ``sources`` lists (spans, rounds) pairs in order of preference: the
    traced workload's rounds, the smoke-size rounds of the other workloads
    (for the layers it does not call), then the direct probes.
    """
    values: dict[str, float] = {}
    for metric, _, name, kind in PER_LAYER:
        for spans, _ in sources:
            mine = [s for s in spans if s["name"] == name]
            if mine:
                values[metric] = _reduce(mine, kind)
                break
    for layer in LAYERS:
        for spans, rounds in sources:
            busy = layer_busy(spans, rounds)
            if layer in busy:
                values[f"{layer}.busy_s"], values[f"{layer}.calls"] = busy[layer]
                break
    return values
