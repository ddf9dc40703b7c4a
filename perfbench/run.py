"""faplab benchmark: one workload per run, in one process, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a faplab checkout; faplab is imported from its
``src`` directory.  The run repeats whole rounds of the workload's fixed
operations until S seconds of measured time have passed, checks the first round's
outputs against references computed apart from faplab, and requires every
later round to reproduce them bit for bit.  The last line on stdout is one
JSON object: correct, attempted, failed and metrics.

--trace 0   end-to-end metrics: setup_s, wall_s, peak_rss_mb.
--trace 1   per-layer metrics from spans around every call into faplab,
            plus the tracing overhead; spans go to perfbench/out/.
"""

from __future__ import annotations

import os

# One thread everywhere, before numpy is imported; children inherit these.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "FAPLAB_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3  # fresh-interpreter set-ups per run; setup_s is their median


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="import, build inputs, warm up, print 'ready' and exit")
    return ap.parse_args(argv)


def time_setups(args, name: str, env) -> float:
    """Median seconds from spawning a fresh interpreter to ready."""
    if name == "cli_session":
        from workloads.cli_session import faplab_argv

        argv, wait_line = faplab_argv("--version"), False
    else:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
        wait_line = True
    times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            if wait_line:
                line = proc.stdout.readline()
                times.append(perf_counter() - t0)
                rest = proc.stdout.read()
            else:
                line = rest = ""
            proc.wait(timeout=120)
            if not wait_line:
                times.append(perf_counter() - t0)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or (wait_line and line.strip() != "ready"):
            raise RuntimeError(f"set-up child failed (exit {proc.returncode}): {line}{rest}")
    return statistics.median(times)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def run_rounds(w, seconds, tracers, chk) -> dict:
    """Whole rounds until the measured time reaches ``seconds``.

    Round i is recorded by ``tracers[i % len(tracers)]``; every tracer gets
    at least one round.  The first round's outputs are checked, and every
    later round must reproduce them.  Returns the round times and per-op
    times by whether tracing was on, the attempted and failed operation
    counts, and the peak memory after the first round (later rounds only
    repeat it, but allocator reuse would make the peak depend on how many
    rounds fit in the run).
    """
    from harness import Round, digest, warn

    st = {"times": {False: [], True: []}, "op_times": {False: [], True: []},
          "attempted": 0, "failed": 0}
    first = None
    i = 0
    while True:
        tracer = tracers[i % len(tracers)]
        r = Round(tracer)
        with tracer.span("round", layer="bench", round=i):
            out = w.round(r)
        st["times"][tracer.enabled].append(r.elapsed)
        st["op_times"][tracer.enabled].append(r.op_times)
        st["attempted"] += r.attempted
        st["failed"] += r.failed
        if first is None:
            st["peak_rss_mb"] = peak_rss_mb(children=w.name == "cli_session")
            for e in r.errors:
                warn(f"{w.name}: failed operation {e}")
            w.check(out, chk)
            first = digest(out)
        elif digest(out) != first:
            chk.record(f"round_{i}/reproducible", False, "outputs differ from round 0")
        del out
        i += 1
        done = st["times"][False] + st["times"][True]
        if i >= len(tracers) and sum(done) >= seconds:
            return st


def traced_run(w, args, chk) -> dict:
    """Untraced and traced rounds of ``w``, its probes, and smoke rounds of
    the other workloads for the layers ``w`` does not call."""
    from spans import NullTracer, PER_LAYER_UNITS, Tracer, per_layer_metrics
    from workloads import WORKLOADS, make

    w.warm_up()
    tracer = Tracer()
    # alternate untraced and traced rounds: their medians give the overhead
    st = run_rounds(w, args.seconds, (NullTracer(), tracer), chk)
    probe_tracer = Tracer()
    w.probes(probe_tracer)
    rounds_src = [(tracer.spans, len(st["times"][True]), w.name)]
    probes_src = [(probe_tracer.spans, 1, f"{w.name}/probes")]
    for other in sorted(set(WORKLOADS) - {w.name}):
        ws = make(other, args.seed, True, SRC, OUT)
        try:
            ws.warm_up()
            t_other, t_probe = Tracer(), Tracer()
            run_rounds(ws, 0.0, (t_other,), chk)
            ws.probes(t_probe)
        finally:
            ws.close()
        rounds_src.append((t_other.spans, 1, f"{other}/smoke"))
        probes_src.append((t_probe.spans, 1, f"{other}/smoke/probes"))
    sources = rounds_src + probes_src
    values = per_layer_metrics([(spans, n) for spans, n, _ in sources])
    values["trace.overhead_s"] = (statistics.median(st["times"][True])
                                  - statistics.median(st["times"][False]))
    missing = sorted(set(PER_LAYER_UNITS) - set(values))
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {missing}")
    with open(OUT / f"trace-{w.name}-seed{args.seed}.json", "w") as fh:
        json.dump({
            "workload": w.name, "seed": args.seed, "smoke": args.smoke,
            "untraced_round_s": st["times"][False], "traced_round_s": st["times"][True],
            "sources": [{"source": name, "rounds": n, "spans": spans}
                        for spans, n, name in sources],
        }, fh)
        fh.write("\n")
    st["values"] = {m: values[m] for m in PER_LAYER_UNITS}
    return st


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "faplab" / "__init__.py").is_file():
        print(f"error: faplab sources not found under {SRC}; run from a faplab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import faplab

    if Path(faplab.__file__).resolve().parent != (SRC / "faplab").resolve():
        print(f"error: imported faplab from {faplab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import Checker, warn
    from spans import PER_LAYER_UNITS, NullTracer
    from workloads import WORKLOADS, make
    from workloads.cli_session import child_env

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.setup_only:
        make(args.workload, args.seed, args.smoke, SRC, OUT).warm_up()
        print("ready", flush=True)
        return 0

    w = make(args.workload, args.seed, args.smoke, SRC, OUT)
    chk = Checker()
    try:
        if args.trace:
            st = traced_run(w, args, chk)
            metrics = {m: {"value": v, "unit": PER_LAYER_UNITS[m]} for m, v in st["values"].items()}
        else:
            setup_s = time_setups(args, w.name, child_env(SRC))
            w.warm_up()
            st = run_rounds(w, args.seconds, (NullTracer(),), chk)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": statistics.median(st["times"][False]), "unit": "s"},
                "peak_rss_mb": {"value": st["peak_rss_mb"], "unit": "MB"},
            }
    finally:
        w.close()

    for failure in chk.failures():
        warn(f"check failed: {failure}")
    result = {"correct": chk.ok, "attempted": st["attempted"], "failed": st["failed"],
              "metrics": metrics}
    with open(OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result | {"rounds": sum(map(len, st["times"].values())),
                            "round_s": st["times"], "op_s": st["op_times"],
                            "checks": chk.results}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if chk.ok else 1


if __name__ == "__main__":
    sys.exit(main())
