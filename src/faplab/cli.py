"""Command-line driver for reproducible density, simulation, and capacity runs.

Subcommands:

  density    analytic arrival-density grid (2D/3D, any drift) as CSV
  simulate   Monte Carlo first-passage run: sample CSV + config sidecar
  capacity   closed-form capacity for a channel/dispersion level, as JSON
  maxent     constrained max-entropy exponent and profile grid
  verify     the full invariant suite, one pass/fail line per check
  table1     capacity table CSV/JSON plus gnuplot-ready curve files

Every output file is written here, by ``_write_outputs``, with a manifest
(subcommand, resolved parameters, seed, version, outputs, duration); re-running
the argv stored in a manifest reproduces the primary outputs byte for byte.  A
rerun into an existing --out rewrites each file in place (``_rewrite`` does not
truncate on open) and leaves the bytes of a fresh directory.  Worker
count is capped by the FAPLAB_THREADS environment variable and never
affects results.

Each subcommand imports what it uses only after the arguments parse, so
``--version``, ``--help`` and usage errors load neither numpy nor json.  The
exception is a ``verify --only`` filter that matches no check: the names live
only in ``verify``, so finding that out loads it, and numpy with it.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import stat
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

def _checked(convert, accept, what: str):
    """An argparse type: convert the text, then require accept(value)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value

    return parse


_finite_float = _checked(float, math.isfinite, "a finite number")
_positive_float = _checked(float, lambda x: 0.0 < x < math.inf, "a positive finite number")
_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")


def _require_finite(values, what: str) -> None:
    """Raise ValueError if any of values overflowed, before it reaches an output."""
    import numpy as np

    if not np.isfinite(values).all():
        raise ValueError(f"the {what} is past the float range")


def _channel_args(parser: argparse.ArgumentParser) -> None:
    """Geometry, drift and input flags, read back by ``_channel_from_args``."""
    parser.add_argument("-n", "--dimension", type=int, default=2, choices=(2, 3))
    parser.add_argument("--lambda", dest="lam", type=_positive_float, default=1.0,
                        help="transmission distance (default 1)")
    parser.add_argument("--sigma2", type=_positive_float, default=1.0,
                        help="microscopic diffusion coefficient (default 1)")
    parser.add_argument("--vx", type=_finite_float, default=0.0,
                        help="transverse drift component")
    parser.add_argument("--vy", type=_finite_float, default=0.0,
                        help="second transverse (3D) or traversal (2D) component")
    parser.add_argument("--vz", type=_finite_float, default=None,
                        help="traversal drift component (3D only; rejected with -n 2); "
                             "positive points away from the receiver")
    parser.add_argument("--x1", type=_finite_float, default=0.0, help="input coordinate")
    parser.add_argument("--x2", type=_finite_float, default=None,
                        help="second input coordinate (3D only; rejected with -n 2)")


def _channel_from_args(args):
    """(geometry, drift, input) for -n d: the first d drift and d - 1 input flags.

    A drift or input flag beyond the dimension (--vz or --x2 with -n 2) is a
    usage error rather than silently ignored; it is raised before numpy loads.
    """
    d = args.dimension
    drift = (("--vx", args.vx), ("--vy", args.vy), ("--vz", args.vz))
    x = (("--x1", args.x1), ("--x2", args.x2))
    given = [flag for flag, value in drift[d:] + x[d - 1:] if value is not None]
    if given:
        raise argparse.ArgumentError(None, f"3D-only flags given with -n {d}: {', '.join(given)}")
    from .fap import ChannelGeometry, DriftVector

    value = lambda pair: 0.0 if pair[1] is None else pair[1]
    return (ChannelGeometry(d, args.lam, args.sigma2),
            DriftVector(*map(value, drift[:d])), tuple(map(value, x[: d - 1])))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faplab",
        description="First-arrival-position channel densities, simulation, and capacity",
    )
    parser.add_argument("--version", action="version", version=f"faplab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_density = sub.add_parser("density", help="emit an analytic density grid as CSV")
    _channel_args(p_density)
    p_density.add_argument("--ymin", type=_finite_float, default=-10.0)
    p_density.add_argument("--ymax", type=_finite_float, default=10.0)
    p_density.add_argument("--points", type=_positive_int, default=201)
    p_density.add_argument("--format", choices=("csv", "json"), default="csv")
    p_density.add_argument("--out", type=Path, required=True)

    p_sim = sub.add_parser("simulate", help="run the first-passage Monte Carlo")
    _channel_args(p_sim)
    p_sim.add_argument("--dt", type=_positive_float, default=1e-4)
    p_sim.add_argument("--particles", type=_positive_int, default=100_000)
    p_sim.add_argument("--max-steps", type=_positive_int, default=10_000_000)
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.add_argument("--stepper", choices=("block_bridge", "per_step"),
                       default="block_bridge")
    p_sim.add_argument("--out", type=Path, required=True)

    p_cap = sub.add_parser("capacity", help="closed-form capacity as JSON")
    p_cap.add_argument("--channel", choices=("fap2d", "fap3d", "gaussian"),
                       required=True)
    p_cap.add_argument("--A", dest="A", type=_finite_float, required=True,
                       help="output dispersion level")
    p_cap.add_argument("--lambda", dest="lam", type=_positive_float, default=1.0)
    p_cap.add_argument("--sigma", type=_positive_float, default=1.0,
                       help="noise standard deviation for the Gaussian baseline")
    p_cap.add_argument("--out", type=Path, default=None)

    p_max = sub.add_parser("maxent", help="constrained max-entropy profile")
    p_max.add_argument("--p", type=int, default=1, choices=(1, 2))
    p_max.add_argument("--k", type=_positive_float, default=1.0)
    p_max.add_argument("--c", type=_finite_float, default=None,
                       help="override the log-moment target (default: dimension constant)")
    p_max.add_argument("--grid-points", type=_positive_int, default=33)
    p_max.add_argument("--out", type=Path, default=None)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--quick", action="store_true",
                       help="reduced sample sizes (interactive runtimes)")
    p_ver.add_argument("--only", type=str, default=None,
                       help="run only checks whose name contains this substring")

    p_tab = sub.add_parser("table1", help="capacity table and curve files")
    p_tab.add_argument("--a-min", type=_finite_float, default=1.0)
    p_tab.add_argument("--a-max", type=_finite_float, default=8.0)
    p_tab.add_argument("--a-count", type=_positive_int, default=29)
    p_tab.add_argument("--lambda", dest="lam", type=_positive_float, default=1.0)
    p_tab.add_argument("--sigma", type=_positive_float, default=1.0)
    p_tab.add_argument("--out", type=Path, required=True)
    # argparse reads an argument as a negative number, not a flag, where its private
    # _negative_number_matcher matches; Python 3.11's takes "-1" and "-1.5" but not "-1e-3".
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _json_text(obj) -> str:
    """obj as indented JSON with sorted keys and a final newline; json loads on first use."""
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _rewrite(path: Path, text: str) -> None:
    """Write text as ``open(path, "w", newline="")`` would, but without O_TRUNC.

    On ext4 (``auto_da_alloc``) a file truncated to zero is flushed at close,
    and the next rewrite of it waits for that writeback.  Bytes, inode, mode
    and symlink-following are those of ``open(path, "w")``, and so is the new
    prefix an exception leaves.  A device or pipe, which O_TRUNC leaves alone,
    is not cut either.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="") as fh:
        try:
            fh.write(text)
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _write_outputs(out: Path, files: dict, subcommand: str, argv: Sequence[str], params: dict,
                   started: float, seed: Optional[int] = None) -> None:
    """Write each {name: text} of files into out, then the run's manifest."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _rewrite(out / name, text)
    _rewrite(out / "manifest.json", _json_text({
        "tool": "faplab", "version": __version__, "subcommand": subcommand,
        "argv": list(argv), "params": params, "seed": seed, "outputs": sorted(files),
        "duration_s": time.time() - started,
    }))


def rerun_from_manifest(manifest_path, out_dir=None) -> int:
    """Re-run the argv recorded in a manifest, optionally redirecting --out in any spelling."""
    import json

    with open(manifest_path) as fh:
        manifest = json.load(fh)
    argv = list(manifest["argv"])
    if out_dir is not None:
        for i, tok in enumerate(argv):
            flag, eq, _ = tok.partition("=")
            if len(flag) > 2 and "--out".startswith(flag):
                if eq:
                    argv[i] = f"{flag}={out_dir}"
                elif i + 1 < len(argv):
                    argv[i + 1] = str(out_dir)
    return run(argv)


def _cmd_density(args, argv) -> int:
    started = time.time()
    g, v, x = _channel_from_args(args)
    from .fap import density_grid, density_grid_csv

    cols, grid = density_grid(g, v, x, args.ymin, args.ymax, args.points)
    _require_finite(grid, "density grid")
    if args.format == "csv":
        text = density_grid_csv(cols, grid)
    else:
        text = _json_text([dict(zip(cols, row)) for row in grid.tolist()])
    name = f"density.{args.format}"
    _write_outputs(args.out, {name: text}, "density", argv, {
        "dimension": args.dimension, "lam": args.lam, "sigma2": args.sigma2,
        "drift": list(v.components), "x": list(x),
        "ymin": args.ymin, "ymax": args.ymax, "points": args.points,
        "format": args.format,
    }, started)
    print(f"wrote {args.out / name}")
    return EXIT_OK


def _cmd_simulate(args, argv) -> int:
    started = time.time()
    g, v, x = _channel_from_args(args)
    from .sim import SimConfig, samples_csv, simulate_first_arrival

    cfg = SimConfig(
        geometry=g, drift=v, dt=args.dt, n_particles=args.particles,
        max_steps=args.max_steps, seed=args.seed, stepper=args.stepper,
    )
    result = simulate_first_arrival(cfg, x_in=x)
    params = cfg.to_dict() | {"x_in": list(x)}
    _write_outputs(args.out, {
        "samples.csv": samples_csv(result),
        "simulate_config.json": _json_text(params | {"version": __version__}),
    }, "simulate", argv, params, started, seed=args.seed)
    print(
        f"wrote {args.out / 'samples.csv'} ({len(result.hit_times)} hits, "
        f"{result.censored_count} censored)"
    )
    return EXIT_OK


def _cmd_capacity(args, argv) -> int:
    from .capacity import capacity_closed_form

    started = time.time()
    floor = args.sigma if args.channel == "gaussian" else args.lam
    result = capacity_closed_form(args.channel, args.A, floor)
    payload = _json_text(result.to_dict())
    print(payload, end="")
    if args.out is not None:
        _write_outputs(args.out, {"capacity.json": payload}, "capacity", argv,
                       result.to_dict(), started)
    return EXIT_OK


def _cmd_maxent(args, argv) -> int:
    from .capacity import ConstraintSpec, maxent_profile

    started = time.time()
    spec = ConstraintSpec(args.p, target=args.c)
    profile = maxent_profile(spec, args.k)
    ys, fs = profile.grid(num=args.grid_points)
    _require_finite((ys, fs), "profile grid")
    payload = {
        "p": profile.p,
        "k": profile.k,
        "target": profile.target,
        "mu": profile.mu,
        "entropy_nats": profile.entropy_closed_form(),
        "grid": [[float(y), float(f)] for y, f in zip(ys, fs)],
    }
    text = _json_text(payload)
    print(text, end="")
    if args.out is not None:
        _write_outputs(args.out, {"maxent.json": text}, "maxent", argv,
                       {k: payload[k] for k in ("p", "k", "target", "mu")}, started)
    return EXIT_OK


def _cmd_verify(args, argv) -> int:
    from .verify import run_checks

    def report(result):
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
        sys.stdout.flush()

    results = run_checks(only=args.only, quick=args.quick, progress=report)
    if not results:
        print(f"no checks match --only {args.only!r}", file=sys.stderr)
        return EXIT_USAGE
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_table1(args, argv) -> int:
    import numpy as np

    from .capacity import capacity_table, capacity_table_csv, curve_files

    started = time.time()
    if args.a_min < args.lam or args.a_min < args.sigma:
        print(
            f"error: dispersion levels start at {args.a_min}, below the noise "
            f"floor max(lambda={args.lam}, sigma={args.sigma})",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    a_values = np.linspace(args.a_min, args.a_max, args.a_count)
    rows = capacity_table(a_values, lam=args.lam, sigma=args.sigma)
    curves = curve_files(rows)
    _write_outputs(args.out, {
        "table.csv": capacity_table_csv(rows), "table.json": _json_text(rows), **curves,
    }, "table1", argv, {
        "a_min": args.a_min, "a_max": args.a_max, "a_count": args.a_count,
        "lam": args.lam, "sigma": args.sigma,
    }, started)
    print(f"wrote {args.out / 'table.csv'} and {len(curves)} curve files")
    return EXIT_OK


_COMMANDS = {
    "density": _cmd_density,
    "simulate": _cmd_simulate,
    "capacity": _cmd_capacity,
    "maxent": _cmd_maxent,
    "verify": _cmd_verify,
    "table1": _cmd_table1,
}


def run(argv: Sequence[str]) -> int:
    """Parse and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand](args, argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE if _infeasible(exc) else EXIT_CHECK_FAILED


def _infeasible(exc: Exception) -> bool:
    """Whether exc is a capacity.InfeasibleError; only a loaded capacity raises one."""
    capacity = sys.modules.get(f"{__package__}.capacity")
    return capacity is not None and isinstance(exc, capacity.InfeasibleError)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
