"""Command-line driver for reproducible density, simulation, and capacity runs.

Subcommands:

  density    analytic arrival-density grid (2D/3D, any drift) as CSV
  simulate   Monte Carlo first-passage run: sample CSV + config sidecar
  capacity   closed-form capacity for a channel/dispersion level, as JSON
  maxent     constrained max-entropy exponent and profile grid
  verify     the full invariant suite, one pass/fail line per check
  table1     capacity table CSV/JSON plus gnuplot-ready curve files

Every file-writing run records a manifest (subcommand, resolved parameters,
seed, version, outputs, duration) next to its outputs; re-running the argv
stored in a manifest reproduces the primary outputs byte for byte.  A rerun
into an existing --out rewrites each file in place (``fap._rewrite``, which
does not truncate on open) and leaves the bytes of a fresh directory.  Worker
count is capped by the FAPLAB_THREADS environment variable and never
affects results.

Each subcommand imports what it uses only after the arguments parse, so
``--version``, ``--help`` and usage errors load neither numpy nor json.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

# The names of verify's checks, in order, so that an --only filter matching
# none of them is a usage error without loading numpy; equal to
# verify.check_names().
_VERIFY_CHECK_NAMES = (
    "special/w2_golden_values", "cauchy/normalization_univariate",
    "cauchy/normalization_bivariate",
    "cauchy/entropy_quadrature_univariate", "cauchy/entropy_quadrature_bivariate",
    "cauchy/sum_closure_univariate", "cauchy/sum_closure_bivariate",
    "cauchy/entropy_scaling", "fap/zero_drift_limit_2d", "fap/zero_drift_limit_3d",
    "fap/translation_covariance", "fap/positivity", "fap/marginal_3d_to_2d",
    "fap/arrival_probability_zero_drift", "sim/em_vs_exact_sampler",
    "sim/drifted_shape_2d", "sim/drifted_shape_3d", "sim/dt_refinement",
    "sim/hit_fraction_vs_quadrature", "sim/worker_determinism", "sim/exact_sampler_ks",
    "sim/stepper_equivalence", "capacity/log_moment_monotone",
    "capacity/dispersion_homogeneity", "capacity/dispersion_identity",
    "capacity/closed_form_log_moments", "capacity/entropy_maximizer_2d",
    "capacity/entropy_maximizer_3d", "capacity/knn_consistency",
    "capacity/capacity_endpoint", "capacity/maxent_certification",
    "capacity/table_columns", "cli/manifest_roundtrip",
)


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
    """obj as indented JSON with sorted keys; json loads on first use, not at start-up."""
    import json

    return json.dumps(obj, indent=2, sort_keys=True)


def _write_manifest(out_dir: Path, subcommand: str, argv: Sequence[str], params: dict,
                    outputs: Sequence[str], started: float, seed: Optional[int] = None) -> None:
    manifest = {
        "tool": "faplab",
        "version": __version__,
        "subcommand": subcommand,
        "argv": list(argv),
        "params": params,
        "seed": seed,
        "outputs": sorted(str(o) for o in outputs),
        "duration_s": time.time() - started,
    }
    from .fap import _rewrite

    with _rewrite(out_dir / "manifest.json") as fh:
        fh.write(_json_text(manifest) + "\n")


def rerun_from_manifest(manifest_path, out_dir=None) -> int:
    """Re-run the argv recorded in a manifest, optionally redirecting --out."""
    import json

    with open(manifest_path) as fh:
        manifest = json.load(fh)
    argv = list(manifest["argv"])
    if out_dir is not None:
        for i, tok in enumerate(argv):
            if tok == "--out" and i + 1 < len(argv):
                argv[i + 1] = str(out_dir)
    return run(argv)


def _cmd_density(args, argv) -> int:
    started = time.time()
    g, v, x = _channel_from_args(args)
    from .fap import _rewrite, density_grid, write_density_grid_csv

    cols, grid = density_grid(g, v, x, args.ymin, args.ymax, args.points)
    _require_finite(grid, "density grid")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        path = out / "density.csv"
        write_density_grid_csv(path, cols, grid)
    else:
        path = out / "density.json"
        payload = [dict(zip(cols, row)) for row in grid.tolist()]
        with _rewrite(path) as fh:
            fh.write(_json_text(payload) + "\n")
    _write_manifest(out, "density", argv, {
        "dimension": args.dimension, "lam": args.lam, "sigma2": args.sigma2,
        "drift": list(v.components), "x": list(x),
        "ymin": args.ymin, "ymax": args.ymax, "points": args.points,
        "format": args.format,
    }, [path.name], started)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_simulate(args, argv) -> int:
    started = time.time()
    g, v, x = _channel_from_args(args)
    from .sim import SimConfig, simulate_first_arrival, write_config_json, write_samples_csv

    cfg = SimConfig(
        geometry=g, drift=v, dt=args.dt, n_particles=args.particles,
        max_steps=args.max_steps, seed=args.seed, stepper=args.stepper,
    )
    result = simulate_first_arrival(cfg, x_in=x)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "samples.csv"
    cfg_path = out / "simulate_config.json"
    write_samples_csv(result, csv_path)
    write_config_json(cfg, cfg_path, version=__version__, x_in=x)
    _write_manifest(out, "simulate", argv, cfg.to_dict() | {"x_in": list(x)},
                    [csv_path.name, cfg_path.name], started, seed=args.seed)
    print(
        f"wrote {csv_path} ({len(result.hit_times)} hits, "
        f"{result.censored_count} censored)"
    )
    return EXIT_OK


def _cmd_capacity(args, argv) -> int:
    from .capacity import capacity_closed_form
    from .fap import _rewrite

    started = time.time()
    floor = args.sigma if args.channel == "gaussian" else args.lam
    result = capacity_closed_form(args.channel, args.A, floor)
    payload = _json_text(result.to_dict())
    print(payload)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "capacity.json"
        with _rewrite(path) as fh:
            fh.write(payload + "\n")
        _write_manifest(args.out, "capacity", argv, result.to_dict(), [path.name], started)
    return EXIT_OK


def _cmd_maxent(args, argv) -> int:
    from .capacity import ConstraintSpec, maxent_profile
    from .fap import _rewrite

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
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "maxent.json"
        with _rewrite(path) as fh:
            fh.write(text + "\n")
        _write_manifest(args.out, "maxent", argv,
                        {k: payload[k] for k in ("p", "k", "target", "mu")},
                        [path.name], started)
    return EXIT_OK


def _cmd_verify(args, argv) -> int:
    if args.only and not any(args.only in name for name in _VERIFY_CHECK_NAMES):
        print(f"no checks match --only {args.only!r}", file=sys.stderr)
        return EXIT_USAGE
    from .verify import run_checks

    def report(result):
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
        sys.stdout.flush()

    results = run_checks(only=args.only, quick=args.quick, progress=report)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_table1(args, argv) -> int:
    import numpy as np

    from .capacity import (
        capacity_table,
        write_capacity_table_csv,
        write_capacity_table_json,
        write_curve_files,
    )

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
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "table.csv"
    json_path = out / "table.json"
    write_capacity_table_csv(rows, csv_path)
    write_capacity_table_json(rows, json_path)
    curves = write_curve_files(rows, out)
    outputs = [csv_path.name, json_path.name] + [Path(c).name for c in curves]
    _write_manifest(out, "table1", argv, {
        "a_min": args.a_min, "a_max": args.a_max, "a_count": args.a_count,
        "lam": args.lam, "sigma": args.sigma,
    }, outputs, started)
    print(f"wrote {csv_path} and {len(curves)} curve files")
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
