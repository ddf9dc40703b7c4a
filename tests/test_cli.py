import ast
import csv
import filecmp
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import faplab
from faplab import __version__
from faplab.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, build_parser, rerun_from_manifest, run
from faplab.special import w2


def test_capacity_json_value(capsys):
    assert run(["capacity", "--channel", "fap2d", "--A", "2", "--lambda", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["capacity"] == pytest.approx(0.6931471806, abs=1e-9)
    assert payload["channel"] == "fap2d"
    assert payload["achieving_output"]["scale"] == 2.0


def test_capacity_zero_at_floor(capsys):
    assert run(["capacity", "--channel", "fap2d", "--A", "1", "--lambda", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["capacity"] == 0.0


def test_capacity_infeasible_exit_code(capsys):
    rc = run(["capacity", "--channel", "fap2d", "--A", "0.5", "--lambda", "1"])
    assert rc == EXIT_INFEASIBLE
    assert "noise floor" in capsys.readouterr().err


def test_capacity_scale_whose_square_overflows_exits_1(capsys):
    rc = run(["capacity", "--channel", "fap3d", "--A", "1e160", "--lambda", "1"])
    assert rc == 1
    assert "error: scale 1e+160 is out of range: its square overflows" in capsys.readouterr().err


def _strict_json(text):
    """json.loads that raises on the non-JSON constants Infinity and NaN."""

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=reject)


def test_capacity_json_is_valid_past_the_float_range_of_the_ratio(capsys):
    rc = run(["capacity", "--channel", "fap2d", "--A", "1e308", "--lambda", "1e-308"])
    assert rc == EXIT_OK
    payload = _strict_json(capsys.readouterr().out)
    assert payload["capacity"] == pytest.approx(1418.39, abs=0.01)


@pytest.mark.parametrize("channel", ["fap2d", "fap3d", "gaussian"])
@pytest.mark.parametrize("A", ["1e154", "1e308"])
def test_capacity_json_is_valid_or_the_level_is_rejected(capsys, channel, A):
    # Squaring 1e308 overflows; only fap2d never squares the level.
    rc = run(["capacity", "--channel", channel, "--A", A])
    out, err = capsys.readouterr()
    if channel == "fap2d" or A == "1e154":
        assert rc == EXIT_OK
        assert _strict_json(out)["A"] == float(A)
    else:
        assert rc == 1 and out == ""
        assert f"error: scale {float(A)} is out of range: its square overflows" in err


@pytest.mark.parametrize(
    "argv, dest, value",
    [
        (["density", "-n", "3", "--vz", "-1e-3", "--out", "d"], "vz", -1e-3),
        (["density", "-n", "2", "--x1", "-2e0", "--out", "d"], "x1", -2.0),
        (["density", "--ymin", "-1e2", "--out", "d"], "ymin", -100.0),
        (["simulate", "--vx", "-1.5E+2", "--out", "d"], "vx", -150.0),
        (["capacity", "--channel", "fap2d", "--A", "-1e-3"], "A", -1e-3),
        (["maxent", "--c", "-.5e1"], "c", -5.0),
        (["table1", "--a-min", "-1.e0", "--out", "d"], "a_min", -1.0),
    ],
)
def test_negative_numbers_in_exponent_notation_are_values(argv, dest, value):
    assert getattr(build_parser().parse_args(argv), dest) == value


@pytest.mark.parametrize("flags", [["-n", "3", "--vz", "-1e-3"], ["-n", "2", "--x1", "-2e0"],
                                   ["--ymin", "-1e2"]])
def test_density_takes_negative_numbers_in_exponent_notation(flags, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["density", *flags, "--points", "5", "--out", "d"]) == EXIT_OK


def test_unknown_flag_usage_error():
    assert run(["capacity", "--bogus", "1"]) == EXIT_USAGE
    assert run(["not-a-subcommand"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "--channel", "fap2d", "--A", "nan"],
        ["capacity", "--channel", "fap2d", "--A", "2", "--lambda", "-inf"],
        ["density", "--points", "0", "--out", "unused"],
        ["simulate", "--particles", "2.5", "--out", "unused"],
        ["table1", "--a-count", "-3", "--out", "unused"],
        ["density", "--lambda", "0", "--out", "unused"],
        ["density", "--sigma2", "-1", "--out", "unused"],
        ["simulate", "--dt", "-1", "--out", "unused"],
        ["maxent", "--k", "-1"],
        ["capacity", "--channel", "fap2d", "--A", "2", "--lambda", "-1"],
        ["capacity", "--channel", "gaussian", "--A", "2", "--sigma", "0"],
        ["density", "-n", "2", "--vz", "-0.5", "--out", "unused"],
        ["density", "-n", "2", "--x2", "3", "--out", "unused"],
        ["simulate", "-n", "2", "--vz", "-0.5", "--out", "unused"],
        ["simulate", "-n", "2", "--x2", "3", "--out", "unused"],
    ],
)
def test_invalid_values_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "unused").exists()


_IMPORT_BUDGET_SCRIPT = """
import sys

import faplab, faplab.cli

def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)

assert not loaded("numpy"), loaded("numpy")
run = faplab.cli.run
for argv, code in (
    (["--version"], 0),
    (["--help"], 0),
    (["capacity", "--channel", "fap2d", "--A", "nan"], 2),
    (["density", "-n", "2", "--vz", "1", "--out", "density"], 2),
):
    assert run(argv) == code, argv
    assert not loaded("numpy"), (argv, loaded("numpy"))
for argv in (["verify", "--only", "no-such-check"], ["verify", "--only", "k1"]):
    assert run(argv) == 2, argv
for argv in (
    ["capacity", "--channel", "fap3d", "--A", "3", "--lambda", "1.5"],
    ["table1", "--out", "table1"],
    ["density", "-n", "3", "--points", "5", "--out", "density"],
    ["simulate", "--dt", "1e-2", "--particles", "50", "--max-steps", "2000",
     "--out", "simulate"],
    ["maxent", "--p", "2", "--grid-points", "5"],
):
    assert run(argv) == 0, argv
    assert not loaded("scipy"), (argv, loaded("scipy"))
assert run(["maxent", "--p", "1", "--grid-points", "5"]) == 0
assert "scipy.special" in sys.modules and "scipy.optimize" not in sys.modules

from faplab.capacity import ConstraintSpec, dispersion_of
from faplab.cauchy import UnivariateCauchy, isotropic_cauchy, sample_univariate

for law, p in (
    (sample_univariate(UnivariateCauchy(0.0, 1.5), 1000, seed=1), 1),
    (UnivariateCauchy(0.5, 1.5), 1),
    (isotropic_cauchy(2, 1.5), 2),
):
    assert dispersion_of(law, ConstraintSpec(p)) > 0.0
    assert "scipy.optimize" not in sys.modules, (law, loaded("scipy"))
"""


def test_closed_form_commands_do_not_import_scipy(tmp_path):
    src = str(Path(faplab.__file__).resolve().parents[1])
    env = dict(os.environ, FAPLAB_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET_SCRIPT], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_exports_resolve_lazily_to_their_defining_modules():
    star = {}
    exec("from faplab import *", star)
    for name in faplab.__all__:
        obj = getattr(faplab, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
        assert star[name] is obj, name
    assert set(faplab.__all__) <= set(dir(faplab))
    with pytest.raises(AttributeError):
        faplab.no_such_name


def test_density_csv_zero_drift(tmp_path):
    out = tmp_path / "d"
    rc = run(["density", "-n", "2", "--lambda", "2", "--points", "9",
              "--ymin", "-4", "--ymax", "4", "--out", str(out)])
    assert rc == EXIT_OK
    with open(out / "density.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y1", "density"]
    mid = [r for r in rows[1:] if float(r[0]) == 0.0][0]
    assert float(mid[1]) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "density"
    assert manifest["version"] == __version__
    assert "density.csv" in manifest["outputs"]


def test_density_json_format(tmp_path):
    out = tmp_path / "dj"
    rc = run(["density", "-n", "2", "--points", "5", "--format", "json",
              "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads((out / "density.json").read_text())
    assert len(payload) == 5
    assert set(payload[0]) == {"y1", "density"}


@pytest.mark.parametrize(
    "flags, drift, x",
    [
        (["-n", "2"], (0.0, 0.0), (0.25,)),
        (["-n", "2", "--vx", "0.8", "--vy", "-0.5"], (0.8, -0.5), (0.25,)),
        (["-n", "3"], (0.0, 0.0, 0.0), (0.25, -0.4)),
        (["-n", "3", "--vx", "0.3", "--vy", "0.2", "--vz", "-0.5"], (0.3, 0.2, -0.5), (0.25, -0.4)),
    ],
    ids=["2d_zero", "2d_drift", "3d_zero", "3d_drift"],
)
def test_density_files_match_the_per_node_rendering(tmp_path, flags, drift, x):
    # The files as rendered from one (y1[, y2], density) tuple per grid node,
    # the form the grid took before it became one array: byte for byte.
    from faplab.fap import ChannelGeometry, DriftVector, fap_density

    dim = int(flags[1])
    points = 101 if dim == 2 else 21
    g, v = ChannelGeometry(dim, 1.3, 0.7), DriftVector(*drift)
    axis = np.linspace(-6.0, 4.0, points)
    ys = [c.ravel() for c in np.meshgrid(*[axis] * (dim - 1), indexing="ij")]
    density = fap_density(g, v, x, np.column_stack(ys))
    rows = list(zip(*(c.tolist() for c in ys), density.tolist()))
    cols = tuple(f"y{i + 1}" for i in range(dim - 1)) + ("density",)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([repr(float(c)) for c in row])
    with open(tmp_path / "want.json", "w") as fh:
        json.dump([dict(zip(cols, (float(c) for c in row))) for row in rows], fh,
                  indent=2, sort_keys=True)
        fh.write("\n")

    coords = ["--x1", "0.25"] + (["--x2", "-0.4"] if dim == 3 else [])
    common = ["density", *flags, *coords, "--lambda", "1.3", "--sigma2", "0.7",
              "--ymin", "-6", "--ymax", "4", "--points", str(points)]
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert run(common + ["--format", fmt, "--out", str(out)]) == EXIT_OK
        got = (out / f"density.{fmt}").read_bytes()
        assert got == (tmp_path / f"want.{fmt}").read_bytes()


@pytest.mark.filterwarnings("ignore:censored fraction")
def test_sample_and_table_files_match_a_csv_writer_rendering(tmp_path):
    # samples.csv (censored rows included, with their empty fields) and
    # table.csv as csv.writer renders them: byte for byte.
    from faplab.capacity import capacity_table
    from faplab.fap import ChannelGeometry, DriftVector
    from faplab.sim import SimConfig, simulate_first_arrival

    cfg = SimConfig(ChannelGeometry(3, 1.0, 1.0), DriftVector(0.2, -0.1, 0.3), dt=1e-3,
                    n_particles=200, max_steps=2000, seed=11)
    result = simulate_first_arrival(cfg, x_in=(0.25, -0.4))
    assert 0 < result.censored_count < cfg.n_particles
    hits = {int(pid): k for k, pid in enumerate(result.hit_particle_ids)}
    with open(tmp_path / "samples.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["particle_id", "y1", "y2", "hit_time", "censored"])
        for pid in range(cfg.n_particles):
            k = hits.get(pid)
            if k is None:
                writer.writerow([pid, "", "", "", 1])
            else:
                pos = [repr(float(c)) for c in result.positions[k]]
                writer.writerow([pid] + pos + [repr(float(result.hit_times[k])), 0])
    with open(tmp_path / "table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["A", "C_gauss", "C_2d", "C_3d"])
        for r in capacity_table(np.linspace(1.5, 8.0, 14), lam=1.0, sigma=1.5):
            writer.writerow([repr(r[key]) for key in ("A", "C_gauss", "C_2d", "C_3d")])

    out = tmp_path / "out"
    assert run(["simulate", "-n", "3", "--vx", "0.2", "--vy", "-0.1", "--vz", "0.3",
                "--x1", "0.25", "--x2", "-0.4", "--dt", "1e-3", "--particles", "200",
                "--max-steps", "2000", "--seed", "11", "--out", str(out)]) == EXIT_OK
    assert run(["table1", "--a-min", "1.5", "--a-max", "8", "--a-count", "14",
                "--sigma", "1.5", "--out", str(out)]) == EXIT_OK
    for name in ("samples.csv", "table.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_simulate_outputs_and_manifest(tmp_path):
    out = tmp_path / "s"
    rc = run(["simulate", "--dt", "1e-3", "--particles", "400", "--max-steps", "30000",
              "--seed", "5", "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "samples.csv").exists()
    sidecar = json.loads((out / "simulate_config.json").read_text())
    assert sidecar["seed"] == 5 and sidecar["n_particles"] == 400
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert sorted(manifest["outputs"]) == ["samples.csv", "simulate_config.json"]


@pytest.mark.filterwarnings("error:overflow:RuntimeWarning")
@pytest.mark.parametrize("dim", ["2", "3"])
def test_simulate_at_a_distance_whose_square_overflows(dim, tmp_path):
    out = tmp_path / "s"
    rc = run(["simulate", "-n", dim, "--lambda", "1e160", "--particles", "10",
              "--max-steps", "100", "--out", str(out)])
    assert rc == EXIT_OK
    with open(out / "samples.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10 and all(r["censored"] == "1" for r in rows)


def test_manifest_rerun_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    rc = run(["simulate", "--dt", "1e-3", "--particles", "400", "--max-steps", "30000",
              "--seed", "9", "--out", str(first)])
    assert rc == EXIT_OK
    assert rerun_from_manifest(first / "manifest.json", out_dir=second) == EXIT_OK
    for name in ("samples.csv", "simulate_config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_manifest_rerun_deterministic_subcommands(tmp_path):
    for argv, produced in (
        (["density", "-n", "2", "--vy", "-0.4", "--points", "17"], "density.csv"),
        (["capacity", "--channel", "fap3d", "--A", "3", "--lambda", "1.5"], "capacity.json"),
    ):
        first = tmp_path / (produced + ".a")
        second = tmp_path / (produced + ".b")
        assert run(argv + ["--out", str(first)]) == EXIT_OK
        assert rerun_from_manifest(first / "manifest.json", out_dir=second) == EXIT_OK
        assert (first / produced).read_bytes() == (second / produced).read_bytes()


@pytest.mark.parametrize("spelling", [["--out", "{}"], ["--out={}"], ["--o", "{}"]],
                         ids=["separate", "equals", "abbreviated"])
def test_manifest_rerun_redirects_every_spelling_of_out(tmp_path, spelling):
    # The rerun writes into out_dir, and leaves the recorded run's directory alone.
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["capacity", "--channel", "fap2d", "--A", "2"]
    assert run(argv + [t.format(first) for t in spelling]) == EXIT_OK
    recorded = (first / "manifest.json").read_bytes()
    assert rerun_from_manifest(first / "manifest.json", out_dir=second) == EXIT_OK
    assert (first / "manifest.json").read_bytes() == recorded
    assert (second / "capacity.json").read_bytes() == (first / "capacity.json").read_bytes()
    manifest = json.loads((second / "manifest.json").read_text())
    assert manifest["argv"] == argv + [t.format(second) for t in spelling]


_SIM = ["simulate", "--dt", "1e-3", "--max-steps", "30000", "--seed", "9", "--particles"]


@pytest.mark.parametrize(
    "first, second, names",
    [
        (["density", "-n", "3", "--points", "41"], ["density", "-n", "3", "--points", "11"],
         ["density.csv"]),
        (["density", "--points", "41", "--format", "json"],
         ["density", "--points", "11", "--format", "json"], ["density.json"]),
        (_SIM + ["400"], _SIM + ["100"], ["samples.csv", "simulate_config.json"]),
        (["table1", "--a-count", "29"], ["table1", "--a-count", "7"],
         ["table.csv", "table.json", "curve_gaussian.dat", "curve_fap2d.dat", "curve_fap3d.dat"]),
        (["capacity", "--channel", "fap3d", "--A", "3.75"], ["capacity", "--channel", "fap2d", "--A", "2"],
         ["capacity.json"]),
        (["maxent", "--grid-points", "33"], ["maxent", "--grid-points", "5"], ["maxent.json"]),
    ],
    ids=["density_csv", "density_json", "simulate", "table1", "capacity", "maxent"],
)
def test_rerun_into_a_used_out_matches_a_fresh_one(tmp_path, first, second, names):
    # The second run's files are shorter than the first's: no stale tail may
    # survive, and each file is rewritten in place, on the same inode.
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    assert run(first + ["--out", str(used)]) == EXIT_OK
    inodes = {n: (used / n).stat().st_ino for n in names + ["manifest.json"]}
    sizes = {n: (used / n).stat().st_size for n in names}
    assert run(second + ["--out", str(used)]) == EXIT_OK
    assert run(second + ["--out", str(fresh)]) == EXIT_OK
    for n in names:
        assert filecmp.cmp(used / n, fresh / n, shallow=False), n
    assert any((used / n).stat().st_size < sizes[n] for n in names)
    assert {n: (used / n).stat().st_ino for n in inodes} == inodes
    assert json.loads((used / "manifest.json").read_text())["argv"] == second + ["--out", str(used)]


@pytest.mark.parametrize("target", ["file", "devnull"])
def test_an_output_that_is_a_symlink_is_written_through(tmp_path, target):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    out.mkdir()
    elsewhere = tmp_path / "elsewhere.csv"
    elsewhere.write_text("stale\n" * 10_000)
    dest = elsewhere if target == "file" else Path(os.devnull)
    (out / "density.csv").symlink_to(dest)
    argv = ["density", "--points", "11"]
    assert run(argv + ["--out", str(out)]) == EXIT_OK
    assert run(argv + ["--out", str(fresh)]) == EXIT_OK
    assert (out / "density.csv").is_symlink()
    assert os.readlink(out / "density.csv") == str(dest)
    if target == "file":
        assert filecmp.cmp(elsewhere, fresh / "density.csv", shallow=False)


_MODE = re.compile(r"[rwxabt+]*w[rwxabt+]*")


def _writes_outside_rewrite(source: str) -> list:
    """Line numbers of write-mode open calls and write_text/write_bytes calls
    outside the body of ``_rewrite``."""
    tree = ast.parse(source)
    exempt = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name == "_rewrite" for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        modes = node.args[:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
        if name in ("write_text", "write_bytes") or name in ("open", "fdopen") and any(
            isinstance(m, ast.Constant) and isinstance(m.value, str) and _MODE.fullmatch(m.value)
            for m in modes
        ):
            found.append(node.lineno)
    return found


def test_every_output_file_is_written_through_rewrite():
    # open(path, "w") truncates on open, and on ext4 each rerun into the same
    # file then waits for the previous one's writeback; cli._rewrite does not.
    assert _writes_outside_rewrite(
        'open(p, "w")\nopen(p, mode="wb")\nPath(p).open("w+")\np.write_text(t)\n'
        'os.fdopen(fd, "w")\nopen(p)\nopen(p, "rb")\nopen(p, "a")\n'
        'def _rewrite(p):\n    open(p, "w")\n'
    ) == [1, 2, 3, 4, 5]
    src = Path(faplab.__file__).parent
    found = {f.name: _writes_outside_rewrite(f.read_text()) for f in sorted(src.glob("*.py"))}
    assert not any(found.values()), found
    # ... and the one _rewrite is the command line's, the only caller of os.open.
    nodes = {f.name: list(ast.walk(ast.parse(f.read_text()))) for f in sorted(src.glob("*.py"))}
    defines = {name for name, ns in nodes.items()
               if any(isinstance(n, ast.FunctionDef) and n.name == "_rewrite" for n in ns)}
    opens = {name for name, ns in nodes.items() if any(
        isinstance(n, ast.Attribute) and n.attr == "open" and getattr(n.value, "id", None) == "os"
        for n in ns)}
    assert defines == opens == {"cli.py"}, (defines, opens)


def test_simulate_threads_env_does_not_change_results(tmp_path, monkeypatch):
    outs = []
    for workers, sub in (("1", "w1"), ("8", "w8")):
        monkeypatch.setenv("FAPLAB_THREADS", workers)
        out = tmp_path / sub
        rc = run(["simulate", "--dt", "1e-3", "--particles", "600", "--max-steps", "20000",
                  "--seed", "3", "--out", str(out)])
        assert rc == EXIT_OK
        outs.append((out / "samples.csv").read_bytes())
    assert outs[0] == outs[1]


def test_table1_identities_and_curves(tmp_path):
    out = tmp_path / "t"
    rc = run(["table1", "--a-min", "1", "--a-max", "8", "--a-count", "15",
              "--out", str(out)])
    assert rc == EXIT_OK
    with open(out / "table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    for r in rows:
        c2, c3, cg = float(r["C_2d"]), float(r["C_3d"]), float(r["C_gauss"])
        assert c3 == 2.0 * c2
        assert cg == c2  # sigma defaults to lam = 1
    for name in ("curve_gaussian.dat", "curve_fap2d.dat", "curve_fap3d.dat"):
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 16


def test_table1_below_floor_is_infeasible(tmp_path):
    rc = run(["table1", "--a-min", "0.5", "--a-max", "2", "--a-count", "3",
              "--out", str(tmp_path / "x")])
    assert rc == EXIT_INFEASIBLE


def test_maxent_stdout(capsys):
    rc = run(["maxent", "--p", "1", "--k", "1.0", "--grid-points", "5"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu"] == pytest.approx(1.0, abs=1e-6)
    assert len(payload["grid"]) == 5


@pytest.mark.parametrize(
    "p, c",
    [pytest.param(1, "50", id="1"), pytest.param(2, "50", id="2")]
    + [pytest.param(p, c, id=f"{p}-c{c}") for c in ("1e3", "1e6") for p in (1, 2)],
)
def test_maxent_large_target(capsys, p, c):
    rc = run(["maxent", "--p", str(p), "--c", c, "--grid-points", "5"])
    assert rc == EXIT_OK
    mu = json.loads(capsys.readouterr().out)["mu"]
    assert w2(mu, 0.5 * p) == pytest.approx(float(c), rel=1e-9)


@pytest.mark.parametrize(
    "c, reason, p",
    [("1e300", "too large", "1"), ("1e300", "too large", "2"),
     ("1e-300", "too small", "1"), ("1e-310", "too small", "2")],
)
def test_maxent_target_past_the_float_range_exits_1(capsys, p, c, reason):
    rc = run(["maxent", "--p", p, "--c", c])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert f"error: constraint value {float(c)} is {reason}" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize(
    "argv, what",
    [
        pytest.param(["density", "-n", "3", "--lambda", "1e-200"], "density", id="3d-csv"),
        pytest.param(["density", "-n", "3", "--lambda", "1e-200", "--format", "json"],
                     "density", id="3d-json"),
        pytest.param(["density", "--lambda", "1e-310"], "density", id="2d"),
        pytest.param(["density", "-n", "3", "--lambda", "1e-160", "--vz", "-1"], "density",
                     id="3d-drift"),
        pytest.param(["maxent", "--p", "1", "--k", "1e-320"], "profile", id="maxent"),
    ],
)
def test_values_past_the_float_range_exit_1(capsys, tmp_path, argv, what):
    # The density at the origin or the profile at its center overflows.
    out = tmp_path / "out"
    rc = run(argv + ["--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 1 and stdout == ""
    assert f"error: the {what} grid is past the float range" in err
    assert not out.exists()


def test_maxent_exponent_in_the_plane_is_exact_at_a_tiny_target(capsys):
    assert run(["maxent", "--p", "2", "--c", "1e-300", "--grid-points", "5"]) == EXIT_OK
    mu = json.loads(capsys.readouterr().out)["mu"]
    assert w2(mu, 1.0) == pytest.approx(1e-300, rel=4e-16)


def test_verify_subset(capsys):
    rc = run(["verify", "--quick", "--only", "special/"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert out.count("[PASS]") == 1
    rc = run(["verify", "--only", "no-such-check"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "no checks match --only 'no-such-check'\n"


def test_cli_holds_no_copy_of_the_check_names():
    from faplab.verify import check_names

    source = Path(faplab.cli.__file__).read_text()
    assert [name for name in check_names() if name in source] == []


def test_verify_stdout_is_only_check_lines(capsys):
    # The manifest round-trip runs the CLI in-process; its "wrote <temporary
    # directory>" lines must not reach the report.
    rc = run(["verify", "--quick", "--only", "cli/"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] cli/manifest_roundtrip: byte-identical rerun",
        "1/1 checks passed",
    ]


def test_verify_failure_exit_code(monkeypatch, capsys):
    import faplab.verify as verify_mod

    forced = verify_mod._CHECKS + [("selftest/always_fails", lambda quick: (False, "forced"))]
    monkeypatch.setattr(verify_mod, "_CHECKS", forced)
    rc = run(["verify", "--only", "selftest/always_fails"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] selftest/always_fails" in out
