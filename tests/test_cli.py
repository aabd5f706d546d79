"""End-to-end command line tests, run in process through cli.main."""
import ast
import inspect
import json
import os
import typing
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from spherecsf import (FlowConfig, GreatCircle, SphereArc, acceptance, circle_curve,
                       evolve_arc, evolve_closed, save_curve)
from spherecsf import cli
from spherecsf.cli import _CURVE_KEYS, _COMMANDS, _build_curve, _get, main
from spherecsf.errors import ConfigInvalid
from spherecsf.graphflow import crosscheck
from spherecsf.jordan import CURVE_KINDS
from spherecsf.levelset import area_ode_check, classify_long_term, sandwich_flow

EQUATOR = {"kind": "Circle", "radius": 1.5707963267948966, "n": 192}
BAND_ANNULUS = {"alpha": {"kind": "Circle", "radius": 0.8, "n": 192},
                "beta": {"kind": "Circle", "radius": 1.2, "n": 192}}
SMALL_ANNULUS = {"alpha": {"kind": "Circle", "radius": 0.3, "n": 64},
                 "beta": {"kind": "Circle", "radius": 0.8, "n": 64}}
SIM_CFG = {"name": "run", "curve": {"kind": "Circle", "radius": 1.2, "n": 128},
           "flow": {"dt": 2e-4, "snapshot_dt": 0.02, "max_time": 0.1}}


def run_cli(tmp_path, command, cfg, out="out", extra=()):
    path = tmp_path / f"{out}.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / out),
               "--quiet", *extra])
    return rc, tmp_path / out / cfg.get("name", command)


def read_json(run_dir, rel):
    return json.loads((run_dir / rel).read_text())


def flow_json(runs):
    """What report.json's "flow" list holds for these FlowStats."""
    return [s.to_json() for s in runs]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_layout_and_schema(tmp_path):
    rc, d = run_cli(tmp_path, "simulate", SIM_CFG)
    assert rc == 0
    for rel in ("manifest.json", "trajectory.jsonl", "report.json",
                "tables/trajectory.csv", "tables/final_curve.csv"):
        assert (d / rel).is_file(), rel
    rows = [json.loads(line) for line in
            (d / "trajectory.jsonl").read_text().splitlines()]
    assert sorted(rows[0]) == ["area", "bending", "length", "t", "total_curvature"]
    assert rows[0]["t"] == 0.0
    assert rows[-1]["t"] == pytest.approx(0.1)
    report = read_json(d, "report.json")
    assert report["terminal_status"] == "reached_max_time"
    assert report["final_length"] < rows[0]["length"]


def test_simulate_manifest_echoes_config(tmp_path):
    rc, d = run_cli(tmp_path, "simulate", SIM_CFG)
    manifest = read_json(d, "manifest.json")
    assert manifest["command"] == "simulate"
    assert manifest["config"] == SIM_CFG
    assert set(manifest["versions"]) == {"python", "numpy", "spherecsf"}
    assert manifest["wall_time_s"] >= 0.0
    assert "check_wall_s" not in manifest  # verify's alone


def test_simulate_outputs_are_byte_deterministic(tmp_path):
    _, d1 = run_cli(tmp_path, "simulate", SIM_CFG, out="a")
    _, d2 = run_cli(tmp_path, "simulate", SIM_CFG, out="b")
    for rel in ("trajectory.jsonl", "tables/trajectory.csv",
                "tables/final_curve.csv"):
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel


@pytest.mark.parametrize("cfg,files", [
    ({"mode": "area", "annulus": BAND_ANNULUS, "t": 0.15},
     ("report.json", "tables/areas.csv")),
    ({"mode": "classify", "t": 0.2, "annulus": {
        "alpha": {"kind": "Circle", "radius": 0.3, "n": 128},
        "beta": {"kind": "Circle", "radius": 0.5, "n": 128}}},
     ("report.json",)),
], ids=["area", "classify"])
def test_levelset_outputs_are_byte_deterministic(tmp_path, cfg, files):
    _, d1 = run_cli(tmp_path, "levelset", cfg, out="a")
    _, d2 = run_cli(tmp_path, "levelset", cfg, out="b")
    for rel in files:
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel


def test_simulate_nodes_flag_records_positions(tmp_path):
    rc, d = run_cli(tmp_path, "simulate", SIM_CFG, extra=("--nodes",))
    assert rc == 0
    first = json.loads((d / "trajectory.jsonl").read_text().splitlines()[0])
    assert np.asarray(first["nodes"]).shape == (128, 3)


def test_simulate_evolves_an_arc(tmp_path):
    cfg = {"name": "arc",
           "curve": {"kind": "DirichletGamma", **CURVE_SPECS["DirichletGamma"]},
           "flow": {"snapshot_dt": 0.005, "max_time": 0.01}}
    rc, d1 = run_cli(tmp_path, "simulate", cfg, out="a")
    assert rc == 0
    report = read_json(d1, "report.json")
    assert report["terminal_status"] == "reached_max_time"
    assert report["final_time"] == pytest.approx(0.01)
    # the report counts the arc solver's run
    arc = _build_curve(cfg["curve"], "curve")
    assert isinstance(arc, SphereArc)
    assert report["flow"] == evolve_arc(arc, cli._flow_config(cfg)).stats.to_json()
    assert report["flow"]["accepted_steps"] > 0
    _, d2 = run_cli(tmp_path, "simulate", cfg, out="b")
    for rel in ("trajectory.jsonl", "tables/trajectory.csv",
                "tables/final_curve.csv", "report.json"):
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel


def test_simulate_arc_requires_horizon(tmp_path, capsys):
    s = np.linspace(0.2, 1.2, 65)
    arc = SphereArc(np.c_[np.sin(s), np.zeros_like(s), np.cos(s)])
    save_curve(tmp_path / "arc.csv", arc)
    cfg = {"curve": {"file": str(tmp_path / "arc.csv")}}
    rc, _ = run_cli(tmp_path, "simulate", cfg)
    assert rc == 2
    assert "flow.max_time" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config validation exits with code 2 and names the offending field


@pytest.mark.parametrize("cfg,field", [
    ({"curve": {"kind": "Circle", "radius": 1.0}, "flow": {"dt": -1}}, "flow.dt"),
    ({"curve": {"kind": "Circle", "radius": 1.0}, "flow": {"wibble": 1}}, "flow.wibble"),
    ({"flow": {"max_time": 0.1}}, "curve"),
    ({"curve": {"kind": "Nonsense"}}, "curve.kind"),
    ({"curve": {"kind": "Circle", "radius": 1.0}, "name": "a/b"}, "name"),
    ({"curve": {"kind": "Circle", "radius": 1.0, "wibble": 1}}, "wibble"),
    ({"curve": {"kind": "Circle", "radius": 1.0}, "flow": {"max_time": float("nan")}},
     "flow.max_time"),
    ({"curve": {"kind": "Circle", "radius": 1.0}, "flow": {"max_time": "x"}},
     "flow.max_time"),
    ({"curve": {"kind": "Circle", "radius": 1.0}, "flow": {"target_nodes": float("nan")}},
     "flow.target_nodes"),
    ({"curve": {"kind": "Circle", "radius": 1.0}, "flow": {"remesh_every": float("nan")}},
     "flow.remesh_every"),
    # flow constants are not settings
    ({"curve": {"kind": "Circle", "radius": 1.0}, "flow": {"remesh_uniformity": 1.1}},
     "flow.remesh_uniformity"),
    ({"curve": {"kind": "Circle", "radius": 1.0}, "flow": {"max_dt_halvings": 8}},
     "flow.max_dt_halvings"),
    ({"curve": {"kind": "Circle", "radius": 1.0}, "flow": {"snapshot_dt": 2e-13}},
     "flow.snapshot_dt"),
    # curve-spec keys follow the typing rule of every other field
    ({"curve": {"kind": "Circle", "radius": 1.0, "n": 64.5}}, "curve.n"),
    ({"curve": {"kind": "KochLike", "depth": 2, "base_nodes": 6.5}}, "curve.base_nodes"),
    ({"curve": {"kind": "Circle", "radius": "1.0"}}, "curve.radius"),
    ({"curve": {"kind": "Circle", "radius": True}}, "curve.radius"),
    ({"curve": {"kind": "Circle"}}, "curve.radius"),
    ({"curve": {"file": "curve.csv", "n": 64}}, "curve.n"),
    ({"curve": {"file": "no-such-curve.csv"}}, "curve"),
    ({"curve": {"kind": "Circle", "radius": 1.0}, "flw": {"max_time": 0.1}}, "flw"),
    # the extinction length is a flow constant too (flow.EXTINCTION_LENGTH)
    ({"curve": {"kind": "Circle", "radius": 1.0}, "flow": {"extinction_length": 1e-2}},
     "flow.extinction_length"),
])
def test_simulate_rejects_bad_config(tmp_path, capsys, cfg, field):
    rc, d = run_cli(tmp_path, "simulate", cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err
    assert not d.exists()


@pytest.mark.parametrize("command,cfg,field", [
    ("multiplicity", {"curve": EQUATOR, "r": "x"}, "r"),
    ("graphflow", {"t": "soon"}, "t"),
    ("levelset", {"curve": EQUATOR, "t": 0.05, "levels": None}, "levels"),
    ("graphflow", {"t": 0.05, "values": [1, 2, "a"]}, "values"),
    ("graphflow", {"t": 0.05, "harmonics": [{"mode": 2, "sin_height": "x"}]},
     "harmonics[0].sin_height"),
    ("graphflow", {"t": 0.05, "crosscheck": "false"}, "crosscheck"),
    ("graphflow", {"t": 0.05, "crosscheck": 1}, "crosscheck"),
    ("spacing", {"curve": EQUATOR, "theta": 0.3, "x_samples": 100.9}, "x_samples"),
    ("multiplicity", {"curve": EQUATOR, "r": 0.1, "pole_samples": True}, "pole_samples"),
    ("graphflow", {"t": 0.05, "n": "128"}, "n"),
    ("graphflow", {"t": 0.05, "harmonics": [{"mode": 2.0, "sin_height": 0.1}]},
     "harmonics[0].mode"),
    # a real field takes any JSON number, but not a bool or a numeric string
    ("graphflow", {"t": True, "n": 64}, "t"),
    ("graphflow", {"t": "0.05", "n": 64}, "t"),
    ("multiplicity", {"curve": EQUATOR, "r": True, "pole_samples": 100}, "r"),
    ("straighten", {"curve": {"kind": "LeafableWiggle", "n": 128},
                    "barrier_halfwidth": 0.08, "alignment": "0.1",
                    "flow": {"max_time": 0.01}}, "alignment"),
    # spacing points are rows of three coordinates, as pole is one
    ("spacing", {"curve": EQUATOR, "theta": 0.3, "C": 0.1,
                 "points": [[1, 0], [0, 1]]}, "points"),
    # graph values are one row of numbers
    ("graphflow", {"t": 0.05, "values": [[1, 2], [3, 4]]}, "values"),
    ("graphflow", {"t": 0.05, "values": 5}, "values"),
    # curve-spec keys are typed, also inside an annulus
    ("multiplicity", {"curve": EQUATOR | {"n": 64.5}, "r": 0.1}, "curve.n"),
    ("multiplicity", {"curve": {"kind": "KochLike", "depth": 2, "base_nodes": 6.5},
                      "r": 0.1}, "curve.base_nodes"),
    ("levelset", {"mode": "area", "t": 0.05, "annulus": {
        "alpha": {"kind": "Circle", "radius": "0.8"}, "beta": EQUATOR}},
     "annulus.alpha.radius"),
    # an unknown key is refused at any depth
    ("graphflow", {"t": 0.05, "harmonics": [{"mode": 2, "sin_hight": 0.3}]},
     "harmonics[0].sin_hight"),
    ("graphflow", {"t": 0.05, "harmonic": [{"mode": 2, "sin_height": 0.3}]},
     "harmonic"),
    ("levelset", {"mode": "area", "t": 0.05, "annulus": BAND_ANNULUS | {"gamma": EQUATOR}},
     "annulus.gamma"),
    ("spacing", {"curve": {"file": "curve.csv", "kind": "Circle"}, "theta": 0.3},
     "curve.kind"),
    ("verify", {"check": ["initial-continuity"]}, "check"),
    # node recording is simulate's --nodes, and every levelset mode's horizon is t
    ("simulate", {**SIM_CFG, "record_nodes": True}, "record_nodes"),
    ("straighten", {"curve": {"kind": "LeafableWiggle", "n": 128},
                    "barrier_halfwidth": 0.08, "alignment": 0.1,
                    "flow": {"max_time": 0.01}, "record_nodes": False}, "record_nodes"),
    ("levelset", {"mode": "classify", "annulus": SMALL_ANNULUS, "max_time": 0.2},
     "max_time"),
], ids=["r", "t", "levels", "values", "sin_height", "bool-string", "bool-number",
        "int-fraction", "int-bool", "int-string", "int-float", "real-bool", "real-string",
        "r-bool", "alignment-string", "points-shape", "values-2d", "values-scalar",
        "curve-n-fraction", "koch-base-nodes-fraction", "annulus-radius-string",
        "harmonic-typo", "top-level-typo", "annulus-extra", "file-spec-extra",
        "verify-typo", "simulate-record-nodes", "straighten-record-nodes",
        "classify-max-time"])
def test_non_numeric_fields_are_config_errors(tmp_path, capsys, command, cfg,
                                              field):
    rc, d = run_cli(tmp_path, command, cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:")
    assert not d.exists()


@pytest.mark.parametrize("field,kind,value", [
    ("dt", float, 1), ("dt", float, 0.5), ("dt", float, True), ("dt", float, "0.5"),
    ("dt", float, [0.5]), ("remesh_every", int, 3), ("remesh_every", int, 3.0),
    ("remesh_every", int, True), ("remesh_every", int, "3"),
])
def test_fields_follow_flow_config_number_rule(field, kind, value):
    # a top-level real or count takes what FlowConfig takes for its own fields
    def accepts(read):
        try:
            read()
        except ConfigInvalid:
            return False
        return True

    assert (accepts(lambda: _get({field: value}, field, kind=kind))
            == accepts(lambda: FlowConfig(**{field: value})))


@pytest.mark.parametrize("cfg,code", [
    ({"mode": "sandwich", "curve": EQUATOR}, 2),
    ({"mode": "area", "t": 0.5, "annulus": {
        "alpha": {"kind": "Circle", "radius": 0.3, "n": 64},
        "beta": {"kind": "Circle", "radius": 0.5, "n": 64}}}, 1),
    ({"mode": "area", "t": 0.05, "annulus": {
        "alpha": {"kind": "Circle", "radius": 0.7, "n": 64},
        "beta": {"kind": "Circle", "radius": 0.7, "n": 64}}}, 1),
], ids=["missing-t", "extinct-before-t", "coincident-boundaries"])
def test_failed_levelset_run_leaves_no_directory(tmp_path, cfg, code):
    rc, d = run_cli(tmp_path, "levelset", cfg)
    assert rc == code
    assert not d.exists()


def test_unknown_kind_lists_the_registry(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "simulate", {"curve": {"kind": "Nonsense"}})
    assert rc == 2
    err = capsys.readouterr().err
    assert all(kind in err for kind in CURVE_KINDS)


def test_simulate_rejects_non_finite_curve_file(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    save_curve(path, circle_curve(0.8, n=32))
    lines = path.read_text().splitlines()
    lines[2] = "nan,0,1"  # the first node, after the two header lines
    path.write_text("\n".join(lines) + "\n")
    rc, _ = run_cli(tmp_path, "simulate", {"curve": {"file": str(path)},
                                           "flow": {"max_time": 0.01}})
    assert rc == 2
    assert "finite" in capsys.readouterr().err


# Every registry kind, with its keys spelled as the generator's keyword arguments.
CURVE_SPECS = {
    "Circle": {"radius": 0.9, "n": 64, "phase": 0.2, "pole": [0, 0.6, 0.8]},
    "PerturbedLatitude": {"radius": 1.1, "amplitude": 0.1, "mode": 3, "n": 96},
    "LeafableWiggle": {"band": 0.04, "n": 128, "mode": 6, "pole": [1, 0, 0], "seed": 2},
    "KochLike": {"depth": 2, "base_radius": 0.7, "base_nodes": 5},
    "DirichletGamma": {"band_halfwidth": 0.08, "pole": [0, 1, 0], "spacing": 0.02,
                       "n": 80},
}


@pytest.mark.parametrize("kind", sorted(CURVE_KINDS))
def test_cli_curve_spec_is_generator_call(kind):
    params = CURVE_SPECS[kind]
    built = _build_curve({"kind": kind, **params}, "curve")
    assert np.array_equal(built.nodes, CURVE_KINDS[kind](**params).nodes)


def test_curve_key_kinds_cover_every_maker_keyword():
    # each keyword reads as its annotated type, and a numeric default as its own
    for kind, make in CURVE_KINDS.items():
        hints = typing.get_type_hints(make)
        for key, param in inspect.signature(make).parameters.items():
            read = _CURVE_KEYS.get(key, float)
            if key == "pole":
                assert read([0, 0, 1]).shape == (3,)
                continue
            hint = hints[key]
            assert read is (int if int in (hint, *typing.get_args(hint)) else float), \
                (kind, key)
            if type(param.default) in (int, float):
                assert read is type(param.default), (kind, key)


def _fields_read_by_commands():
    """{command function: the field names that _get reads from its top-level
    `cfg`, directly or in the cli functions it calls}, by an AST scan."""
    tree = ast.parse(Path(cli.__file__).read_text())
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def reads(name, seen):
        seen.add(name)
        found = set()
        for node in ast.walk(funcs[name]):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            callee, args = node.func.id, node.args
            if (callee == "_get" and isinstance(args[0], ast.Name)
                    and args[0].id == "cfg"):
                found.add(args[1].value)
            elif callee in funcs and callee not in seen:
                found |= reads(callee, seen)
        return found

    return {name: reads(name, set()) for name in funcs if name.startswith("cmd_")}


def test_commands_declare_the_fields_they_read():
    read = _fields_read_by_commands()
    assert set(read) == {func.__name__ for func, *_ in _COMMANDS.values()}
    for func, _, _, fields in _COMMANDS.values():
        assert read[func.__name__] == set(fields), func.__name__


def test_commands_read_only_how_a_run_reports_from_args():
    # every experiment input is a config field; of the flags a command reads
    # only simulate's --nodes (--quiet is read by _say)
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {node.attr for f in tree.body
            if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")
            for node in ast.walk(f)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    assert read == {"nodes"}


@pytest.mark.parametrize("flag", ["--seed", "--format"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_removed_flags_are_usage_errors(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "none.json"), "--out", str(tmp_path),
              "--quiet", flag, "0"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("spec", [{"seed": -1}], ids=["curve-seed"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, spec):
    # numpy's generators take seeds >= 0
    curve = {"kind": "LeafableWiggle", "n": 64, **spec}
    rc, d = run_cli(tmp_path, "simulate", {"curve": curve, "flow": {"max_time": 0.01}})
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: curve: seed must be")
    assert not d.exists()


def run_python(args, timeout):
    """Run python with `args` in a child process on this checkout's source."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_runtime_imports_numpy_only(tmp_path):
    cfg = tmp_path / "checks.json"
    cfg.write_text(json.dumps({"checks": ["initial-continuity"]}))
    script = ("import sys\n"
              "from spherecsf.cli import main\n"
              f"rc = main(['verify', '--config', {str(cfg)!r}, '--out', "
              f"{str(tmp_path / 'out')!r}, '--quiet'])\n"
              "print('scipy' in sys.modules)\n"
              "sys.exit(rc)\n")
    proc = run_python(["-c", script], timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_package_import_leaves_out_the_acceptance_suite():
    proc = run_python(["-c", "import sys, spherecsf\n"
                             "print('spherecsf.acceptance' in sys.modules)"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("dt", [0, -1, float("nan"), 1e-300])
def test_graphflow_rejects_bad_dt_in_time(tmp_path, dt):
    # a dt of 0 or -1 once stepped forever, and 1e-300 would need far more
    # steps than the step budget allows, so the run gets a child process and
    # a timeout
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"t": 0.01, "n": 64, "dt": dt}))
    proc = run_python(["-m", "spherecsf.cli", "graphflow", "--config", str(path),
                       "--out", str(tmp_path / "out"), "--quiet"], timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: dt must be positive and finite")
    assert not (tmp_path / "out").exists()


def test_missing_config_flag(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "requires --config" in capsys.readouterr().err


def test_unreadable_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "file not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["simulate", "--config", str(bad),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


# (command, config) runs whose values fail a library domain check; json
# writes NaN and Infinity, and the config loader reads them back
RUNTIME_ERRORS = [
    ("multiplicity", {"curve": {"kind": "Circle", "radius": 1.0, "n": 64},
                      "pole": [0, 0, 1], "r": -0.1}),
    ("multiplicity", {"curve": EQUATOR | {"n": 64}, "pole": [0, 0, float("nan")],
                      "r": 0.1}),
    ("multiplicity", {"curve": EQUATOR | {"n": 64}, "pole": [0, 0, 2], "r": 0.1}),
    ("graphflow", {"t": float("nan"), "n": 64}),
    ("graphflow", {"t": float("inf"), "n": 64}),
    ("graphflow", {"t": -1, "n": 64}),
    ("spacing", {"curve": EQUATOR | {"n": 64}, "theta": 0.3, "C": 0.1,
                 "points": [[0, 0, 2], [0, 0.8, 0.6]]}),
]

NAN = float("nan")


@pytest.mark.parametrize("cfg,message", [
    ({"mode": "sandwich", "curve": EQUATOR | {"n": 64}, "t": NAN}, "t_end must be"),
    ({"mode": "area", "annulus": SMALL_ANNULUS, "t": NAN}, "t_end must be"),
    ({"mode": "classify", "annulus": SMALL_ANNULUS, "t": NAN}, "max_time must be"),
    ({"mode": "sandwich", "curve": EQUATOR | {"n": 64}, "t": 0.01, "eps0": NAN},
     "offset must be"),
], ids=["sandwich-t", "area-t", "classify-max-time", "sandwich-eps0"])
def test_levelset_nan_inputs_exit_one(tmp_path, capsys, cfg, message):
    rc, d = run_cli(tmp_path, "levelset", cfg)
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not d.exists()


def test_runtime_errors_exit_one(tmp_path, capsys):
    for command, cfg in RUNTIME_ERRORS:
        rc, d = run_cli(tmp_path, command, cfg)
        assert rc == 1, (command, cfg)
        assert capsys.readouterr().err.startswith("error:")
        assert not d.exists()


# ---------------------------------------------------------------------------
# multiplicity and spacing


def test_multiplicity_report(tmp_path):
    cfg = {"curve": EQUATOR | {"n": 128}, "pole": [0, 0, 1], "r": 0.1}
    rc, d = run_cli(tmp_path, "multiplicity", cfg)
    assert rc == 0
    report = read_json(d, "report.json")
    assert sorted(report) == ["components", "count", "pole", "r"]
    assert report["count"] == 1
    assert report["components"] == [[0, 127]]
    assert report["pole"] == [0.0, 0.0, 1.0]
    assert (d / "tables" / "components.csv").read_text().splitlines()[0] == "start,end"


def test_spacing_construct_then_verify(tmp_path):
    base = {"curve": {"kind": "Circle", "radius": 1.0, "n": 256}, "theta": 0.4}
    rc, d = run_cli(tmp_path, "spacing", base, out="mk")
    assert rc == 0
    report = read_json(d, "report.json")
    assert report["mode"] == "construct"
    assert sorted(report) == ["C", "mode", "points", "theta"]
    assert len(report["points"]) == 48
    assert report["C"] > 0.0

    good = base | {"points": report["points"], "C": report["C"]}
    rc, d = run_cli(tmp_path, "spacing", good, out="ok")
    assert rc == 0
    assert read_json(d, "report.json")["ok"] is True

    on_curve = [np.sin(1.0), 0.0, np.cos(1.0)]
    bad = base | {"points": report["points"] + [on_curve], "C": report["C"]}
    rc, d = run_cli(tmp_path, "spacing", bad, out="bad")
    assert rc == 1
    report = read_json(d, "report.json")
    assert report["mode"] == "verify" and report["ok"] is False
    assert "clearance" in report["reason"]


# ---------------------------------------------------------------------------
# straighten


def test_straighten_run(tmp_path):
    cfg = {"curve": {"kind": "LeafableWiggle", "band": 0.05, "n": 256},
           "barrier_halfwidth": 0.08, "alignment": 0.1,
           "flow": {"dt": 1e-4, "snapshot_dt": 0.01, "max_time": 0.06}}
    rc, d = run_cli(tmp_path, "straighten", cfg)
    assert rc == 0
    report = read_json(d, "report.json")
    assert report["containment_ok"] is True
    assert report["first_aligned_time"] is not None
    assert report["final_deviation"] < report["initial_deviation"]
    head = (d / "tables" / "deviations.csv").read_text().splitlines()[0]
    assert head == "t,deviation,max_height,barrier_height"


def test_straighten_runs_past_band_saturation(tmp_path):
    # sin(0.5) e^0.8 > 1: the band covers the sphere before max_time, so the
    # barrier height saturates at pi/2 and the run still writes its report
    cfg = {"curve": {"kind": "LeafableWiggle", "n": 128},
           "barrier_halfwidth": 0.5, "alignment": 0.1,
           "flow": {"dt": 1e-3, "snapshot_dt": 0.1, "max_time": 0.8}}
    rc, d = run_cli(tmp_path, "straighten", cfg)
    assert rc == 0
    assert read_json(d, "report.json")["containment_ok"] is True
    rows = (d / "tables" / "deviations.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[0]) == pytest.approx(0.8)
    assert float(rows[-1].split(",")[3]) == np.pi / 2


def test_straighten_requires_horizon(tmp_path, capsys):
    cfg = {"curve": {"kind": "LeafableWiggle", "n": 128},
           "barrier_halfwidth": 0.08, "alignment": 0.1}
    rc, _ = run_cli(tmp_path, "straighten", cfg)
    assert rc == 2
    assert "flow.max_time" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# levelset


def test_levelset_sandwich_mode(tmp_path):
    cfg = {"mode": "sandwich", "curve": EQUATOR, "t": 0.08,
           "levels": 3, "eps0": 0.08}
    rc, d = run_cli(tmp_path, "levelset", cfg)
    assert rc == 0
    report = read_json(d, "report.json")
    assert report["verdict"] == "MeasureZeroCurve"
    assert report["t_end"] == 0.08 and report["eps0"] == 0.08
    assert [lv["eps"] for lv in report["levels"]] == [0.08, 0.04, 0.02]
    head = (d / "tables" / "levels.csv").read_text().splitlines()[0]
    assert head == "eps,gap_initial,gap_final,area_final,skipped"
    # the counters of both boundaries of each level, in run order
    result = sandwich_flow(cli._levelset_state(cfg), n_levels=3, t_end=0.08, eps0=0.08)
    assert "runs" not in report and len(report["flow"]) == 6
    assert report["flow"] == flow_json(result.runs)


def test_levelset_area_mode(tmp_path):
    cfg = {"mode": "area", "annulus": BAND_ANNULUS, "t": 0.15}
    rc, d = run_cli(tmp_path, "levelset", cfg)
    assert rc == 0
    report = read_json(d, "report.json")
    assert report["residual"] < 1e-3
    exact = 2.0 * np.pi * (np.cos(0.8) - np.cos(1.2))
    assert report["initial_area"] == pytest.approx(exact, abs=1e-4)
    head = (d / "tables" / "areas.csv").read_text().splitlines()[0]
    assert head == "t,area,model"
    runs = area_ode_check(cli._levelset_state(cfg), 0.15).runs
    assert len(runs) == 2 and report["flow"] == flow_json(runs)


def test_levelset_area_mode_across_inner_death(tmp_path):
    # the inner cap dies at ln sec 0.3 = 0.0457; the region, now the cap beyond
    # latitude 0.8, lives on and the area law switches branch
    cfg = {"mode": "area", "annulus": SMALL_ANNULUS, "t": 0.08}
    rc, d = run_cli(tmp_path, "levelset", cfg)
    assert rc == 0
    assert read_json(d, "report.json")["residual"] <= 2e-2


def test_levelset_area_mode_reaches_the_horizon_after_both_deaths(tmp_path):
    # c13's polar caps both die at ln sec 0.6 = 0.192; the region is then the
    # whole sphere, and the last row is at t
    ann = {"alpha": {"kind": "Circle", "radius": 0.6, "n": 64},
           "beta": {"kind": "Circle", "radius": np.pi - 0.6, "n": 64}}
    rc, d = run_cli(tmp_path, "levelset", {"mode": "area", "annulus": ann, "t": 0.25})
    assert rc == 0
    last = (d / "tables" / "areas.csv").read_text().splitlines()[-1].split(",")
    assert float(last[0]) == 0.25 and float(last[1]) == 4.0 * np.pi


def test_levelset_area_mode_names_touching_boundaries(tmp_path, capsys):
    # the latitudes do not cross, but a node of one lies within 1e-9 of the other
    ann = {"alpha": {"kind": "Circle", "radius": 0.7, "n": 64},
           "beta": {"kind": "Circle", "radius": 0.70000001, "n": 64}}
    rc, d = run_cli(tmp_path, "levelset", {"mode": "area", "annulus": ann, "t": 0.05})
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: annulus boundaries touch")
    assert not d.exists()


def test_levelset_classify_mode(tmp_path):
    ann = {"alpha": {"kind": "Circle", "radius": 0.3, "n": 128},
           "beta": {"kind": "Circle", "radius": 0.5, "n": 128}}
    cfg = {"mode": "classify", "annulus": ann, "t": 0.2}
    rc, d = run_cli(tmp_path, "levelset", cfg)
    assert rc == 0
    report = read_json(d, "report.json")
    assert report["verdict"] == "ExtinctFiniteTime"
    assert report["expected_verdict"] == "ExtinctFiniteTime"
    assert report["consistent"] is True
    # both caps die by the circle law; the slower one sets the clock
    assert report["extinction_time"] == pytest.approx(-np.log(np.cos(0.5)), abs=1e-3)
    runs = classify_long_term(cli._levelset_state(cfg), max_time=0.2).runs
    assert "runs" not in report and len(runs) == 2
    assert report["flow"] == flow_json(runs)


def test_levelset_rejects_unknown_mode(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "levelset", {"mode": "wat", "curve": EQUATOR, "t": 0.1})
    assert rc == 2
    assert "mode" in capsys.readouterr().err


def test_levelset_mode_is_a_string(tmp_path, capsys):
    rc, d = run_cli(tmp_path, "levelset", {"mode": 5, "curve": EQUATOR, "t": 0.1})
    assert rc == 2
    assert capsys.readouterr().err == "config error: mode: must be a string, got 5\n"
    assert not d.exists()


@pytest.mark.parametrize("levels", [0, -3])
def test_levelset_refuses_level_counts_it_cannot_run(tmp_path, capsys, levels):
    # a count below 1 would run no level and give no verdict
    rc, d = run_cli(tmp_path, "levelset", {"curve": EQUATOR, "t": 0.05, "levels": levels})
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: n_levels must be an integer >= 1")
    assert not d.exists()


def test_levelset_area_mode_needs_annulus(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "levelset", {"mode": "area", "curve": EQUATOR, "t": 0.1})
    assert rc == 2
    assert "annulus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# graphflow


def test_graphflow_constant_height(tmp_path):
    cfg = {"t": 0.05, "n": 128, "constant_height": 0.1}
    rc, d = run_cli(tmp_path, "graphflow", cfg)
    assert rc == 0
    report = read_json(d, "report.json")
    assert report["n"] == 128 and report["t"] == 0.05
    grown = np.arcsin(np.sin(0.1) * np.exp(0.05))
    assert report["max_height"] == pytest.approx(grown, abs=1e-5)
    head = (d / "tables" / "profile.csv").read_text().splitlines()[0]
    assert head == "x,u"


def test_graphflow_crosscheck(tmp_path):
    cfg = {"t": 0.05, "n": 128, "harmonics": [{"mode": 2, "sin_height": 0.1}],
           "crosscheck": True, "curve_nodes": 256, "dt": 2e-4}
    rc, d = run_cli(tmp_path, "graphflow", cfg)
    assert rc == 0
    report = read_json(d, "report.json")
    assert report["gap"] < 5e-4
    # the polyline run's counters, as simulate writes them
    out = crosscheck(cli._graph_initial(cfg), GreatCircle(cli._pole(cfg)), 0.05,
                     curve_nodes=256, dt=2e-4)
    assert report["flow"] == out["flow"].to_json()
    assert report["flow"]["accepted_steps"] > 0


def test_graphflow_rejects_bad_harmonics(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "graphflow", {"t": 0.05, "harmonics": [{}]})
    assert rc == 2
    assert "harmonics[0].mode" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_check_passes(tmp_path):
    rc, d = run_cli(tmp_path, "verify", {"checks": ["initial-continuity"]})
    assert rc == 0
    report = read_json(d, "report.json")
    assert report["all_passed"] is True
    assert report["checks"][0]["name"] == "initial-continuity"
    lines = (d / "tables" / "checks.csv").read_text().splitlines()
    assert lines == ["name,passed", "initial-continuity,True"]


def test_verify_failing_check_exits_one(tmp_path, monkeypatch):
    # a failing check is reported, not raised: the command exits 1 and carries
    # the check's own detail into report.json. Like every check it builds its
    # result with _result, whose step ledger counts no run here.
    def always_fails():
        return acceptance._result("always-fails", False, "deliberate failure", value=1.0)

    monkeypatch.setitem(acceptance.CHECKS, "always-fails", always_fails)
    rc, d = run_cli(tmp_path, "verify", {"checks": ["always-fails"]})
    assert rc == 1
    report = read_json(d, "report.json")
    assert report["all_passed"] is False
    assert report["checks"][0]["detail"] == "deliberate failure"
    assert report["checks"][0]["measured"] == {"value": 1.0, "accepted_steps": 0,
                                               "evaluations": 0, "remeshes": 0}
    lines = (d / "tables" / "checks.csv").read_text().splitlines()
    assert lines == ["name,passed", "always-fails,False"]


def test_verify_manifest_times_each_check_that_ran(tmp_path, monkeypatch):
    # the wall times go to manifest.json only: report.json and checks.csv of
    # two runs stay byte-identical
    monkeypatch.setitem(acceptance.CHECKS, "quick",
                        lambda: acceptance._result("quick", True, "no work"))
    cfg = {"checks": ["quick", "initial-continuity"]}
    _, d1 = run_cli(tmp_path, "verify", cfg, out="a")
    rc, d2 = run_cli(tmp_path, "verify", cfg, out="b")
    assert rc == 0
    for d in (d1, d2):
        walls = read_json(d, "manifest.json")["check_wall_s"]
        assert sorted(walls) == ["initial-continuity", "quick"]
        assert all(isinstance(s, float) and s >= 0.0 for s in walls.values())
    for rel in ("report.json", "tables/checks.csv"):
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel
        assert "wall" not in (d1 / rel).read_text()


def test_verify_prints_each_checks_step_ledger(tmp_path, capsys):
    # the counts go to stdout as well; report.json stays the record
    cfg = tmp_path / "checks.json"
    cfg.write_text(json.dumps({"checks": ["initial-continuity"]}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    measured = read_json(tmp_path / "verify", "report.json")["checks"][0]["measured"]
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("PASS initial-continuity: ")
    assert measured["accepted_steps"] > 0
    assert line.endswith(f"[accepted_steps={measured['accepted_steps']} "
                         f"evaluations={measured['evaluations']} "
                         f"remeshes={measured['remeshes']}]")


def test_verify_ends_with_totals_over_distinct_runs(tmp_path, capsys, monkeypatch):
    # two checks read one cached run, as c04 and c05 do, and one reads its own:
    # each check's ledger counts the shared run, the totals line counts it once
    cfg = FlowConfig(dt=1e-4, snapshot_dt=1e-3, max_time=2e-3)
    shared = lru_cache(maxsize=None)(lambda: evolve_closed(circle_curve(0.5, n=64), cfg))

    def reads_shared(name, own=False):
        def check():
            runs = [shared()] + ([evolve_closed(circle_curve(0.9, n=64), cfg)] if own else [])
            return acceptance._result(name, True, "", runs=[t.stats for t in runs])
        return check

    monkeypatch.setitem(acceptance.CHECKS, "first", reads_shared("first"))
    monkeypatch.setitem(acceptance.CHECKS, "second", reads_shared("second", own=True))
    path = tmp_path / "checks.json"
    path.write_text(json.dumps({"checks": ["first", "second"]}))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "verify", "report.json")
    first, second = (c["measured"] for c in report["checks"])
    assert second["accepted_steps"] == 2 * first["accepted_steps"] > 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "all 2 checks passed"
    assert lines[-1] == (f"totals over 2 distinct runs: "
                         f"accepted_steps={second['accepted_steps']} "
                         f"evaluations={second['evaluations']} "
                         f"remeshes={second['remeshes']}")


def test_verify_unknown_check_name(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "verify", {"checks": ["nope"]})
    assert rc == 2
    assert "checks" in capsys.readouterr().err


@pytest.mark.parametrize("checks", ["initial-continuity", [1], [["initial-continuity"]],
                                    {"initial-continuity": True},
                                    ["initial-continuity", "initial-continuity"]])
def test_verify_checks_is_a_list_of_names(tmp_path, capsys, checks):
    rc, d = run_cli(tmp_path, "verify", {"checks": checks})
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: checks:")
    assert not d.exists()
