"""End-to-end command line tests, run in process through cli.main."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spherecsf import SphereArc, acceptance, circle_curve, generate_curve, save_curve
from spherecsf.cli import _build_curve, main
from spherecsf.jordan import CURVE_KINDS

EQUATOR = {"kind": "Circle", "radius": 1.5707963267948966, "n": 192}
BAND_ANNULUS = {"alpha": {"kind": "Circle", "radius": 0.8, "n": 192},
                "beta": {"kind": "Circle", "radius": 1.2, "n": 192}}
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
    assert manifest["seed"] == 0
    assert set(manifest["versions"]) == {"python", "numpy", "spherecsf"}
    assert manifest["wall_time_s"] >= 0.0


def test_simulate_outputs_are_byte_deterministic(tmp_path):
    _, d1 = run_cli(tmp_path, "simulate", SIM_CFG, out="a")
    _, d2 = run_cli(tmp_path, "simulate", SIM_CFG, out="b")
    for rel in ("trajectory.jsonl", "tables/trajectory.csv",
                "tables/final_curve.csv"):
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel


def test_simulate_csv_format_drops_jsonl(tmp_path):
    rc, d = run_cli(tmp_path, "simulate", SIM_CFG, extra=("--format", "csv"))
    assert rc == 0
    assert not (d / "trajectory.jsonl").exists()
    assert (d / "tables" / "trajectory.csv").is_file()


def test_simulate_nodes_flag_records_positions(tmp_path):
    rc, d = run_cli(tmp_path, "simulate", SIM_CFG, extra=("--nodes",))
    assert rc == 0
    first = json.loads((d / "trajectory.jsonl").read_text().splitlines()[0])
    assert np.asarray(first["nodes"]).shape == (128, 3)


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
])
def test_simulate_rejects_bad_config(tmp_path, capsys, cfg, field):
    rc, _ = run_cli(tmp_path, "simulate", cfg)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err


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
    built = _build_curve({"kind": kind, **params}, "curve", seed=5)
    assert np.array_equal(built.nodes, generate_curve(kind, **params).nodes)


def test_seed_flag_is_the_default_generator_seed():
    built = _build_curve({"kind": "LeafableWiggle", "n": 64}, "curve", seed=5)
    assert np.array_equal(built.nodes,
                          generate_curve("LeafableWiggle", n=64, seed=5).nodes)


def test_runtime_imports_numpy_only(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    cfg = tmp_path / "checks.json"
    cfg.write_text(json.dumps({"checks": ["initial-continuity"]}))
    script = ("import sys\n"
              "from spherecsf.cli import main\n"
              f"rc = main(['verify', '--config', {str(cfg)!r}, '--out', "
              f"{str(tmp_path / 'out')!r}, '--quiet'])\n"
              "print('scipy' in sys.modules)\n"
              "sys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


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


def test_runtime_errors_exit_one(tmp_path, capsys):
    cfg = {"curve": {"kind": "Circle", "radius": 1.0, "n": 64},
           "pole": [0, 0, 1], "r": -0.1}
    rc, _ = run_cli(tmp_path, "multiplicity", cfg)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


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


def test_levelset_classify_mode(tmp_path):
    ann = {"alpha": {"kind": "Circle", "radius": 0.3, "n": 128},
           "beta": {"kind": "Circle", "radius": 0.5, "n": 128}}
    cfg = {"mode": "classify", "annulus": ann, "max_time": 0.2}
    rc, d = run_cli(tmp_path, "levelset", cfg)
    assert rc == 0
    report = read_json(d, "report.json")
    assert report["verdict"] == "ExtinctFiniteTime"
    assert report["expected_verdict"] == "ExtinctFiniteTime"
    assert report["consistent"] is True
    # both caps die by the circle law; the slower one sets the clock
    assert report["extinction_time"] == pytest.approx(-np.log(np.cos(0.5)), abs=1e-3)


def test_levelset_rejects_unknown_mode(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "levelset", {"mode": "wat", "curve": EQUATOR, "t": 0.1})
    assert rc == 2
    assert "mode" in capsys.readouterr().err


def test_levelset_area_mode_needs_annulus(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "levelset", {"mode": "area", "curve": EQUATOR, "t": 0.1})
    assert rc == 2
    assert "annulus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# graphflow


def test_graphflow_constant_height(tmp_path):
    cfg = {"t": 0.05, "n": 128, "constant_height": 0.1, "dt": 2e-5}
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
    # the check's own detail into report.json
    def always_fails():
        return acceptance.CheckResult(name="always-fails", passed=False,
                                      detail="deliberate failure",
                                      measured={"value": 1.0})

    monkeypatch.setitem(acceptance.CHECKS, "always-fails", always_fails)
    rc, d = run_cli(tmp_path, "verify", {"checks": ["always-fails"]})
    assert rc == 1
    report = read_json(d, "report.json")
    assert report["all_passed"] is False
    assert report["checks"][0]["detail"] == "deliberate failure"
    assert report["checks"][0]["measured"] == {"value": 1.0}
    lines = (d / "tables" / "checks.csv").read_text().splitlines()
    assert lines == ["name,passed", "always-fails,False"]


def test_verify_unknown_check_name(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "verify", {"checks": ["nope"]})
    assert rc == 2
    assert "checks" in capsys.readouterr().err
