"""Each output check rejects a corrupted result; the seed moves inputs, not work.

    python3 -m pytest perfbench -q

The workload tests run one real pass of each workload (about 20 s in all),
then corrupt one output at a time and expect exactly that check to fail.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks as ck
from run import import_program, load_refs
from spans import Tracer, pass_summaries
from workloads import WORKLOADS, Placement

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# the checks on synthetic data


def _circle_nodes(r, pole, n=64):
    e1 = np.cross(pole, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(pole, e1)
    a = 2.0 * np.pi * np.arange(n) / n
    rim = np.outer(np.cos(a), e1) + np.outer(np.sin(a), e2)
    return np.cos(r) * pole + np.sin(r) * rim


def test_circle_oracle_rejects_wrong_radius_status_and_end():
    pole = np.array([0.0, 0.6, 0.8])
    times = [0.0, 0.1, 0.2]
    nodes = [_circle_nodes(ck.circle_radius(1.0, t), pole) for t in times]
    assert ck.circle_oracle("c", 1.0, pole, times, nodes, "reached_max_time", 0.2).passed
    shrunk = [_circle_nodes(0.99 * ck.circle_radius(1.0, t), pole) for t in times]
    assert not ck.circle_oracle("c", 1.0, pole, times, shrunk, "reached_max_time", 0.2).passed
    assert not ck.circle_oracle("c", 1.0, pole, times, nodes, "extinct", 0.2).passed
    assert not ck.circle_oracle("c", 1.0, pole, times, nodes, "reached_max_time", 0.3).passed


def test_flow_identities_reject_inconsistent_series():
    t = np.linspace(0.0, 0.1, 51)
    turning = 2.0 * np.exp(t)                      # d/dt K = K
    bending = 3.0 + t                              # dL/dt = -bending
    length = 5.0 - 3.0 * t - 0.5 * t * t
    assert all(c.passed for c in ck.flow_identities("p", t, length, turning, bending))
    bad = ck.flow_identities("p", t, length * 1.01 ** (t / 0.1), turning, bending)
    assert [c.passed for c in bad] == [True, False]
    bad = ck.flow_identities("p", t, length, turning * (1.0 + t), bending)
    assert [c.passed for c in bad] == [False, True]


def test_extinction_and_entry_scaling_reject_drift():
    assert ck.extinction_time("e", math.pi / 3, math.log(2.0), "extinct").passed
    assert not ck.extinction_time("e", math.pi / 3, 1.02 * math.log(2.0), "extinct").passed
    assert not ck.extinction_time("e", math.pi / 3, math.log(2.0), "reached_max_time").passed
    assert ck.entry_scaling("s", [2.28, 2.43]).passed
    assert not ck.entry_scaling("s", [1.0, 3.5]).passed
    assert not ck.entry_scaling("s", [float("nan"), 2.0]).passed


def test_exact_and_closed_forms():
    assert ck.exact("x", (1, 2), (1, 2)).passed
    assert not ck.exact("x", 3, 4).passed
    length, area = ck.regular_polygon(1.0, 100000)
    assert length == pytest.approx(2.0 * math.pi * math.sin(1.0), rel=1e-8)
    assert area == pytest.approx(ck.cap_area(1.0), rel=1e-8)
    h = 1e-6  # u' = (1 + u^2) u for constant data
    assert (ck.constant_graph(0.3, h) - 0.3) / h == pytest.approx(1.09 * 0.3, rel=1e-5)


# ---------------------------------------------------------------------------
# the workload checks on one real pass, then on corrupted copies


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    prog = import_program()
    refs = load_refs()
    done = {}
    for name, wl in WORKLOADS.items():
        inputs = wl.setup(prog, Placement(3), tmp_path_factory.mktemp(name))
        out = wl.run(prog, inputs, Tracer())
        state = {}
        checks, _ = wl.check(inputs, out, state, refs)
        assert [c.name for c in checks if not c.passed] == []
        done[name] = (wl, inputs, out, state, refs)
    return done


def _failing(passes, name, **changes):
    wl, inputs, out, state, refs = passes[name]
    checks, _ = wl.check(inputs, {**out, **changes}, state, refs)
    return sorted(c.name for c in checks if not c.passed)


def _with_snapshots(traj, fn):
    return dataclasses.replace(traj, snapshots=[fn(s) for s in traj.snapshots])


def test_flow_fixed_checks_have_teeth(passes):
    out = passes["flow-fixed"][2]
    n128 = out["circles"][0]
    late = _with_snapshots(n128, lambda s: dataclasses.replace(s, t=s.t * 1.02))
    assert _failing(passes, "flow-fixed", circles=[late] + out["circles"][1:]) == [
        "circle-n128.radius"]
    stalled = dataclasses.replace(out["circles"][2], terminal_status="singularity")
    assert _failing(passes, "flow-fixed", circles=out["circles"][:2] + [stalled]) == [
        "circle-n2048.radius"]
    longer = _with_snapshots(out["perturbed"],
                             lambda s: dataclasses.replace(s, length=s.length + 5.0 * s.t))
    assert _failing(passes, "flow-fixed", perturbed=longer) == [
        "perturbed.length-derivative"]


def test_flow_remesh_checks_have_teeth(passes):
    wl, inputs, out, state, refs = passes["flow-remesh"]
    early = _with_snapshots(out["c02"], lambda s: dataclasses.replace(s, t=s.t * 0.98))
    assert _failing(passes, "flow-remesh", c02=early) == ["c02.extinction-time"]
    (r1, t1, e1), (r2, t2, e2) = out["arcs"]
    assert _failing(passes, "flow-remesh", arcs=[(r1, t1, e1), (r2, t2, 8.0 * e2)]) == [
        "c11.entry-scaling"]
    assert _failing(passes, "flow-remesh", geodesic_gap=2e-3) == ["c11.geodesic-gap"]
    assert _failing(passes, "flow-remesh", cli_exit=1) == ["cli.exit-code"]
    table = inputs["cli_run"] / "tables" / "trajectory.csv"
    table.write_text(table.read_text().replace("0.", "0,", 1))
    assert _failing(passes, "flow-remesh") == ["cli.data-files-identical"]


def test_analysis_checks_have_teeth(passes):
    out = passes["analysis"][2]
    sup = out["sup"]
    assert _failing(passes, "analysis",
                    sup=dataclasses.replace(sup, count=sup.count + 1)) == [
        "koch.sup-attained"]
    assert _failing(passes, "analysis", koch_crosses=True) == ["koch.embedded"]
    diag = out["diagnostics"]
    assert _failing(passes, "analysis", diagnostics=dataclasses.replace(
        diag, length=diag.length * (1 + 1e-8), enclosed_area=diag.enclosed_area + 1e-8)) == [
        "circle512.area", "circle512.length"]
    assert _failing(passes, "analysis", c09_hausdorff=0.12 + 1e-4) == ["c09.hausdorff"]
    assert _failing(passes, "analysis",
                    c14_hausdorff=out["c14_hausdorff"] + 1e-3) == ["c14.hausdorff"]
    sweep = [list(row) for row in out["sweep"]]
    m, c = sweep[2][7]
    sweep[2][7] = (m, c + 2)
    assert _failing(passes, "analysis", sweep=sweep) == ["sweep.2.7.intersections"]
    graph = out["graph"]
    assert _failing(passes, "analysis", graph=dataclasses.replace(
        graph, values=graph.values + 2e-6)) == ["graph.constant-oracle"]
    assert _failing(passes, "analysis",
                    offset_area=out["offset_area"] * 1.002) == ["offset.area"]


# ---------------------------------------------------------------------------
# seeds, spans and the empty checkout


def _curves(name, inputs):
    if name == "flow-fixed":
        return [c for _, _, _, c, _ in inputs["circles"]] + [inputs["perturbed"][0]]
    if name == "flow-remesh":
        return [inputs["c02"][0]] + [a for _, a, _, _ in inputs["arcs"]]
    return ([inputs["koch"], inputs["circle"], *inputs["c09"]]
            + [c for c, _ in inputs["sweep"]])


def test_seed_moves_inputs_but_not_their_shape(tmp_path):
    prog = import_program()
    for name, wl in WORKLOADS.items():
        a = _curves(name, wl.setup(prog, Placement(1), tmp_path))
        b = _curves(name, wl.setup(prog, Placement(2), tmp_path))
        for ca, cb in zip(a, b):
            assert ca.n == cb.n
            assert np.abs(ca.nodes - cb.nodes).max() > 1e-3
            np.testing.assert_allclose(np.sort(ca.edge_lengths()),
                                       np.sort(cb.edge_lengths()), atol=1e-12)


def test_span_summary_self_time_and_coverage():
    tr = Tracer()
    tr.begin_pass("w", record=True)
    tr.call("curves.resample", sum, [1, 2])
    tr.end_pass()
    (summary,) = pass_summaries(tr.spans)
    assert tr.calls == 1 and summary["calls"] == {"curves.resample": 1}
    root, child = tr.spans
    assert child.parent == root.id and child.pass_id == root.pass_id == 0
    assert summary["self_s"]["bench"] == pytest.approx(root.seconds - child.seconds)
    assert 0.0 < summary["coverage"] <= 1.0


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "flow-fixed", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
