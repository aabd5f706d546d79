"""The three workloads: seeded inputs, one pass of public calls, output checks.

A workload is three functions:

- setup(prog, place, workdir) builds the inputs from spherecsf's generators
  and moves every generated curve by the seeded `Placement`;
- run(prog, inputs, tracer) is one pass: each call into spherecsf goes
  through `tracer.call`, under the span name that the per-layer metrics use;
- check(inputs, outputs, state, refs) returns the pass's `Check`s and its
  per-pass counters. It runs after the pass's timer has stopped.

`prog.sc` is the spherecsf package and `prog.cli` its CLI module.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks as ck

Z = np.array([0.0, 0.0, 1.0])
R0 = math.pi / 3  # the c01/c02 circle; its extinction time is ln 2

# every span name a pass records; each becomes <name>.s and <name>.calls
SPANS = (
    "flow.evolve_closed.n128", "flow.evolve_closed.n512",
    "flow.evolve_closed.n2048", "flow.evolve_arc", "flow.time_to_enter_cap",
    "curves.hausdorff_distance", "curves.self_intersects", "curves.diagnostics",
    "curves.resample", "curves.intersection_count",
    "jordan.multiplicity_sup", "jordan.multiplicity_at",
    "graphflow.evolve_graph", "levelset.offset_curve",
    "levelset.enclosed_left_area", "cli.simulate",
)
LAYERS = ("flow", "curves", "jordan", "graphflow", "levelset", "cli", "bench")
COUNTERS = {"flow.snapshots": "count", "flow.final_nodes": "count",
            "cli.bytes_written": "bytes"}


# ---------------------------------------------------------------------------
# seeded placement


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


class Placement:
    """Seeded rigid motion of every generated curve.

    A rotation of the sphere and, for closed curves, a cyclic shift of the
    node order (the phase). Both change the floats the program sees but not
    the polygon's shape, so the work stays the same. The shift is a multiple
    of `period`, the node count of one symmetry period, for curves that get
    resampled: resampling anchors at node 0. seed=None places nothing.
    """

    def __init__(self, seed: Optional[int]):
        self.rng = None if seed is None else np.random.default_rng(seed)

    def rotation(self) -> np.ndarray:
        return np.eye(3) if self.rng is None else random_rotation(self.rng)

    def closed(self, sc, curve, rot: np.ndarray, period: int = 1):
        shift = 0 if self.rng is None else period * int(self.rng.integers(curve.n // period))
        return sc.ClosedSphereCurve(np.roll(curve.nodes @ rot.T, -shift, axis=0))


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable


def _traj_counters(trajs) -> dict:
    return {"flow.snapshots": sum(len(t.snapshots) for t in trajs),
            "flow.final_nodes": sum(t.final().curve.n for t in trajs)}


# ---------------------------------------------------------------------------
# flow-fixed: closed curves on a fixed mesh, no remesh

CIRCLES = ((128, 0.6), (512, 0.1), (2048, 0.002))  # nodes, end time


def fixed_setup(prog, place: Placement, workdir: Path) -> dict:
    sc = prog.sc
    circles = []
    for n, t_end in CIRCLES:
        rot = place.rotation()
        circles.append((n, t_end, rot @ Z,
                        place.closed(sc, sc.circle_curve(R0, n=n), rot),
                        sc.FlowConfig(dt=1e-4, snapshot_dt=0.01, max_time=t_end)))
    pert = place.closed(sc, sc.perturbed_latitude(1.1, 0.12, 5, n=512), place.rotation())
    # the c04/c05 configuration: remesh off, snapshots fine enough for
    # central differences
    pert_cfg = sc.FlowConfig(dt=1e-4, snapshot_dt=0.002, max_time=0.05,
                             remesh_every=10 ** 9)
    return {"circles": circles, "perturbed": (pert, pert_cfg)}


def fixed_run(prog, inp: dict, tr) -> dict:
    sc = prog.sc
    circles = [tr.call(f"flow.evolve_closed.n{n}", sc.evolve_closed, curve, cfg)
               for n, _, _, curve, cfg in inp["circles"]]
    pert, cfg = inp["perturbed"]
    return {"circles": circles,
            "perturbed": tr.call("flow.evolve_closed.n512", sc.evolve_closed, pert, cfg)}


def fixed_check(inp: dict, out: dict, state: dict, refs: dict):
    checks = []
    for (n, t_end, pole, _, _), traj in zip(inp["circles"], out["circles"]):
        snaps = traj.snapshots
        checks.append(ck.circle_oracle(
            f"circle-n{n}.radius", R0, pole, [s.t for s in snaps],
            [s.curve.nodes for s in snaps], traj.terminal_status, t_end))
    traj = out["perturbed"]
    snaps = traj.snapshots
    checks.append(ck.exact("perturbed.status", traj.terminal_status, "reached_max_time"))
    checks += ck.flow_identities("perturbed", [s.t for s in snaps],
                                 [s.length for s in snaps],
                                 [s.total_curvature for s in snaps],
                                 [s.bending for s in snaps])
    return checks, _traj_counters(out["circles"] + [traj])


# ---------------------------------------------------------------------------
# flow-remesh: remeshing, pinned endpoints, shrinking n, the CLI write path

C02_SPACING = 0.015      # c02 uses 0.0106; 0.015 keeps the error within 1% at half the cost
ARCS = ((0.04, 0.2), (0.08, 0.3))  # c11 band halfwidth, end time
ARC_SPACING = 0.25       # in band halfwidths; c11 uses 1/6, which costs twice as much
CAP_RADIUS = 1.3
CLI_SNAPSHOTS = 101


def remesh_setup(prog, place: Placement, workdir: Path) -> dict:
    sc = prog.sc
    c02 = place.closed(sc, sc.circle_curve(R0, n=512), place.rotation())
    c02_cfg = sc.FlowConfig(dt=1e-4, snapshot_dt=0.01, target_spacing=C02_SPACING,
                            remesh_every=20)
    arcs = []
    for r, t_end in ARCS:
        spec = sc.DirichletArcSpec(circle=sc.GreatCircle(Z), band_halfwidth=r,
                                   cap_radius=CAP_RADIUS, closeness=0.25)
        arc, _ = sc.dirichlet_gamma(spec)
        arc = sc.resample(arc, spacing=ARC_SPACING * r)
        rot = place.rotation()
        arcs.append((r, sc.SphereArc(arc.nodes @ rot.T), rot @ spec.vertex,
                     sc.FlowConfig(dt=1e-4, snapshot_dt=1e-3, max_time=t_end,
                                   target_spacing=ARC_SPACING * r, remesh_every=20)))

    curve = place.closed(sc, sc.perturbed_latitude(1.0, 0.18, 4, n=256), place.rotation())
    curve_path = workdir / "curve.csv"
    sc.save_curve(curve_path, curve)
    config_path = workdir / "simulate.json"
    config_path.write_text(json.dumps({
        "name": "bench",
        "curve": {"file": str(curve_path)},
        "flow": {"dt": 1e-4, "snapshot_dt": 0.002, "max_time": 0.2,
                 "target_spacing": 0.02, "remesh_every": 20},
    }))
    out_dir = workdir / "cli"
    argv = ["simulate", "--config", str(config_path), "--out", str(out_dir),
            "--nodes", "--quiet"]
    return {"c02": (c02, c02_cfg), "arcs": arcs, "cli_argv": argv,
            "cli_run": out_dir / "bench"}


def remesh_run(prog, inp: dict, tr) -> dict:
    sc = prog.sc
    c02, cfg = inp["c02"]
    out = {"c02": tr.call("flow.evolve_closed.n512", sc.evolve_closed, c02, cfg),
           "arcs": []}
    for r, arc, vertex, cfg in inp["arcs"]:
        traj = tr.call("flow.evolve_arc", sc.evolve_arc, arc, cfg)
        entry = tr.call("flow.time_to_enter_cap", sc.time_to_enter_cap, traj,
                        vertex, CAP_RADIUS / 2)
        out["arcs"].append((r, traj, entry))
    last = out["arcs"][-1][1].final().curve
    chord = sc.SphereArc(ck.geodesic_nodes(last.nodes[0], last.nodes[-1], 64))
    out["geodesic_gap"] = tr.call("curves.hausdorff_distance", sc.hausdorff_distance,
                                  last, chord, refine=1e-4)
    out["cli_exit"] = tr.call("cli.simulate", prog.cli.main, inp["cli_argv"])
    return out


def _data_files(run_dir: Path) -> dict:
    """sha256 of every file the CLI wrote except manifest.json (wall time)."""
    return {str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def remesh_check(inp: dict, out: dict, state: dict, refs: dict):
    traj = out["c02"]
    checks = [ck.extinction_time("c02.extinction-time", R0, traj.final().t,
                                 traj.terminal_status)]
    checks.append(ck.entry_scaling("c11.entry-scaling",
                                   [entry / r for r, _, entry in out["arcs"]]))
    checks.append(ck.Check("c11.geodesic-gap", out["geodesic_gap"], 1e-3))

    run_dir = inp["cli_run"]
    checks.append(ck.exact("cli.exit-code", out["cli_exit"], 0))
    report = json.loads((run_dir / "report.json").read_text())
    checks.append(ck.exact(
        "cli.report", (report["terminal_status"], report["snapshots"], report["final_time"]),
        ("reached_max_time", CLI_SNAPSHOTS, 0.2)))
    digests = _data_files(run_dir)
    checks.append(ck.exact("cli.data-files-identical", digests,
                           state.setdefault("cli_digests", digests)))

    counters = _traj_counters([traj] + [t for _, t, _ in out["arcs"]])
    counters["cli.bytes_written"] = sum(p.stat().st_size for p in run_dir.rglob("*")
                                        if p.is_file())
    return checks, counters


# ---------------------------------------------------------------------------
# analysis: geometry queries, no polyline stepping

MULT_R = 0.05            # c14 multiplicity radius
SWEEP_R = 0.1            # c07 multiplicity radius
SWEEP_POLES = 50
GRAPH_U0 = math.tan(0.1)
OFFSET_EPS = 0.05
KOCH_PERIOD = 256        # koch_like(4) has 1536 nodes and six-fold symmetry


def sweep_corpus(sc) -> list:
    """The c07/c08 corpus, before its flow."""
    return [sc.perturbed_latitude(math.pi / 2, 0.25, 5, n=512),
            sc.perturbed_latitude(math.pi / 2, 0.20, 3, n=512),
            sc.perturbed_latitude(1.0, 0.18, 4, n=512),
            sc.circle_curve(1.2, n=256),
            sc.perturbed_latitude(1.3, 0.10, 7, n=512)]


def analysis_setup(prog, place: Placement, workdir: Path) -> dict:
    sc = prog.sc
    koch = place.closed(sc, sc.koch_like(4), place.rotation(), period=KOCH_PERIOD)
    circle = place.closed(sc, sc.circle_curve(R0, n=512), place.rotation())
    rot = place.rotation()
    pert = place.closed(sc, sc.perturbed_latitude(1.1, 0.12, 5, n=512), rot)
    base = place.closed(sc, sc.circle_curve(1.1, n=512), rot)
    sweep = []
    for curve in sweep_corpus(sc):
        rot = place.rotation()
        sweep.append((place.closed(sc, curve, rot),
                      [sc.GreatCircle(p) for p in sc.fibonacci_sphere(SWEEP_POLES) @ rot.T]))
    return {"koch": koch, "circle": circle, "c09": (pert, base), "sweep": sweep,
            "graph": sc.PeriodicGraph(np.full(512, GRAPH_U0))}


def analysis_run(prog, inp: dict, tr) -> dict:
    sc = prog.sc
    koch, circle = inp["koch"], inp["circle"]
    out = {}
    out["sup"] = sup = tr.call("jordan.multiplicity_sup", sc.multiplicity_sup, koch, MULT_R)
    out["sup_at_pole"] = tr.call("jordan.multiplicity_at", sc.multiplicity_at, koch,
                                 sc.GreatCircle(sup.pole), MULT_R)
    out["koch_crosses"] = tr.call("curves.self_intersects", sc.self_intersects,
                                  koch.nodes, True)
    out["diagnostics"] = tr.call("curves.diagnostics", sc.diagnostics, circle)
    out["c09_hausdorff"] = tr.call("curves.hausdorff_distance", sc.hausdorff_distance,
                                   *inp["c09"], refine=1e-4)
    out["koch384"] = coarse = tr.call("curves.resample", sc.resample, koch, n=384)
    out["c14_hausdorff"] = tr.call("curves.hausdorff_distance", sc.hausdorff_distance,
                                   coarse, koch, refine=1e-3)
    out["sweep"] = [
        [(tr.call("jordan.multiplicity_at", sc.multiplicity_at, curve, g, SWEEP_R).count,
          tr.call("curves.intersection_count", sc.intersection_count, curve, g))
         for g in circles]
        for curve, circles in inp["sweep"]]
    out["graph"] = tr.call("graphflow.evolve_graph", sc.evolve_graph, inp["graph"], 0.1)
    out["offset"] = offset = tr.call("levelset.offset_curve", sc.offset_curve, circle,
                                     OFFSET_EPS, 1)
    out["offset_area"] = tr.call("levelset.enclosed_left_area", sc.enclosed_left_area,
                                 offset)
    return out


def analysis_check(inp: dict, out: dict, state: dict, refs: dict):
    sup = out["sup"]
    checks = [
        # the sampled sup depends on orientation; the reported pole must attain it
        ck.exact("koch.sup-attained", (sup.count >= 1, out["sup_at_pole"].count),
                 (True, sup.count)),
        ck.exact("koch.embedded", bool(out["koch_crosses"]), False),
    ]
    length, area = ck.regular_polygon(R0, inp["circle"].n)
    diag = out["diagnostics"]
    checks.append(ck.relative("circle512.length", diag.length, length, 1e-9))
    checks.append(ck.absolute("circle512.area", diag.enclosed_area, area, 1e-9))
    # the mode-5 profile reaches its full amplitude 0.12 at a node
    checks.append(ck.absolute("c09.hausdorff", out["c09_hausdorff"], 0.12, 1e-4 / 2))
    checks.append(ck.exact("c14.resample-nodes", out["koch384"].n, 384))
    checks.append(ck.absolute("c14.hausdorff", out["c14_hausdorff"],
                              refs["c14_hausdorff"], 1e-3 / 2))
    for i, (got, want) in enumerate(zip(out["sweep"], refs["sweep"])):
        for j, ((m, c), (m_ref, c_ref)) in enumerate(zip(got, want)):
            checks.append(ck.exact(f"sweep.{i}.{j}.multiplicity", m, m_ref))
            checks.append(ck.exact(f"sweep.{i}.{j}.intersections", c, c_ref))
    u = out["graph"].values
    checks.append(ck.Check("graph.constant-oracle",
                           float(np.abs(u - ck.constant_graph(GRAPH_U0, 0.1)).max()), 1e-6))
    checks.append(ck.relative("offset.area", out["offset_area"],
                              ck.cap_area(R0 - OFFSET_EPS), 1e-3))
    return checks, {}


WORKLOADS = {
    "flow-fixed": Workload(fixed_setup, fixed_run, fixed_check),
    "flow-remesh": Workload(remesh_setup, remesh_run, remesh_check),
    "analysis": Workload(analysis_setup, analysis_run, analysis_check),
}
