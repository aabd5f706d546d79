"""The component-major stepper against the (n, 3) stepper it replaced.

`evolve_reference` is the explicit loop as it ran on (n, 3) nodes, with row
reductions over the length-3 rows, counting what it did the way FlowStats does.
Its snapshots and remeshes validate, measure, resample and push through the
(n, 3) forms of test_curve_rows, not through the library's curves. The stepper
in spherecsf.flow keeps its nodes as (3, w) buffers and sums rows of those
instead, and its curves keep the edge lengths their validation measured; every
operation runs in the same order, so each snapshot, the terminal status and
every counter must come out identical.
"""

import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spherecsf import (DirichletArcSpec, FlowConfig, GreatCircle, SphereArc,
                       circle_curve, dirichlet_gamma, evolve_arc, evolve_closed)
from spherecsf.errors import DomainError
from spherecsf.curves import nodes_for_spacing, resample, wrapped
from spherecsf.flow import (CFL_FACTOR, DT_FLOOR, LANDING_SLACK, LENGTH_BACKSTOP,
                            MAX_DT_HALVINGS, REMESH_FOLLOW, REMESH_UNIFORMITY,
                            STATUS_EXTINCT, STATUS_MAX_TIME, STATUS_SINGULARITY,
                            STATUS_STALLED, FlowStats, _snapshot_time)

from test_curve_rows import (curve_of, edges_rows, integrals_rows, needled, normal_push_rows,
                             resample_rows, turning_rows, validated_rows)
from test_flow import Z, jittered_polygon, jittered_polygons


def chord_curvature_rows(ext, closed):
    """Curvature vectors from the (n, 3) padded array ext, summing length-3 rows."""
    d = ext[1:] - ext[:-1]
    c = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True))
    u = d / c
    v = ext[1:-1]
    lap = u[1:] - u[:-1]
    lap -= v * np.add.reduce(lap * v, axis=1, keepdims=True)
    lap *= 2.0
    lap /= c[:-1] + c[1:]
    if closed:
        return lap
    out = np.zeros_like(ext)
    out[1:-1] = lap
    return out


SnapshotRows = namedtuple("SnapshotRows",
                          "t length total_curvature bending enclosed_area nodes")


def snapshot_rows(t, nodes, closed):
    nodes, edges = validated_rows(nodes, closed)
    return SnapshotRows(t, *integrals_rows(nodes, edges, closed)[:4], nodes)


def remesh_rows(nodes, closed, n):
    """validated_rows of the n-node resampling of nodes; a closed one pushed
    along its left normals by (A_resampled - A) / L, A = 2 pi - sum(turning)."""
    nodes, e = validated_rows(nodes, closed)
    new, new_e = resample_rows(nodes, e, closed, n)
    if not closed:
        return new, new_e
    s = (float(turning_rows(nodes, closed).sum())
         - float(turning_rows(new, closed).sum())) / float(new_e.sum())
    return validated_rows(normal_push_rows(new, closed, s), closed)


def target_n_reference(length, n, cfg, closed, h0):
    """The remesh rule: resample to spacing top once the mean edge is below
    bottom, where (top, bottom) is s * sqrt(U) and s / sqrt(U) for
    target_spacing s and uniformity ratio U, else h0 and h0 / REMESH_FOLLOW."""
    if cfg.target_spacing is None:
        top, bottom = h0, h0 / REMESH_FOLLOW
    else:
        top = cfg.target_spacing * math.sqrt(REMESH_UNIFORMITY)
        bottom = cfg.target_spacing / math.sqrt(REMESH_UNIFORMITY)
    if length / (n - 1 + closed) < bottom:
        return nodes_for_spacing(length, top, closed)
    return n


def evolve_reference(curve, cfg):
    """(snapshots as snapshot_rows, terminal status, FlowStats) of the (n, 3)
    explicit loop."""
    closed = curve.closed
    nodes = np.array(curve.nodes)
    e = edges_rows(nodes, closed)
    if cfg.target_spacing is not None:
        want = nodes_for_spacing(float(e.sum()), cfg.target_spacing, closed)
        nodes, e = resample_rows(nodes, e, closed, want)
    ext = wrapped(nodes, closed)
    t = 0.0
    # snapshot 0 is the validated curve itself, not validated again
    snaps = [SnapshotRows(0.0, *integrals_rows(nodes, e, closed)[:4], nodes)]
    length = snaps[0].length
    h0 = length / (len(nodes) - 1 + closed)
    status = None
    landed = 1
    next_snap = _snapshot_time(landed, cfg)
    since_remesh = accepted = rejected = remeshes = 0
    min_dt = min_edge = math.inf
    max_dt = 0.0

    def snapshot():  # the stepper's policy: a mesh that fails validation is not kept
        try:
            snaps.append(snapshot_rows(t, nodes, closed))
        except DomainError:
            return False
        return True

    while True:
        min_e = float(np.minimum.reduce(e))
        min_edge = min(min_edge, min_e)
        if length < cfg.extinction_length and closed:
            status = STATUS_EXTINCT
            break
        if cfg.max_time is not None and t >= cfg.max_time:
            status = STATUS_MAX_TIME
            break
        dt = min(cfg.dt, CFL_FACTOR * min_e ** 2)
        target = next_snap if cfg.max_time is None else min(next_snap, cfg.max_time)
        lands = target - t <= dt + max(LANDING_SLACK * dt, DT_FLOOR)
        if lands:  # the step ends on the target, not short of it
            dt = target - t

        kv = chord_curvature_rows(ext, closed)
        for _ in range(MAX_DT_HALVINGS + 1):
            if dt < DT_FLOOR:  # no trial below the floor
                status = STATUS_STALLED
                break
            trial = dt * kv
            trial += nodes
            trial /= np.sqrt(np.add.reduce(trial * trial, axis=1, keepdims=True))
            trial_ext = wrapped(trial, closed)
            trial_e = edges_rows(trial, closed)
            new_len = float(np.add.reduce(trial_e))
            if math.isfinite(new_len) and new_len <= length + LENGTH_BACKSTOP:
                break
            rejected += 1
            dt *= 0.5
            lands = False
        else:
            status = STATUS_SINGULARITY
        if status is not None:
            break

        start_e = e
        nodes, ext, e, length = trial, trial_ext, trial_e, new_len
        t = target if lands else t + dt
        accepted += 1
        min_dt = min(min_dt, dt)
        max_dt = max(max_dt, dt)
        since_remesh += 1

        if t == next_snap:
            if not snapshot():
                status = STATUS_STALLED
                break
            landed += 1
            next_snap = _snapshot_time(landed, cfg)

        if since_remesh >= cfg.remesh_every:
            since_remesh = 0
            want = target_n_reference(length, len(nodes), cfg, closed, h0)
            ratio = float(start_e.max() / start_e.min())
            if want != len(nodes) or ratio >= REMESH_UNIFORMITY:
                try:  # the snapshot policy holds for a remesh as well
                    nodes, e = remesh_rows(nodes, closed, want)
                except DomainError:
                    status = STATUS_STALLED
                    break
                ext = wrapped(nodes, closed)
                length = float(np.add.reduce(e))
                remeshes += 1

    if snaps[-1].t < t:
        if not snapshot() and status != STATUS_SINGULARITY:
            status = STATUS_STALLED
    return snaps, status, FlowStats(accepted, rejected, remeshes, min_dt, max_dt,
                                    min_edge, len(nodes))


def assert_matches_reference(curve, cfg):
    traj = (evolve_closed if curve.closed else evolve_arc)(curve, cfg)
    snaps, status, stats = evolve_reference(curve, cfg)
    assert traj.terminal_status == status
    assert traj.stats == stats
    assert traj.stats.min_dt >= DT_FLOOR or not traj.stats.accepted_steps
    assert len(traj.snapshots) == len(snaps)
    for a, b in zip(traj.snapshots, snaps):
        assert (a.t, a.length, a.total_curvature, a.bending, a.enclosed_area) == b[:5]
        assert np.array_equal(a.curve.nodes, b.nodes)
    return traj


NO_REMESH = 10 ** 9
# A needle run lasts about this many CFL steps of its own needle, whatever its
# length: a fixed horizon of 1e-12 gave a 2.5e-8 needle 6,400 steps and a 4e-7
# one 26.
NEEDLE_STEPS = 300


def needle_cfg(curve, every=NO_REMESH):
    """Steps sized by the CFL bound of the curve's shortest edge h (its needle),
    no snapshot before max_time = NEEDLE_STEPS such steps."""
    h = float(curve.edge_lengths().min())
    return FlowConfig(dt=1e-2, snapshot_dt=1e-2, max_time=NEEDLE_STEPS * CFL_FACTOR * h * h,
                      remesh_every=every)


@st.composite
def needled_polygons(draw):
    nodes = draw(jittered_polygons(sizes=(80, 132), jitters=(0.5, 0.9)))
    return needled(nodes, 10.0 ** draw(st.floats(math.log10(2.5e-8), -6.3)),
                   draw(st.floats(0.5, 3.1)))


# Needles of 2.5e-8 (the shortest of the pinned rows below) to 5e-7, turned at
# least 0.5 off the edge. Their edges are measured as chords, so a step's length
# change is not noise: on 200 draws every run reached max_time in 300 to 303
# steps with no rejected trial. The example is a draw whose needle read 0 once
# its validated nodes were validated again (as the stepper's first snapshot
# once did), while edges came from arccos of a dot.
@settings(max_examples=30)
@given(needled_polygons(), st.booleans())
@example(needled(jittered_polygon(130, 0.2, 0.5, np.random.default_rng(0)),
                 10.0 ** math.log10(2.5e-8), 0.5), False)
def test_needled_polygons_match_reference(nodes, closed):
    try:
        curve = curve_of(nodes, closed)
    except DomainError:  # an edge reads below EDGE_MIN
        assume(False)
    assert_matches_reference(curve, needle_cfg(curve))


def test_needled_arc_reaches_max_time():
    # With edges read by arccos this arc crept through 17,286 steps and 120,907
    # rejected trials, at dt down to 2.2e-17, and with DT_FLOOR it stalled after
    # 17 steps and 29 rejections. Read as chords, its length falls at every step.
    nodes = needled(jittered_polygon(104, 0.93505, 0.56408, np.random.default_rng(4)),
                    1.0734e-7, 0.11061)
    arc = SphereArc(nodes)
    traj = assert_matches_reference(arc, replace(needle_cfg(arc), max_time=5e-13))
    assert traj.terminal_status == STATUS_MAX_TIME
    assert traj.stats.rejected_trials == 0 and 0 < traj.stats.accepted_steps <= 200


# (delta, side, closed, status, base polygon seed, remesh_every). Every needle of
# 2.5e-8 and up reaches max_time with no rejected trial. Read by arccos, the
# 2.5e-8 needles stalled at DT_FLOOR or stepped onto a mesh whose needle edge
# read 0 (the seed-0 rows). The 1.5e-8 needle's CFL step, 5.6e-17, is below
# DT_FLOOR, so that run stalls before its first trial.
NEEDLE_ROWS = [
    (1e-7, 2.0, True, STATUS_MAX_TIME, 1, NO_REMESH),
    (2e-7, 3.0, False, STATUS_MAX_TIME, 1, NO_REMESH),
    (4e-7, 2.0, True, STATUS_MAX_TIME, 1, NO_REMESH),
    (1e-7, 1.0, False, STATUS_MAX_TIME, 1, NO_REMESH),
    (2.5e-8, 1.0, True, STATUS_MAX_TIME, 1, NO_REMESH),
    (2.5e-8, 3.0, False, STATUS_MAX_TIME, 1, NO_REMESH),
    (2.5e-8, 2.0, True, STATUS_MAX_TIME, 0, NO_REMESH),
    (2.5e-8, 2.0, False, STATUS_MAX_TIME, 0, NO_REMESH),
    (2.5e-8, 2.0, True, STATUS_MAX_TIME, 0, 1),
    (1.5e-8, 2.0, True, STATUS_STALLED, 1, NO_REMESH),
]
# The closed seed-0 rows keep the ids they had when they stalled under the
# arccos reading; the status they assert is the row's.
KEPT_NEEDLE_IDS = {(2.5e-8, 2.0, True, 0, NO_REMESH): "2.5e-08-2.0-True-stalled-seed0",
                   (2.5e-8, 2.0, True, 0, 1): "2.5e-08-2.0-True-stalled-seed0-remesh1"}


def needle_id(row):
    delta, side, closed, status, seed, every = row
    return KEPT_NEEDLE_IDS.get((delta, side, closed, seed, every), "-".join(
        map(str, row[:4])) + ("-seed0" if seed == 0 else "") + ("-remesh1" if every == 1 else ""))


@pytest.mark.parametrize("delta, side, closed, status, seed, every", NEEDLE_ROWS,
                         ids=[needle_id(row) for row in NEEDLE_ROWS])
def test_needle_statuses_match_reference(delta, side, closed, status, seed, every):
    base = jittered_polygon(100, 0.8, 0.6, np.random.default_rng(seed))
    curve = curve_of(needled(base, delta, side), closed)
    traj = assert_matches_reference(curve, needle_cfg(curve, every))
    assert traj.terminal_status == status
    if status == STATUS_STALLED:
        assert traj.stats.accepted_steps == 0 and len(traj.snapshots) == 1
    else:
        assert traj.stats.accepted_steps > 0 and traj.stats.rejected_trials == 0


@settings(max_examples=15)
@given(jittered_polygons(sizes=(40, 120)), st.booleans(), st.floats(0.02, 0.08),
       st.integers(1, 25))
def test_remeshing_runs_match_reference(nodes, closed, spacing, every):
    cfg = FlowConfig(dt=1e-3, snapshot_dt=3e-3, max_time=1e-2,
                     target_spacing=spacing, remesh_every=every)
    assert_matches_reference(curve_of(nodes, closed), cfg)


@pytest.mark.parametrize("curve, max_time, status", [
    (circle_curve(0.3, n=64), None, STATUS_EXTINCT),
    (SphereArc(circle_curve(0.3, n=64).nodes), 0.05, STATUS_MAX_TIME),
])
def test_shrinking_remesh_matches_reference(curve, max_time, status):
    cfg = FlowConfig(dt=1e-3, snapshot_dt=5e-3, max_time=max_time,
                     target_spacing=0.02, remesh_every=5)
    traj = assert_matches_reference(curve, cfg)
    assert traj.terminal_status == status
    assert traj.stats.remeshes > 0
    assert traj.stats.final_n < traj.snapshots[0].curve.n


@pytest.mark.parametrize("curve, max_time, status", [
    (circle_curve(0.3, n=64), None, STATUS_EXTINCT),
    (SphereArc(circle_curve(0.3, n=64).nodes), 0.05, STATUS_MAX_TIME),
], ids=["closed", "arc"])
def test_follow_remesh_matches_reference(curve, max_time, status):
    # no target_spacing: the mesh follows its starting mean edge as it shrinks
    cfg = FlowConfig(dt=1e-3, snapshot_dt=5e-3, max_time=max_time, remesh_every=5)
    traj = assert_matches_reference(curve, cfg)
    assert traj.terminal_status == status
    assert traj.stats.remeshes > 0 and traj.stats.final_n < curve.n


def _c11_arc():
    spec = DirichletArcSpec(circle=GreatCircle(Z), band_halfwidth=0.04,
                            cap_radius=1.3, closeness=0.25)
    return resample(dirichlet_gamma(spec)[0], spacing=0.01)


# The hypothesis draws above stop at 300 nodes; these pin two sizes perfbench
# runs: the pi/3 circle at n = 2048 for about 50 steps, and c11's r = 0.04 arc
# at 515 nodes, remeshed every 20 steps.
@pytest.mark.parametrize("make, cfg, n", [
    (lambda: circle_curve(np.pi / 3, n=2048),
     FlowConfig(dt=1e-4, snapshot_dt=4e-5, max_time=1.2e-4), 2048),
    (_c11_arc, FlowConfig(dt=1e-4, snapshot_dt=1e-3, max_time=0.01,
                          target_spacing=0.01, remesh_every=20), 515),
], ids=["circle-n2048", "c11-arc-n515"])
def test_benchmark_sizes_match_reference(make, cfg, n):
    curve = make()
    assert curve.n == n
    traj = assert_matches_reference(curve, cfg)
    assert traj.terminal_status == STATUS_MAX_TIME
    assert traj.stats.accepted_steps >= 45
