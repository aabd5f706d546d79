"""The component-major stepper against the (n, 3) stepper it replaced.

`evolve_reference` is the stepping loop as it runs on (n, 3) nodes, explicit
steps and RKL2 super-steps alike, with row reductions over the length-3 rows,
counting what it did the way FlowStats does.
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
                       circle_curve, dirichlet_gamma, evolve_arc, evolve_closed,
                       koch_like, perturbed_latitude)
from spherecsf.errors import DomainError
from spherecsf.curves import nodes_for_spacing, resample, wrapped
from spherecsf.flow import (CFL_FACTOR, DT_FLOOR, EXTINCTION_LENGTH, LANDING_SLACK,
                            LENGTH_BACKSTOP, REMESH_FOLLOW, REMESH_UNIFORMITY,
                            RKL2_CURVATURE_GUARD, RKL2_MAX_STAGES, STATUS_EXTINCT,
                            STATUS_MAX_TIME, STATUS_SINGULARITY, STATUS_STALLED, FlowStats,
                            _Workspace, _reach, _snapshot_time, _stages, _super_size)

from test_curve_rows import (curve_of, edges_rows, integrals_rows, needled, normal_push_rows,
                             resample_rows, turning_rows, validated_rows)
from test_flow import Z, jittered_polygon, jittered_polygons


def curvature_rows(ext, closed):
    """kv = k - v, the curvature vectors less their unit nodes, from the (n, 3)
    padded array ext, summing length-3 rows: the second difference
    d_j - d_{j-1} of the chords d_j over q_j = (c_j^2 + c_{j-1}^2) / 2. On a unit
    node v its projection off v adds v, as <d_j - d_{j-1}, v> = -q_j."""
    d = ext[1:] - ext[:-1]
    q = np.add.reduce(d * d, axis=1, keepdims=True)
    lap = d[1:] - d[:-1]
    lap /= 0.5 * (q[:-1] + q[1:])
    return _padded(lap, ext, closed)


def chord_curvature_rows(ext, closed):
    """The chord form the stepper replaced, kept as an oracle: 2 (u_j - u_{j-1})
    / (c_j + c_{j-1}), u_j the unit chords, also k - v on unit nodes."""
    d = ext[1:] - ext[:-1]
    c = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True))
    u = d / c
    lap = 2.0 * (u[1:] - u[:-1]) / (c[:-1] + c[1:])
    return _padded(lap, ext, closed)


def _padded(k, ext, closed):
    """k as it is for a closed curve; an arc's, between zero end rows."""
    if closed:
        return k
    out = np.zeros_like(ext)
    out[1:-1] = k
    return out


def super_size_reference(kv, c, cfg, gap):
    """(tau, s) of the RKL2 super-step: tau = min(dt, what RKL2_MAX_STAGES
    stages reach, RKL2_CURVATURE_GUARD / max |k|^2), or gap where it lands, and
    s the least stage count that reaches tau at step c; (0, 0) unless
    s <= tau / (2 c) and s <= RKL2_MAX_STAGES."""
    if c < DT_FLOOR or min(cfg.dt, gap) < 16.0 * c:
        return 0.0, 0
    k2 = float(np.maximum.reduce(np.add.reduce(kv * kv, axis=1))) - 1.0  # |kv + v|^2
    tau = min(cfg.dt, _reach(RKL2_MAX_STAGES, c), RKL2_CURVATURE_GUARD / max(k2, 1e-300))
    if gap <= tau + max(LANDING_SLACK * tau, DT_FLOOR):
        tau = gap
    s = _stages(tau, c)
    return (tau, s) if s <= min(RKL2_MAX_STAGES, tau / (2.0 * c)) else (0.0, 0)


def super_step_rows(nodes, kv0, tau, s, closed, curvature=curvature_rows):
    """(nodes, edges, length, stages evaluated) of an RKL2 super-step of length
    tau in s stages from nodes, whose kv is kv0, stopping after the first
    stage whose length is not finite (Meyer, Balsara & Aslam 2014, with
    Y_1 = Y_0 + tau w / 3 L(Y_0), w = 4 / (s^2 + s - 2), and each stage
    renormalised; an arc's later stages keep its ends). L(Y) = kv + Y on unit
    nodes: its Y terms fold into the coefficients of Y_{j-1} and Y_0."""
    w = 4.0 / (s * s + s - 2)
    b = [1.0 / 3.0] * 2 + [(j * j + j - 2) / (2 * j * (j + 1)) for j in range(2, s + 1)]
    dt = w * tau / 3.0
    older, prev = nodes, dt / (1.0 + dt) * kv0
    prev += nodes
    prev /= np.sqrt(np.add.reduce(prev * prev, axis=1, keepdims=True))
    e = edges_rows(prev, closed)
    j = 1
    while j < s and math.isfinite(float(np.add.reduce(e))):
        j += 1
        kv = curvature(wrapped(prev, closed), closed)
        mu, nu = (2 * j - 1) / j * b[j] / b[j - 1], -(j - 1) / j * b[j] / b[j - 2]
        g = -(1.0 - b[j - 1]) * w * mu * tau
        y = nu * older
        y += (mu + w * mu * tau) * prev
        y += (1.0 - mu - nu + g) * nodes
        y += (w * mu * tau) * kv
        y += g * kv0
        y /= np.sqrt(np.add.reduce(y * y, axis=1, keepdims=True))
        if not closed:
            y[[0, -1]] = nodes[[0, -1]]
        older, prev, e = prev, y, edges_rows(y, closed)
    return prev, e, float(np.add.reduce(e)), j


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


def evolve_reference(curve, cfg, curvature=curvature_rows):
    """(snapshots as snapshot_rows, terminal status, FlowStats) of the (n, 3)
    explicit loop, stepping kv = curvature(padded nodes, closed)."""
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
    since_remesh = accepted = evaluations = remeshes = 0
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
        if length < EXTINCTION_LENGTH and closed:
            status = STATUS_EXTINCT
            break
        if cfg.max_time is not None and t >= cfg.max_time:
            status = STATUS_MAX_TIME
            break
        c = CFL_FACTOR * min_e ** 2
        dt = min(cfg.dt, c)
        target = next_snap if cfg.max_time is None else min(next_snap, cfg.max_time)
        lands = target - t <= dt + max(LANDING_SLACK * dt, DT_FLOOR)
        if lands:  # the step ends on the target, not short of it
            dt = target - t

        kv = curvature(ext, closed)
        tau, s = super_size_reference(kv, c, cfg, target - t)
        if s:  # kept unless a stage or the length is off, or the end mesh needs more stages
            trial, trial_e, new_len, done = super_step_rows(nodes, kv, tau, s, closed,
                                                            curvature)
            evaluations += done - 1
            if (math.isfinite(new_len) and new_len <= length + LENGTH_BACKSTOP
                    and _reach(s, 0.5 * float(np.minimum.reduce(trial_e)) ** 2) >= tau):
                dt, lands, trial_ext = tau, tau == target - t, wrapped(trial, closed)
            else:
                s = 0
        if not s:
            if dt < DT_FLOOR:  # no trial below the floor
                status = STATUS_STALLED
                break
            trial = dt / (1.0 + dt) * kv  # normalize(nodes + dt (kv + nodes))
            trial += nodes
            trial /= np.sqrt(np.add.reduce(trial * trial, axis=1, keepdims=True))
            trial_ext = wrapped(trial, closed)
            trial_e = edges_rows(trial, closed)
            new_len = float(np.add.reduce(trial_e))
            if not (math.isfinite(new_len) and new_len <= length + LENGTH_BACKSTOP):
                status = STATUS_SINGULARITY  # a stable step that fails is not retried
                break

        start_e = e
        nodes, ext, e, length = trial, trial_ext, trial_e, new_len
        t = target if lands else t + dt
        accepted += 1
        evaluations += 1
        min_dt = min(min_dt, dt)
        max_dt = max(max_dt, dt)
        since_remesh += s or 1

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
    return snaps, status, FlowStats(accepted, evaluations, remeshes, min_dt, max_dt,
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


def needle_cfg(curve, every=NO_REMESH, explicit=False):
    """No snapshot before max_time = NEEDLE_STEPS CFL steps c of the curve's
    shortest edge (its needle): one super-step to it, or, where `explicit` caps
    dt at 8 c (a super-step needs 16 c), explicit steps sized by c."""
    h = float(curve.edge_lengths().min())
    c = CFL_FACTOR * h * h
    return FlowConfig(dt=8.0 * c if explicit else 1e-2, snapshot_dt=1e-2,
                      max_time=NEEDLE_STEPS * c, remesh_every=every)


@st.composite
def needled_polygons(draw):
    nodes = draw(jittered_polygons(sizes=(80, 132), jitters=(0.5, 0.9)))
    return needled(nodes, 10.0 ** draw(st.floats(math.log10(2.5e-8), -6.3)),
                   draw(st.floats(0.5, 3.1)))


# Needles of 2.5e-8 (the shortest of the pinned rows below) to 5e-7, turned at
# least 0.5 off the edge. Their edges are measured as chords, so a step's length
# change is not noise: on 200 draws every explicit run reached max_time in 300 to
# 303 steps with no rejected trial. The example is a draw whose needle read 0
# once its validated nodes were validated again (as the stepper's first snapshot
# once did), while edges came from arccos of a dot.
@settings(max_examples=30)
@given(needled_polygons(), st.booleans(), st.booleans())
@example(needled(jittered_polygon(130, 0.2, 0.5, np.random.default_rng(0)),
                 10.0 ** math.log10(2.5e-8), 0.5), False, True)
def test_needled_polygons_match_reference(nodes, closed, explicit):
    try:
        curve = curve_of(nodes, closed)
    except DomainError:  # an edge reads below EDGE_MIN
        assume(False)
    assert_matches_reference(curve, needle_cfg(curve, explicit=explicit))


def test_needled_arc_reaches_max_time():
    # With edges read by arccos this arc crept through 17,286 steps and 120,907
    # rejected trials, at dt down to 2.2e-17, and with DT_FLOOR it stalled after
    # 17 steps and 29 rejections. Read as chords, its length falls at every step.
    nodes = needled(jittered_polygon(104, 0.93505, 0.56408, np.random.default_rng(4)),
                    1.0734e-7, 0.11061)
    arc = SphereArc(nodes)
    traj = assert_matches_reference(arc, replace(needle_cfg(arc), max_time=5e-13))
    assert traj.terminal_status == STATUS_MAX_TIME
    assert 0 < traj.stats.accepted_steps <= 200


# (delta, side, closed, status, base polygon seed, remesh_every). Every needle of
# 2.5e-8 and up reaches max_time with no rejected trial: in one super-step of 35
# stages, or in about 300 explicit steps under a low dt cap. Read by arccos, the
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
        assert traj.stats.accepted_steps > 0


@pytest.mark.parametrize("delta, side, closed, status, seed, every", NEEDLE_ROWS,
                         ids=[needle_id(row) for row in NEEDLE_ROWS])
def test_needles_step_explicitly_under_a_low_dt_cap(delta, side, closed, status, seed, every):
    base = jittered_polygon(100, 0.8, 0.6, np.random.default_rng(seed))
    curve = curve_of(needled(base, delta, side), closed)
    traj = assert_matches_reference(curve, needle_cfg(curve, every, explicit=True))
    assert traj.terminal_status == status
    assert traj.stats.evaluations == traj.stats.accepted_steps
    if status == STATUS_MAX_TIME and every == NO_REMESH:
        assert NEEDLE_STEPS <= traj.stats.accepted_steps <= NEEDLE_STEPS + 3


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


# The hypothesis draws above stop at 300 nodes; these pin sizes that perfbench
# and the checks run. The pi/3 circle at n = 2048 lands every 4e-5, 16 times its
# CFL step, so it takes 3 super-steps of s = 8; c11's r = 0.04 arc at 515
# nodes, remeshed every 20 steps, takes explicit steps only; c04's perturbed
# latitude at n = 2048 takes 4 super-steps of 12 stages and one remesh.
@pytest.mark.parametrize("make, cfg, n, steps, evaluations", [
    (lambda: circle_curve(np.pi / 3, n=2048),
     FlowConfig(dt=1e-4, snapshot_dt=4e-5, max_time=1.2e-4), 2048, 3, 24),
    (_c11_arc, FlowConfig(dt=1e-4, snapshot_dt=1e-3, max_time=0.01,
                          target_spacing=0.01, remesh_every=20), 515, 397, 397),
    (lambda: perturbed_latitude(1.1, 0.12, 5, n=2048),
     FlowConfig(dt=1e-4, snapshot_dt=2e-4, max_time=4e-4), 2048, 4, 48),
], ids=["circle-n2048", "c11-arc-n515", "perturbed-n2048"])
def test_benchmark_sizes_match_reference(make, cfg, n, steps, evaluations):
    curve = make()
    assert curve.n == n
    traj = assert_matches_reference(curve, cfg)
    assert traj.terminal_status == STATUS_MAX_TIME
    assert (traj.stats.accepted_steps, traj.stats.evaluations) == (steps, evaluations)


# ---------------------------------------------------------------------------
# The stepper keeps kv = k - v: renormalisation does the tangent projection


def projected_curvature_rows(ext, closed):
    """The textbook curvature vectors (w - v <w, v>) / q_j, with w = d_j - d_{j-1}
    the second difference of the chords at v and q_j = (c_j^2 + c_{j-1}^2) / 2,
    projected off v."""
    d = ext[1:] - ext[:-1]
    c = np.linalg.norm(d, axis=1, keepdims=True)
    v, lap = ext[1:-1], d[1:] - d[:-1]
    k = 2.0 * (lap - v * np.sum(lap * v, axis=1, keepdims=True)) / (c[:-1] ** 2 + c[1:] ** 2)
    return _padded(k, ext, closed)


def unit_rows(y):
    return y / np.linalg.norm(y, axis=1, keepdims=True)


def projected_super_step_rows(nodes, tau, s, closed):
    """The textbook RKL2 super-step on projected curvature L: Y_1 =
    normalize(Y_0 + w tau / 3 L(Y_0)), and Y_j = normalize(mu Y_{j-1} +
    nu Y_{j-2} + (1 - mu - nu) Y_0 + w mu tau (L(Y_{j-1}) - (1 - b_{j-1}) L(Y_0))),
    an arc's ends kept."""
    def curvature(y):
        return projected_curvature_rows(wrapped(y, closed), closed)

    w = 4.0 / (s * s + s - 2)
    b = [1.0 / 3.0] * 2 + [(j * j + j - 2) / (2 * j * (j + 1)) for j in range(2, s + 1)]
    k0 = curvature(nodes)
    older, prev = nodes, unit_rows(nodes + w * tau / 3.0 * k0)
    for j in range(2, s + 1):
        mu, nu = (2 * j - 1) / j * b[j] / b[j - 1], -(j - 1) / j * b[j] / b[j - 2]
        y = unit_rows(mu * prev + nu * older + (1.0 - mu - nu) * nodes
                      + w * mu * tau * (curvature(prev) - (1.0 - b[j - 1]) * k0))
        if not closed:
            y[[0, -1]] = nodes[[0, -1]]
        older, prev = prev, y
    return prev


IDENTITY_MESHES = {
    "jittered": lambda: curve_of(jittered_polygon(200, 0.8, 0.6, np.random.default_rng(1)),
                                 True),
    "koch3": lambda: koch_like(3),
    "perturbed": lambda: perturbed_latitude(1.1, 0.12, 5, n=512),
    "needled": lambda: curve_of(needled(jittered_polygon(
        100, 0.8, 0.6, np.random.default_rng(1)), 1e-7, 2.0), True),
    "arc": _c11_arc,
}


def _cfl_step(curve):
    return CFL_FACTOR * float(curve.edge_lengths().min()) ** 2


@pytest.mark.parametrize("make", IDENTITY_MESHES.values(), ids=IDENTITY_MESHES)
def test_unprojected_step_matches_the_projected_one(make):
    # normalize(v + dt k) = normalize(v + dt / (1 + dt) kv) on unit nodes: one
    # explicit step at the stepper's dt agrees with the textbook step to 2 ulps
    # (measured: 1.5 ulps of 1 at most, on the arc)
    curve = make()
    nodes, closed = np.array(curve.nodes), curve.closed
    ws = _Workspace(curve)
    ws.curvature()
    dt = min(1e-4, _cfl_step(curve))
    ws.trial(dt)
    want = unit_rows(nodes + dt * projected_curvature_rows(wrapped(nodes, closed), closed))
    assert np.abs(ws.nxt.nodes.T - want).max() <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("make", IDENTITY_MESHES.values(), ids=IDENTITY_MESHES)
def test_unprojected_super_step_matches_the_projected_one(make):
    # an 8-stage super-step as long as 8 stages reach: measured 1.0e-12 from the
    # textbook one on Koch d = 3, whose super-step moves nodes by 0.26, and at
    # most 2.8e-15 on the other meshes
    curve = make()
    tau = _reach(8, _cfl_step(curve))
    ws = _Workspace(curve)
    ws.curvature()
    ws.super_step(tau, 8)
    want = projected_super_step_rows(np.array(curve.nodes), tau, 8, curve.closed)
    assert np.abs(ws.nxt.nodes.T - want).max() <= 2e-12


@pytest.mark.parametrize("curve", [perturbed_latitude(1.1, 0.12, 5, n=512),
                                   SphereArc(perturbed_latitude(1.1, 0.12, 5, n=512).nodes)],
                         ids=["closed", "arc"])
def test_kv_has_unit_inward_part_along_the_node(curve):
    # <kv, v> = <d_j - d_{j-1}, v> / q_j = -1 at every interior node, to the
    # rounding of the chords v_{j+1} - v_j divided by h^2: measured 1.6 eps / h^2
    # (3.3e-12) at n = 512
    ws = _Workspace(curve)
    ws.curvature()
    inner = slice(None) if curve.closed else slice(1, -1)
    dots = np.sum(2.0 * ws.kv_half.T * curve.nodes, axis=1)[inner]
    h = float(curve.edge_lengths().min())
    assert np.abs(dots + 1.0).max() <= 4.0 * np.finfo(float).eps / h ** 2


def test_guard_reads_the_projected_curvature():
    # on a circle of radius 0.04, |k|^2 = cot^2 0.04 = 625: the curvature guard,
    # not dt, sizes the super-step, and it reads max |k|^2 as max |kv|^2 - 1
    curve = circle_curve(0.04, n=256)
    ws = _Workspace(curve)
    ws.curvature()
    tau, s = _super_size(ws, _cfl_step(curve), FlowConfig(dt=1e-4), 1.0)
    k = projected_curvature_rows(wrapped(np.array(curve.nodes), True), True)
    assert s and tau == pytest.approx(RKL2_CURVATURE_GUARD / np.max(np.sum(k * k, axis=1)),
                                      rel=1e-9)


# ---------------------------------------------------------------------------
# The second difference keeps the edges even, and explicit steps stable


def test_second_difference_matches_the_chord_form_on_a_regular_polygon():
    # every chord of a regular polygon has one length c, so (d_j - d_{j-1}) / c^2
    # is the chord form's 2 (u_j - u_{j-1}) / 2c up to the rounding of d / h^2:
    # measured 5.6 eps / h^2 (3.1e-12) relative at h = 0.02
    curve = circle_curve(1.0, n=264)
    h = float(curve.edge_lengths().min())
    ws = _Workspace(curve)
    ws.curvature()
    chord = chord_curvature_rows(wrapped(np.array(curve.nodes), True), True)
    rel = np.abs(2.0 * ws.kv_half.T - chord).max() / np.abs(chord).max()
    assert rel <= 16.0 * np.finfo(float).eps / h ** 2


def test_second_difference_keeps_the_edges_even():
    # c04's perturbed latitude on a fixed mesh to t = 0.05: its max/min edge goes
    # from 1.30 to 1.054 in 1,261 steps; the chord form lets it drift to 1.52, so
    # the shortest edge, and with it the step, shrinks (1,717 steps)
    curve = perturbed_latitude(1.1, 0.12, 5, n=512)
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.05, max_time=0.05, remesh_every=NO_REMESH)
    traj = assert_matches_reference(curve, cfg)
    snaps, status, chord = evolve_reference(curve, cfg, chord_curvature_rows)
    assert traj.terminal_status == status == STATUS_MAX_TIME
    e, chord_e = traj.final().curve.edge_lengths(), edges_rows(snaps[-1].nodes, True)
    assert e.max() / e.min() <= 1.07 and chord_e.max() / chord_e.min() >= 1.5
    assert (traj.stats.accepted_steps, chord.accepted_steps) == (1261, 1717)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "arc"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_explicit_steps_are_stable_on_uneven_meshes(seed, closed):
    # by Gershgorin (flow._Workspace) the step CFL_FACTOR h_min^2 is stable however
    # uneven the edges: these polygons start at max/min edge 13.5, 8.5 and 7.8, and
    # under a dt cap of 8 CFL steps they take 70 to 239 explicit steps to max_time
    # with no rejected trial, their edges evened out to 1.12 or less
    curve = curve_of(jittered_polygon(100, 0.8, 0.6, np.random.default_rng(seed)), closed)
    e = curve.edge_lengths()
    assert 7.8 <= e.max() / e.min() <= 13.5
    traj = assert_matches_reference(curve, needle_cfg(curve, explicit=True))
    assert traj.terminal_status == STATUS_MAX_TIME
    assert traj.stats.evaluations == traj.stats.accepted_steps
