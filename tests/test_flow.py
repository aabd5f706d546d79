"""Curve shortening integrator: oracles, configs, arcs, cap-entry times."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherecsf import (ClosedSphereCurve, FlowConfig, SphereArc,
                       barrier_radius_oracle, circle_curve, circle_extinction_time,
                       circle_oracle, evolve_arc, evolve_closed, koch_like,
                       leafable_wiggle, perturbed_latitude, straightening_experiment,
                       time_to_enter_cap)
from spherecsf import curves, flow
from spherecsf.errors import ConfigInvalid, DomainError, NeverEnters
from spherecsf.curves import integrals, resample, wrapped, wrapped_edges
from spherecsf.flow import _Workspace

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])

CIRCLE_REL_TOL = 1e-4
EXTINCTION_TOL = 5e-3


def wavy_arc(n=65):
    lam = np.linspace(-0.4, 0.4, n)
    s = 0.2 * np.cos(3 * lam)
    return SphereArc(np.stack([np.cos(lam) * np.cos(s),
                               np.sin(lam) * np.cos(s),
                               np.sin(s)], axis=1))


# Reference kernel: kv = k - v, the curvature vectors less their unit nodes, the
# second differences over the mean squared chords, from rolled (n, 3) neighbour
# arrays, and edges from a separate chord pass. The component-major kernel keeps
# kv / 2 and reorders only IEEE-exact arithmetic, so twice its kv_half must match
# these bit for bit.
def _kvec_reference(nodes: np.ndarray, closed: bool) -> np.ndarray:
    if closed:
        prv = np.roll(nodes, 1, axis=0)
        nxt = np.roll(nodes, -1, axis=0)
        v = nodes
    else:
        v, prv, nxt = nodes[1:-1], nodes[:-2], nodes[2:]
    d_prev = prv - v
    d_next = nxt - v
    q_prev = np.add.reduce(d_prev * d_prev, axis=1, keepdims=True)
    q_next = np.add.reduce(d_next * d_next, axis=1, keepdims=True)
    kv = (d_next + d_prev) / (0.5 * (q_prev + q_next))
    if closed:
        return kv
    out = np.zeros_like(nodes)
    out[1:-1] = kv
    return out


def _edges_reference(nodes: np.ndarray, closed: bool) -> np.ndarray:
    q = np.roll(nodes, -1, axis=0) if closed else nodes[1:]
    p = nodes if closed else nodes[:-1]
    return 2.0 * np.arcsin(0.5 * np.sqrt(np.sum((q - p) ** 2, axis=1)))


def jittered_polygon(n, radius, jitter, rng):
    """A randomly rotated latitude polygon with jittered angles and radii."""
    ang = 2.0 * np.pi * (np.arange(n) + jitter * rng.uniform(-0.5, 0.5, n)) / n
    rho = radius * (1.0 + 0.3 * jitter * rng.uniform(-1.0, 1.0, n))
    nodes = np.stack([np.sin(rho) * np.cos(ang), np.sin(rho) * np.sin(ang),
                      np.cos(rho)], axis=1)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return nodes @ rot.T


@st.composite
def jittered_polygons(draw, sizes=(8, 300), jitters=(0.0, 0.9)):
    n = draw(st.integers(*sizes))
    radius = draw(st.floats(0.2, 1.4))
    jitter = draw(st.floats(*jitters))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return jittered_polygon(n, radius, jitter, rng)


@settings(max_examples=200)
@given(jittered_polygons(), st.booleans())
def test_chord_kernel_matches_reference(nodes, closed):
    curve = ClosedSphereCurve(nodes) if closed else SphereArc(nodes)
    nodes = np.array(curve.nodes)
    # the entries the flat kernel leaves in end columns must stay finite
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        ws = _Workspace(curve)
        ws.curvature()
        assert np.array_equal(2.0 * ws.kv_half.T, _kvec_reference(nodes, closed))
        assert np.array_equal(2.0 * ws.half, _edges_reference(nodes, closed))
        assert np.array_equal(2.0 * ws.half, curve.edge_lengths())
        # the trial's chords, measured in place, feed the next curvature
        length = ws.trial(float(ws.half.min()) ** 2)
        trial = ws.nxt.nodes.T.copy()
        assert np.array_equal(2.0 * ws.spare_half, _edges_reference(trial, closed))
        assert length == float(np.add.reduce(_edges_reference(trial, closed)))
        ws.accept()
        ws.curvature()
        assert np.array_equal(2.0 * ws.kv_half.T, _kvec_reference(trial, closed))


@pytest.mark.parametrize("kwargs, field", [
    (dict(dt=0.0), "dt"),
    (dict(snapshot_dt=-1.0), "snapshot_dt"),
    (dict(target_spacing=0.5), "target_spacing"),
    (dict(remesh_every=0), "remesh_every"),
    (dict(max_time=-0.1), "max_time"),
    (dict(max_time=np.nan), "max_time"),
    (dict(max_time=np.inf), "max_time"),
    (dict(dt=np.nan), "dt"),
    (dict(target_spacing=np.nan), "target_spacing"),
    (dict(max_time="x"), "max_time"),
    (dict(dt=True), "dt"),
    (dict(target_spacing="x"), "target_spacing"),
    (dict(remesh_every=20.0), "remesh_every"),
    (dict(remesh_every=np.nan), "remesh_every"),
    (dict(dt=None), "dt"),
    # below 1e-9 the landing test would hold after every step
    (dict(snapshot_dt=2e-13), "snapshot_dt"),
])
def test_config_validation_names_field(kwargs, field):
    with pytest.raises(ConfigInvalid) as exc:
        FlowConfig(**kwargs)
    assert field in str(exc.value)


def test_config_is_frozen():
    cfg = FlowConfig()
    with pytest.raises(Exception):
        cfg.dt = 1.0


def test_circle_oracle_formula():
    assert abs(circle_oracle(np.pi / 3, 0.0) - np.pi / 3) < 1e-12
    t = 0.4
    assert abs(circle_oracle(np.pi / 3, t)
               - np.arccos(np.cos(np.pi / 3) * np.exp(t))) < 1e-12
    assert circle_oracle(0.5, 1.0) == 0.0  # past extinction


def test_extinction_time_formula():
    assert abs(circle_extinction_time(np.pi / 3) - np.log(2.0)) < 1e-12
    assert abs(circle_extinction_time(0.5) - np.log(1 / np.cos(0.5))) < 1e-12


def test_barrier_oracle():
    assert abs(barrier_radius_oracle(0.2, 0.1)
               - np.arcsin(np.sin(0.2) * np.exp(0.1))) < 1e-12
    # once sin(R) e^t >= 1 the band covers the sphere: the halfwidth saturates
    assert barrier_radius_oracle(1.0, 1.0) == np.pi / 2
    assert barrier_radius_oracle(0.5, 0.8) == np.pi / 2


def test_shrinking_circle_tracks_oracle():
    cfg = FlowConfig(dt=2e-4, snapshot_dt=2e-2, max_time=0.2)
    traj = evolve_closed(circle_curve(np.pi / 3, n=128), cfg)
    assert traj.terminal_status == "reached_max_time"
    for s in traj.snapshots:
        exact = circle_oracle(np.pi / 3, s.t)
        measured = float(np.arccos(np.clip(s.curve.nodes @ Z, -1, 1)).mean())
        assert abs(measured - exact) / exact < CIRCLE_REL_TOL


def test_small_circle_goes_extinct_on_time():
    cfg = FlowConfig(dt=1e-4, snapshot_dt=5e-3, max_time=0.5, target_spacing=0.02,
                     remesh_every=20)
    traj = evolve_closed(circle_curve(0.5, n=160), cfg)
    assert traj.terminal_status == "extinct"
    assert abs(traj.final().t - circle_extinction_time(0.5)) < EXTINCTION_TOL


@pytest.mark.parametrize("spacing, tol", [(0.03, 2e-3), (0.06, 5e-3)])
def test_remeshed_circle_dies_on_time(spacing, tol):
    # c02's run at coarser spacings, about 7,000 steps each. A resample that
    # kept its nodes on chords, with no push, cut area at every remesh and
    # died 1.42e-2 and 3.16e-2 early (relative); pushed, it dies 8.5e-4 and
    # 2.2e-3 late. Remeshing whenever the node count moved took 141 and 80
    # remeshes in 6,956 and 6,966 steps; keeping the mean edge within sqrt(1.1)
    # of the spacing takes 22 and 22
    cfg = FlowConfig(dt=1e-4, snapshot_dt=1e-2, target_spacing=spacing, remesh_every=20)
    traj = evolve_closed(circle_curve(np.pi / 3, n=512), cfg)
    exact = circle_extinction_time(np.pi / 3)
    assert traj.terminal_status == "extinct"
    assert abs(traj.final().t - exact) / exact <= tol
    assert traj.stats.remeshes <= 30
    assert traj.stats.accepted_steps <= 1.01 * {0.03: 6956, 0.06: 6966}[spacing]


@pytest.mark.parametrize("curve, n", [(circle_curve(np.pi / 3, n=64), 40),
                                      (perturbed_latitude(1.0, 0.18, 4, n=256), 90)])
def test_remesh_restores_the_area_resampling_cuts(curve, n):
    # measured: the resample cuts 4.8e-3 and 1.3e-3, the push leaves 4.9e-6 and 3.1e-6
    area = integrals(curve).enclosed_area
    cut = integrals(resample(curve, n=n)).enclosed_area - area
    left = integrals(flow._remesh(curve, n)).enclosed_area - area
    assert abs(left) <= 1e-2 * abs(cut)
    arc = SphereArc(curve.nodes)  # an arc is resampled only
    assert np.array_equal(flow._remesh(arc, n).nodes, resample(arc, n=n).nodes)


def test_shrinking_circle_follows_its_starting_spacing():
    # no target_spacing: a remesh check goes back to the first mean edge once the
    # mean edge is 1.5 times shorter; on its 256 starting nodes this run took
    # 40,270 steps. It takes 4,171 at CFL_FACTOR 0.35 (5,824 at 0.25)
    cfg = FlowConfig(snapshot_dt=1e-2, max_time=0.5)
    traj = evolve_closed(circle_curve(0.6, n=256), cfg)
    assert traj.terminal_status == "extinct"
    assert traj.stats.remeshes >= 1 and traj.stats.final_n < 256
    assert traj.stats.accepted_steps <= 4171 * 1.02


@pytest.mark.parametrize("closed, h0, want", [
    (True, 0.0149, 100), (True, 0.0151, 66), (False, 0.0149, 101), (False, 0.0151, 67)])
def test_follow_rule_compares_mean_edges(closed, h0, want):
    # 100 edges of mean 0.01: 101 nodes for an arc, 100 for a closed curve
    n = 100 + (not closed)
    assert flow._target_n(1.0, n, FlowConfig(), closed, h0) == want


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("shift, edges", [(1e-12, 100), (-1e-12, 91)])
def test_spacing_band_compares_mean_edges(closed, shift, edges):
    # target_spacing s: 100 edges of mean s / sqrt(1.1) + shift stay, and below
    # it they become round(100 / 1.1) = 91 edges of about s * sqrt(1.1); h0 is
    # not read
    s, u = 0.02, math.sqrt(flow.REMESH_UNIFORMITY)
    n = 100 + (not closed)
    length = 100 * (s / u + shift)
    got = flow._target_n(length, n, FlowConfig(target_spacing=s), closed, h0=1.0)
    assert got == edges + (not closed)


def test_evolution_is_deterministic():
    cfg = FlowConfig(dt=2e-4, snapshot_dt=2e-2, max_time=0.1)
    t1 = evolve_closed(circle_curve(np.pi / 3, n=128), cfg)
    t2 = evolve_closed(circle_curve(np.pi / 3, n=128), cfg)
    assert len(t1.snapshots) == len(t2.snapshots)
    for a, b in zip(t1.snapshots, t2.snapshots):
        assert a.t == b.t
        assert np.array_equal(a.curve.nodes, b.curve.nodes)


@settings(max_examples=10)
@given(st.floats(1.0, 1.6), st.floats(0.02, 0.15), st.integers(2, 5))
def test_length_decreases(radius, amp, mode):
    cfg = FlowConfig(dt=2e-4, snapshot_dt=5e-3, max_time=0.03)
    traj = evolve_closed(perturbed_latitude(radius, amp, mode, n=128), cfg)
    lengths = traj.lengths
    assert np.all(np.diff(lengths) < 0.0)


def test_snapshot_fields():
    cfg = FlowConfig(dt=2e-4, snapshot_dt=2e-2, max_time=0.05)
    c = circle_curve(0.9, n=128)
    s = evolve_closed(c, cfg).final()
    assert s.bending >= 0.0
    assert s.enclosed_area is not None
    assert s.total_curvature > 0
    # reversing orientation flips the signed total curvature and swaps the
    # enclosed region for its complement
    rev = evolve_closed(ClosedSphereCurve(c.nodes[::-1]), cfg).final()
    assert abs(rev.total_curvature + s.total_curvature) < 1e-9
    assert abs(rev.enclosed_area + s.enclosed_area - 4.0 * np.pi) < 1e-9


@pytest.mark.parametrize("closed", [True, False])
def test_snapshot_zero_is_the_validated_curve(closed):
    # validating its nodes again would divide them by their norms once more,
    # which moves most polygons by an ulp
    curve = perturbed_latitude(1.1, 0.12, 5, n=128) if closed else wavy_arc()
    cfg = FlowConfig(dt=1e-4, snapshot_dt=1e-3, max_time=1e-3)
    traj = (evolve_closed if closed else evolve_arc)(curve, cfg)
    assert traj.snapshots[0].curve is curve


def test_arc_endpoints_pinned():
    arc = wavy_arc()
    cfg = FlowConfig(dt=1e-4, snapshot_dt=1e-3, max_time=0.05)
    traj = evolve_arc(arc, cfg)
    for s in traj.snapshots:
        assert np.array_equal(s.curve.nodes[0], arc.nodes[0])
        assert np.array_equal(s.curve.nodes[-1], arc.nodes[-1])
    assert s.enclosed_area is None
    assert traj.lengths[-1] < traj.lengths[0]


@pytest.mark.parametrize("closed", [True, False])
def test_snapshots_own_their_nodes(closed):
    # both shrink past the spacing band in 0.02: 1 and 4 remeshes
    curve = circle_curve(0.4, n=64) if closed else SphereArc(circle_curve(0.3, n=64).nodes)
    before = np.array(curve.nodes)
    cfg = FlowConfig(dt=1e-4, snapshot_dt=2e-3, max_time=0.02, target_spacing=0.02,
                     remesh_every=5)
    traj = (evolve_closed if closed else evolve_arc)(curve, cfg)
    assert traj.stats.remeshes > 0
    for s in traj.snapshots:
        nodes = s.curve.nodes
        assert nodes.shape == (s.curve.n, 3)
        assert nodes.flags.c_contiguous and not nodes.flags.writeable
        # owning its memory, it shares none with the step buffers or the caller
        assert nodes.base is None
        # the edge lengths validation measured, not a buffer the stepper wrote since
        edges = s.curve.edge_lengths()
        assert not edges.flags.writeable
        assert np.array_equal(edges, wrapped_edges(wrapped(nodes, closed), closed))
    assert np.array_equal(curve.nodes, before) and not curve.nodes.flags.writeable


def test_one_edge_pass_per_validated_mesh(monkeypatch):
    # wrapped_edges measures every edge a curve is validated with; the initial
    # mesh (which is snapshot 0), each later snapshot and each closed remesh's
    # old, resampled and pushed mesh get one pass each
    curve = circle_curve(0.4, n=64)
    calls = []

    def counted(ext, closed):
        calls.append(len(ext))
        return wrapped_edges(ext, closed)

    monkeypatch.setattr(curves, "wrapped_edges", counted)
    cfg = FlowConfig(dt=1e-4, snapshot_dt=2e-3, max_time=0.02, target_spacing=0.02,
                     remesh_every=5)
    traj = evolve_closed(curve, cfg)
    assert traj.stats.remeshes > 0 and len(traj.snapshots) > 2
    assert len(calls) == len(traj.snapshots) + 3 * traj.stats.remeshes


class _FadingCFL(float):
    """flow.CFL_FACTOR (as imported) for the first `steps` step sizes, then 1e-20."""

    FACTOR = flow.CFL_FACTOR

    def __new__(cls, steps):
        factor = super().__new__(cls, cls.FACTOR)
        factor.steps = steps
        return factor

    def __mul__(self, other):
        self.steps -= 1
        return (float(self) if self.steps >= 0 else 1e-20) * other


def test_cfl_step_below_floor_stalls(monkeypatch):
    cfg = FlowConfig(dt=1e-4, snapshot_dt=1e-3, max_time=0.01)
    curve = circle_curve(0.9, n=128)
    full = evolve_closed(curve, cfg)
    monkeypatch.setattr(flow, "CFL_FACTOR", 1e-20)
    at_once = evolve_closed(curve, cfg)
    assert at_once.terminal_status == "stalled"
    assert len(at_once.snapshots) == 1
    assert (at_once.stats.accepted_steps, at_once.stats.min_dt) == (0, np.inf)
    # report.json gets null, not Infinity
    assert json.loads(json.dumps(at_once.stats.to_json(), allow_nan=False))["min_dt"] is None
    # stalling mid-run keeps every snapshot taken and adds the stalled state
    monkeypatch.setattr(flow, "CFL_FACTOR", _FadingCFL(25))
    traj = evolve_closed(curve, cfg)
    assert traj.terminal_status == "stalled"
    assert traj.stats.accepted_steps == 25
    assert np.allclose(traj.times, [0.0, 1e-3, 2e-3, 2.5e-3], rtol=0, atol=1e-12)
    for a, b in zip(traj.snapshots[:3], full.snapshots):
        assert a.t == b.t and np.array_equal(a.curve.nodes, b.curve.nodes)


# CFL_FACTOR is 70% of the chord scheme's stability limit dt = 0.5 h^2, where the
# factor 1 - 4 dt / h^2 of the top mode reaches -1: past it trials are rejected
# (the pi/3 circle at n = 512 reaches t = 0.02 at 0.55, and ends singular after
# 160 steps at 0.56).
@pytest.mark.parametrize("make, max_time, every", [
    (lambda: circle_curve(np.pi / 3, n=512), 0.02, 20),
    (lambda: koch_like(3), 5e-3, 10 ** 9),
    (lambda: koch_like(4), 2e-3, 10 ** 9),
    (lambda: perturbed_latitude(1.1, 0.12, 5, n=512), 0.02, 20),
], ids=["circle", "koch3", "koch4", "perturbed"])
def test_cfl_steps_are_never_rejected(make, max_time, every):
    cfg = FlowConfig(dt=1e-4, snapshot_dt=max_time, max_time=max_time,
                     remesh_every=every)
    traj = evolve_closed(make(), cfg)
    assert traj.terminal_status == "reached_max_time"
    assert traj.stats.rejected_trials == 0
    # the CFL bound, not the dt cap, sized the steps on the shortest edges
    assert flow.CFL_FACTOR * traj.stats.min_edge ** 2 < cfg.dt


def test_cfl_factor_past_the_limit_rejects_trials(monkeypatch):
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.02, max_time=0.02)
    for factor, status, rejected, steps in [(0.5, "reached_max_time", 0, 357),
                                            (0.6, "singularity", 1, 100)]:
        monkeypatch.setattr(flow, "CFL_FACTOR", factor)
        traj = evolve_closed(circle_curve(np.pi / 3, n=512), cfg)
        assert traj.terminal_status == status
        assert (traj.stats.rejected_trials, traj.stats.accepted_steps) == (rejected, steps)


@pytest.mark.parametrize("n, max_time", [(64, 0.2), (128, 0.6), (64, 0.0105)])
def test_runs_land_on_snapshot_and_end_times(n, max_time):
    # sums of 1e-4 steps drift off k * snapshot_dt (by 5.2e-14 at n = 128 by
    # t = 0.6); every snapshot and the end land on their times exactly
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.002, max_time=max_time)
    traj = evolve_closed(circle_curve(np.pi / 3, n=n), cfg)
    assert traj.terminal_status == "reached_max_time"
    k = np.arange(len(traj.snapshots) - 1)
    assert traj.times.tolist() == (k * 0.002).tolist() + [max_time]


def _failing_trials(monkeypatch, nan):
    """Make _Workspace.trial return NaN on the trials numbered in `nan` (from 0);
    returns the list of every trial's dt."""
    trial, dts = _Workspace.trial, []

    def failing(ws, dt):
        dts.append(dt)
        return math.nan if len(dts) - 1 in nan else trial(ws, dt)

    monkeypatch.setattr(_Workspace, "trial", failing)
    return dts


def test_a_rejected_trial_is_a_singularity(monkeypatch):
    # the CFL step is stable, so a trial that fails is not retried at a shorter dt
    curve, cfg = circle_curve(0.9, n=64), FlowConfig(dt=1e-4, snapshot_dt=1e-3, max_time=3e-3)
    full = evolve_closed(curve, cfg)
    dts = _failing_trials(monkeypatch, range(25, 10 ** 6))  # all after 25 steps of 1e-4
    traj = evolve_closed(curve, cfg)
    assert traj.terminal_status == "singularity"
    assert len(dts) == 26
    assert (traj.stats.accepted_steps, traj.stats.rejected_trials) == (25, 1)
    # the snapshots taken are kept, and the state the run ended in is added
    assert traj.times.tolist() == [0.0, 1e-3, 2e-3, traj.snapshots[-1].t]
    assert abs(traj.snapshots[-1].t - 2.5e-3) < 1e-15
    for a, b in zip(traj.snapshots[:3], full.snapshots):
        assert a.t == b.t and np.array_equal(a.curve.nodes, b.curve.nodes)


def test_time_to_enter_cap_contract():
    arc = wavy_arc()
    cfg = FlowConfig(dt=1e-4, snapshot_dt=1e-3, max_time=0.05)
    traj = evolve_arc(arc, cfg)
    assert time_to_enter_cap(traj, X, 1.0) == 0.0  # already inside
    with pytest.raises(NeverEnters):
        time_to_enter_cap(traj, -X, 0.3)
    coarse = evolve_arc(arc, FlowConfig(dt=1e-4, snapshot_dt=2e-2, max_time=0.05))
    with pytest.raises(DomainError):
        time_to_enter_cap(coarse, X, 1.0)


def test_straightening_experiment_smoke():
    w = leafable_wiggle()
    cfg = FlowConfig(dt=1e-4, snapshot_dt=1e-2, max_time=0.06)
    from spherecsf import GreatCircle
    res = straightening_experiment(w, GreatCircle(Z), barrier_halfwidth=0.05,
                                   alignment=0.1, cfg=cfg)
    assert res.containment_ok
    assert res.first_aligned_time is not None
    assert res.deviations[-1] < res.deviations[0]


# ---------------------------------------------------------------------------
# RKL2 super-steps where the mesh, not the curve, limits the step


def _super_step_tries(monkeypatch):
    """The stage count of every super-step the stepper tries, as it tries them."""
    tries, step = [], _Workspace.super_step

    def recorded(ws, tau, s):
        tries.append(s)
        return step(ws, tau, s)

    monkeypatch.setattr(_Workspace, "super_step", recorded)
    return tries


@pytest.mark.parametrize("make, cfg", [
    (lambda: circle_curve(np.pi / 3, n=512),
     FlowConfig(dt=1e-4, snapshot_dt=0.01, target_spacing=0.0106, remesh_every=20)),
], ids=["c02-circle"])
def test_curvature_guard_keeps_curved_runs_explicit(monkeypatch, make, cfg):
    # c02's circle near extinction has edges short enough for super-steps, but
    # its curvature changes faster than a super-step. Unguarded, it tries 5 near
    # extinction, each of which lengthens it and is dropped: 75 stages are wasted
    # (17,865 evaluations in 17,790 steps)
    tries = _super_step_tries(monkeypatch)
    guarded = evolve_closed(make(), cfg)
    assert not tries and guarded.stats.evaluations == guarded.stats.accepted_steps
    monkeypatch.setattr(flow, "RKL2_CURVATURE_GUARD", math.inf)
    unguarded = evolve_closed(make(), cfg)
    assert tries and unguarded.stats.evaluations > guarded.stats.evaluations


def test_even_edges_keep_the_finest_koch_mesh_explicit(monkeypatch):
    # c14's finest Koch mesh, run to t = 0.05, keeps its shortest edge at 4.26e-3
    # or more (9.0e-3 at the start), where its CFL step is still above dt / 16: it
    # tries no super-step, guarded or not, and takes 2,336 steps. Where edges
    # drift apart (the chord form), only the guard kept it explicit: unguarded it
    # took 3,888 evaluations in 3,872 steps
    tries = _super_step_tries(monkeypatch)
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.01, max_time=0.05)
    for guard in (flow.RKL2_CURVATURE_GUARD, math.inf):
        monkeypatch.setattr(flow, "RKL2_CURVATURE_GUARD", guard)
        traj = evolve_closed(koch_like(4), cfg)
        assert 16.0 * flow.CFL_FACTOR * traj.stats.min_edge ** 2 > cfg.dt
        assert traj.stats.evaluations == traj.stats.accepted_steps == 2336
    assert not tries


def test_needle_edge_caps_the_stages_of_a_trial(monkeypatch):
    # a 1e-6 edge along a wide circle's edge, where the curvature is small: its
    # CFL step 3.5e-13 would need about 34,000 stages to reach dt = 1e-4
    nodes = circle_curve(1.4, n=200).nodes
    chord = nodes[1] - nodes[0]
    needle = nodes[0] + 1e-6 * chord / np.linalg.norm(chord)
    nodes = np.insert(nodes, 1, needle / np.linalg.norm(needle), axis=0)
    tries = _super_step_tries(monkeypatch)
    traj = evolve_closed(ClosedSphereCurve(nodes),
                         FlowConfig(dt=1e-4, snapshot_dt=1e-2, max_time=2e-9))
    assert traj.terminal_status == "reached_max_time"
    assert max(tries) == flow.RKL2_MAX_STAGES
    assert traj.stats.evaluations <= flow.RKL2_MAX_STAGES * traj.stats.accepted_steps


def _spoiled(fault):
    """A super-step whose result reads as `fault`: a stage that is not finite, a
    longer curve, or an end mesh whose shortest edge needs 100 times the stages."""
    step = _Workspace.super_step

    def spoiled(ws, tau, s):
        length, done = step(ws, tau, s)
        if fault == "end-mesh-collapses":
            ws.spare_half[0] = 1e-2 * ws.spare_half.min()
        return {"stage-not-finite": math.nan, "length-grows": length + 1.0}.get(
            fault, length), done
    return spoiled


@pytest.mark.parametrize("fault", ["stage-not-finite", "length-grows", "end-mesh-collapses"])
def test_a_rejected_super_step_leaves_the_explicit_step(monkeypatch, fault):
    # every super-step is spoiled: the run takes the explicit steps of a run with
    # super-steps off, bit for bit, and counts the stages it wasted
    curve, cfg = circle_curve(np.pi / 3, n=2048), FlowConfig(dt=1e-4, max_time=4e-4)
    monkeypatch.setattr(flow, "RKL2_CURVATURE_GUARD", 0.0)
    explicit = evolve_closed(curve, cfg)
    monkeypatch.setattr(flow, "RKL2_CURVATURE_GUARD", 0.05)
    monkeypatch.setattr(_Workspace, "super_step", _spoiled(fault))
    rejected = evolve_closed(curve, cfg)
    assert explicit.stats.accepted_steps == rejected.stats.accepted_steps > 100
    assert rejected.stats.evaluations > explicit.stats.evaluations
    assert explicit.stats.evaluations == explicit.stats.accepted_steps
    for a, b in zip(explicit.snapshots, rejected.snapshots, strict=True):
        assert a.t == b.t and np.array_equal(a.curve.nodes, b.curve.nodes)


def _fixed_super_steps(curve, t_end, steps):
    """The nodes after `steps` super-steps of t_end / steps, each in the stages
    that reach it at the CFL step of its starting mesh (at most RKL2_MAX_STAGES,
    so that a mesh the scheme collapses fails instead of looping)."""
    ws, tau = _Workspace(curve), t_end / steps
    for _ in range(steps):
        ws.curvature()
        s = flow._stages(tau, flow.CFL_FACTOR * (2.0 * ws.half.min()) ** 2)
        assert s <= flow.RKL2_MAX_STAGES
        ws.super_step(tau, s)
        ws.accept()
    return ws.cur.nodes.T.copy()


def test_super_steps_are_second_order_and_beat_the_explicit_run(monkeypatch):
    # c04's curve at n = 2048 to t = 0.004 on a fixed mesh, against 400 fixed
    # super-steps (their gap to 200 of them, 1.1e-9, is about 3 times their own
    # error, as 800 of them show: second order).
    # Measured: 551 evaluations at 3.8e-8 (dt = 1e-4) and 800 at 9.4e-9 (5e-5),
    # order 2.02; the explicit run's 1,840 steps err by 6.0e-7
    curve, t_end = perturbed_latitude(1.1, 0.12, 5, n=2048), 0.004
    reference = _fixed_super_steps(curve, t_end, 400)
    assert np.abs(_fixed_super_steps(curve, t_end, 200) - reference).max() < 1e-8

    def run(dt):
        cfg = FlowConfig(dt=dt, snapshot_dt=t_end, max_time=t_end, remesh_every=10 ** 9)
        traj = evolve_closed(curve, cfg)
        err = float(np.linalg.norm(traj.final().curve.nodes - reference, axis=1).max())
        return err, traj.stats

    (coarse, stats), (fine, _) = run(1e-4), run(5e-5)
    monkeypatch.setattr(flow, "RKL2_CURVATURE_GUARD", 0.0)
    explicit, explicit_stats = run(1e-4)
    assert explicit_stats.evaluations == explicit_stats.accepted_steps
    assert stats.evaluations < explicit_stats.evaluations / 3
    assert coarse < explicit / 10
    assert 1.8 <= math.log2(coarse / fine) <= 2.2
