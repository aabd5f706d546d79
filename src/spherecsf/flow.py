"""Curvature flow of sphere curves: explicit and RKL2 steps, snapshots, closed-form oracles.

An explicit step moves nodes by p <- normalize(p + dt * k), k the discrete
geodesic-curvature vector, with dt <= c = CFL_FACTOR * (min edge)^2. Where dt and the
next landing are 16 c away or more, it gives way to an RKL2 super-step (_super_size),
unless a stage is not finite, the length grows or the end mesh needs more stages: then
the explicit step is taken instead, and the next step is sized afresh. Each stage counts
towards remesh_every. Steps land exactly on the snapshot times k * snapshot_dt and on
max_time. An explicit step that produces NaNs or increases length ends the run as
singularity: the step is stable (_Workspace), so no shorter one is tried. A remesh
resamples an uneven mesh, or one whose mean edge left its band (_target_n); a closed
curve's resample, whose nodes lie on its old edges, is then pushed once along its left
normals to give back the area its chords cut (_remesh). A run whose step would fall
below DT_FLOOR, or whose mesh fails validation where a snapshot or remesh is due (it is
neither), ends as stalled unless it was singular. Snapshot 0 is the (validated)
initial mesh itself.

The loop steps a _Workspace, built from the initial mesh's curve and again from each
remesh's. It holds the nodes, component-major in three (3, w) buffers (w = n + 2 for
a closed curve, padded as curves.wrapped pads rows; w = n for an arc), every other
array a step writes and every view a step reads, so an explicit step is 20 numpy
calls and a stage 26 (27 on an arc), none of which allocates: the curvature is kept
as kv = k - v, the nodes' second difference over their mean squared chord, which
renormalisation projects and which keeps the edges even (_Workspace). Edges come from
chords, as in curves.wrapped_edges: edge j is 2 asin(c_j / 2) of its chord length c_j.
A trial measures its chords once, for its length, and the next step's curvature
divides by their squares. Differences and products take whole (3, w) arrays flat, one
call on contiguous memory each; what they leave in end columns mixes two rows, stays
finite and reaches no node (pads are copied over it, an arc's end curvature is
zeroed). A trial and its half edges go into the spare buffer and array, which swap in
when it is accepted (a super-step's stages take turns in the spare and third
buffers); the remesh uniformity ratio uses the edges of the mesh the step started
from. Each per-node dot product sums the rows of a (3, w) array in the order numpy
sums a length-3 row, and every other operation is elementwise and in the same order,
so the results are bit-identical to the (n, 3) form the tests keep as their
reference. Everything outside the loop sees (n, 3) C-contiguous nodes. A snapshot or
a remesh validates the workspace's nodes once, from a view of its buffer, and then
reads the edge lengths that validation measured.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import (AntipodalEndpoints, ConfigInvalid, DomainError, NeverEnters,
                     ParamDomain)
from .curves import (ClosedSphereCurve, SphereArc, SphereCurve, _normal_push, c1_deviation,
                     integrals, nodes_for_spacing, resample, turning_angles, wrapped)
from .sphere import GreatCircle, as_point, geodesic_distance

CFL_FACTOR = 0.35  # 70% of the limit 0.5, where the top mode's 1 - 4 dt / h^2 is -1
# A step may not increase length by more than this: a super-step that does is
# dropped, an explicit step that does ends the run as singular.
LENGTH_BACKSTOP = 1e-12
# A closed curve shorter than this is extinct.
EXTINCTION_LENGTH = 1e-2
# A remesh check resamples when the longest edge exceeds the shortest by this ratio U,
# or to spacing s * sqrt(U) once the mean edge is below s / sqrt(U), s target_spacing;
REMESH_UNIFORMITY = 1.1
# with none, to the starting mean edge h0 once the mean edge is below h0 / REMESH_FOLLOW.
REMESH_FOLLOW = 1.5
# No CFL step is tried below this: the run stalls (lengths read noise).
DT_FLOOR = 1e-16
# A step that would end within this fraction of itself (or within DT_FLOOR) of
# the next snapshot time or max_time ends on it instead, so no shorter step is
# left to take before it.
LANDING_SLACK = 1e-6
RKL2_CURVATURE_GUARD = 0.05  # an RKL2 super-step is at most this / max |k|^2
RKL2_MAX_STAGES = 64  # and takes at most this many stages

# FlowConfig's count fields; every other field is a real number.
_COUNT_FIELDS = ("remesh_every",)

STATUS_EXTINCT = "extinct"
STATUS_MAX_TIME = "reached_max_time"
STATUS_SINGULARITY = "singularity"
STATUS_STALLED = "stalled"


def _is_number(value, count: bool) -> bool:
    """The one rule for numeric settings: a count is an integer, a real is any
    real number, and a bool is neither."""
    return not isinstance(value, bool) and isinstance(
        value, numbers.Integral if count else numbers.Real)


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-4
    snapshot_dt: float = 1e-2
    max_time: Optional[float] = None
    target_spacing: Optional[float] = None
    remesh_every: int = 20

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            count = f.name in _COUNT_FIELDS
            if not _is_number(value, count):
                raise ConfigInvalid(f"{f.name} must be "
                                    f"{'an integer' if count else 'a real number'}, "
                                    f"got {value!r}")
        if not (0.0 < self.dt <= 1.0):
            raise ConfigInvalid(f"dt must be in (0, 1], got {self.dt!r}")
        # below it every step would be a landing step, capped near DT_FLOOR
        if not (1e-9 <= self.snapshot_dt <= 1.0):
            raise ConfigInvalid(f"snapshot_dt must be in [1e-9, 1], got {self.snapshot_dt!r}")
        if self.max_time is not None and not (0.0 < self.max_time < math.inf):
            raise ConfigInvalid(
                f"max_time must be positive and finite, got {self.max_time!r}")
        if self.target_spacing is not None and not (0.0 < self.target_spacing < 0.5):
            raise ConfigInvalid(
                f"target_spacing must be in (0, 0.5), got {self.target_spacing!r}")
        if self.remesh_every < 1:
            raise ConfigInvalid(f"remesh_every must be >= 1, got {self.remesh_every!r}")


@dataclass(frozen=True)
class Snapshot:
    t: float
    curve: SphereCurve
    length: float
    total_curvature: float
    bending: float
    enclosed_area: Optional[float]


@dataclass(frozen=True)
class FlowStats:
    """What a run did, as deterministic counters."""

    accepted_steps: int
    evaluations: int  # of curvature: one per explicit step, s per super-step
    rejected_trials: int  # 0, or 1 for the explicit trial that ended a singular run
    remeshes: int
    min_dt: float  # smallest accepted step; inf when none was accepted
    max_dt: float  # largest accepted step; 0 when none was accepted
    min_edge: float  # shortest edge of any mesh a step was sized on
    final_n: int  # nodes of the mesh the run ended on

    def to_json(self) -> dict:
        """The counters as plain JSON values: min_dt is None when no step was
        accepted."""
        return {**asdict(self), "min_dt": self.min_dt if self.accepted_steps else None}


@dataclass(frozen=True)
class FlowTrajectory:
    snapshots: list
    terminal_status: str
    stats: FlowStats

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    @property
    def lengths(self) -> np.ndarray:
        return np.array([s.length for s in self.snapshots])

    def final(self) -> Snapshot:
        return self.snapshots[-1]


def _snapshot(t: float, curve: SphereCurve) -> Snapshot:
    # integrals, not diagnostics: flow may legitimately coarsen to 8 nodes near extinction
    d = integrals(curve)
    return Snapshot(t=float(t), curve=curve, length=d.length,
                    total_curvature=d.total_curvature, bending=d.bending,
                    enclosed_area=d.enclosed_area)


def _initial_mesh(curve: SphereCurve, cfg: FlowConfig) -> SphereCurve:
    if cfg.target_spacing is not None:
        return resample(curve, spacing=cfg.target_spacing)
    return curve


def _remesh(curve: SphereCurve, n: int) -> SphereCurve:
    """curve resampled to n nodes. A closed curve's resample has its nodes on
    the old edges, and its chords change its left area A = 2 pi - sum(turning)
    (a convex curve loses area); it is then pushed once along its left normals
    by s = (A_resampled - A) / L, L the resampled length, which restores A to
    first order: a push by s changes A by about -s L."""
    new = resample(curve, n=n)
    if not curve.closed:
        return new
    # A_resampled - A, in which the 2 pi cancels
    s = (float(turning_angles(curve).sum()) - float(turning_angles(new).sum())) / new.length()
    return new.with_nodes(_normal_push(new, s))


def _target_n(length: float, curve_n: int, cfg: FlowConfig, closed: bool, h0: float) -> int:
    """curve_n, or the node count for spacing top once the mean edge is below bottom."""
    s, u = cfg.target_spacing, math.sqrt(REMESH_UNIFORMITY)
    top, bottom = (h0, h0 / REMESH_FOLLOW) if s is None else (s * u, s / u)
    shrunk = length / (curve_n - 1 + closed) < bottom
    return nodes_for_spacing(length, top, closed) if shrunk else curve_n


# The step's constant operand: numpy takes 0-d float64 arrays faster than floats.
_HALF = np.array(0.5)


def _dot(a, b, prod, out):
    """np.add.reduce(a * b, axis=0), in order, into out; prod = (array, *its rows)."""
    ab, r0, r1, r2 = prod
    np.multiply(a, b, ab)
    np.add(r0, r1, out)
    return np.add(out, r2, out)


# The views of one (3, w) node buffer b: b flat and its flat successors and
# predecessors, its node columns, and pads (0, w - 1) with sources.
_Views = namedtuple("_Views", "flat ahead behind nodes pads wraps")


class _Workspace:
    """The step's arrays and views for one mesh (module docstring). With d_j the
    chord from column j to column j + 1 and c_j = |d_j|, the node v between chords
    j - 1 and j has kv = (d_j - d_{j-1}) / q_j, q_j = (c_j^2 + c_{j-1}^2) / 2: the
    simplest tangential redistribution of Mikula & Sevcovic 2001, which keeps edges
    even. On a unit v, <d_j, v> = -c_j^2 / 2 and <d_{j-1}, v> = c_{j-1}^2 / 2, so
    <kv, v> = -1, k = kv + v, normalize(v + dt k) = normalize(v + dt / (1 + dt) kv)
    and |k|^2 = |kv|^2 - 1. The workspace keeps kv / 2 and doubles the scalars that
    multiply it (exactly). Row j of v -> kv has -2 / q_j on its diagonal and 1 / q_j
    off it, so by Gershgorin its spectrum lies in [-4 / q_j, 0], q_j >= c_min^2:
    explicit Euler is stable for dt <= c_min^2 / 2, which CFL_FACTOR h_min^2 meets for
    edges below 2 (h <= 1.19 c). Edge j is 2 asin(c_j / 2), as curves.wrapped_edges
    measures it; the workspace keeps the half edges asin(c_j / 2), in node order."""

    def __init__(self, curve: SphereCurve):
        closed = curve.closed
        ext = wrapped(curve.nodes, closed).T.copy()
        n, w, k = curve.n, ext.shape[1], int(closed)
        cols = slice(1, -1) if closed else slice(None)
        def views(b):
            f = b.reshape(-1)
            return _Views(f, f[1:], f[:-1], b[:, cols], b[:, ::w - 1], b[:, w - 2:0:-(w - 3)])
        self.closed, self.n = closed, n
        self.cur, self.nxt, self.third = (views(b) for b in (ext, *np.empty((2, *ext.shape))))
        # chords (j in column j), kv / 2 and _dot's products; what no step writes is 0
        d, kv, dd, tt = np.zeros((4, 3, w))
        self.d = d.reshape(-1)
        self.d_ahead, self.d_behind = self.d[1:], self.d[:-1]
        self.kf, self.k_ahead, self.kv_half, self.k_inner, self.k_ends = (
            kv.reshape(-1), kv.reshape(-1)[1:], kv[:, cols], kv[:, 1:-1], kv[:, ::w - 1])
        self.dd, self.tt = (dd.reshape(-1), *dd[:, :-1]), (tt.reshape(-1), *tt[:, cols])
        self.c2, self.h, self.q2, self.norm = (np.empty(m) for m in (w - 1, w - 1, w - 2, n))
        self.c2_ahead, self.c2_behind, self.h_edges = self.c2[1:], self.c2[:-1], self.h[k:]
        self.half, self.spare_half = np.empty((2, n - 1 + k))
        self.k0 = np.empty(3 * w)  # a super-step's starting kv / 2
        self.chords(self.cur, self.half)

    def chords(self, v, half) -> float:
        """The chords of the nodes in v into d, their squares into c2 and halves
        into h, their half edges into half, and the length."""
        np.subtract(v.ahead, v.behind, self.d_behind)
        np.sqrt(_dot(self.d, self.d, self.dd, self.c2), self.h)
        np.multiply(self.h, _HALF, self.h)
        return 2.0 * float(np.add.reduce(np.arcsin(self.h_edges, half)))

    def curvature(self):
        """The current nodes' kv / 2 = (d_j - d_{j-1}) / (c_j^2 + c_{j-1}^2), from
        the chords that the last chords() call measured on them."""
        np.subtract(self.d_ahead, self.d_behind, self.k_ahead)
        np.divide(self.k_inner, np.add(self.c2_behind, self.c2_ahead, self.q2), self.k_inner)
        if not self.closed:
            np.copyto(self.k_ends, 0.0)

    def trial(self, dt: float) -> float:
        """Move the current nodes by dt along kv + v into the spare buffer, its
        chords and half edges into d, c2, h and spare_half, and return its length."""
        nxt = self.nxt
        np.multiply(self.kf, 2.0 * dt / (1.0 + dt), nxt.flat)
        np.add(nxt.flat, self.cur.flat, nxt.flat)
        norm = _dot(nxt.flat, nxt.flat, self.tt, self.norm)
        np.divide(nxt.nodes, np.sqrt(norm, norm), nxt.nodes)
        if self.closed:
            np.copyto(nxt.pads, nxt.wraps)
        return self.chords(nxt, self.spare_half)

    def super_step(self, tau: float, s: int):
        """An RKL2 super-step (Meyer, Balsara & Aslam 2014) of length tau in s
        stages into the spare buffer, as trial() leaves a step: stage 1 is
        trial(w tau / 3), w = 4 / (s^2 + s - 2), each later one is renormalised
        (an arc's ends kept, k's v folded into prev's and start's coefficients),
        and k0 keeps the start's kv / 2. Stops after the first stage whose length is
        not finite; returns (length, stages run)."""
        start, spare, tmp, k0 = self.cur, self.third, self.tt[0], self.k0
        np.copyto(k0, self.kf)
        w = 4.0 / (s * s + s - 2)
        b = [1.0 / 3.0] * 2 + [(j * j + j - 2) / (2 * j * (j + 1)) for j in range(2, s + 1)]
        length, j, prev, older = self.trial(w * tau / 3.0), 1, self.nxt, start
        while j < s and math.isfinite(length):
            j += 1
            self.cur = prev
            self.curvature()
            out = spare if older is start else older
            mu, nu = (2 * j - 1) / j * b[j] / b[j - 1], -(j - 1) / j * b[j] / b[j - 2]
            mt, g = w * mu * tau, -(1.0 - b[j - 1]) * w * mu * tau
            f = np.multiply(older.flat, nu, out.flat)
            for y, a in ((prev.flat, mu + mt), (start.flat, 1.0 - mu - nu + g),
                         (self.kf, 2.0 * mt), (k0, 2.0 * g)):
                np.add(f, np.multiply(y, a, tmp), f)
            norm = _dot(f, f, self.tt, self.norm)
            np.divide(out.nodes, np.sqrt(norm, norm), out.nodes)
            np.copyto(out.pads, out.wraps if self.closed else start.pads)
            length, prev, older = self.chords(out, self.spare_half), out, prev
        self.cur, self.nxt, self.third = start, prev, spare if older is start else older
        return length, j

    def accept(self) -> np.ndarray:
        """Swap in the trial; return the half edges of the mesh the step started from."""
        self.cur, self.nxt = self.nxt, self.cur
        self.half, self.spare_half = self.spare_half, self.half
        return self.spare_half


def _snapshot_time(k: int, cfg: FlowConfig) -> float:
    """The k-th snapshot time k * snapshot_dt, or max_time where it rounds to
    within 1e-12 of it."""
    s = k * cfg.snapshot_dt
    if cfg.max_time is not None and abs(s - cfg.max_time) <= 1e-12 * cfg.max_time:
        return cfg.max_time
    return s


def _reach(s: int, step: float) -> float:
    """The longest super-step that s stages keep stable where `step` is stable."""
    return (s * s + s - 2) / 4 * step


def _stages(tau: float, step: float) -> int:
    """The least s >= 2 with _reach(s, step) >= tau."""
    s = max(2, math.ceil(math.sqrt(4.0 * tau / step + 2.25) - 0.5))
    return s if _reach(s, step) >= tau else s + 1


def _super_size(ws: _Workspace, c: float, cfg: FlowConfig, gap: float):
    """(tau, s) of this step's RKL2 super-step: tau = min(dt, RKL2_CURVATURE_GUARD
    / max |k|^2, what RKL2_MAX_STAGES stages reach), or gap where it lands, in the
    least s stages stable at c = CFL_FACTOR * h_min^2; (0, 0) unless s <= tau / (2 c),
    half the explicit steps or fewer. gap is the time to the next landing."""
    k2 = 4.0 * float(np.maximum.reduce(_dot(ws.kf, ws.kf, ws.tt, ws.norm))) - 1.0  # max |k|^2
    tau = min(cfg.dt, _reach(RKL2_MAX_STAGES, c), RKL2_CURVATURE_GUARD / max(k2, 1e-300))
    if gap <= tau + max(LANDING_SLACK * tau, DT_FLOOR):
        tau = gap
    s = _stages(tau, c)
    return (tau, s) if s <= min(RKL2_MAX_STAGES, tau / (2.0 * c)) else (0.0, 0)


def _evolve(curve: SphereCurve, cfg: FlowConfig) -> FlowTrajectory:
    closed = curve.closed
    if not closed and cfg.max_time is None:
        raise ConfigInvalid("max_time is required when evolving an arc")
    curve = _initial_mesh(curve, cfg)
    ws = _Workspace(curve)
    t = 0.0
    snaps = [_snapshot(0.0, curve)]
    length = snaps[0].length
    h0 = length / (curve.n - 1 + closed)  # the starting mean edge
    status = None
    end = math.inf if cfg.max_time is None else cfg.max_time
    landed = 1
    next_snap = _snapshot_time(landed, cfg)
    since_remesh = accepted = evaluations = remeshes = 0
    min_dt, max_dt, min_edge = math.inf, 0.0, math.inf

    def snapshot() -> bool:  # unless the mesh fails validation (an edge below EDGE_MIN)
        try:
            snaps.append(_snapshot(t, curve.with_nodes(ws.cur.nodes.T)))
        except DomainError:
            return False
        return True

    while True:
        min_e = 2.0 * float(np.minimum.reduce(ws.half))
        min_edge = min(min_edge, min_e)
        if length < EXTINCTION_LENGTH and closed:
            status = STATUS_EXTINCT
            break
        if t >= end:
            status = STATUS_MAX_TIME
            break

        c = CFL_FACTOR * min_e ** 2
        dt = min(cfg.dt, c)
        target = min(next_snap, end)
        lands = target - t <= dt + max(LANDING_SLACK * dt, DT_FLOOR)
        if lands:
            dt = target - t

        ws.curvature()
        s = 0
        # no step is tried below DT_FLOOR, and s <= tau / (2 c) holds for no tau
        # below 16 c: the sizing, which reads the curvature, is skipped there
        if DT_FLOOR <= c and 16.0 * c <= min(cfg.dt, target - t):
            tau, s = _super_size(ws, c, cfg, target - t)
        if s:  # dropped where a stage or the length is off, or the end mesh needs more stages
            new_len, done = ws.super_step(tau, s)
            evaluations += done - 1
            h_end = 2.0 * float(np.minimum.reduce(ws.spare_half))
            if (math.isfinite(new_len) and new_len <= length + LENGTH_BACKSTOP
                    and _reach(s, 0.5 * h_end ** 2) >= tau):
                dt, lands = tau, tau == target - t
            else:
                s = 0
                np.copyto(ws.kf, ws.k0)
        if not s:
            if dt < DT_FLOOR:
                status = STATUS_STALLED
                break
            new_len = ws.trial(dt)
            if not (math.isfinite(new_len) and new_len <= length + LENGTH_BACKSTOP):
                status = STATUS_SINGULARITY
                break

        start_half, length = ws.accept(), new_len
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
            want = _target_n(length, ws.n, cfg, closed, h0)
            ratio = float(start_half.max() / start_half.min())
            if want != ws.n or ratio >= REMESH_UNIFORMITY:
                try:  # a mesh that fails validation is not remeshed, as not snapshotted
                    ws = _Workspace(_remesh(curve.with_nodes(ws.cur.nodes.T), want))
                except DomainError:
                    status = STATUS_STALLED
                    break
                length = 2.0 * float(np.add.reduce(ws.half))
                remeshes += 1

    if snaps[-1].t < t:
        if not snapshot() and status != STATUS_SINGULARITY:
            status = STATUS_STALLED
    stats = FlowStats(accepted_steps=accepted, evaluations=evaluations,
                      rejected_trials=int(status == STATUS_SINGULARITY), remeshes=remeshes,
                      min_dt=min_dt, max_dt=max_dt, min_edge=min_edge, final_n=ws.n)
    return FlowTrajectory(snapshots=snaps, terminal_status=status, stats=stats)


def evolve_closed(curve: ClosedSphereCurve, cfg: FlowConfig) -> FlowTrajectory:
    if not curve.closed:
        raise DomainError("evolve_closed needs a closed curve")
    return _evolve(curve, cfg)


def evolve_arc(arc: SphereArc, cfg: FlowConfig) -> FlowTrajectory:
    """Fixed-endpoint flow; interior nodes move, endpoints are pinned."""
    if arc.closed:
        raise DomainError("evolve_arc needs an open arc")
    ends = geodesic_distance(arc.nodes[0], arc.nodes[-1])
    if ends > np.pi - 1e-6:
        raise AntipodalEndpoints("arc endpoints are antipodal; chord limit undefined")
    return _evolve(arc, cfg)


# ---------------------------------------------------------------------------
# closed-form laws for circles and widening bands


def circle_extinction_time(r0: float) -> float:
    """ln sec r0: collapse time of a circle of radius r0 in (0, pi/2)."""
    if not (0.0 < r0 < np.pi / 2.0):
        raise DomainError(f"circle radius must be in (0, pi/2), got {r0!r}")
    return float(-np.log(np.cos(r0)))


def circle_oracle(r0: float, t: float) -> float:
    """Radius at time t of a shrinking circle, 0 at and past extinction."""
    if not (0.0 < r0 < np.pi / 2.0):
        raise DomainError(f"circle radius must be in (0, pi/2), got {r0!r}")
    u = np.cos(r0) * np.exp(t)
    if u >= 1.0:
        return 0.0
    return float(np.arccos(u))


def barrier_radius_oracle(halfwidth: float, t: float) -> float:
    """Halfwidth at time t of the widening band barrier B_{R_t}(g),
    arcsin(sin(halfwidth) e^t): pi/2 once the band covers the sphere."""
    if not (0.0 < halfwidth < np.pi / 2.0):
        raise DomainError(f"band halfwidth must be in (0, pi/2), got {halfwidth!r}")
    return float(np.arcsin(min(1.0, np.sin(halfwidth) * np.exp(t))))


def time_to_enter_cap(traj: FlowTrajectory, center, radius: float) -> float:
    """First time the whole curve is inside B_radius(center), by linear
    interpolation between snapshots. Needs snapshot gap <= 1e-3."""
    center = as_point(center, "cap center")
    times = traj.times
    if len(times) < 2:
        raise DomainError("trajectory has fewer than two snapshots")
    gaps = np.diff(times)
    if gaps.max() > 1e-3 + 1e-9:
        raise DomainError(
            f"time_to_enter_cap needs snapshot gap <= 1e-3, got {gaps.max():.3e}")
    reach = np.array([float(geodesic_distance(s.curve.nodes, center).max())
                      for s in traj.snapshots])
    inside = reach <= radius
    if not inside.any():
        raise NeverEnters(f"curve never enters the {radius!r}-cap")
    k = int(np.argmax(inside))
    if k == 0:
        return 0.0
    d0, d1 = reach[k - 1], reach[k]
    f = (d0 - radius) / max(d0 - d1, 1e-300)
    return float(times[k - 1] + f * (times[k] - times[k - 1]))


# ---------------------------------------------------------------------------
# hairpin-arc scenario configuration


@dataclass(frozen=True)
class DirichletArcSpec:
    """Parameters for the fixed-endpoint hairpin scenario in a band around a circle.

    The arc lives in B_{2*band_halfwidth}(circle), its endpoints sit on the two
    extreme wedge leaves through `vertex` = circle.point(0), and it dives into
    the cap of radius closeness * cap_radius around -`vertex`.
    """

    circle: GreatCircle
    band_halfwidth: float
    cap_radius: float = 1.3
    closeness: float = 0.25

    def __post_init__(self):
        r, c, a = self.band_halfwidth, self.cap_radius, self.closeness
        if not (0.0 < r < np.pi / 4.0):
            raise ParamDomain(f"band_halfwidth must be in (0, pi/4), got {r!r}")
        if not (0.0 < c < np.pi / 2.0):
            raise ParamDomain(f"cap_radius must be in (0, pi/2), got {c!r}")
        if not (0.0 < a < 1.0):
            raise ParamDomain(f"closeness must be in (0, 1), got {a!r}")
        if 2.0 * r >= a * c:
            raise ParamDomain(
                f"need 2*band_halfwidth < closeness*cap_radius, got {2 * r!r} >= {a * c!r}")

    @property
    def vertex(self) -> np.ndarray:
        return self.circle.point(0.0)

    @property
    def floor(self) -> float:
        return (1.0 + self.closeness) * self.band_halfwidth


@dataclass(frozen=True)
class StraighteningResult:
    times: np.ndarray
    deviations: np.ndarray
    max_heights: np.ndarray
    barrier_heights: np.ndarray
    containment_ok: bool
    first_aligned_time: Optional[float]
    trajectory: FlowTrajectory = field(repr=False)


def straightening_experiment(curve: ClosedSphereCurve, g: GreatCircle,
                             barrier_halfwidth: float, alignment: float,
                             cfg: FlowConfig) -> StraighteningResult:
    """Evolve a band-confined closed curve and track its latitude alignment.

    Reports the deviation series, the widening-band containment check (slack
    1e-3), and the first snapshot time with deviation <= alignment.
    """
    traj = evolve_closed(curve, cfg)
    times = traj.times
    devs = np.array([c1_deviation(s.curve, g) for s in traj.snapshots])
    heights = np.array([float(np.abs(g.band_coordinate(s.curve.nodes)).max())
                        for s in traj.snapshots])
    barrier = np.array([barrier_radius_oracle(barrier_halfwidth, t) for t in times])
    contained = bool(np.all(heights <= barrier + 1e-3))
    aligned = np.nonzero(devs <= alignment)[0]
    first = float(times[aligned[0]]) if len(aligned) else None
    return StraighteningResult(
        times=times,
        deviations=devs,
        max_heights=heights,
        barrier_heights=barrier,
        containment_ok=contained,
        first_aligned_time=first,
        trajectory=traj,
    )
