"""Curvature flow of sphere curves: explicit stepping, snapshots, closed-form oracles.

Nodes move by p <- normalize(p + dt * k), k the discrete geodesic-curvature vector.
The effective step obeys dt <= 0.25 * (min edge)^2 and lands exactly on snapshot
times; steps that produce NaNs or increase length are retried with halved dt. A run
whose CFL step falls below DT_FLOOR, or whose mesh fails curve validation where a
snapshot or remesh is due (it is neither), ends as stalled unless it was singular.

The loop steps a _Workspace, built from the initial mesh's curve and again from
each remesh's: it copies the edge lengths the curve's validation measured. It
holds the nodes, component-major in two (3, w) buffers (w = n + 2 for a closed
curve, padded as curves.wrapped pads rows; w = n for an arc), every other array a
step writes and every view a step reads, so a step is about 30 numpy calls that
allocate nothing. Differences and products take whole (3, w) arrays flat, one call
on contiguous memory each; what they leave in end columns mixes two rows, stays
finite and reaches no node (pads are copied over it, an arc's end curvature is
zeroed). A trial and its edges go into the spare buffer and edge array, which swap
in when it is accepted; the remesh uniformity ratio uses the edges of the mesh the
step started from. Each per-node dot product sums the rows of a (3, w) array in the
order numpy sums a length-3 row, and every other operation is elementwise and in
the same order, so the results are bit-identical to the (n, 3) form the tests keep
as their reference. Everything outside the loop sees (n, 3) C-contiguous nodes.
A snapshot or a remesh validates the workspace's nodes once, from a view of its
buffer, and then reads the edge lengths that validation measured.
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
from .curves import (ClosedSphereCurve, SphereArc, SphereCurve, c1_deviation,
                     integrals, nodes_for_spacing, resample, wrapped)
from .sphere import GreatCircle, as_point, geodesic_distance

CFL_FACTOR = 0.25
# A step may not increase length by more than this before it is retried.
LENGTH_BACKSTOP = 1e-12
# A rejected step is retried with dt halved, at most this many times.
MAX_DT_HALVINGS = 8
# A remesh check resamples when the longest edge exceeds the shortest by this ratio.
REMESH_UNIFORMITY = 1.1
# The smallest step: landing steps are raised to it, and a run whose CFL step falls
# below it has stalled (an arccos-measured edge under about 1.5e-8 reads 0).
DT_FLOOR = 1e-16

# FlowConfig's count fields; every other field is a real number.
_COUNT_FIELDS = ("remesh_every",)

STATUS_EXTINCT = "extinct"
STATUS_MAX_TIME = "reached_max_time"
STATUS_SINGULARITY = "singularity"
STATUS_STALLED = "stalled"


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-4
    snapshot_dt: float = 1e-2
    max_time: Optional[float] = None
    extinction_length: float = 1e-2
    target_spacing: Optional[float] = None
    remesh_every: int = 20

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            count = f.name in _COUNT_FIELDS
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if count else numbers.Real):
                raise ConfigInvalid(f"{f.name} must be "
                                    f"{'an integer' if count else 'a real number'}, "
                                    f"got {value!r}")
        if not (0.0 < self.dt <= 1.0):
            raise ConfigInvalid(f"dt must be in (0, 1], got {self.dt!r}")
        # 1000 times the landing tolerance, so snapshot times cannot fall behind t
        if not (1e-9 <= self.snapshot_dt <= 1.0):
            raise ConfigInvalid(f"snapshot_dt must be in [1e-9, 1], got {self.snapshot_dt!r}")
        if self.max_time is not None and not (0.0 < self.max_time < math.inf):
            raise ConfigInvalid(
                f"max_time must be positive and finite, got {self.max_time!r}")
        if not (0.0 < self.extinction_length < math.inf):
            raise ConfigInvalid(f"extinction_length must be positive and finite, "
                                f"got {self.extinction_length!r}")
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
    rejected_trials: int  # each one halved dt
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


def _target_n(length: float, curve_n: int, cfg: FlowConfig, closed: bool) -> int:
    if cfg.target_spacing is not None:
        return nodes_for_spacing(length, cfg.target_spacing, closed)
    return curve_n


# The step's constant operands: numpy takes 0-d float64 arrays faster than floats.
_ONE, _TWO, _MINUS_ONE = np.array(1.0), np.array(2.0), np.array(-1.0)


def _dot(a, b, prod, out):
    """np.add.reduce(a * b, axis=0), in order, into out; prod = (array, *its rows)."""
    ab, r0, r1, r2 = prod
    np.multiply(a, b, ab)
    np.add(r0, r1, out)
    return np.add(out, r2, out)


# The views of one (3, w) node buffer b: b flat and its flat successors and
# predecessors, its interior and node columns, and pads (0, w - 1) with sources.
_Views = namedtuple("_Views", "flat ahead behind inner nodes pads wraps")


class _Workspace:
    """The step's arrays and views for one mesh (module docstring). With u_j the
    unit chord from column j to column j + 1 and c_j its length, the node v between
    chords j - 1 and j gets the curvature vector 2 (w - v <w, v>) / (c_j + c_{j-1}),
    where w = u_j - u_{j-1}."""

    def __init__(self, curve: SphereCurve):
        closed = curve.closed
        # what trial() computes for these nodes; a copy, as the spare array is written
        self.e = np.array(curve.edge_lengths())
        self.spare_e = np.empty_like(self.e)
        ext = wrapped(curve.nodes, closed).T.copy()
        n, w, k = curve.n, ext.shape[1], int(closed)
        cols = slice(1, -1) if closed else slice(None)
        def views(b):
            f = b.reshape(-1)
            return _Views(f, f[1:], f[:-1], b[:, 1:-1], b[:, cols], b[:, ::w - 1],
                          b[:, w - 2:0:-(w - 3)])
        self.closed, self.n = closed, n
        self.cur, self.nxt = views(ext), views(np.empty_like(ext))
        # chords (j in column j), curvature and _dot's products; what no step writes is 0
        d, kv, kn, dd, tt, pq = np.zeros((6, 3, w))
        self.d, self.d_chords = d.reshape(-1), d[:, :-1]
        self.d_ahead, self.d_behind = self.d[1:], self.d[:-1]
        self.kf, self.k_ahead, self.kv, self.k_inner, self.k_ends = (
            kv.reshape(-1), kv.reshape(-1)[1:], kv[:, cols], kv[:, 1:-1], kv[:, ::w - 1])
        self.kn, self.kn_inner = (kn.reshape(-1), *kn[:, 1:-1]), kn[:, 1:-1]
        self.dd, self.tt = (dd.reshape(-1), *dd[:, :-1]), (tt.reshape(-1), *tt[:, cols])
        self.pq = (pq.reshape(-1)[:-1], *pq[:, k:-1])
        self.c, self.c2, self.dot, self.norm = (np.empty(m) for m in (w - 1, w - 2, w - 2, n))
        self.c_ahead, self.c_behind = self.c[1:], self.c[:-1]

    def curvature(self):
        """The current nodes' curvature vectors, into kv."""
        v, d, c, kf, k = self.cur, self.d, self.c, self.kf, self.k_inner
        np.subtract(v.ahead, v.behind, self.d_behind)
        np.sqrt(_dot(d, d, self.dd, c), c)
        np.divide(self.d_chords, c, self.d_chords)
        np.subtract(self.d_ahead, self.d_behind, self.k_ahead)
        np.multiply(v.inner, _dot(kf, v.flat, self.kn, self.dot), self.kn_inner)
        np.subtract(kf, self.kn[0], kf)
        np.multiply(kf, _TWO, kf)
        np.divide(k, np.add(self.c_behind, self.c_ahead, self.c2), k)
        if not self.closed:
            np.copyto(self.k_ends, 0.0)

    def trial(self, dt: float) -> float:
        """Move the current nodes by dt along kv into the spare buffer, its edge
        lengths into spare_e, and return its length."""
        nxt = self.nxt
        np.multiply(self.kf, dt, nxt.flat)
        np.add(nxt.flat, self.cur.flat, nxt.flat)
        norm = _dot(nxt.flat, nxt.flat, self.tt, self.norm)
        np.divide(nxt.nodes, np.sqrt(norm, norm), nxt.nodes)
        if self.closed:
            np.copyto(nxt.pads, nxt.wraps)
        e = _dot(nxt.behind, nxt.ahead, self.pq, self.spare_e)  # geodesic_distance
        np.maximum(e, _MINUS_ONE, out=e)
        np.minimum(e, _ONE, out=e)
        return float(np.add.reduce(np.arccos(e, e)))

    def accept(self) -> np.ndarray:
        """Swap in the trial; return the edges of the mesh the step started from."""
        self.cur, self.nxt = self.nxt, self.cur
        self.e, self.spare_e = self.spare_e, self.e
        return self.spare_e


def _evolve(curve: SphereCurve, cfg: FlowConfig) -> FlowTrajectory:
    closed = curve.closed
    if not closed and cfg.max_time is None:
        raise ConfigInvalid("max_time is required when evolving an arc")
    curve = _initial_mesh(curve, cfg)
    ws = _Workspace(curve)
    t = 0.0
    snaps = [_snapshot(0.0, curve.with_nodes(curve.nodes))]
    length = snaps[0].length
    status = None
    next_snap = cfg.snapshot_dt
    since_remesh = accepted = rejected = remeshes = 0
    min_dt, max_dt, min_edge = math.inf, 0.0, math.inf

    def snapshot() -> bool:  # unless the mesh fails validation (an edge reads 0)
        try:
            snaps.append(_snapshot(t, curve.with_nodes(ws.cur.nodes.T)))
        except DomainError:
            return False
        return True

    while True:
        min_e = float(np.minimum.reduce(ws.e))
        min_edge = min(min_edge, min_e)
        if length < cfg.extinction_length and closed:
            status = STATUS_EXTINCT
            break
        if cfg.max_time is not None and t >= cfg.max_time - 1e-13:
            status = STATUS_MAX_TIME
            break

        dt = min(cfg.dt, CFL_FACTOR * min_e ** 2)
        if dt < DT_FLOOR:
            status = STATUS_STALLED
            break
        if cfg.max_time is not None:
            dt = min(dt, cfg.max_time - t)
        dt = min(dt, next_snap - t)
        dt = max(dt, DT_FLOOR)

        ws.curvature()
        for _ in range(MAX_DT_HALVINGS + 1):
            new_len = ws.trial(dt)
            if math.isfinite(new_len) and new_len <= length + LENGTH_BACKSTOP:
                break
            rejected += 1
            dt *= 0.5
        else:
            status = STATUS_SINGULARITY
            break

        start_e, length = ws.accept(), new_len
        t += dt
        accepted += 1
        min_dt = min(min_dt, dt)
        max_dt = max(max_dt, dt)
        since_remesh += 1

        if t >= next_snap - 1e-12:
            if not snapshot():
                status = STATUS_STALLED
                break
            next_snap += cfg.snapshot_dt

        if since_remesh >= cfg.remesh_every:
            since_remesh = 0
            want = _target_n(length, ws.n, cfg, closed)
            ratio = float(start_e.max() / start_e.min())
            if want != ws.n or ratio >= REMESH_UNIFORMITY:
                try:  # a mesh that fails validation is not remeshed, as not snapshotted
                    ws = _Workspace(resample(curve.with_nodes(ws.cur.nodes.T), n=want))
                except DomainError:
                    status = STATUS_STALLED
                    break
                length = float(np.add.reduce(ws.e))
                remeshes += 1

    if snaps[-1].t < t - 1e-12 or len(snaps) == 1 and t > 0:
        if not snapshot() and status != STATUS_SINGULARITY:
            status = STATUS_STALLED
    stats = FlowStats(accepted_steps=accepted, rejected_trials=rejected,
                      remeshes=remeshes, min_dt=min_dt, max_dt=max_dt,
                      min_edge=min_edge, final_n=ws.n)
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
    """Halfwidth at time t of the widening band barrier B_{R_t}(g)."""
    if not (0.0 < halfwidth < np.pi / 2.0):
        raise DomainError(f"band halfwidth must be in (0, pi/2), got {halfwidth!r}")
    u = np.sin(halfwidth) * np.exp(t)
    if u > 1.0:
        raise DomainError(f"band barrier saturates before t = {t!r}")
    return float(np.arcsin(u))


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
