"""Curvature flow of sphere curves: explicit stepping, snapshots, closed-form oracles.

Nodes move by p <- normalize(p + dt * k), k the discrete geodesic-curvature vector.
The effective step obeys dt <= 0.25 * (min edge)^2 and lands exactly on snapshot
times; steps that produce NaNs or increase length are retried with halved dt.

Each step makes one pass over the chords (curves.chord_curvature) and evaluates
the edge lengths once, on the trial; the accepted trial's edges are the next
step's CFL input. The remesh uniformity ratio uses the edges of the mesh the
step started from, and a remesh recomputes the edges from the new mesh.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import (AntipodalEndpoints, ConfigInvalid, DomainError, NeverEnters,
                     ParamDomain)
from .curves import (ClosedSphereCurve, SphereArc, SphereCurve, chord_curvature,
                     integrals, nodes_for_spacing, resample, wrapped, wrapped_edges)
from .sphere import GreatCircle, as_point, geodesic_distance

CFL_FACTOR = 0.25
# A step may not increase length by more than this before it is retried.
LENGTH_BACKSTOP = 1e-12

# FlowConfig's count fields; every other field is a real number.
_COUNT_FIELDS = ("target_nodes", "remesh_every", "max_dt_halvings")

STATUS_EXTINCT = "extinct"
STATUS_MAX_TIME = "reached_max_time"
STATUS_SINGULARITY = "singularity"


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-4
    snapshot_dt: float = 1e-2
    max_time: Optional[float] = None
    extinction_length: float = 1e-2
    target_nodes: Optional[int] = None
    target_spacing: Optional[float] = None
    remesh_every: int = 20
    remesh_uniformity: float = 1.1
    max_dt_halvings: int = 8

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
        if not (0.0 < self.snapshot_dt <= 1.0):
            raise ConfigInvalid(f"snapshot_dt must be in (0, 1], got {self.snapshot_dt!r}")
        if self.max_time is not None and not (0.0 < self.max_time < math.inf):
            raise ConfigInvalid(
                f"max_time must be positive and finite, got {self.max_time!r}")
        if not (0.0 < self.extinction_length < math.inf):
            raise ConfigInvalid(f"extinction_length must be positive and finite, "
                                f"got {self.extinction_length!r}")
        if self.target_nodes is not None and self.target_nodes < 32:
            raise ConfigInvalid(f"target_nodes must be >= 32, got {self.target_nodes!r}")
        if self.target_spacing is not None and not (0.0 < self.target_spacing < 0.5):
            raise ConfigInvalid(
                f"target_spacing must be in (0, 0.5), got {self.target_spacing!r}")
        if self.target_nodes is not None and self.target_spacing is not None:
            raise ConfigInvalid("target_nodes and target_spacing are mutually exclusive")
        if self.remesh_every < 1:
            raise ConfigInvalid(f"remesh_every must be >= 1, got {self.remesh_every!r}")
        if not (1.0 < self.remesh_uniformity < math.inf):
            raise ConfigInvalid(f"remesh_uniformity must exceed 1 and be finite, "
                                f"got {self.remesh_uniformity!r}")
        if not (0 <= self.max_dt_halvings <= 40):
            raise ConfigInvalid(
                f"max_dt_halvings must be in [0, 40], got {self.max_dt_halvings!r}")


@dataclass(frozen=True)
class Snapshot:
    t: float
    curve: SphereCurve
    length: float
    total_curvature: float
    bending: float
    enclosed_area: Optional[float]


@dataclass(frozen=True)
class FlowTrajectory:
    snapshots: list
    terminal_status: str
    config: FlowConfig

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
    if cfg.target_nodes is not None and curve.n != cfg.target_nodes:
        return resample(curve, n=cfg.target_nodes)
    if cfg.target_spacing is not None:
        return resample(curve, spacing=cfg.target_spacing)
    return curve


def _target_n(length: float, curve_n: int, cfg: FlowConfig, closed: bool) -> int:
    if cfg.target_spacing is not None:
        return nodes_for_spacing(length, cfg.target_spacing, closed)
    if cfg.target_nodes is not None:
        return cfg.target_nodes
    return curve_n


def _evolve(curve: SphereCurve, cfg: FlowConfig) -> FlowTrajectory:
    closed = curve.closed
    if not closed and cfg.max_time is None:
        raise ConfigInvalid("max_time is required when evolving an arc")
    curve = _initial_mesh(curve, cfg)
    nodes = np.array(curve.nodes)
    ext = wrapped(nodes, closed)
    e = wrapped_edges(ext, closed)
    t = 0.0
    snaps = [_snapshot(0.0, curve.with_nodes(nodes))]
    length = snaps[0].length
    status = None
    next_snap = cfg.snapshot_dt
    since_remesh = 0

    while True:
        if length < cfg.extinction_length and closed:
            status = STATUS_EXTINCT
            break
        if cfg.max_time is not None and t >= cfg.max_time - 1e-13:
            status = STATUS_MAX_TIME
            break

        dt = min(cfg.dt, CFL_FACTOR * float(np.minimum.reduce(e)) ** 2)
        if cfg.max_time is not None:
            dt = min(dt, cfg.max_time - t)
        dt = min(dt, next_snap - t)
        dt = max(dt, 1e-16)

        kv = chord_curvature(ext, closed)
        accepted = False
        for _ in range(cfg.max_dt_halvings + 1):
            trial = dt * kv
            trial += nodes
            trial /= np.sqrt(np.add.reduce(trial * trial, axis=1, keepdims=True))
            trial_ext = wrapped(trial, closed)
            trial_e = wrapped_edges(trial_ext, closed)
            new_len = float(np.add.reduce(trial_e))
            if math.isfinite(new_len) and new_len <= length + LENGTH_BACKSTOP:
                accepted = True
                break
            dt *= 0.5
        if not accepted:
            status = STATUS_SINGULARITY
            break

        start_e = e
        nodes, ext, e, length = trial, trial_ext, trial_e, new_len
        t += dt
        since_remesh += 1

        if t >= next_snap - 1e-12:
            snaps.append(_snapshot(t, curve.with_nodes(nodes)))
            next_snap += cfg.snapshot_dt

        if since_remesh >= cfg.remesh_every:
            since_remesh = 0
            want = _target_n(length, len(nodes), cfg, closed)
            ratio = float(start_e.max() / start_e.min())
            if want != len(nodes) or ratio >= cfg.remesh_uniformity:
                cur = curve.with_nodes(nodes)
                cur = resample(cur, n=want)
                nodes = np.array(cur.nodes)
                ext = wrapped(nodes, closed)
                e = wrapped_edges(ext, closed)
                length = float(np.add.reduce(e))

    if snaps[-1].t < t - 1e-12 or len(snaps) == 1 and t > 0:
        snaps.append(_snapshot(t, curve.with_nodes(nodes)))
    return FlowTrajectory(snapshots=snaps, terminal_status=status, config=cfg)


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
    extreme wedge leaves through `vertex`, and it dives into the cap of radius
    closeness * cap_radius around the antipode of `vertex`.
    """

    circle: GreatCircle
    band_halfwidth: float
    cap_radius: float = 1.3
    closeness: float = 0.25
    vertex: Optional[np.ndarray] = None

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
        v = self.circle.point(0.0) if self.vertex is None else as_point(self.vertex)
        if abs(float(v @ self.circle.pole)) > 1e-9:
            raise ParamDomain("vertex must lie on the circle")
        object.__setattr__(self, "vertex", v)
        self.vertex.flags.writeable = False

    @property
    def floor(self) -> float:
        return (1.0 + self.closeness) * self.band_halfwidth

    @property
    def ceiling(self) -> float:
        return 2.0 * self.band_halfwidth


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
    from .curves import c1_deviation  # local import keeps module deps one-way

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
