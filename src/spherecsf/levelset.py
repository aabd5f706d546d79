"""Annulus states, offset approximations, the shrinking sandwich, and long-term
classification of weak evolutions.

An annulus is tracked through the areas of its two complementary caps: each
boundary is oriented so the region to its LEFT is its off-annulus side, so the
annulus area is 4*pi minus the two enclosed (left) areas. Under the flow the
region's area obeys d(mu)/dt = mu - 2*pi*k, k the boundaries already extinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DomainError, ExtinctionBeforeEnd, NotEmbedded,
                     OffsetCollision)
from .curves import (ClosedSphereCurve, _check_positive, _hausdorff_exceeds, _normal_push,
                     curve_distance, curves_cross, edge_ends, hausdorff_distance,
                     integrals, resample, self_intersects, wrapped)
from .flow import (STATUS_EXTINCT, FlowConfig, _is_number, barrier_radius_oracle,
                   evolve_closed)
from .sphere import as_point

AREA_FLOOR = 1e-2          # a sandwich area below this counts as no area
AREA_STABLE_FRACTION = 0.25
TRICHOTOMY_AREA_TOL = 1e-2  # complement-area slack around 2*pi and final-area floor
SMOOTHING_MAX_PASSES = 60

VERDICT_MEASURE_ZERO = "MeasureZeroCurve"
VERDICT_POSITIVE_AREA = "PositiveAreaAnnulus"
VERDICT_INCONCLUSIVE = "Inconclusive"
VERDICT_EXTINCT = "ExtinctFiniteTime"
VERDICT_HEMISPHERE = "HemisphereLimit"
VERDICT_WHOLE_SPHERE = "WholeSphere"


def _point_in_left(curve: ClosedSphereCurve, p) -> bool:
    """True when p lies in the region to the left of the travel direction.

    Each edge (a, b) adds half the signed area of the triangle from -p over
    (b, a), in the closed form of Van Oosterom and Strackee (1983). With A the
    enclosed (left) area, in (0, 4*pi), the halves sum to (4*pi - A) / 2 when
    p is on the left and to -A / 2 when it is on the right.
    """
    p = as_point(p)
    if curve_distance(p, curve)[0] <= 1e-9:
        raise DomainError("side undefined: the point lies on the curve")
    a, b = edge_ends(wrapped(curve.nodes, True), True)
    return bool(np.add.reduce(np.arctan2(np.vecdot(np.cross(a, b), p),
                                         1.0 + np.vecdot(a, b) - (a + b) @ p)) > 0.0)


def enclosed_left_area(curve: ClosedSphereCurve) -> float:
    """Area of the region to the left of travel (curves.integrals)."""
    return integrals(curve).enclosed_area


@dataclass(frozen=True)
class AnnulusState:
    alpha: ClosedSphereCurve
    beta: ClosedSphereCurve
    area: float

    @property
    def complement_areas(self) -> tuple:
        return (enclosed_left_area(self.alpha), enclosed_left_area(self.beta))


def make_annulus(alpha: ClosedSphereCurve, beta: ClosedSphereCurve) -> AnnulusState:
    """Orient both boundaries with their off-annulus side on the left and
    compute the enclosed annulus area. Boundaries that meet, crossing,
    coincident or within 1e-9 of each other, raise NotEmbedded."""
    if curves_cross(alpha, beta):
        raise NotEmbedded("annulus boundaries intersect")
    try:
        if _point_in_left(alpha, beta.nodes[0]):
            alpha = alpha.with_nodes(alpha.nodes[::-1])
        if _point_in_left(beta, alpha.nodes[0]):
            beta = beta.with_nodes(beta.nodes[::-1])
    except DomainError:  # a node of one boundary lies on the other
        raise NotEmbedded("annulus boundaries touch: they lie within 1e-9 of each other") from None
    area = 4.0 * np.pi - enclosed_left_area(alpha) - enclosed_left_area(beta)
    if area <= 0.0:
        raise DomainError("boundaries do not bound a positive-area annulus")
    return AnnulusState(alpha=alpha, beta=beta, area=float(area))


# ---------------------------------------------------------------------------
# offsets


def offset_curve(curve: ClosedSphereCurve, eps: float, side: int) -> ClosedSphereCurve:
    """Node-normal offset by eps to the left (side=+1) or right (side=-1),
    Laplacian-smoothed until embedded. Raises OffsetCollision if smoothing
    cannot exhibit an embedded offset within Hausdorff 2*eps of the curve."""
    if not (0.0 < eps < np.pi / 4.0):
        raise DomainError(f"offset must be in (0, pi/4), got {eps!r}")
    if side not in (-1, 1):
        raise DomainError("side must be +1 (left) or -1 (right)")
    q = _normal_push(curve, side * eps)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    for _ in range(SMOOTHING_MAX_PASSES):
        if not self_intersects(q, closed=True):
            break
        ext = wrapped(q, True)
        q = q + 0.25 * (ext[2:] + ext[:-2] - 2.0 * q)
        q /= np.linalg.norm(q, axis=1, keepdims=True)
    else:
        raise OffsetCollision(f"offset {eps!r} on side {side} cannot be embedded")
    out = resample(ClosedSphereCurve(q), n=curve.n)
    if self_intersects(out.nodes, closed=True):
        raise OffsetCollision(f"offset {eps!r} on side {side} cannot be embedded")
    if _hausdorff_exceeds(out, curve, 2.0 * eps, refine=min(1e-3, eps / 4)):
        raise OffsetCollision(f"offset {eps!r} drifted beyond 2*eps after smoothing")
    gap = curve_distance(out.nodes, curve)
    # a true one-sided offset sits near eps from the base; far-off clearance
    # means the push overran a focal point (e.g. walked across a pole)
    if float(gap.min()) < 0.35 * eps or float(gap.max()) > 1.5 * eps:
        raise OffsetCollision(f"offset {eps!r} on side {side} is not at "
                              f"distance eps from the curve (focal overrun)")
    return out


# ---------------------------------------------------------------------------
# the sandwich


@dataclass(frozen=True)
class SandwichRow:
    eps: float
    gap_initial: float
    gap_final: float
    area_final: float
    skipped: Optional[str] = None


@dataclass(frozen=True)
class SandwichResult:
    levels: list
    verdict: str
    t_end: float
    eps0: float
    runs: tuple  # the FlowStats of each evolved level's two boundaries, in order


def _horizon_config(name: str, t_end: float) -> FlowConfig:
    """The one flow config of the sandwich, the area law and the trichotomy:
    snapshots every 1e-2 (or at t_end, if sooner, but no sooner than
    FlowConfig's floor of 1e-9) up to t_end, every other field at its default.
    Raises DomainError naming `name` unless t_end is positive and finite."""
    _check_positive(t_end, name)
    return FlowConfig(snapshot_dt=min(1e-2, max(t_end, 1e-9)), max_time=t_end)


def sandwich_bound(eps: float, t: float) -> float:
    """Gap allowed at time t between the offsets at eps of a measure-zero
    curve: three half widths of the band barrier, 3*arcsin(sin(eps)*e^t)."""
    return 3.0 * barrier_radius_oracle(eps, t)


def sandwich_flow(initial, n_levels: int, t_end: float,
                  eps0: float = 0.1) -> SandwichResult:
    """Evolve nested offset pairs and report gap and area per level.

    `initial` is a closed curve (offsets straddle it) or an AnnulusState
    (offsets push outward into each off-annulus side); evolve_annulus
    evolves each level's pair, so a dead boundary counts its extinct area.
    """
    if not (_is_number(n_levels, True) and n_levels >= 1):
        raise DomainError(f"n_levels must be an integer >= 1, got {n_levels!r}")
    cfg = _horizon_config("t_end", t_end)
    closed = not isinstance(initial, AnnulusState)
    alpha, beta = (initial, initial) if closed else (initial.alpha, initial.beta)
    levels, runs = [], []
    for n in range(n_levels):
        # level n offsets by eps0 * 2^-n; a level whose offsets collide or
        # meet is skipped with the error's message
        eps = eps0 * 2.0 ** (-n)
        try:
            state = make_annulus(offset_curve(alpha, eps, +1),
                                 offset_curve(beta, eps, -1 if closed else +1))
        except (OffsetCollision, NotEmbedded) as exc:
            levels.append(SandwichRow(eps=eps, gap_initial=np.nan, gap_final=np.nan,
                                      area_final=np.nan, skipped=str(exc)))
            continue
        gap0 = hausdorff_distance(state.alpha, state.beta, refine=1e-3)
        _, off, _, finals, stats = evolve_annulus(state, cfg)
        runs += stats
        gap_t = hausdorff_distance(finals[0].curve, finals[1].curve, refine=1e-3)
        levels.append(SandwichRow(eps=eps, gap_initial=float(gap0), gap_final=float(gap_t),
                                  area_final=float(4.0 * np.pi - off[:, -1].sum())))

    live = [r for r in levels if r.skipped is None]
    verdict = VERDICT_INCONCLUSIVE
    if len(live) >= 2:
        a_prev, a_fin = live[-2].area_final, live[-1].area_final
        stabilized = (min(a_prev, a_fin) >= AREA_FLOOR
                      and abs(a_fin - a_prev) <= AREA_STABLE_FRACTION * max(a_prev, a_fin))
        finest = live[-1]
        if stabilized:
            verdict = VERDICT_POSITIVE_AREA
        elif finest.gap_final <= sandwich_bound(finest.eps, t_end):
            verdict = VERDICT_MEASURE_ZERO
    return SandwichResult(levels=levels, verdict=verdict, t_end=float(t_end),
                          eps0=float(eps0), runs=tuple(runs))


# ---------------------------------------------------------------------------
# annulus evolution, the area law, and the trichotomy


@dataclass(frozen=True)
class AreaOdeReport:
    times: np.ndarray
    areas: np.ndarray
    model: np.ndarray
    residual: float
    extinctions: list  # each boundary's extinction time, or None
    runs: tuple  # the FlowStats of alpha's and beta's runs


def evolve_annulus(state: AnnulusState, cfg: FlowConfig):
    """Evolve both boundaries of `state` under `cfg`, paired in time.

    Returns (times, off_areas, extinctions, finals, stats): the longer-lived
    boundary's snapshot times (alpha's on a tie within 1e-9), less any at
    which a live boundary has no snapshot within 1e-9; each boundary's
    off-annulus (left) area there, shape (2, len(times)), held at
    `extinct_off_area` strictly after its death; each boundary's extinction
    time or None; each boundary's final snapshot; and the FlowStats of each
    boundary's run. When both boundaries die before `cfg.max_time`, the times
    end at that horizon, both held.
    """
    ta, tb = evolve_closed(state.alpha, cfg), evolve_closed(state.beta, cfg)
    finals = [ta.final(), tb.final()]
    extinctions = [s.t if traj.terminal_status == STATUS_EXTINCT else None
                   for traj, s in zip((ta, tb), finals)]
    times = (tb if finals[1].t > finals[0].t + 1e-9 else ta).times
    off = np.full((2, len(times)), np.nan)
    for row, traj, dead_at, final in zip(off, (ta, tb), extinctions, finals):
        snap_t = traj.times
        for i, t in enumerate(times):
            j = int(np.argmin(np.abs(snap_t - t)))
            if abs(snap_t[j] - t) <= 1e-9:
                row[i] = traj.snapshots[j].enclosed_area
        if dead_at is not None:
            row[times > dead_at] = extinct_off_area(final.enclosed_area)
    paired = ~np.isnan(off).any(axis=0)
    times, off = times[paired], off[:, paired]
    if None not in extinctions and times[-1] < (cfg.max_time or 0.0) - 1e-9:
        times = np.append(times, cfg.max_time)
        off = np.c_[off, [extinct_off_area(s.enclosed_area) for s in finals]]
    return times, off, extinctions, finals, (ta.stats, tb.stats)


def area_ode_check(state: AnnulusState, t_end: float) -> AreaOdeReport:
    """Compare the region's area on [0, t_end] against annulus_area_law,
    switching branch at each measured extinction.

    Raises ExtinctionBeforeEnd if a boundary dies before t_end and its death
    empties the region (its off side is then the whole sphere), since the
    area and the law both end near 0 and their ratio means nothing. A death
    the region survives is checked.
    """
    cfg = _horizon_config("t_end", t_end)
    times, off, extinctions, finals, runs = evolve_annulus(state, cfg)
    for t_ext, final, name in zip(extinctions, finals, ("alpha", "beta")):
        if (t_ext is not None and t_ext < t_end - 1e-9
                and extinct_off_area(final.enclosed_area) == 4.0 * np.pi):
            raise ExtinctionBeforeEnd(
                f"annulus boundary {name} went extinct at t = {t_ext:.6f} "
                f"< {t_end} and left no region")
    areas = 4.0 * np.pi - off[0] - off[1]
    model = annulus_area_law(state.area, times,
                             [t for t in extinctions if t is not None])
    residual = float(np.abs(areas / model - 1.0).max())
    return AreaOdeReport(times=times, areas=areas, model=model, residual=residual,
                         extinctions=extinctions, runs=runs)


def extinct_off_area(final_area: float) -> float:
    """Off-annulus area left by a boundary that went extinct with enclosed
    (left) area `final_area`: a dying cap leaves either nothing or the whole
    sphere to its off side."""
    return 0.0 if final_area < 2.0 * np.pi else 4.0 * np.pi


def annulus_area_law(area0: float, times, extinction_times=()) -> np.ndarray:
    """Level-set region area at `times` from d(mu)/dt = mu - 2*pi*k(t).

    k(t) counts the boundaries extinct by time t, each dying as a shrinking
    cap that leaves nothing to its off side (Gauss-Bonnet: each surviving
    boundary's enclosed area obeys dA/dt = A - 2*pi). With no extinctions this
    is area0 * e^t; the law switches branch exactly at each given time.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise DomainError("the area law starts at t = 0; got a negative time")
    model = np.empty_like(times)
    t0, mu, k = 0.0, float(area0), 0
    for t1 in sorted(extinction_times) + [np.inf]:
        rest = 2.0 * np.pi * k     # the branch's fixed point
        seg = (times >= t0) & (times <= t1)
        model[seg] = rest + (mu - rest) * np.exp(times[seg] - t0)
        if np.isfinite(t1):
            mu = rest + (mu - rest) * np.exp(t1 - t0)
            t0, k = t1, k + 1
    return model


@dataclass(frozen=True)
class ClassifyResult:
    verdict: str
    complement_area_max: float
    expected_verdict: str
    consistent: bool
    extinction_time: Optional[float]
    final_area: float
    runs: tuple  # the FlowStats of alpha's and beta's runs


def classify_long_term(state: AnnulusState, max_time: float) -> ClassifyResult:
    """Trichotomy for the annulus evolution, with the complement-area predictor.

    The largest complementary cap A decides the expectation: A above 2*pi means
    finite-time extinction, A equal to 2*pi a great-circle limit, A below 2*pi
    exhaustion of the whole sphere. Inconclusive outcomes are reported, never
    raised.
    """
    cfg = _horizon_config("max_time", max_time)

    off0 = state.complement_areas
    big_a = float(max(off0))
    if big_a > 2.0 * np.pi + TRICHOTOMY_AREA_TOL:
        expected = VERDICT_EXTINCT
    elif big_a >= 2.0 * np.pi - TRICHOTOMY_AREA_TOL:
        expected = VERDICT_HEMISPHERE
    else:
        expected = VERDICT_WHOLE_SPHERE

    _, off, extinctions, finals, runs = evolve_annulus(state, cfg)
    final_area = 4.0 * np.pi - off[:, -1].sum()
    both_dead = None not in extinctions

    if both_dead and final_area <= TRICHOTOMY_AREA_TOL:
        verdict = VERDICT_EXTINCT
    elif both_dead and final_area >= 4.0 * np.pi - 0.1:
        verdict = VERDICT_WHOLE_SPHERE
    else:
        circleish = any(s.bending <= 1e-3 and abs(s.length - 2.0 * np.pi) <= 1e-2
                        for s in finals)
        verdict = VERDICT_HEMISPHERE if circleish else VERDICT_INCONCLUSIVE

    return ClassifyResult(
        verdict=verdict,
        complement_area_max=big_a,
        expected_verdict=expected,
        consistent=verdict == expected,
        extinction_time=max(extinctions) if both_dead else None,
        final_area=float(final_area),
        runs=runs,
    )
