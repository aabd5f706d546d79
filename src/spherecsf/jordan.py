"""Band multiplicity, spaced point systems, leafability checks, and curve generators.

The r-multiplicity of a curve relative to a great circle g counts the components
of the curve inside the open band B_{2r}(g) that touch the closed band B_r(g)
(touch tolerance 1e-9). The supremum over g is estimated on a deterministic
Fibonacci pole lattice with one local refinement pass, so it is a certified
lower bound for the true supremum. Each lattice runs in blocks of poles of
about _HEIGHT_BLOCK heights, on which _components peaks at 91 bytes per height at
worst (58 when few edges bulge): 24 MB, at any node and pole count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ParamDomain, SpacingNotFound
from .curves import (ClosedSphereCurve, SphereArc, SphereCurve, _dot3, _tangent_toward,
                     curve_distance, edge_ends, latitude_deviation_angles,
                     resample, wrapped)
from .flow import DirichletArcSpec, _is_number
from .sphere import (GreatCircle, as_point, edge_slerp, fold_angle,
                     geodesic_distance, orthonormal_frame, unit)

TOUCH_TOL = 1e-9
MAX_SPACING_ADDITIONS = 64  # transverse companions construct_spacing may add
MAX_KOCH_DEPTH = 6
_HEIGHT_BLOCK = 2 ** 18  # heights per pole block of _evaluate, about 2 MiB


def _check_count(name: str, value) -> None:
    if not _is_number(value, True):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic near-uniform lattice of n unit vectors: the cap lattice of
    radius pi about z, whose heights 1 - (2i + 1)/n are exact since cos(pi) = -1."""
    _check_count("n", n)
    if n < 1:
        raise DomainError("need at least one sample")
    return _cap_lattice(np.eye(3), np.pi, n)


def _cap_lattice(frame, radius: float, n: int) -> np.ndarray:
    """Fibonacci-style lattice inside the cap B_radius(center), in the
    right-handed frame (e1, e2, center)."""
    e1, e2, center = frame
    i = np.arange(n)
    z = 1.0 - (1.0 - np.cos(radius)) * (i + 0.5) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    lon = np.pi * (3.0 - np.sqrt(5.0)) * i
    return (np.multiply.outer(rho * np.cos(lon), e1)
            + np.multiply.outer(rho * np.sin(lon), e2)
            + np.multiply.outer(z, center))


# ---------------------------------------------------------------------------
# r-multiplicity


@dataclass(frozen=True)
class MultiplicityReport:
    pole: np.ndarray
    r: float
    count: int
    components: list

    def to_json(self) -> dict:
        return {
            "pole": [float(v) for v in self.pole],
            "r": float(self.r),
            "count": int(self.count),
            "components": [[int(a), int(b)] for a, b in self.components],
        }


def _band_geometry(curve: SphereCurve, r: float):
    """_components' arguments after the heights: each edge's cos and sin, the
    band and touch thresholds on |height| at radius r, and closedness."""
    if not (0.0 < r < np.pi / 4.0):
        raise DomainError(f"multiplicity radius must be in (0, pi/4), got {r!r}")
    a, b = edge_ends(wrapped(curve.nodes, curve.closed), curve.closed)
    cos_edge = np.minimum(np.maximum(_dot3(a.T, b.T), -1.0), 1.0)
    sin_edge = np.sqrt(np.maximum(1e-300, 1.0 - cos_edge * cos_edge))
    return (cos_edge, sin_edge, np.sin(2.0 * r), np.sin(min(r + TOUCH_TOL, np.pi / 2)),
            curve.closed)


def _components(heights, cos_edge, sin_edge, sin_band, sin_touch, closed):
    """The components that count, for every column of heights (one pole each),
    from the in-band entries alone.

    Returns the count per column and one (column, first node, last node) row
    per counted component, sorted by column and first node. Within a column
    the in-band nodes fall into runs of linked edges; a closed curve's run
    through its last node goes on into the run at node 0, so that component
    runs from the late run's first node to the early run's last node, and a
    closed curve linked all round is (0, n - 1). The height along an edge is
    a sinusoid, so an edge between in-band nodes leaves the band only through
    an extremum inside it, (hb - ha c)(hb c - ha) < 0 for its cosine c, of
    amplitude >= sin_band; every other such edge is linked. A node touches if
    |h| <= sin_touch or its outgoing edge is linked and changes sign, ha hb <= 0:
    an edge of one sign is least at an end, which the node test sees in the
    same component. These are the rules of the edges' full height extrema. A
    component counts if it holds a touch.
    """
    n = len(heights)
    pole, node = np.divmod(np.flatnonzero((np.abs(heights) < sin_band).T), n)  # pole by pole
    h = heights[node, pole]
    # entry i's edge goes to entry i + 1 when that is the next node of its pole
    adjacent = np.zeros(len(node), dtype=bool)
    adjacent[:-1] = (node[1:] == node[:-1] + 1) & (pole[1:] == pole[:-1])
    hb = np.concatenate((h[1:], h[:1]))  # the height at the far end of each edge
    link = adjacent.copy()  # every edge, linked unless it is seen to leave the band
    if closed:  # and from node n - 1 to node 0 of its pole
        end = np.flatnonzero(node == n - 1)
        head = np.searchsorted(pole, pole[end])
        wraps = node[head] == 0
        end, head = end[wraps], head[wraps]
        hb[end] = h[head]
        link[end] = True
    c = cos_edge.take(node, mode="clip")  # clipped at an arc's last node, which has no edge
    k = np.flatnonzero(link & ((hb - h * c) * (hb * c - h) < 0.0))  # an extremum inside
    a, b, c, s = h[k], hb[k], c[k], sin_edge[node[k]]
    link[k] = np.sqrt(np.maximum((a * a + b * b - 2.0 * a * b * c) / (s * s), 0.0)) < sin_band
    touch = (np.abs(h) <= sin_touch) | (link & (h * hb <= 0.0))
    del h, hb, k, a, b, c, s  # the block's peak: free the edge arrays before the runs
    stop = ~(link & adjacent)  # each run's last entry, and always the very last
    start = np.concatenate((stop[-1:], stop[:-1]))  # each run's first: start[0] holds
    run = np.cumsum(start) - 1
    first, last = np.flatnonzero(start), np.flatnonzero(stop)
    if closed:  # a linked seam makes the run at node 0 part of the run through n - 1
        late, early = run[end[link[end]]], run[head[link[end]]]
        last[late] = last[early]
        seam = np.arange(len(first))
        seam[early] = late
        run = seam[run]
    held = np.zeros(len(first), dtype=bool)
    held[run[touch]] = True
    first, last = first[held], last[held]  # rows for the runs that count only
    return (np.bincount(pole[first], minlength=heights.shape[1]),
            np.column_stack([pole[first], node[first], node[last]]))


def _report(pole, r, counts, rows, k) -> MultiplicityReport:
    """The report for column k, with this pole, of _components' result."""
    ranges = [(a, b) for a, b in rows[rows[:, 0] == k, 1:].tolist()]
    return MultiplicityReport(pole=pole, r=float(r), count=int(counts[k]),
                              components=ranges)


def _evaluate(curve: SphereCurve, r: float, poles: np.ndarray):
    """_components' counts and rows for the (k, 3) poles: the only place that
    forms heights, one gemm per block of about _HEIGHT_BLOCK heights."""
    band = _band_geometry(curve, r)
    step = max(1, _HEIGHT_BLOCK // curve.n)
    counts, rows = [], []
    for first in range(0, len(poles), step):
        part = poles[first:first + step]
        # a lone pole goes in twice: numpy sends a one-column product to gemv,
        # whose heights can differ in the last bit from the whole lattice's gemm
        heights = curve.nodes @ (part if len(part) > 1 else part.repeat(2, axis=0)).T
        c, w = _components(heights[:, :len(part)], *band)
        if len(part) == len(poles):  # one block: its rows need no offset
            return c, w
        counts.append(c)
        rows.append(w + [first, 0, 0])
    return np.concatenate(counts), np.concatenate(rows)


def multiplicity_at(curve: SphereCurve, g: GreatCircle, r: float) -> MultiplicityReport:
    """Components of curve inside B_{2r}(g) that touch the closed band B_r(g)."""
    return _report(g.pole, r, *_evaluate(curve, r, g.pole[None]), 0)


def multiplicity_sup(curve: SphereCurve, r: float,
                     pole_samples: int = 2000) -> MultiplicityReport:
    """Estimated sup over great circles of the r-multiplicity (a lower bound).

    Fibonacci lattice over poles plus one refinement pass around the best pole;
    ties resolve to the lexicographically smallest pole. Every pole's count
    and the winner's components come from _evaluate, as multiplicity_at's do.
    """
    _check_count("pole_samples", pole_samples)
    if pole_samples < 100:
        raise DomainError(f"pole_samples must be >= 100, got {pole_samples!r}")

    def evaluate(poles):
        counts, rows = _evaluate(curve, r, poles)
        k = np.lexsort((poles[:, 2], poles[:, 1], poles[:, 0], -counts))[0]
        return (-counts[k], tuple(poles[k])), _report(poles[k], r, counts, rows, k)

    coarse = evaluate(fibonacci_sphere(pole_samples))
    spacing = np.sqrt(4.0 * np.pi / pole_samples)
    best = coarse[1].pole
    fine = evaluate(_cap_lattice((*orthonormal_frame(best), best), spacing, 64))
    return min([coarse, fine], key=lambda b: b[0])[1]


# ---------------------------------------------------------------------------
# spaced point systems


@dataclass(frozen=True)
class Spacing:
    points: np.ndarray
    clearance: float   # the C of the definition
    theta: float

    def to_json(self) -> dict:
        return {
            "points": [[float(v) for v in p] for p in self.points],
            "C": float(self.clearance),
            "theta": float(self.theta),
        }


@dataclass(frozen=True)
class SpacingCheck:
    ok: bool
    reason: Optional[str]
    witness: Optional[np.ndarray]


def _circles_through(x, pts):
    """Unit normals of the great circles through x and each of pts, and their
    |Gram| matrix with a unit diagonal: two circles meet at an angle above
    pi/2 - theta where its entry is below sin(theta). None when a point sits
    at +-x, since it then spans every circle through x."""
    cr = np.cross(x, pts)
    nn = np.linalg.norm(cr, axis=1)
    if np.any(nn < 1e-9):
        return None
    nrm = cr / nn[:, None]
    gram = np.abs(nrm @ nrm.T)
    np.fill_diagonal(gram, 1.0)
    return nrm, gram


def _check_x_samples(x_samples: int) -> None:
    _check_count("x_samples", x_samples)
    if x_samples < 1000:
        raise DomainError(f"x_samples must be >= 1000, got {x_samples!r}")


def _clearance(points, curve: SphereCurve) -> np.ndarray:
    """Distance from each point or its antipode to the curve, whichever is less."""
    pts = np.atleast_2d(points)
    d = curve_distance(np.concatenate((pts, -pts)), curve)
    return np.minimum(d[:len(pts)], d[len(pts):])


def verify_spacing(curve: SphereCurve, spacing: Spacing,
                   x_samples: int = 1000) -> SpacingCheck:
    """Check both spacing conditions; returns the first counterexample found.

    (1) every B_C(y_i) and B_C(-y_i) closure misses the curve;
    (2) every sampled x sees two of the y's along great circles meeting at an
        angle above pi/2 - theta.
    """
    _check_x_samples(x_samples)
    pts = np.atleast_2d(spacing.points)
    for i, y in enumerate(pts):
        as_point(y, f"spacing point {i}")
    c, theta = spacing.clearance, spacing.theta
    bad = np.nonzero(_clearance(pts, curve) <= c)[0]
    if len(bad):
        return SpacingCheck(False, f"clearance violated at point {bad[0]}", pts[bad[0]])
    sin_th = np.sin(theta)
    for x in fibonacci_sphere(x_samples):
        circles = _circles_through(x, pts)
        if circles is None:
            if len(pts) >= 2:
                continue
            return SpacingCheck(False, "single degenerate point", x)
        if circles[1].min() >= sin_th:
            return SpacingCheck(False, "no transverse pair", x)
    return SpacingCheck(True, None, None)


def construct_spacing(curve: SphereCurve, theta: float, margin: float = 0.22,
                      x_samples: int = 1000) -> Spacing:
    """Greedy deterministic construction of a (C, theta)-spacing for the curve."""
    if not (0.0 < theta < np.pi / 2.0):
        raise DomainError(f"theta must be in (0, pi/2), got {theta!r}")
    _check_x_samples(x_samples)
    cand = fibonacci_sphere(256)
    clear = _clearance(cand, curve)
    feasible = cand[clear > margin]
    order = np.argsort(-clear[clear > margin])
    chosen = []
    for idx in order:
        y = feasible[idx]
        if all(geodesic_distance(y, z) > theta / 2.0
               and geodesic_distance(-y, z) > theta / 2.0 for z in chosen):
            chosen.append(y)
        if len(chosen) >= 48:
            break
    if not chosen:
        raise SpacingNotFound("no candidate point clears the curve by the margin")

    xs = fibonacci_sphere(x_samples)
    sin_strict = np.sin(0.9 * theta)
    additions = 0
    for x in xs:
        circles = _circles_through(x, np.array(chosen))
        if circles is None or circles[1].min() < sin_strict:
            continue
        nrm, gram = circles
        # all circles through x cluster: manufacture a transverse companion
        if additions >= MAX_SPACING_ADDITIONS:
            raise SpacingNotFound("needed too many extra points")
        k = int(np.unravel_index(np.argmin(gram), gram.shape)[0])
        n1 = nrm[k]
        n_target = unit(np.cross(x, n1))
        base = unit(np.cross(n_target, x))
        for s in (np.pi / 2, np.pi / 2 + 0.3, np.pi / 2 - 0.3, np.pi / 2 + 0.6,
                  np.pi / 2 - 0.6):
            y = np.cos(s) * x + np.sin(s) * base
            if _clearance(y, curve)[0] > 0.75 * margin:
                chosen.append(unit(y))
                additions += 1
                break
        else:
            raise SpacingNotFound(f"no clearing companion near x = {x}")

    pts = np.array(chosen)
    big_c = float(_clearance(pts, curve).min()) / 2.0
    out = Spacing(points=pts, clearance=big_c, theta=float(theta))
    check = verify_spacing(curve, out, x_samples=x_samples)
    if not check.ok:
        raise SpacingNotFound(f"constructed set failed verification: {check.reason}")
    return out


# ---------------------------------------------------------------------------
# leafability


@dataclass(frozen=True)
class LeafableReport:
    ok: bool
    reasons: list
    max_cap_deviation: float
    winding: float


def is_leafable(ell: ClosedSphereCurve, g: GreatCircle, r: float, cap_radius: float,
                closeness: float) -> LeafableReport:
    """Checks the band-leaf conditions for ell against g at scale r.

    Conditions: containment in B_{2r}(g); generator of the band (one net wind);
    over each cap of V = B_C(x) u B_C(-x), x = g.point(0), the curve is a single
    monotone graph, (closeness/2)-close in C^1 to the latitudes. Raises
    ParamDomain unless 2r < closeness * cap_radius.
    """
    if 2.0 * r >= closeness * cap_radius:
        raise ParamDomain("need 2r < closeness * cap_radius")
    x = g.point(0.0)
    reasons = []
    lon, s = g.chart_coords(ell.nodes)
    if np.abs(s).max() > 2.0 * r + 1e-12:
        reasons.append("containment")

    dlon = fold_angle(np.diff(lon, append=lon[:1]))
    winding = float(dlon.sum() / (2.0 * np.pi))
    if abs(abs(winding) - 1.0) > 1e-6:
        reasons.append("winding")

    max_dev = 0.0
    devs = latitude_deviation_angles(ell, g)
    for center in (x, -x):
        mask = geodesic_distance(ell.nodes, center) <= cap_radius
        # each run's first node; no run (an empty or a full cap) is not a graph
        starts = np.flatnonzero(mask & ~wrapped(mask, True)[:-2])
        if len(starts) != 1:
            reasons.append("graph")
        else:
            idx = np.flatnonzero(mask)
            run = np.concatenate((idx[idx >= starts[0]], idx[idx < starts[0]]))
            steps = fold_angle(np.diff(lon[run]))
            if not (np.all(steps > 0) or np.all(steps < 0)):
                reasons.append("graph-monotone")
        max_dev = max(max_dev, float(devs[mask].max(initial=0.0)))
    if max_dev > closeness / 2.0 + 1e-12:
        reasons.append("deviation")

    reasons = sorted(set(reasons))
    return LeafableReport(ok=not reasons, reasons=reasons,
                          max_cap_deviation=max_dev, winding=winding)


# ---------------------------------------------------------------------------
# generators


def _polar_nodes(pole, rho, angle) -> np.ndarray:
    """cos(rho) pole + sin(rho) rim: the points at polar distance rho from
    `pole` at the longitudes `angle` of GreatCircle(pole)'s frame; rho is one
    value or one per angle."""
    g = GreatCircle(pole)
    return (np.multiply.outer(np.cos(rho), g.pole)
            + np.sin(rho)[..., None] * g.point(angle))


def _latitude_radius(radius) -> float:
    r = float(radius)
    if not (0.0 < r < np.pi):
        raise DomainError(f"latitude radius must be in (0, pi), got {r!r}")
    return r


def circle_curve(radius: float, pole=(0.0, 0.0, 1.0), n: int = 256,
                 phase: float = 0.0) -> ClosedSphereCurve:
    """Uniform polygon on a latitude circle, counterclockwise about the pole."""
    ang = phase + 2.0 * np.pi * np.arange(n) / n
    return ClosedSphereCurve(_polar_nodes(pole, _latitude_radius(radius), ang))


def perturbed_latitude(radius: float, amplitude: float, mode: int, n: int = 512,
                       pole=(0.0, 0.0, 1.0), phase: float = 0.0) -> ClosedSphereCurve:
    """Polar-distance profile radius + amplitude * sin(mode * angle + phase)."""
    if mode < 1 or int(mode) != mode:
        raise DomainError(f"mode must be a positive integer, got {mode!r}")
    ang = 2.0 * np.pi * np.arange(n) / n
    rho = radius + amplitude * np.sin(mode * ang + phase)
    if np.any(rho <= 0.0) or np.any(rho >= np.pi):
        raise DomainError("profile leaves (0, pi); reduce amplitude")
    return ClosedSphereCurve(_polar_nodes(pole, rho, ang))


def _cap_window(lon: np.ndarray, inner: float, ramp: float) -> np.ndarray:
    """Smooth window vanishing within `inner` of longitudes 0 and pi."""
    lon = np.mod(lon, 2.0 * np.pi)
    d = np.minimum.reduce([np.abs(lon), np.abs(lon - np.pi),
                           np.abs(lon - 2.0 * np.pi)])
    w = np.clip((d - inner) / ramp, 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * w))


def leafable_wiggle(pole=(0.0, 0.0, 1.0), band: float = 0.05,
                    cap_radius: float = 0.7, closeness: float = 0.1,
                    mode: int = 14, n: int = 512, seed: int = 0) -> ClosedSphereCurve:
    """Band-confined generator around the great circle g with this pole: flat
    through both caps, steep wiggle between.

    The initial latitude deviation is about atan(0.88 * band * mode); with the
    defaults that exceeds 0.5 rad while the curve stays inside B_band(g).
    """
    g = GreatCircle(pole)
    rng = np.random.default_rng(seed)
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    lon = 2.0 * np.pi * np.arange(n) / n
    amp = 0.88 * band
    s = amp * _cap_window(lon, inner=cap_radius + 0.05, ramp=0.25) \
        * np.sin(mode * lon + phase)
    return ClosedSphereCurve(g.chart_point(lon, s))


def koch_like(depth: int, base_radius: float = 0.8, pole=(0.0, 0.0, 1.0),
              base_nodes: int = 6) -> ClosedSphereCurve:
    """Spherical snowflake: each edge gains an outward apex of height
    sqrt(3)/6 times the edge length; depth <= 6. The base polygon alone has
    too few nodes to be a curve, so depth >= 1."""
    if not (1 <= depth <= MAX_KOCH_DEPTH) or int(depth) != depth:
        raise DomainError(f"depth must be an integer in [1, {MAX_KOCH_DEPTH}]")
    ang = 2.0 * np.pi * np.arange(base_nodes) / base_nodes
    nodes = _polar_nodes(pole, _latitude_radius(base_radius), ang)
    for _ in range(depth):
        p, q = edge_ends(wrapped(nodes, True), True)
        ell = geodesic_distance(p, q)[:, None]
        a, mid, b = (edge_slerp(p, q, ell, f) for f in (1.0 / 3.0, 0.5, 2.0 / 3.0))
        out = np.cross(_tangent_toward(mid.T, q.T).T, mid)
        d = (np.sqrt(3.0) / 6.0) * ell
        apex = np.cos(d) * mid + np.sin(d) * out
        nodes = np.stack([p, a, apex, b], axis=1).reshape(-1, 3)
        nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    return ClosedSphereCurve(nodes)


# hairpin profile proportions, in units of the band halfwidth r
_TAIL_TOP = 1.85      # height where the boundary-leaf tail hands off
_ENDPOINT_H = 1.625   # height of the endpoints A0 / A1
_ARC_H = 0.35         # where the dive line hands off to the parabolic tip
_DIVE_SLOPE = 1.5     # |ds/d lon| on the dive
_BLEND_RUN = 0.2      # longitude run of the level cruise before the corner
_ENTRY_GAP = 1.35     # dive arclength outside the far cap, in mesh spacings
_ENTRY_MARGIN = 1.25  # extra drop so the floor is crossed inside the cap


def dirichlet_gamma(spec: DirichletArcSpec, spacing: Optional[float] = None):
    """Hairpin arc for the fixed-endpoint scenario; returns (arc, info).

    Both branches ride the extreme wedge leaves near the endpoints (exactly:
    the tails are geodesic), descend to a cruise just above the floor height
    (1 + closeness) * r, dive into the far cap at slope _DIVE_SLOPE, and meet
    on g with a vertical-tangent parabolic tip. The corner sits far enough
    outside the cap that in-cap tangents are clean, yet low enough that only
    the near-endpoint tails reach leaf angles above ~0.82 * theta.
    """
    g, r = spec.circle, spec.band_halfwidth
    a_c = spec.closeness * spec.cap_radius
    if spacing is None:
        spacing = r / 12.0

    s0 = _ENDPOINT_H * r
    s_top = _TAIL_TOP * r
    s_arc = _ARC_H * r
    slope_run = np.sqrt(1.0 + _DIVE_SLOPE ** 2)
    # corner height: floor plus a margin that keeps the floor crossing in-cap
    s_c = spec.floor + _ENTRY_MARGIN * _DIVE_SLOPE * _ENTRY_GAP * spacing / slope_run

    lam0 = np.arccos(np.cos(0.97 * a_c) / np.cos(s0))
    tan_theta = np.tan(s0) / np.sin(lam0)
    theta = float(np.arctan(tan_theta))
    lam_top = float(np.arcsin(np.tan(s_top) / tan_theta))

    def w_cap(s):
        return float(np.arccos(np.cos(a_c) / np.cos(s)))

    widening = w_cap(spec.floor) - w_cap(s_c)
    corner_out = widening + _ENTRY_GAP * spacing / slope_run
    w_corner = w_cap(s_c) + corner_out
    lam_corner = np.pi - w_corner
    lam_blend_end = lam_corner - _BLEND_RUN * r
    lam_arc = lam_corner + (s_c - s_arc) / _DIVE_SLOPE
    w_tip = (np.pi - lam_arc) - s_arc / (2.0 * _DIVE_SLOPE)
    lam_tip = np.pi - w_tip

    fine = spacing / 2.5
    lam_tail = np.linspace(lam0, lam_top, max(8, int(np.ceil((lam_top - lam0) / fine))))
    s_tail = np.arctan(tan_theta * np.sin(lam_tail))
    lam_blend = np.linspace(lam_top, lam_blend_end,
                            max(8, int(np.ceil((lam_blend_end - lam_top) / fine))))[1:]
    u = (lam_blend - lam_top) / (lam_blend_end - lam_top)
    s_blend = s_c + (s_top - s_c) * 0.5 * (1.0 + np.cos(np.pi * u))
    lam_level = np.linspace(lam_blend_end, lam_corner,
                            max(4, int(np.ceil(_BLEND_RUN * r / fine))))[1:]
    s_level = np.full_like(lam_level, s_c)
    lam_dive = np.linspace(lam_corner, lam_arc,
                           max(8, int(np.ceil((lam_arc - lam_corner)
                                              * slope_run / fine))))[1:]
    s_dive = s_c - _DIVE_SLOPE * (lam_dive - lam_corner)
    s_tip = np.linspace(s_arc, 0.0, max(8, int(np.ceil(s_arc / fine))))[1:]
    lam_tip_piece = lam_tip - s_tip * s_tip / (2.0 * _DIVE_SLOPE * s_arc)

    lam_half = np.concatenate([lam_tail, lam_blend, lam_level, lam_dive, lam_tip_piece])
    s_half = np.concatenate([s_tail, s_blend, s_level, s_dive, s_tip])
    lam = np.concatenate([lam_half, lam_half[-2::-1]])
    s = np.concatenate([s_half, -s_half[-2::-1]])
    arc = SphereArc(g.chart_point(lam, s))
    arc = resample(arc, spacing=spacing)

    info = {
        "theta": theta,
        "endpoint_a0": arc.nodes[0],
        "endpoint_a1": arc.nodes[-1],
        "lam0": float(lam0),
        "lam_tip": float(lam_tip),
        "cruise_height": float(s_c),
        "cap_longitude": float(a_c),
        "spacing": float(spacing),
    }
    return arc, info


def _dirichlet_gamma_arc(band_halfwidth: float, pole=(0.0, 0.0, 1.0),
                         cap_radius: float = 1.3, closeness: float = 0.25,
                         spacing: Optional[float] = None,
                         n: Optional[int] = None) -> SphereArc:
    """dirichlet_gamma's arc around the great circle with this pole, resampled
    to n nodes when n is given."""
    spec = DirichletArcSpec(circle=GreatCircle(pole), band_halfwidth=band_halfwidth,
                            cap_radius=cap_radius, closeness=closeness)
    arc, _ = dirichlet_gamma(spec, spacing=spacing)
    return arc if n is None else resample(arc, n=n)


# The named curve families; a maker's keyword arguments are the keys of the
# CLI's curve spec.
CURVE_KINDS = {
    "Circle": circle_curve,
    "PerturbedLatitude": perturbed_latitude,
    "LeafableWiggle": leafable_wiggle,
    "KochLike": koch_like,
    "DirichletGamma": _dirichlet_gamma_arc,
}
