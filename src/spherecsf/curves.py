"""Polyline curve models on the sphere: validation, diagnostics, resampling, distances.

A curve is an ordered array of unit nodes joined by geodesic edges. Closed curves wrap
around; arcs have pinned endpoints. Orientation conventions: travel direction t at a
node, left normal p x t; positive turning = left turn; enclosed area is the region to
the left of travel.

Neighbours come from one padded array, `wrapped(nodes, closed)`: a closed curve gets its
last node prepended and its first appended, an arc is left as it is, so on either kind
chord j runs from row j to row j + 1 and the node at row j has neighbours at rows j - 1
and j + 1. `edge_ends` picks the edges, in node order, out of that array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import DomainError, NotEmbedded, PoleDegenerate, TooFewNodes
from .sphere import GreatCircle, geodesic_distance

MIN_NODES = 8
EDGE_MIN = 1e-8
EDGE_MAX = np.pi / 2.0
# Nonadjacent edges closer than this (in the crossing test) count as intersecting.
CROSS_TOL = 1e-12
# diagnostics() needs at least this many nodes to mean anything.
DIAG_MIN_NODES = 32
# Radians added to every cap and Lipschitz bound of the pruned queries. It covers
# the arccos noise floor (about 2.6e-8 near zero) of the distances and edge
# lengths the bounds are built from, so pruning never drops a deciding pair.
BOUND_SLACK = 1e-7
# Point-edge pairs in the first batch of hausdorff_distance; each batch doubles.
_FIRST_BATCH = 4096


def wrapped(nodes: np.ndarray, closed: bool) -> np.ndarray:
    """The padded neighbour array of the module docstring."""
    if not closed:
        return nodes
    return np.concatenate((nodes[-1:], nodes, nodes[:1]))


def edge_ends(ext: np.ndarray, closed: bool):
    """(start, end) rows of every edge, in node order, of the curve whose wrapped
    nodes are ext."""
    k = 1 if closed else 0
    return ext[k:-1], ext[k + 1:]


def wrapped_edges(ext: np.ndarray, closed: bool) -> np.ndarray:
    """Geodesic edge lengths, in node order, of the curve whose wrapped nodes are ext."""
    return geodesic_distance(*edge_ends(ext, closed))


def _validated_nodes(nodes, closed: bool) -> np.ndarray:
    nodes = np.array(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 3:
        raise DomainError(f"nodes must have shape (n, 3), got {nodes.shape}")
    n = len(nodes)
    if n < MIN_NODES:
        raise TooFewNodes(f"need at least {MIN_NODES} nodes, got {n}")
    if not np.all(np.isfinite(nodes)):
        raise DomainError("nodes must be finite")
    norms = np.linalg.norm(nodes, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise DomainError("all nodes must be unit vectors (tolerance 1e-9)")
    nodes = nodes / norms[:, None]
    edges = wrapped_edges(wrapped(nodes, closed), closed)
    if np.any(edges <= EDGE_MIN) or np.any(edges >= EDGE_MAX):
        raise DomainError(
            f"edge lengths must lie in ({EDGE_MIN}, pi/2); "
            f"got range [{edges.min():.3e}, {edges.max():.3e}]")
    nodes.flags.writeable = False
    return nodes


@dataclass(frozen=True)
class _Polyline:
    """Validated read-only nodes; subclasses only say whether the curve closes."""

    nodes: np.ndarray
    closed: ClassVar[bool]

    def __post_init__(self):
        object.__setattr__(self, "nodes", _validated_nodes(self.nodes, self.closed))

    @property
    def n(self) -> int:
        return len(self.nodes)

    def edge_lengths(self) -> np.ndarray:
        return wrapped_edges(wrapped(self.nodes, self.closed), self.closed)

    def length(self) -> float:
        return float(self.edge_lengths().sum())

    def with_nodes(self, nodes):
        return type(self)(nodes)


class ClosedSphereCurve(_Polyline):
    """Closed polyline; the last node joins back to the first."""

    closed = True


class SphereArc(_Polyline):
    """Open polyline; the first and last nodes are the (fixed) endpoints."""

    closed = False


SphereCurve = ClosedSphereCurve | SphereArc


def _travel_tangents(v, a, b):
    """(incoming, outgoing) unit tangents at nodes v between prev a and next b."""
    t_in = (v * np.sum(a * v, axis=-1, keepdims=True)) - a
    t_in /= np.linalg.norm(t_in, axis=-1, keepdims=True)
    t_out = b - v * np.sum(b * v, axis=-1, keepdims=True)
    t_out /= np.linalg.norm(t_out, axis=-1, keepdims=True)
    return t_in, t_out


def turning_angles(curve: SphereCurve) -> np.ndarray:
    """Signed exterior angles, positive for left turns.

    Closed: one angle per node. Arc: one per interior node (n - 2 values).
    """
    ext = wrapped(curve.nodes, curve.closed)
    v = ext[1:-1]
    t_in, t_out = _travel_tangents(v, ext[:-2], ext[2:])
    s = np.sum(v * np.cross(t_in, t_out), axis=-1)
    c = np.sum(t_in * t_out, axis=-1)
    return np.arctan2(s, c)


def chord_curvature(ext: np.ndarray, closed: bool) -> np.ndarray:
    """Curvature vectors of the curve whose wrapped nodes are ext, from one pass
    over its chords.

    With u_j the unit chord from row j to row j + 1 and c_j its length, node v
    between chords j - 1 and j gets 2 (w - v <w, v>) / (c_j + c_{j-1}), where
    w = u_j - u_{j-1}. Arc endpoints get zero vectors.
    """
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


def curvature_vectors(curve: SphereCurve) -> np.ndarray:
    """Discrete geodesic-curvature vectors (tangent to the sphere at each node).

    Chord-scaled second difference; exact (= cot r toward the pole) on uniform
    latitude polygons. Arc endpoints get zero vectors.
    """
    return chord_curvature(wrapped(curve.nodes, curve.closed), curve.closed)


def mean_adjacent_edges(curve: SphereCurve) -> np.ndarray:
    """Mean length h of the two edges at each node that has two (the nodes
    turning_angles measures)."""
    ext = wrapped(curve.nodes, curve.closed)
    e = geodesic_distance(ext[:-1], ext[1:])
    return 0.5 * (e[:-1] + e[1:])


@dataclass(frozen=True)
class CurveDiagnostics:
    length: float
    total_curvature: float
    bending: float
    enclosed_area: Optional[float]
    max_edge: float
    min_edge: float


def integrals(curve: SphereCurve) -> CurveDiagnostics:
    """Length, total turning, bending sum(tau^2 / h) and, for closed curves, the
    enclosed area: the Gauss-Bonnet complement 2*pi - sum of turning, the area
    left of travel. No node floor or embedding check; diagnostics adds those."""
    e = curve.edge_lengths()
    tau = turning_angles(curve)
    hbar = mean_adjacent_edges(curve)
    area = float(2.0 * np.pi - tau.sum()) if curve.closed else None
    return CurveDiagnostics(
        length=float(e.sum()),
        total_curvature=float(tau.sum()),
        bending=float(np.sum(tau * tau / hbar)),
        enclosed_area=area,
        max_edge=float(e.max()),
        min_edge=float(e.min()),
    )


def diagnostics(curve: SphereCurve, check_embedded: bool = True) -> CurveDiagnostics:
    """integrals() of a curve with at least DIAG_MIN_NODES nodes, by default
    also checked to be embedded."""
    if curve.n < DIAG_MIN_NODES:
        raise TooFewNodes(f"diagnostics needs >= {DIAG_MIN_NODES} nodes, got {curve.n}")
    if check_embedded and self_intersects(curve.nodes, curve.closed):
        raise NotEmbedded("curve polyline intersects itself")
    return integrals(curve)


def self_intersects(nodes: np.ndarray, closed: bool) -> bool:
    """True if any two nonadjacent geodesic edges cross or touch (tol 1e-12).

    Exact for the polyline, and the answer of testing every pair: a unit point that
    passes the crossing test for an edge lies in that edge's cap (centred on the
    normalised chord midpoint, its radius the half length widened by the
    tolerance), so only pairs whose caps overlap get the great-circle test, or for
    coplanar pairs the overlap test.
    """
    a, b = edge_ends(wrapped(np.asarray(nodes, dtype=float), closed), closed)
    m = len(a)
    poles = np.cross(a, b)
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    cos_len = np.sum(a * b, axis=1)  # edges < pi/2 so cos is monotone on them
    mid = _midpoints(a, b)
    # c.a, c.b >= cos_len - CROSS_TOL give c.mid >= 2 (cos_len - CROSS_TOL) / |a + b|
    reach = np.arccos(np.clip(2.0 * (cos_len - CROSS_TOL) / np.sqrt(2.0 + 2.0 * cos_len),
                              -1.0, 1.0))
    gi, jj = _cap_pairs(mid, reach, mid, reach)
    keep = jj > gi + 1
    if closed:
        keep &= ~((gi == 0) & (jj == m - 1))
    gi, jj = gi[keep], jj[keep]
    cr = np.cross(poles[gi], poles[jj])
    nn = np.linalg.norm(cr, axis=1)
    apart = nn > 1e-12
    i, j = gi[apart], jj[apart]
    c = cr[apart] / nn[apart][:, None]

    def on(p, k):
        return ((np.sum(p * a[k], axis=1) >= cos_len[k] - CROSS_TOL)
                & (np.sum(p * b[k], axis=1) >= cos_len[k] - CROSS_TOL))

    if np.any(on(c, i) & on(c, j)) or np.any(on(-c, i) & on(-c, j)):
        return True
    # coplanar pairs: overlap iff some endpoint lies strictly inside the other edge
    i, j = gi[~apart], jj[~apart]

    def inside(p, k):
        return ((np.vecdot(p, a[k]) > cos_len[k] + CROSS_TOL)
                & (np.vecdot(p, b[k]) > cos_len[k] + CROSS_TOL))

    return bool(np.any(inside(a[j], i) | inside(b[j], i)
                       | inside(a[i], j) | inside(b[i], j)))


def resample(curve: SphereCurve, n: Optional[int] = None,
             spacing: Optional[float] = None) -> SphereCurve:
    """Arclength-uniform resampling along the polyline.

    Closed curves stay anchored at node 0; arc endpoints are preserved exactly.
    """
    if (n is None) == (spacing is None):
        raise DomainError("pass exactly one of n, spacing")
    e = curve.edge_lengths()
    total = float(e.sum())
    if n is None:
        if spacing <= 0:
            raise DomainError("spacing must be positive")
        n = nodes_for_spacing(total, spacing, curve.closed)
    if n < MIN_NODES:
        raise TooFewNodes(f"cannot resample to {n} < {MIN_NODES} nodes")
    cum = np.concatenate([[0.0], np.cumsum(e)])
    if curve.closed:
        t = np.arange(n) * (total / n)
    else:
        t = np.linspace(0.0, total, n)
    src_a, src_b = edge_ends(wrapped(curve.nodes, curve.closed), curve.closed)
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(e) - 1)
    f = (t - cum[idx]) / e[idx]
    f = np.clip(f, 0.0, 1.0)
    a = src_a[idx]
    b = src_b[idx]
    ang = e[idx]
    s = np.sin(ang)
    new = (np.sin((1.0 - f) * ang)[:, None] * a + np.sin(f * ang)[:, None] * b) / s[:, None]
    new /= np.linalg.norm(new, axis=1, keepdims=True)
    if not curve.closed:
        new[0] = curve.nodes[0]
        new[-1] = curve.nodes[-1]
    return curve.with_nodes(new)


def nodes_for_spacing(length: float, spacing: float, closed: bool) -> int:
    """Node count that places nodes about `spacing` apart along a curve of this
    length (an arc has one node more than edges); at least MIN_NODES."""
    return max(MIN_NODES, int(round(length / spacing)) + (0 if closed else 1))


def _edge_frames(nodes: np.ndarray, closed: bool):
    """Per-edge (a, b, pole, inward tangents at both endpoints)."""
    a, b = edge_ends(wrapped(nodes, closed), closed)
    pole = np.cross(a, b)
    pole /= np.linalg.norm(pole, axis=1, keepdims=True)
    dots = np.sum(a * b, axis=1, keepdims=True)
    ta = b - a * dots  # tangent at a toward b
    ta /= np.linalg.norm(ta, axis=1, keepdims=True)
    tb = a - b * dots  # tangent at b toward a
    tb /= np.linalg.norm(tb, axis=1, keepdims=True)
    return a, b, pole, ta, tb


def _edge_distance(to_a, to_b, height, cos_a, cos_b):
    """Exact distance to a geodesic edge from a point's dot products with the
    edge's inward tangents at both ends, its pole and its two ends: the height
    inside the lune the ends' meridians bound, else the nearer end."""
    h = np.abs(np.arcsin(np.clip(height, -1.0, 1.0)))
    d_end = np.minimum(np.arccos(np.clip(cos_a, -1.0, 1.0)),
                       np.arccos(np.clip(cos_b, -1.0, 1.0)))
    return np.where((to_a >= 0.0) & (to_b >= 0.0), h, d_end)


def curve_distance(points: np.ndarray, curve: SphereCurve) -> np.ndarray:
    """Exact geodesic distance from each point to the curve polyline.

    Valid for distances below pi/2 (enough for band/clearance work).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a, b, pole, ta, tb = _edge_frames(curve.nodes, curve.closed)
    m = len(a)
    out = np.empty(len(points))
    chunk = max(64, int(4.0e6 / max(m, 1)))
    for i0 in range(0, len(points), chunk):
        x = points[i0:i0 + chunk]
        d = _edge_distance(x @ ta.T, x @ tb.T, x @ pole.T, x @ a.T, x @ b.T)
        out[i0:i0 + chunk] = d.min(axis=1)
    return out


def _runs(counts: np.ndarray):
    """For items laid out in consecutive groups, counts[g] in group g: the group
    of each item and its place in the group."""
    group = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return group, np.arange(len(group)) - first[group]


def _group_min(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Min of each group of values laid out as _runs says; inf for an empty one."""
    out = np.full(len(counts), np.inf)
    full = counts > 0
    out[full] = np.minimum.reduceat(values, (np.cumsum(counts) - counts)[full])
    return out


def _midpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalised chord midpoints: the centres of the edges' caps."""
    s = a + b
    return s / np.linalg.norm(s, axis=1, keepdims=True)


def _starts_inside(lo, hi, other, strict: bool):
    """Pairs (k, l) with other[l] in [lo[k], hi[k]], or in (lo[k], hi[k]] when
    strict, grouped by k."""
    order = np.argsort(other, kind="stable")
    first = np.searchsorted(other[order], lo, "right" if strict else "left")
    k, step = _runs(np.searchsorted(other[order], hi, "right") - first)
    return k, order[first[k] + step]


def _cap_pairs(ca, ra, cb, rb):
    """Pairs (i, j), grouped by ascending i, whose caps B(ca_i, ra_i) and
    B(cb_j, rb_j) overlap, to BOUND_SLACK.

    A coordinate moves no further than the angle, so overlapping caps have
    overlapping shadows [c - r, c + r] on the axis where the cb spread most:
    either the b shadow starts inside the a shadow or the a shadow starts
    strictly inside the b shadow. The chord between the centres then decides.
    """
    axis = int(np.argmax(np.ptp(cb, axis=0)))
    ra = ra + BOUND_SLACK
    lo_a, lo_b = ca[:, axis] - ra, cb[:, axis] - rb
    i1, j1 = _starts_inside(lo_a, ca[:, axis] + ra, lo_b, strict=False)
    j2, i2 = _starts_inside(lo_b, cb[:, axis] + rb, lo_a, strict=True)
    i, j = np.concatenate((i1, i2)), np.concatenate((j1, j2))
    d = ca[i] - cb[j]
    half = 0.5 * np.minimum(ra[i] + rb[j], np.pi)
    keep = np.add.reduce(d * d, axis=1) <= 4.0 * np.sin(half) ** 2
    i, j = i[keep], j[keep]
    by_i = np.argsort(i, kind="stable")
    return i[by_i], j[by_i]


def _sample_counts(e: np.ndarray, spacing: float) -> np.ndarray:
    """densify's slerp steps on edges of lengths e."""
    return np.maximum(1, np.ceil(e / spacing).astype(int))


def _edge_samples(a, b, e, edges, counts, end=None):
    """densify's points on edges[k], counts[k] of them from its start, each with
    its k; `end`, the k of an arc's last edge, adds the arc's last node there."""
    k, step = _runs(counts)
    f = step / counts[k]
    i = edges[k]
    ang = e[i]
    pts = (np.sin((1.0 - f) * ang)[:, None] * a[i]
           + np.sin(f * ang)[:, None] * b[i]) / np.sin(ang)[:, None]
    if end is not None:
        pts = np.concatenate((pts, b[edges[end]][None]))
        k = np.append(k, end)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True), k


def densify(curve: SphereCurve, spacing: float) -> np.ndarray:
    """Sample points along the polyline at most `spacing` apart (includes nodes):
    ceil(h / spacing) slerp steps per edge of length h, and an arc's last node."""
    e = curve.edge_lengths()
    a, b = edge_ends(wrapped(curve.nodes, curve.closed), curve.closed)
    m = len(e)
    pts, _ = _edge_samples(a, b, e, np.arange(m), _sample_counts(e, spacing),
                           None if curve.closed else m - 1)
    return pts


def _node_distances(nodes, centre, half, frames) -> np.ndarray:
    """Distance, by curve_distance's formula, from each node to the polyline with
    these edge caps (centre, half length) and stacked _edge_frames, measured
    against nearby edges only.

    A point within r of the polyline has its nearest edge j within r + half_j of
    centre_j, so the edges whose caps lie that close settle every point they
    bring within r; r starts at the longest edge and doubles for the rest, and
    from r = pi on every edge is near.
    """
    out = np.empty(len(nodes))
    todo = np.arange(len(nodes))
    r = 2.0 * float(half.max())
    while len(todo):
        owner, cand = _cap_pairs(nodes[todo], np.full(len(todo), r), centre, half)
        d = _edge_distance(*np.vecdot(nodes[todo][owner, None], frames[cand]).T)
        near = _group_min(d, np.bincount(owner, minlength=len(todo)))
        done = (near <= r) | (r >= np.pi)
        out[todo[done]] = near[done]
        todo, r = todo[~done], 2.0 * r
    return out


def _directed_hausdorff(x: SphereCurve, y: SphereCurve, refine: float) -> float:
    """max over densify(x, refine) of curve_distance(., y), evaluated only on the
    x-edges that can hold the max and, for each, the y-edges that can be nearest."""
    ext = wrapped(x.nodes, x.closed)
    a, b = edge_ends(ext, x.closed)
    e = wrapped_edges(ext, x.closed)
    ya, yb, pole, ta, tb = _edge_frames(y.nodes, y.closed)
    frames = np.stack((ta, tb, pole, ya, yb), axis=1)
    centre, half = _midpoints(ya, yb), 0.5 * y.edge_lengths()
    d_node = _node_distances(x.nodes, centre, half, frames)
    # distance to y is 1-Lipschitz, so no point of edge i is further than ub[i]
    da, db = edge_ends(wrapped(d_node, x.closed), x.closed)
    ub = 0.5 * (da + db + e)
    floor = float(d_node.max())  # densified nodes reach it, to rounding
    order = np.argsort(-ub, kind="stable")
    order = order[ub[order] >= floor - BOUND_SLACK]
    # a point of edge i is within e_i / 2 of its cap centre and within ub[i] of
    # its nearest point, which is within e_j / 2 of the centre of its edge j
    owner, cand = _cap_pairs(_midpoints(a[order], b[order]), ub[order] + 0.5 * e[order],
                             centre, half)
    ncand = np.bincount(owner, minlength=len(order))
    first = np.cumsum(ncand) - ncand
    counts = _sample_counts(e[order], refine)
    cost = np.concatenate(([0], np.cumsum(counts * ncand)))
    last = len(order)  # the position of an arc's last edge, which ends in its last node
    if not x.closed and len(e) - 1 in order:
        last = int(np.flatnonzero(order == len(e) - 1)[0])
    best = -np.inf
    start, budget = 0, _FIRST_BATCH
    # edges by descending bound, in batches that double in size, until the
    # next bound cannot beat the running max
    while start < len(order) and ub[order[start]] >= max(best, floor) - BOUND_SLACK:
        stop = max(start + 1, int(np.searchsorted(cost, cost[start] + budget, "right")) - 1)
        tail = last - start if start <= last < stop else None
        pts, k = _edge_samples(a, b, e, order[start:stop], counts[start:stop], tail)
        pos = start + k
        p, step = _runs(ncand[pos])
        j = cand[first[pos[p]] + step]
        d = _edge_distance(*np.vecdot(pts[p, None], frames[j]).T)
        best = max(best, float(_group_min(d, ncand[pos]).max()))
        start, budget = stop, 2 * budget
    return best


def hausdorff_distance(a: SphereCurve, b: SphereCurve, refine: float = 1e-4) -> float:
    """Symmetric Hausdorff distance between two curves.

    Each way it is the max, over densify(., refine), of the exact point-to-polyline
    distance (curve_distance) to the other curve, so the result is accurate to
    refine/2. Distance to a curve is 1-Lipschitz, so an edge whose endpoint
    distances and length bound all its points below the running max is skipped,
    and a point is measured only against edges whose caps can hold its nearest
    point; neither changes the max.
    """
    if refine <= 0:
        raise DomainError("refine must be positive")
    return float(max(_directed_hausdorff(a, b, refine), _directed_hausdorff(b, a, refine)))


def node_tangents(curve: SphereCurve) -> np.ndarray:
    """Unit travel tangents at nodes (central differences, projected)."""
    nodes = curve.nodes
    ext = wrapped(nodes, curve.closed)
    diff = ext[2:] - ext[:-2]
    if not curve.closed:  # one-sided at the endpoints
        diff = np.concatenate((nodes[1:2] - nodes[:1], diff, nodes[-1:] - nodes[-2:-1]))
    diff -= nodes * np.sum(diff * nodes, axis=1, keepdims=True)
    nrm = np.linalg.norm(diff, axis=1, keepdims=True)
    if np.any(nrm < 1e-14):
        raise DomainError("degenerate tangent (coincident neighbor nodes)")
    return diff / nrm


def latitude_deviation_angles(curve: SphereCurve, g: GreatCircle) -> np.ndarray:
    """Unsigned angle in [0, pi/2] between each node tangent and the latitude
    direction of g there. PoleDegenerate within 1e-6 of either pole."""
    nodes = curve.nodes
    if np.any(geodesic_distance(nodes, g.pole) < 1e-6) or \
       np.any(geodesic_distance(nodes, -g.pole) < 1e-6):
        raise PoleDegenerate("curve passes within 1e-6 of a pole of g")
    t = node_tangents(curve)
    lat = g.direction_at(nodes)
    return np.arccos(np.clip(np.abs(np.sum(t * lat, axis=1)), 0.0, 1.0))


def c1_deviation(curve: SphereCurve, g: GreatCircle) -> float:
    """Max latitude-deviation angle over the nodes."""
    return float(latitude_deviation_angles(curve, g).max())


def intersection_count(curve: SphereCurve, g: GreatCircle) -> int:
    """Number of strict sign changes of the height along the polyline.

    Exact for the polyline: each geodesic edge (< pi/2) meets a great circle at
    most once. Exact zero heights are perturbed by +1e-12.
    """
    h = curve.nodes @ g.pole
    h = np.where(h == 0.0, 1e-12, h)
    s_a, s_b = edge_ends(wrapped(np.sign(h), curve.closed), curve.closed)
    return int(np.count_nonzero(s_a != s_b))


def save_curve(path, curve: SphereCurve) -> None:
    kind = "closed" if curve.closed else "arc"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {kind}\n")
        fh.write("# x,y,z\n")
        for p in curve.nodes:
            fh.write(f"{p[0]:.17g},{p[1]:.17g},{p[2]:.17g}\n")


def load_curve(path) -> SphereCurve:
    kind = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                tag = line[1:].strip().lower()
                if tag in ("closed", "arc"):
                    kind = tag
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise DomainError(f"curve file has a non-numeric row: {line!r}")
            if len(row) != 3:
                raise DomainError(f"curve file row must hold x,y,z: {line!r}")
            rows.append(row)
    if kind is None:
        raise DomainError("curve file missing '# closed' or '# arc' header")
    nodes = np.array(rows, dtype=float)
    return ClosedSphereCurve(nodes) if kind == "closed" else SphereArc(nodes)
