"""Polyline curve models on the sphere: validation, diagnostics, resampling, distances.

A curve is an ordered array of unit nodes joined by geodesic edges. Closed curves wrap
around; arcs have pinned endpoints. Orientation conventions: travel direction t at a
node, left normal p x t; positive turning = left turn; enclosed area is the region to
the left of travel.

Neighbours come from one padded array, `wrapped(nodes, closed)`: a closed curve gets its
last node prepended and its first appended, an arc is left as it is, so on either kind
chord j runs from row j to row j + 1 and the node at row j has neighbours at rows j - 1
and j + 1. `edge_ends` picks the edges, in node order, out of that array.

A curve keeps the edge lengths its validation computed, read-only, and every
consumer of the mesh (length, integrals, resampling, distances, the flow's
snapshots and remeshes) reads them instead of measuring the edges again. The
per-node formulas (validation's norms, turning angles, tangents and the normal
push, resampling) run component-major, on (3, n) views: a dot product sums the
rows of a (3, n) array in the order numpy sums a length-3 row and the cross
product is written out by component as np.cross computes it, so the results are
bit-identical to the (n, 3) forms the tests keep as their reference; so are the
cap-pair search's chords.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from .errors import DomainError, NotEmbedded, PoleDegenerate, TooFewNodes
from .sphere import GreatCircle, edge_slerp, geodesic_distance

MIN_NODES = 8
EDGE_MIN = 1e-8
EDGE_MAX = np.pi / 2.0
# Nonadjacent edges closer than this (in the crossing test) count as intersecting.
CROSS_TOL = 1e-12
# diagnostics() needs at least this many nodes to mean anything.
DIAG_MIN_NODES = 32
# Radians added to every cap and Lipschitz bound of the pruned queries. It covers
# the arccos noise floor (about 2.6e-8 near zero) of the distances the bounds are
# built from (edge lengths come from chords, wrapped_edges), so pruning never
# drops a deciding pair.
BOUND_SLACK = 1e-7
# Point-edge pairs the Hausdorff search measures at once, about 200 bytes each.
_PAIR_CHUNK = 2 ** 16


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
    """Geodesic edge lengths, in node order, of the curve whose wrapped nodes are
    ext: 2 asin(c / 2) of each chord length c, exact to the nodes' own rounding
    (arccos of the ends' dot product errs by up to about 1.1e-16 / h on an edge
    h), and pi for a chord that rounds above 2. The flow's step measures its
    edges in the same arithmetic."""
    a, b = edge_ends(ext, closed)
    d = (b - a).T
    return 2.0 * np.arcsin(np.minimum(0.5 * np.sqrt(_dot3(d, d)), 1.0))


def _dot3(a, b):
    """Column dot products of (3, m) arrays, summed as numpy sums a length-3 row."""
    p = a * b
    return p[0] + p[1] + p[2]


def _check_positive(value, name: str) -> None:
    """Raise DomainError naming `name` unless value is positive and finite."""
    if not (0.0 < value < np.inf):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _validated_nodes(nodes, closed: bool):
    """The renormalised (n, 3) C-contiguous nodes and their edge lengths, both
    read-only; DomainError or TooFewNodes if they cannot form a curve."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 3:
        raise DomainError(f"nodes must have shape (n, 3), got {nodes.shape}")
    n = len(nodes)
    if n < MIN_NODES:
        raise TooFewNodes(f"need at least {MIN_NODES} nodes, got {n}")
    norms = np.sqrt(_dot3(nodes.T, nodes.T))
    if not (np.abs(norms - 1.0) <= 1e-9).all():  # false for a NaN or inf norm too
        if not np.isfinite(nodes).all():
            raise DomainError("nodes must be finite")
        raise DomainError("all nodes must be unit vectors (tolerance 1e-9)")
    nodes = np.divide(nodes, norms[:, None], order="C")
    edges = wrapped_edges(wrapped(nodes, closed), closed)
    lo, hi = edges.min(), edges.max()
    if not (EDGE_MIN < lo and hi < EDGE_MAX):
        raise DomainError(
            f"edge lengths must lie in ({EDGE_MIN}, pi/2); got range [{lo:.3e}, {hi:.3e}]")
    nodes.flags.writeable = edges.flags.writeable = False
    return nodes, edges


@dataclass(frozen=True)
class _Polyline:
    """Validated read-only nodes and their edge lengths; subclasses only say
    whether the curve closes."""

    nodes: np.ndarray
    closed: ClassVar[bool]
    _edges: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes, edges = _validated_nodes(self.nodes, self.closed)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_edges", edges)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def edge_lengths(self) -> np.ndarray:
        """Geodesic edge lengths in node order, read-only."""
        return self._edges

    def length(self) -> float:
        return float(self._edges.sum())

    def with_nodes(self, nodes):
        return type(self)(nodes)


class ClosedSphereCurve(_Polyline):
    """Closed polyline; the last node joins back to the first."""

    closed = True


class SphereArc(_Polyline):
    """Open polyline; the first and last nodes are the (fixed) endpoints."""

    closed = False


SphereCurve = ClosedSphereCurve | SphereArc


def _tangent_toward(p, q):
    """Unit tangents at the columns of p toward those of q, (3, m) arrays:
    q - p (p.q), normalised."""
    t = q - p * _dot3(p, q)
    t /= np.sqrt(_dot3(t, t))
    return t


def turning_angles(curve: SphereCurve) -> np.ndarray:
    """Signed exterior angles, positive for left turns.

    Closed: one angle per node. Arc: one per interior node (n - 2 values).
    """
    ext = wrapped(curve.nodes, curve.closed).T
    v = ext[:, 1:-1]
    t_in, t_out = -_tangent_toward(v, ext[:, :-2]), _tangent_toward(v, ext[:, 2:])
    (x, y, z), (u, w, r) = t_in, t_out  # v . (t_in x t_out), the cross as np.cross takes it
    s = v[0] * (y * r - z * w) + v[1] * (z * u - x * r) + v[2] * (x * w - y * u)
    return np.arctan2(s, _dot3(t_in, t_out))


def mean_adjacent_edges(curve: SphereCurve) -> np.ndarray:
    """Mean length h of the two edges at each node that has two (the nodes
    turning_angles measures)."""
    e = curve.edge_lengths()
    if curve.closed:
        e = np.concatenate((e[-1:], e))
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
    total = tau.sum()
    hbar = mean_adjacent_edges(curve)
    area = float(2.0 * np.pi - total) if curve.closed else None
    return CurveDiagnostics(
        length=float(e.sum()),
        total_curvature=float(total),
        bending=float((tau * tau / hbar).sum()),
        enclosed_area=area,
        max_edge=float(e.max()),
        min_edge=float(e.min()),
    )


def diagnostics(curve: SphereCurve) -> CurveDiagnostics:
    """integrals() of an embedded curve with at least DIAG_MIN_NODES nodes."""
    if curve.n < DIAG_MIN_NODES:
        raise TooFewNodes(f"diagnostics needs >= {DIAG_MIN_NODES} nodes, got {curve.n}")
    if self_intersects(curve.nodes, curve.closed):
        raise NotEmbedded("curve polyline intersects itself")
    return integrals(curve)


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
        _check_positive(spacing, "spacing")
        n = nodes_for_spacing(total, spacing, curve.closed)
    if n < MIN_NODES:
        raise TooFewNodes(f"cannot resample to {n} < {MIN_NODES} nodes")
    cum = np.concatenate([[0.0], np.cumsum(e)])
    if curve.closed:
        t = np.arange(n) * (total / n)
    else:
        t = np.linspace(0.0, total, n)
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(e) - 1)
    f = (t - cum[idx]) / e[idx]
    f = np.clip(f, 0.0, 1.0)
    cols = curve.nodes.T  # edge j runs from node j to node j + 1, wrapping on a closed curve
    new = edge_slerp(cols.take(idx, axis=1), cols.take(idx + 1, axis=1, mode="wrap"),
                     e[idx], f)
    new /= np.sqrt(_dot3(new, new))
    if not curve.closed:
        new[:, 0] = curve.nodes[0]
        new[:, -1] = curve.nodes[-1]
    return curve.with_nodes(new.T)


def nodes_for_spacing(length: float, spacing: float, closed: bool) -> int:
    """Node count that places nodes about `spacing` apart along a curve of this
    length (an arc has one node more than edges); at least MIN_NODES."""
    return max(MIN_NODES, int(round(length / spacing)) + (0 if closed else 1))


class _Edges(NamedTuple):
    """Per-edge geometry of a polyline, in node order, for the pruned queries."""

    a: np.ndarray  # start of each edge
    b: np.ndarray  # end of each edge
    pole: np.ndarray  # unit a x b
    cos_len: np.ndarray  # a . b; edges < pi/2 so cos is monotone on them
    frames: np.ndarray  # inward tangents at a and at b, pole, a, b: _edge_distance's dots
    centre: np.ndarray  # normalised chord midpoint, the centre of the edge's caps
    half: np.ndarray  # half the length, the radius of the cap that holds the edge
    reach: np.ndarray  # radius of the cap that holds every point _meet puts on the edge


def _edges(nodes, closed: bool) -> _Edges:
    ext = wrapped(np.asarray(nodes, dtype=float), closed)
    a, b = edge_ends(ext, closed)
    pole = np.cross(a, b)
    pole /= np.linalg.norm(pole, axis=1, keepdims=True)
    cos_len = np.add.reduce(a * b, axis=1)
    centre = a + b
    norm = np.linalg.norm(centre, axis=1)
    centre /= norm[:, None]
    # c.a, c.b >= cos_len - CROSS_TOL give c.centre >= 2 (cos_len - CROSS_TOL) / |a + b|
    reach = np.arccos(np.clip(2.0 * (cos_len - CROSS_TOL) / norm, -1.0, 1.0))
    frames = np.stack((_tangent_toward(a.T, b.T).T, _tangent_toward(b.T, a.T).T, pole, a, b),
                      axis=1)
    return _Edges(a, b, pole, cos_len, frames, centre,
                  0.5 * wrapped_edges(ext, closed), reach)


def _edge_distance(to_a, to_b, height, cos_a, cos_b):
    """Exact distance to a geodesic edge from a point's dot products with the
    edge's frames: the height inside the lune the ends' meridians bound, else
    the nearer end."""
    h = np.abs(np.arcsin(np.clip(height, -1.0, 1.0)))
    d_end = np.minimum(np.arccos(np.clip(cos_a, -1.0, 1.0)),
                       np.arccos(np.clip(cos_b, -1.0, 1.0)))
    return np.where((to_a >= 0.0) & (to_b >= 0.0), h, d_end)


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


def _starts_inside(lo, hi, other, strict: bool):
    """Pairs (k, l) with other[l] in [lo[k], hi[k]], or in (lo[k], hi[k]] when
    strict, grouped by k."""
    order = np.argsort(other, kind="stable")
    first = np.searchsorted(other[order], lo, "right" if strict else "left")
    k, step = _runs(np.searchsorted(other[order], hi, "right") - first)
    return k, order[first[k] + step]


def _cap_pairs(ca, ra, cb, rb):
    """Pairs (i, j), grouped by ascending i, whose caps B(ca_i, ra_i) and
    B(cb_j, rb_j) overlap, to BOUND_SLACK: the one proximity search behind
    every distance, crossing and Hausdorff query.

    A coordinate moves no further than the angle, so overlapping caps have
    overlapping shadows [c - r, c + r] on the axis where the cb spread most:
    either the b shadow starts inside the a shadow or the a shadow starts
    strictly inside the b shadow. The chord between the centres then decides,
    its sine taken only within the bound chord <= s = min(ra + rb, pi), to a
    relative 1e-9: the exact test's 2 sin(s/2) <= s, so the bound drops no pair.
    """
    axis = int(np.argmax(np.ptp(cb, axis=0)))
    ra = ra + BOUND_SLACK
    lo_a, lo_b = ca[:, axis] - ra, cb[:, axis] - rb
    i1, j1 = _starts_inside(lo_a, ca[:, axis] + ra, lo_b, strict=False)
    j2, i2 = _starts_inside(lo_b, cb[:, axis] + rb, lo_a, strict=True)
    i, j = np.concatenate((i1, i2)), np.concatenate((j1, j2))
    d0, d1, d2 = (a[i] - b[j] for a, b in zip(ca.T, cb.T))
    chord2 = d0 * d0 + d1 * d1 + d2 * d2  # in _dot3's order, as the row sums round
    s = np.minimum(ra[i] + rb[j], np.pi)
    near = np.flatnonzero(chord2 <= s * s * (1.0 + 1e-9))
    keep = near[chord2[near] <= 4.0 * np.sin(0.5 * s[near]) ** 2]
    by_i = keep[np.argsort(i[keep], kind="stable")]
    return i[by_i], j[by_i]


def _meet(p: _Edges, q: _Edges, i: np.ndarray, j: np.ndarray) -> bool:
    """True if, for some k, edge i[k] of p and edge j[k] of q cross or touch
    (tol CROSS_TOL), or lie on one great circle and overlap."""
    cr = np.cross(p.pole[i], q.pole[j])
    nn = np.linalg.norm(cr, axis=1)
    apart = nn > 1e-12
    c = cr[apart] / nn[apart][:, None]

    def on(pt, e, k):
        return ((np.sum(pt * e.a[k], axis=1) >= e.cos_len[k] - CROSS_TOL)
                & (np.sum(pt * e.b[k], axis=1) >= e.cos_len[k] - CROSS_TOL))

    ia, ja = i[apart], j[apart]
    if np.any(on(c, p, ia) & on(c, q, ja)) or np.any(on(-c, p, ia) & on(-c, q, ja)):
        return True
    # coplanar pairs: overlap iff some endpoint lies strictly inside the other edge
    i, j = i[~apart], j[~apart]

    def inside(pt, e, k):
        return ((np.vecdot(pt, e.a[k]) > e.cos_len[k] + CROSS_TOL)
                & (np.vecdot(pt, e.b[k]) > e.cos_len[k] + CROSS_TOL))

    return bool(np.any(inside(q.a[j], p, i) | inside(q.b[j], p, i)
                       | inside(p.a[i], q, j) | inside(p.b[i], q, j)))


def self_intersects(nodes: np.ndarray, closed: bool) -> bool:
    """True if any two nonadjacent geodesic edges cross or touch (tol 1e-12).

    Exact for the polyline, and the answer of testing every pair: only pairs
    whose reach caps overlap get the great-circle test, or for coplanar pairs
    the overlap test.
    """
    e = _edges(nodes, closed)
    i, j = _cap_pairs(e.centre, e.reach, e.centre, e.reach)
    keep = j > i + 1
    if closed:
        keep &= ~((i == 0) & (j == len(e.a) - 1))
    return _meet(e, e, i[keep], j[keep])


def curves_cross(a: ClosedSphereCurve, b: ClosedSphereCurve) -> bool:
    """True if the two polylines cross or touch (tol 1e-12): self_intersects'
    test on the pairs of an edge of a and an edge of b, exact for the
    polylines."""
    ea, eb = _edges(a.nodes, a.closed), _edges(b.nodes, b.closed)
    return _meet(ea, eb, *_cap_pairs(ea.centre, ea.reach, eb.centre, eb.reach))


def _distances(points: np.ndarray, edges: _Edges) -> np.ndarray:
    """curve_distance to the polyline with these _edges, one row block at a time.
    A point's distance to its nearest node bounds its distance to the polyline,
    so one _cap_pairs round finds the edge that holds its nearest point. A block
    holds at most 2**20 node products and 2**20 shadow pairs (a point pairs with
    an edge once), so memory does not grow with the number of points.
    """
    out = np.empty(len(points))
    rows = max(1, 2 ** 20 // len(edges.a))
    for i in range(0, len(points), rows):
        block = points[i:i + rows]
        near = np.max(block @ edges.a.T, axis=1)
        owner, cand = _cap_pairs(block, np.arccos(np.clip(near, -1.0, 1.0)),
                                 edges.centre, edges.half)
        d = _edge_distance(*np.vecdot(block[owner, None], edges.frames[cand]).T)
        out[i:i + rows] = _group_min(d, np.bincount(owner, minlength=len(block)))
    return out


def curve_distance(points: np.ndarray, curve: SphereCurve) -> np.ndarray:
    """Exact geodesic distance from each point to the polyline, valid below pi/2,
    in row blocks of at most 2**20 node products and shadow pairs: memory does
    not grow with the number of points; no points give an empty array.
    """
    points = np.asarray(points, dtype=float)
    points = np.atleast_2d(points) if points.size else points.reshape(0, 3)
    return _distances(points, _edges(curve.nodes, curve.closed))


def _sample_counts(e: np.ndarray, spacing: float) -> np.ndarray:
    """The lattice's slerp steps, ceil(h / spacing), on edges of lengths h = e."""
    return np.maximum(1, np.ceil(e / spacing).astype(int))


def _lattice(a, b, e, i, s, count):
    """The lattice's points: step s of count along each edge i, from a[i] to b[i]
    of length e[i], and b[i] itself where s == count; normalised."""
    pts = edge_slerp(a[i], b[i], e[i][:, None], (s / count)[:, None])
    pts[s == count] = b[i[s == count]]
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _directed_hausdorff(x: SphereCurve, ex: _Edges, ey: _Edges, refine: float,
                        above: float = -np.inf) -> float:
    """max over x's refine-lattice of curve_distance(., y), for the curve y whose
    edges are ey (ex are x's), when it exceeds `above`; else at most `above`.
    The lattice is the steps 0 .. count - 1 of each edge, count = ceil(h / refine)
    on an edge of length h, and an arc's last node: every node and points at
    most `refine` apart.

    Distance to y is 1-Lipschitz: no lattice point between steps lo and hi of an
    edge, h apart, is further than (d_lo + d_hi + (hi - lo) h) / 2. Each edge the
    nodes' bound keeps, from its step-0 point to its end node, is bisected until
    no interval can beat max(best, above); a point is measured only against the
    y-edges whose caps can hold its nearest point, _PAIR_CHUNK pairs at a time.
    """
    e = 2.0 * ex.half
    d_node = _distances(x.nodes, ey)
    da, db = edge_ends(wrapped(d_node, x.closed), x.closed)
    ub = 0.5 * (da + db + e)
    kept = np.flatnonzero(ub >= max(float(d_node.max()), above) - BOUND_SLACK)
    # the nearest point to a point of edge i lies within ub[i] + e_i / 2 of its centre
    owner, cand = _cap_pairs(ex.centre[kept], ub[kept] + ex.half[kept], ey.centre, ey.half)
    ncand = np.bincount(owner, minlength=len(kept))
    first = np.cumsum(ncand) - ncand
    count = _sample_counts(e[kept], refine)

    def measure(k, s):
        p, j = _runs(ncand[k])
        pts = _lattice(ex.a, ex.b, e, kept[k], s, count[k])
        d = _edge_distance(*np.vecdot(pts[p, None], ey.frames[cand[first[k[p]] + j]]).T)
        return _group_min(d, ncand[k])

    k = np.arange(len(kept))
    tail = k[kept == len(e) - 1] if not x.closed else k[:0]  # ends in the arc's last node
    d0 = measure(np.concatenate((k, tail)), np.concatenate((0 * k, count[tail])))
    best = float(d0.max(initial=-np.inf))
    stack = [np.stack((k, e[kept] / count, 0 * k, count, d0[:len(k)], db[kept]))]
    while stack:
        k, h, lo, hi, dlo, dhi = iv = stack.pop()
        iv = iv[:, (hi - lo > 1) & (0.5 * (dlo + dhi + (hi - lo) * h)
                                    >= max(best, above) - BOUND_SLACK)]
        if iv.size:  # halve the last _PAIR_CHUNK pairs' worth; the rest wait below
            pairs = np.cumsum(ncand[iv[0].astype(int)][::-1])
            cut = len(pairs) - max(1, int(np.searchsorted(pairs, _PAIR_CHUNK, "right")))
            k, h, lo, hi, dlo, dhi = iv[:, cut:]
            mid = (lo + hi) // 2
            dm = measure(k.astype(int), mid)
            best = max(best, float(dm.max()))
            stack += [iv[:, :cut], np.hstack((np.stack((k, h, lo, mid, dlo, dm)),
                                              np.stack((k, h, mid, hi, dm, dhi))))]
    return best


def hausdorff_distance(a: SphereCurve, b: SphereCurve, refine: float = 1e-4) -> float:
    """Symmetric Hausdorff distance between two curves.

    Each way it is the max, over the curve's refine-lattice (_directed_hausdorff),
    of the exact point-to-polyline distance (curve_distance) to the other curve,
    so it is accurate to refine/2. A bisection of the lattice finds it bit for
    bit, the second way above the first's max.
    """
    _check_positive(refine, "refine")
    ea, eb = _edges(a.nodes, a.closed), _edges(b.nodes, b.closed)
    d = _directed_hausdorff(a, ea, eb, refine)
    return float(max(d, _directed_hausdorff(b, eb, ea, refine, d)))


def _hausdorff_exceeds(a: SphereCurve, b: SphereCurve, bound: float, refine: float) -> bool:
    """hausdorff_distance(a, b, refine) > bound, skipping every point at or below it."""
    _check_positive(refine, "refine")
    ea, eb = _edges(a.nodes, a.closed), _edges(b.nodes, b.closed)
    return bool(_directed_hausdorff(a, ea, eb, refine, bound) > bound
                or _directed_hausdorff(b, eb, ea, refine, bound) > bound)


def _tangent_cols(curve: SphereCurve) -> np.ndarray:
    """node_tangents as (3, n) columns."""
    p, ext = curve.nodes.T, wrapped(curve.nodes, curve.closed).T
    d = ext[:, 2:] - ext[:, :-2]
    if not curve.closed:  # one-sided at the endpoints
        d = np.concatenate((p[:, 1:2] - p[:, :1], d, p[:, -1:] - p[:, -2:-1]), axis=1)
    d -= p * _dot3(d, p)
    nrm = np.sqrt(_dot3(d, d))
    if np.any(nrm < 1e-14):
        raise DomainError("degenerate tangent (coincident neighbor nodes)")
    d /= nrm
    return d


def node_tangents(curve: SphereCurve) -> np.ndarray:
    """Unit travel tangents at nodes (central differences, projected)."""
    return _tangent_cols(curve).T.copy()


def _normal_push(curve: SphereCurve, s: float) -> np.ndarray:
    """The nodes moved a geodesic distance s along their unit left normals
    nu = p x t (t from node_tangents), p cos s + nu sin s, as (n, 3) rows; the
    cross is written out by component as np.cross computes it."""
    p = curve.nodes.T
    (x, y, z), (u, w, r) = p, _tangent_cols(curve)
    nu = np.array((y * r - z * w, z * u - x * r, x * w - y * u))
    out = np.empty_like(curve.nodes)
    q = out.T
    np.multiply(np.cos(s), p, q)
    q += np.multiply(np.sin(s), nu, nu)
    return out


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
