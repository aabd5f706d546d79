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
    """True if any two nonadjacent geodesic edges cross or touch (tol 1e-12)."""
    a, b = edge_ends(wrapped(np.asarray(nodes, dtype=float), closed), closed)
    m = len(a)
    poles = np.cross(a, b)
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    cos_len = np.sum(a * b, axis=1)  # edges < pi/2 so cos is monotone on them

    chunk = max(16, int(4.0e6 / max(m, 1)))
    for i0 in range(0, m, chunk):
        i1 = min(i0 + chunk, m)
        idx_i = np.arange(i0, i1)
        cr = np.cross(poles[i0:i1, None, :], poles[None, :, :])
        nn = np.linalg.norm(cr, axis=2)
        ii, jj = np.nonzero(nn > 1e-12)
        gi = idx_i[ii]
        keep = jj > gi + 1
        if closed:
            keep &= ~((gi == 0) & (jj == m - 1))
        gi, jj, ii = gi[keep], jj[keep], ii[keep]
        if len(gi):
            c = cr[ii, jj] / nn[ii, jj][:, None]
            for cand in (c, -c):
                on_i = ((np.sum(cand * a[gi], axis=1) >= cos_len[gi] - CROSS_TOL)
                        & (np.sum(cand * b[gi], axis=1) >= cos_len[gi] - CROSS_TOL))
                on_j = ((np.sum(cand * a[jj], axis=1) >= cos_len[jj] - CROSS_TOL)
                        & (np.sum(cand * b[jj], axis=1) >= cos_len[jj] - CROSS_TOL))
                if np.any(on_i & on_j):
                    return True
        # coplanar pairs: overlap iff some endpoint lies strictly inside the other edge
        ii2, jj2 = np.nonzero(nn <= 1e-12)
        gi2 = idx_i[ii2]
        keep2 = jj2 > gi2 + 1
        if closed:
            keep2 &= ~((gi2 == 0) & (jj2 == m - 1))
        gi2, jj2 = gi2[keep2], jj2[keep2]
        for i, j in zip(gi2, jj2):
            for p in (a[j], b[j]):
                if (p @ a[i] > cos_len[i] + CROSS_TOL
                        and p @ b[i] > cos_len[i] + CROSS_TOL):
                    return True
            for p in (a[i], b[i]):
                if (p @ a[j] > cos_len[j] + CROSS_TOL
                        and p @ b[j] > cos_len[j] + CROSS_TOL):
                    return True
    return False


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
        in_a = (x @ ta.T) >= 0.0
        in_b = (x @ tb.T) >= 0.0
        h = np.abs(np.arcsin(np.clip(x @ pole.T, -1.0, 1.0)))
        d_end = np.minimum(np.arccos(np.clip(x @ a.T, -1.0, 1.0)),
                           np.arccos(np.clip(x @ b.T, -1.0, 1.0)))
        d = np.where(in_a & in_b, h, d_end)
        out[i0:i0 + chunk] = d.min(axis=1)
    return out


def densify(curve: SphereCurve, spacing: float) -> np.ndarray:
    """Sample points along the polyline at most `spacing` apart (includes nodes)."""
    e = curve.edge_lengths()
    a, b = edge_ends(wrapped(curve.nodes, curve.closed), curve.closed)
    pieces = []
    counts = np.maximum(1, np.ceil(e / spacing).astype(int))
    for i in range(len(e)):
        f = np.arange(counts[i]) / counts[i]
        ang = e[i]
        seg = (np.sin((1.0 - f) * ang)[:, None] * a[i]
               + np.sin(f * ang)[:, None] * b[i]) / np.sin(ang)
        pieces.append(seg)
    if not curve.closed:
        pieces.append(curve.nodes[-1:])
    pts = np.concatenate(pieces, axis=0)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def hausdorff_distance(a: SphereCurve, b: SphereCurve, refine: float = 1e-4) -> float:
    """Symmetric Hausdorff distance between two curves.

    One side is densified to at most `refine` spacing, the other measured exactly
    per edge, so the result is accurate to refine/2.
    """
    if refine <= 0:
        raise DomainError("refine must be positive")
    d_ab = curve_distance(densify(a, refine), b).max()
    d_ba = curve_distance(densify(b, refine), a).max()
    return float(max(d_ab, d_ba))


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
