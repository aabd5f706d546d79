"""The pruned geometry queries against the brute-force forms they replaced.

curve_distance, curves_cross, hausdorff_distance, self_intersects and the
multiplicity rule skip the parts of a curve that cannot change their
answer. Each brute-force form below evaluates everything, and the queries must
agree with it.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spherecsf import (ClosedSphereCurve, GreatCircle, SphereArc, circle_curve,
                       curve_distance, curves_cross, hausdorff_distance,
                       koch_like, multiplicity_at, multiplicity_sup, offset_curve,
                       orthonormal_frame, perturbed_latitude, self_intersects)
from spherecsf import curves, jordan
from spherecsf.curves import (BOUND_SLACK, CROSS_TOL, _cap_pairs, _edge_distance,
                              _hausdorff_exceeds, edge_ends, wrapped)
from spherecsf.jordan import _band_geometry, _cap_lattice, _components, fibonacci_sphere

from test_curves import wavy_curves


# ---------------------------------------------------------------------------
# brute-force forms


def densify_loop(curve, spacing):
    """The lattice hausdorff_distance searches at refine = spacing: every node
    and ceil(h / spacing) slerp steps on each edge of length h, and an arc's
    last node."""
    e = curve.edge_lengths()
    a, b = edge_ends(wrapped(curve.nodes, curve.closed), curve.closed)
    pieces = []
    counts = np.maximum(1, np.ceil(e / spacing).astype(int))
    for i in range(len(e)):
        f = np.arange(counts[i]) / counts[i]
        ang = e[i]
        pieces.append((np.sin((1.0 - f) * ang)[:, None] * a[i]
                       + np.sin(f * ang)[:, None] * b[i]) / np.sin(ang))
    if not curve.closed:
        pieces.append(curve.nodes[-1:])
    pts = np.concatenate(pieces, axis=0)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def curve_distance_dense(points, curve):
    """Every point against every edge, in chunks of points. The dot products
    are per pair (np.vecdot), as in the pruned search: a matrix product may
    round differently (a single point goes through BLAS gemv)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a, b = edge_ends(wrapped(curve.nodes, curve.closed), curve.closed)
    pole = np.cross(a, b)
    pole /= np.linalg.norm(pole, axis=1, keepdims=True)
    dots = np.sum(a * b, axis=1, keepdims=True)
    ta = b - a * dots  # tangent at a toward b
    ta /= np.linalg.norm(ta, axis=1, keepdims=True)
    tb = a - b * dots  # tangent at b toward a
    tb /= np.linalg.norm(tb, axis=1, keepdims=True)
    frames = np.stack((ta, tb, pole, a, b), axis=1)
    out = np.empty(len(points))
    chunk = max(1, 2 ** 16 // len(a))
    for i0 in range(0, len(points), chunk):
        dot = np.vecdot(points[i0:i0 + chunk, None, None], frames[None])
        out[i0:i0 + chunk] = _edge_distance(*np.moveaxis(dot, -1, 0)).min(axis=1)
    return out


def cap_pairs_dense(ca, ra, cb, rb):
    """Every (i, j) whose caps overlap to BOUND_SLACK by the exact chord test
    alone, each squared chord the row sum of an (m, k, 3) array."""
    d = ca[:, None] - cb[None]
    half = 0.5 * np.minimum((ra + BOUND_SLACK)[:, None] + rb, np.pi)
    i, j = np.nonzero(np.add.reduce(d * d, axis=2) <= 4.0 * np.sin(half) ** 2)
    return list(zip(i.tolist(), j.tolist()))


def hausdorff_brute(a, b, refine):
    return float(max(curve_distance_dense(densify_loop(a, refine), b).max(),
                     curve_distance_dense(densify_loop(b, refine), a).max()))


def _edge_set(nodes, closed):
    a, b = edge_ends(wrapped(np.asarray(nodes, dtype=float), closed), closed)
    poles = np.cross(a, b)
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    return a, b, poles, np.sum(a * b, axis=1)


def meets_dense(p, q, allowed):
    """True if some pair (i, j) with allowed(i, j), i an edge of p and j one of
    q, crosses or touches, or is coplanar and overlaps: every pair tested."""
    a, b, poles, cos_len = p
    qa, qb, qpoles, qcos = q
    cr = np.cross(poles[:, None, :], qpoles[None, :, :])
    nn = np.linalg.norm(cr, axis=2)
    gi, jj = np.nonzero((nn > 1e-12) & allowed(*np.indices(nn.shape)))
    c = cr[gi, jj] / nn[gi, jj][:, None]
    for cand in (c, -c):
        on_i = ((np.sum(cand * a[gi], axis=1) >= cos_len[gi] - CROSS_TOL)
                & (np.sum(cand * b[gi], axis=1) >= cos_len[gi] - CROSS_TOL))
        on_j = ((np.sum(cand * qa[jj], axis=1) >= qcos[jj] - CROSS_TOL)
                & (np.sum(cand * qb[jj], axis=1) >= qcos[jj] - CROSS_TOL))
        if np.any(on_i & on_j):
            return True
    for i, j in zip(*np.nonzero((nn <= 1e-12) & allowed(*np.indices(nn.shape)))):
        for pt, (ea, eb, ec) in ((qa[j], (a[i], b[i], cos_len[i])),
                                 (qb[j], (a[i], b[i], cos_len[i])),
                                 (a[i], (qa[j], qb[j], qcos[j])),
                                 (b[i], (qa[j], qb[j], qcos[j]))):
            if pt @ ea > ec + CROSS_TOL and pt @ eb > ec + CROSS_TOL:
                return True
    return False


def self_intersects_dense(nodes, closed):
    e = _edge_set(nodes, closed)
    m = len(e[0])

    def nonadjacent(i, j):
        keep = j > i + 1
        return keep & ~((i == 0) & (j == m - 1)) if closed else keep

    return meets_dense(e, e, nonadjacent)


def curves_cross_dense(p, q):
    return meets_dense(_edge_set(p.nodes, p.closed), _edge_set(q.nodes, q.closed),
                       lambda i, j: np.ones(i.shape, dtype=bool))


def height_extrema(ha, hb, cos_edge, sin_edge):
    """(min |height|, max |height|) of the sinusoidal height profile along edges
    whose ends have heights ha, hb: the ends' unless the profile has an
    extremum inside the edge (its amplitude) or a zero there."""
    amp_sq = (ha * ha + hb * hb - 2.0 * ha * hb * cos_edge) / (sin_edge * sin_edge)
    amp = np.sqrt(np.maximum(amp_sq, 0.0))
    crit_inside = (hb - ha * cos_edge) * (hb * cos_edge - ha) < 0.0
    abs_max = np.where(crit_inside, amp, np.maximum(np.abs(ha), np.abs(hb)))
    abs_min = np.where(ha * hb <= 0.0, 0.0, np.minimum(np.abs(ha), np.abs(hb)))
    return abs_min, abs_max


def _multiplicity_from_heights(h, cos_edge, sin_edge, sin_band, sin_touch, closed):
    """Component count and index ranges given node heights against one pole:
    an edge between in-band nodes links them if its max |height| is below
    sin_band, and a component counts if a node or a linked edge has min
    |height| <= sin_touch."""
    n = len(h)
    in_band = np.abs(h) < sin_band
    if not in_band.any():
        return 0, []
    emin, emax = height_extrema(*edge_ends(wrapped(h, closed), closed), cos_edge, sin_edge)
    band_a, band_b = edge_ends(wrapped(in_band, closed), closed)
    link = band_a & band_b & (emax < sin_band)

    comps = []
    if closed and link.all():
        comps.append((0, n - 1, np.arange(n), np.arange(n)))
    else:
        # starts: in-band nodes whose incoming link is absent
        incoming = np.roll(link, 1) if closed else np.concatenate([[False], link])
        starts = np.nonzero(in_band & ~incoming)[0]
        for s in starts:
            idx = [s]
            j = s
            # an arc's last node has no outgoing link
            while j < len(link) and link[j]:
                j = (j + 1) % n
                idx.append(j)
            idx = np.array(idx)
            # edge k joins nodes k and k+1, so internal edges are idx[:-1]
            eidx = idx[:-1]
            comps.append((int(idx[0]), int(idx[-1]), idx, eidx))

    count = 0
    ranges = []
    for a, b, idx, eidx in comps:
        touch = np.abs(h[idx]).min() <= sin_touch
        if not touch and len(eidx):
            touch = emin[eidx].min() <= sin_touch
        if touch:
            count += 1
            ranges.append((a, b))
    return count, ranges


def multiplicity_counts_loop(curve, r, poles):
    band = _band_geometry(curve, r)
    heights = curve.nodes @ poles.T
    return [_multiplicity_from_heights(heights[:, k], *band) for k in range(len(poles))]


def multiplicity_sup_loop(curve, r, pole_samples):
    """The sup's count, pole and ranges, and the coarse and fine lattices searched."""
    def evaluate(poles):
        best = None
        for k, (count, ranges) in enumerate(multiplicity_counts_loop(curve, r, poles)):
            key = (-count, tuple(poles[k]))
            if best is None or key < best[0]:
                best = (key, count, poles[k], ranges)
        return best

    lattices = [fibonacci_sphere(pole_samples)]
    coarse = evaluate(lattices[0])
    frame = (*orthonormal_frame(coarse[2]), coarse[2])
    lattices.append(_cap_lattice(frame, np.sqrt(4.0 * np.pi / pole_samples), 64))
    fine = evaluate(lattices[1])
    _, count, pole, ranges = min([coarse, fine], key=lambda b: b[0])
    return count, pole, ranges, lattices


# ---------------------------------------------------------------------------
# curves


def _rotation(rng):
    return np.linalg.qr(rng.normal(size=(3, 3)))[0]


def _wavy_nodes(draw, rng, rot, rho, jitter):
    """A latitude-like polygon about a rotated pole, its polar distance waving."""
    n = draw(st.integers(8, 300))
    ang = 2.0 * np.pi * (np.arange(n) + jitter * rng.uniform(-0.5, 0.5, n)) / n
    rho = rho + draw(st.floats(0.0, 0.2)) * np.sin(draw(st.integers(1, 6)) * ang)
    nodes = np.stack([np.sin(rho) * np.cos(ang), np.sin(rho) * np.sin(ang),
                      np.cos(rho)], axis=1)
    return nodes @ rot.T


@st.composite
def curve_pairs(draw):
    """Two wavy polygons about one pole at different n and polar distance, each
    closed or an arc."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rot = _rotation(rng)
    rho = draw(st.floats(0.3, 1.4))
    pair = []
    for offset in (0.0, draw(st.floats(0.005, 0.1))):
        nodes = _wavy_nodes(draw, rng, rot, rho + offset, draw(st.floats(0.0, 0.9)))
        pair.append(ClosedSphereCurve(nodes) if draw(st.booleans())
                    else SphereArc(nodes[: len(nodes) // 2 + 4]))
    return tuple(pair)


def _at_threshold(rng, ca, ra, rb, i):
    """For each radius rb_j, a centre at exactly the threshold angle
    min(ra_i + BOUND_SLACK + rb_j, pi) from a cap i[j], in a random direction."""
    angle = np.minimum(ra[i] + BOUND_SLACK + rb, np.pi)
    t = rng.normal(size=(len(rb), 3))
    t -= ca[i] * np.sum(t * ca[i], axis=1, keepdims=True)
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    return np.cos(angle)[:, None] * ca[i] + np.sin(angle)[:, None] * t


@st.composite
def cap_sets(draw):
    """Two sets of caps with radii from 1e-9 to 2 rad, the centres in a
    cluster about as wide as the radii; the a side may be empty. The b caps
    may instead all sit at exactly the threshold angle from some a cap, or
    copy the a caps grown by BOUND_SLACK, so that their shadows start level."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, k = draw(st.integers(0, 40)), draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.floats(-9.0, 0.3))  # typical radius; 2 rad at most
    ra, rb = (np.clip(scale * 10.0 ** rng.uniform(-1.0, 1.0, size), 1e-9, 2.0)
              for size in (m, k))
    centre = rng.normal(size=3)
    ca, cb = (centre / np.linalg.norm(centre) + 3.0 * scale * rng.normal(size=(size, 3))
              for size in (m, k))
    ca, cb = (c / np.linalg.norm(c, axis=1, keepdims=True) for c in (ca, cb))
    place = draw(st.sampled_from(["cluster", "threshold", "copy"])) if m else "cluster"
    if place == "threshold":
        cb = _at_threshold(rng, ca, ra, rb, rng.integers(m, size=k))
    elif place == "copy":
        cb, rb = ca, ra + BOUND_SLACK
    return ca, ra, cb, rb


@st.composite
def tangles(draw):
    """Node lists that often cross themselves: wavy polygons whose nodes may
    overtake each other, or random walks with sharp turns."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    closed = draw(st.booleans())
    if draw(st.booleans()):
        nodes = _wavy_nodes(draw, rng, _rotation(rng), draw(st.floats(0.3, 1.4)),
                            draw(st.floats(0.0, 3.0)))
        return nodes, closed
    n = draw(st.integers(8, 120))
    step = draw(st.floats(0.02, 0.3))
    turn = draw(st.floats(0.0, 2.0))
    p = np.array([0.0, 0.0, 1.0])
    heading = np.array([1.0, 0.0, 0.0])
    nodes = [p]
    for theta in rng.normal(0.0, turn, n - 1):
        side = np.cross(p, heading)
        heading = np.cos(theta) * heading + np.sin(theta) * side
        q = np.cos(step) * p + np.sin(step) * heading
        heading = heading * np.cos(step) - p * np.sin(step)  # transported
        p = q / np.linalg.norm(q)
        heading -= p * (heading @ p)
        heading /= np.linalg.norm(heading)
        nodes.append(p)
    return np.array(nodes) @ _rotation(rng).T, closed


# ---------------------------------------------------------------------------
# oracle tests


@settings(max_examples=100)
@given(wavy_curves(), st.sampled_from([1e-9, 1e-4, 1e-2]), st.integers(0, 2 ** 32 - 1))
@example(perturbed_latitude(1.0, 0.1, 5, n=640), 1e-4, 0)  # 5248 points: 3.2 row blocks
def test_curve_distance_matches_dense(curve, nudge, seed):
    # points on the curve (nodes and densified points), nudged off it, spread
    # over the sphere, and the antipodes of all of them; and no points
    rng = np.random.default_rng(seed)
    on = np.concatenate((curve.nodes, densify_loop(curve, 0.05)))
    pts = np.concatenate((on, on + nudge * rng.normal(size=on.shape),
                          rng.normal(size=(64, 3))))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = np.concatenate((pts, -pts))
    assert np.array_equal(curve_distance(pts, curve), curve_distance_dense(pts, curve))
    k = rng.integers(len(pts))
    assert np.array_equal(curve_distance(pts[k], curve), curve_distance_dense(pts[k], curve))
    for none in ([], np.empty((0, 3))):
        assert np.array_equal(curve_distance(none, curve), np.empty(0))


@settings(max_examples=60)
@given(curve_pairs(), st.sampled_from([1e-2, 3e-3, 1e-3, 3e-4, 2.0]))
def test_hausdorff_matches_brute_force(pair, refine):
    # at 3e-4 intervals split over several levels; 2.0 is longer than every
    # edge, so each edge has one lattice point and nothing to split
    a, b = pair
    assert hausdorff_distance(a, b, refine) == hausdorff_brute(a, b, refine)


@settings(max_examples=30)
@given(wavy_curves(), st.floats(0.01, 0.2), st.integers(0, 2 ** 32 - 1), st.integers(0, 20))
def test_hausdorff_to_a_moved_copy(curve, shift, seed, half):
    # the same polygon nudged: the max can sit inside an edge. The longest edge
    # gets the odd lattice count 2 half + 1, so bisection rounds its midpoints.
    rng = np.random.default_rng(seed)
    moved = curve.nodes + shift * 0.1 * rng.normal(size=(1, 3))
    other = curve.with_nodes(moved / np.linalg.norm(moved, axis=1, keepdims=True))
    refine = curve.edge_lengths().max() / (2 * half + 0.5)
    assert hausdorff_distance(curve, other, refine) == hausdorff_brute(curve, other, refine)


@pytest.mark.parametrize("refine", [1e-2, 1e-3, 3e-4, 2.0])
def test_hausdorff_to_an_arc_whose_last_node_is_farthest(refine):
    # an arc along a latitude whose last node turns 0.05 off it: the max of
    # both ways is that node, a lattice point no edge's steps reach
    lon = np.linspace(0.0, 1.5, 40)
    arcs = []
    for lift in (0.0, 0.05):
        rho = np.full(40, 1.0)
        rho[-1] -= lift
        arcs.append(SphereArc(np.stack([np.sin(rho) * np.cos(lon), np.sin(rho) * np.sin(lon),
                                        np.cos(rho)], axis=1)))
    latitude, arc = arcs
    far = curve_distance_dense(densify_loop(arc, refine)[-1:], latitude)[0]
    assert hausdorff_distance(arc, latitude, refine) == hausdorff_brute(arc, latitude, refine)
    assert hausdorff_distance(arc, latitude, refine) == far


def _thresholds(h):
    return (h, np.nextafter(h, 0.0), np.nextafter(h, np.inf), h / 2, 2 * h)


@settings(max_examples=40)
@given(curve_pairs(), st.sampled_from([1e-2, 1e-3, 2.0]))
def test_hausdorff_exceeds_matches_brute_force(pair, refine):
    a, b = pair
    h = hausdorff_brute(a, b, refine)
    for bound in _thresholds(h):
        assert _hausdorff_exceeds(a, b, bound, refine) == (h > bound)


@pytest.mark.parametrize("eps, side", [(0.01, 1), (0.05, 1), (0.05, -1)])
def test_hausdorff_exceeds_on_an_offset_circle(eps, side):
    # every point of the offset sits about eps from the circle, so no bound
    # on an edge's points falls below the max until the stretch is short
    circle = circle_curve(np.pi / 3, n=512)
    out = offset_curve(circle, eps, side)
    refine = min(1e-3, eps / 4)
    h = hausdorff_brute(out, circle, refine)
    assert abs(h - eps) < 1e-3
    for bound in _thresholds(h) + (2 * eps,):
        assert _hausdorff_exceeds(out, circle, bound, refine) == (h > bound)


def _c09_pair():
    return perturbed_latitude(1.1, 0.12, 5, n=512), circle_curve(1.1, n=512)


@pytest.fixture
def measured(monkeypatch):
    """Row counts of every batch of lattice points the Hausdorff search measures."""
    rows = []
    lattice = curves._lattice

    def counted(a, b, e, i, s, count):
        rows.append(len(i))
        return lattice(a, b, e, i, s, count)

    monkeypatch.setattr(curves, "_lattice", counted)
    return rows


@pytest.mark.parametrize("refine", [1e-4, 1e-6])
def test_hausdorff_measures_a_fraction_of_the_lattice(measured, refine):
    # point counts are exact on every machine. Densifying every edge the node
    # bounds keep would measure 17% and 14% of the 1e-4 lattices.
    pert, base = _c09_pair()
    for x, y in ((pert, base), (base, pert)):
        measured.clear()
        curves._directed_hausdorff(x, curves._edges(x.nodes, True),
                                   curves._edges(y.nodes, True), refine)
        size = int(curves._sample_counts(x.edge_lengths(), refine).sum())  # the lattice's
        assert sum(measured) <= size / 16


def test_hausdorff_exceeds_stops_at_its_bound(measured):
    # the offset sits about eps from the circle, so the node bounds rule out
    # every edge below 2 eps and no lattice point is measured
    circle = circle_curve(np.pi / 3, n=512)
    assert not _hausdorff_exceeds(offset_curve(circle, 0.05, 1), circle, 0.1, 1e-3)
    assert sum(measured) == 0


def _arc_over_chord(lift):
    """14 nodes at heights `lift` over the 0.26-long geodesic from (1, 0, 0),
    like c11's final arc, and that geodesic's 64-node chord."""
    s = np.broadcast_arrays(np.linspace(0.0, 0.26, 14), lift)
    arc = SphereArc(np.stack([np.cos(s[0]) * np.cos(s[1]), np.sin(s[0]) * np.cos(s[1]),
                              np.sin(s[1])], axis=1))
    t = np.linspace(0.0, 0.26, 64)
    return arc, SphereArc(np.stack([np.cos(t), np.sin(t), np.zeros(64)], axis=1))


@pytest.mark.parametrize("refine", [1e-4, 1.05e-4])
@pytest.mark.parametrize("lift", [5e-4, 1e-3, 1.9e-3])
def test_hausdorff_finds_a_max_within_the_slack_of_the_nodes(lift, refine):
    # the nodes at one height: the farthest points are edge midpoints, which a
    # geodesic bows above the nodes by less than BOUND_SLACK (5e-8 per 1e-3 of
    # lift). At 1.05e-4 an edge has 191 steps, so the first midpoint measured
    # is not the farthest.
    arc, chord = _arc_over_chord(lift)
    h = hausdorff_brute(arc, chord, refine)
    assert 0.0 < h - curve_distance_dense(arc.nodes, chord).max() < curves.BOUND_SLACK
    assert hausdorff_distance(arc, chord, refine) == h
    assert _hausdorff_exceeds(arc, chord, np.nextafter(h, 0.0), refine)


def test_hausdorff_memory_is_bounded_when_every_point_is_live():
    # c11's final arc sits within 8e-7 of its chord: on a 1e-6 lattice no
    # stretch's bound falls below the max until it is about a step long
    lift = 8e-7 * np.sin(np.pi * np.linspace(0.0, 1.0, 14))
    arc, chord = _arc_over_chord(lift)
    tracemalloc.start()
    try:
        d = hausdorff_distance(arc, chord, refine=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(d - lift.max()) < 1e-10  # an edge between lifted nodes bulges
    assert peak < 40 * 2 ** 20


def test_curve_distance_memory_is_flat_in_the_point_count():
    # every lattice point is far from this small curve, so the first row block
    # of 2**20 // 1536 points already holds nearly its 2**20 shadow pairs: 88
    # MiB at 700 points, 104 MiB at 7000 (ten blocks); a search over all the
    # points at once peaked at 875 MiB at 7000
    curve = koch_like(4, base_radius=0.1)
    peaks = []
    for pts in (fibonacci_sphere(700), fibonacci_sphere(7000)):
        tracemalloc.start()
        try:
            curve_distance(pts, curve)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_multiplicity_sup_memory_is_bounded_in_depth():
    # the whole 6144 x 2000 height matrix and its temporaries peaked at 238 MiB
    curve = koch_like(5)
    tracemalloc.start()
    try:
        sup = multiplicity_sup(curve, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sup.count == 6
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("rho, n, count", [
    (np.pi / 2, 1024, 1),  # every edge bulges toward the pole and stays in band
    (np.pi / 2 - np.arcsin(0.99 * np.sin(0.2)), 21, 0),  # every edge leaves the band
])
def test_components_memory_per_height_when_every_height_is_in_band(rho, n, count):
    # the most _components holds per height: 90 bytes here in both blocks; 124
    # when the full height extrema were formed on every edge, and 134 in the
    # second block while the dead edge arrays and every run's row were kept
    curve = circle_curve(rho, n=n)
    heights = curve.nodes @ np.tile([0.0, 0.0, 1.0], (2 ** 18 // n, 1)).T
    band = _band_geometry(curve, 0.1)
    assert np.all(np.abs(heights) < band[2])
    tracemalloc.start()
    try:
        counts, rows = _components(heights, *band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.tolist() == [count] * heights.shape[1]
    assert rows[:, 1:].tolist() == [[0, n - 1]] * (count * heights.shape[1])
    assert peak < 100 * heights.size


@settings(max_examples=300)
@given(cap_sets())
def test_cap_pairs_matches_dense(caps):
    i, j = _cap_pairs(*caps)
    assert sorted(zip(i.tolist(), j.tolist())) == cap_pairs_dense(*caps)
    assert np.all(np.diff(i) >= 0)


def test_cap_pairs_keeps_the_pairs_at_exactly_the_threshold():
    # b cap j sits at the threshold angle from a cap j: a few of these pairs
    # round to a squared chord equal to its threshold, the rest fall either side
    rng = np.random.default_rng(3)
    ca = rng.normal(size=(400, 3))
    ca /= np.linalg.norm(ca, axis=1, keepdims=True)
    ra, rb = 10.0 ** rng.uniform(-9.0, 0.3, (2, 400))
    cb = _at_threshold(rng, ca, ra, rb, np.arange(400))
    d = ca - cb
    threshold = 4.0 * np.sin(0.5 * np.minimum(ra + BOUND_SLACK + rb, np.pi)) ** 2
    chord2 = np.add.reduce(d * d, axis=1)
    assert np.any(chord2 == threshold) and np.any(chord2 > threshold)
    i, j = _cap_pairs(ca, ra, cb, rb)
    assert sorted(zip(i.tolist(), j.tolist())) == cap_pairs_dense(ca, ra, cb, rb)
    assert np.all(np.diff(i) >= 0)


@settings(max_examples=150)
@given(curve_pairs())
def test_curves_cross_matches_dense(pair):
    a, b = pair
    assert curves_cross(a, b) == curves_cross_dense(a, b)
    # b's node nearest to a moved onto a's nearest node: the curves touch there
    k, near = np.unravel_index(np.argmax(b.nodes @ a.nodes.T), (b.n, a.n))
    nodes = np.array(b.nodes)
    nodes[k] = a.nodes[near]
    touching = b.with_nodes(nodes)
    assert curves_cross(a, touching) and curves_cross_dense(a, touching)


@settings(max_examples=200)
@given(tangles())
def test_self_intersects_matches_dense(tangle):
    nodes, closed = tangle
    assert self_intersects(nodes, closed) == self_intersects_dense(nodes, closed)


@settings(max_examples=100)
@given(wavy_curves())
def test_self_intersects_matches_dense_on_curves(curve):
    nodes = np.array(curve.nodes)
    assert self_intersects(nodes, curve.closed) is False
    assert not self_intersects_dense(nodes, curve.closed)
    k = len(nodes) // 3
    nodes[[k, 2 * k]] = nodes[[2 * k, k]]
    assert self_intersects(nodes, curve.closed) == self_intersects_dense(nodes,
                                                                         curve.closed)


@pytest.mark.parametrize("lon", [
    np.concatenate([np.linspace(0.0, 1.0, 11), [0.95, 0.85, 0.75]]),
    [0.0, 0.3, 0.2, 0.1],  # the third edge lies inside the first
    [0.1, 0.2, 0.3, 0.0],  # the first edge lies inside the third
])
def test_self_intersects_sees_a_doubled_back_great_circle(lon):
    # along the equator and back: nonadjacent edges on one great circle overlap
    lon = np.asarray(lon)
    nodes = np.stack([np.cos(lon), np.sin(lon), np.zeros_like(lon)], axis=1)
    for closed in (False, True):
        assert self_intersects(nodes, closed)
        assert self_intersects_dense(nodes, closed)


def test_equator_polygon_does_not_self_intersect():
    for n in (8, 128, 512):
        nodes = circle_curve(np.pi / 2, n=n).nodes
        assert not self_intersects(nodes, True)
        assert not self_intersects(nodes[: n // 2], False)


@settings(max_examples=40)
@given(wavy_curves(), st.sampled_from([0.02, 0.05, 0.1, 0.3]), st.integers(0, 2 ** 32 - 1))
def test_component_counts_match_per_pole_loop(curve, r, seed):
    poles = fibonacci_sphere(200) @ _rotation(np.random.default_rng(seed)).T
    counts, rows = _components(curve.nodes @ poles.T, *_band_geometry(curve, r))
    loop = multiplicity_counts_loop(curve, r, poles)
    assert counts.tolist() == [c for c, _ in loop]
    assert [tuple(row) for row in rows.tolist()] == [(k, a, b) for k, (_, ranges)
                                                     in enumerate(loop) for a, b in ranges]


@settings(max_examples=40)
@given(wavy_curves(), st.sampled_from([0.02, 0.05, 0.1, 0.3]), st.integers(0, 2 ** 32 - 1))
def test_multiplicity_at_matches_per_pole_loop(curve, r, seed):
    # the drawn curve and, when it is closed, the arc on the same nodes
    poles = fibonacci_sphere(100) @ _rotation(np.random.default_rng(seed)).T
    for c in [curve] + ([SphereArc(curve.nodes)] if curve.closed else []):
        got = [multiplicity_at(c, GreatCircle(p), r) for p in poles]
        assert [(m.count, m.components) for m in got] == multiplicity_counts_loop(c, r, poles)


@settings(max_examples=40)
@given(wavy_curves(), st.sampled_from([0.02, 0.05, 0.1]), st.sampled_from([100, 400]),
       st.sampled_from(["default", "2**9 heights", "three poles", "half a pole"]))
def test_multiplicity_sup_matches_per_pole_loop(curve, r, pole_samples, blocks):
    # 2**9 heights cut each lattice into blocks of 1 to 64 poles; blocks of three
    # poles leave a remainder of one in every lattice length (100, 400 and 64);
    # half a pole's heights make blocks of one
    height_block = {"default": jordan._HEIGHT_BLOCK, "2**9 heights": 2 ** 9,
                    "three poles": 3 * curve.n, "half a pole": curve.n // 2}[blocks]
    seen = []

    def recorded(heights, *band):
        seen.append(heights)
        return _components(heights, *band)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jordan, "_HEIGHT_BLOCK", height_block)
        mp.setattr(jordan, "_components", recorded)
        got = multiplicity_sup(curve, r, pole_samples=pole_samples)
    count, pole, ranges, lattices = multiplicity_sup_loop(curve, r, pole_samples)
    assert (got.count, tuple(got.pole), got.components) == (count, tuple(pole), ranges)
    # a one-pole block is padded for gemm, as gemv's heights can differ in the last bit
    assert np.array_equal(np.concatenate(seen, axis=1),
                          np.concatenate([curve.nodes @ p.T for p in lattices], axis=1))


def test_multiplicity_sup_ties_go_to_the_smallest_pole():
    # a great circle meets every band once, so every pole ties
    curve = circle_curve(np.pi / 2, n=128)
    got = multiplicity_sup(curve, 0.05, pole_samples=100)
    count, pole, ranges, _ = multiplicity_sup_loop(curve, 0.05, 100)
    assert (got.count, tuple(got.pole), got.components) == (count, tuple(pole), ranges)


def test_multiplicity_at_reads_its_poles_lattice_column():
    # a one-pole gemv reads (1488, 521) here: its heights differ in the last
    # bit from the lattice's gemm next to the band's edge
    curve, poles, r = koch_like(4), fibonacci_sphere(2000), 0.31658152159801384
    counts, rows = _components(curve.nodes @ poles.T, *_band_geometry(curve, r))
    at = multiplicity_at(curve, GreatCircle(poles[56]), r)
    assert rows[rows[:, 0] == 56, 1:].tolist() == [[1486, 521]]
    assert (at.count, at.components) == (counts[56], [(1486, 521)])


def test_only_evaluate_forms_heights():
    # multiplicity_at, multiplicity_sup and c07 read every height from one
    # product: no other function in jordan.py multiplies nodes by poles
    tree = ast.parse(Path(jordan.__file__).read_text())

    def is_nodes(node):
        return (isinstance(node, ast.Attribute) and node.attr == "nodes"
                or isinstance(node, ast.Name) and node.id == "nodes")

    formers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
               and (is_nodes(node.left) or is_nodes(node.right))}
    assert formers == {"_evaluate"}
