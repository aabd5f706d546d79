"""The pruned geometry queries against the brute-force forms they replaced.

hausdorff_distance, self_intersects, densify and multiplicity_sup skip the
parts of a curve that cannot change their answer. Each brute-force form below
evaluates everything, and the queries must agree with it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherecsf import (ClosedSphereCurve, SphereArc, circle_curve, curve_distance,
                       densify, hausdorff_distance, multiplicity_sup, self_intersects)
from spherecsf.curves import CROSS_TOL, edge_ends, wrapped
from spherecsf.jordan import (TOUCH_TOL, _cap_lattice, _component_counts,
                              _height_geometry, _multiplicity_from_heights,
                              fibonacci_sphere)

from test_curves import wavy_curves

# Both sides take the same exact distance per point and edge, but the brute
# force gets its dot products from one matrix product, whose BLAS kernel may
# round a product in a tail tile differently from the per-pair dot.
HAUSDORFF_TOL = 1e-12


# ---------------------------------------------------------------------------
# brute-force forms


def densify_loop(curve, spacing):
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


def hausdorff_brute(a, b, refine):
    return float(max(curve_distance(densify_loop(a, refine), b).max(),
                     curve_distance(densify_loop(b, refine), a).max()))


def self_intersects_dense(nodes, closed):
    a, b = edge_ends(wrapped(np.asarray(nodes, dtype=float), closed), closed)
    m = len(a)
    poles = np.cross(a, b)
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    cos_len = np.sum(a * b, axis=1)
    cr = np.cross(poles[:, None, :], poles[None, :, :])
    nn = np.linalg.norm(cr, axis=2)
    gi, jj = np.nonzero(nn > 1e-12)
    keep = jj > gi + 1
    if closed:
        keep &= ~((gi == 0) & (jj == m - 1))
    gi, jj = gi[keep], jj[keep]
    c = cr[gi, jj] / nn[gi, jj][:, None]
    for cand in (c, -c):
        on_i = ((np.sum(cand * a[gi], axis=1) >= cos_len[gi] - CROSS_TOL)
                & (np.sum(cand * b[gi], axis=1) >= cos_len[gi] - CROSS_TOL))
        on_j = ((np.sum(cand * a[jj], axis=1) >= cos_len[jj] - CROSS_TOL)
                & (np.sum(cand * b[jj], axis=1) >= cos_len[jj] - CROSS_TOL))
        if np.any(on_i & on_j):
            return True
    gi, jj = np.nonzero(nn <= 1e-12)
    keep = jj > gi + 1
    if closed:
        keep &= ~((gi == 0) & (jj == m - 1))
    for i, j in zip(gi[keep], jj[keep]):
        for p, q in ((a[j], i), (b[j], i), (a[i], j), (b[i], j)):
            if p @ a[q] > cos_len[q] + CROSS_TOL and p @ b[q] > cos_len[q] + CROSS_TOL:
                return True
    return False


def multiplicity_counts_loop(curve, r, poles):
    cos_edge, sin_edge = _height_geometry(curve)
    heights = curve.nodes @ poles.T
    return [_multiplicity_from_heights(heights[:, k], cos_edge, sin_edge, np.sin(2.0 * r),
                                       np.sin(min(r + TOUCH_TOL, np.pi / 2)),
                                       curve.closed)
            for k in range(len(poles))]


def multiplicity_sup_loop(curve, r, pole_samples):
    def evaluate(poles):
        best = None
        for k, (count, ranges) in enumerate(multiplicity_counts_loop(curve, r, poles)):
            key = (-count, tuple(poles[k]))
            if best is None or key < best[0]:
                best = (key, count, poles[k], ranges)
        return best

    coarse = evaluate(fibonacci_sphere(pole_samples))
    fine = evaluate(_cap_lattice(coarse[2], np.sqrt(4.0 * np.pi / pole_samples), 64))
    _, count, pole, ranges = min([coarse, fine], key=lambda b: b[0])
    return count, pole, ranges


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
@given(wavy_curves(), st.sampled_from([0.1, 0.01, 1e-3]))
def test_densify_matches_loop(curve, spacing):
    assert np.array_equal(densify(curve, spacing), densify_loop(curve, spacing))


@settings(max_examples=60)
@given(curve_pairs(), st.sampled_from([1e-2, 3e-3, 1e-3]))
def test_hausdorff_matches_brute_force(pair, refine):
    a, b = pair
    assert abs(hausdorff_distance(a, b, refine) - hausdorff_brute(a, b, refine)) \
        <= HAUSDORFF_TOL


@settings(max_examples=30)
@given(wavy_curves(), st.floats(0.01, 0.2), st.integers(0, 2 ** 32 - 1))
def test_hausdorff_to_a_moved_copy(curve, shift, seed):
    # the same polygon nudged: the max can sit inside an edge
    rng = np.random.default_rng(seed)
    moved = curve.nodes + shift * 0.1 * rng.normal(size=(1, 3))
    other = curve.with_nodes(moved / np.linalg.norm(moved, axis=1, keepdims=True))
    assert abs(hausdorff_distance(curve, other, 1e-3)
               - hausdorff_brute(curve, other, 1e-3)) <= HAUSDORFF_TOL


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
    cos_edge, sin_edge = _height_geometry(curve)
    counts = _component_counts(curve.nodes @ poles.T, cos_edge, sin_edge,
                               np.sin(2.0 * r), np.sin(min(r + TOUCH_TOL, np.pi / 2)),
                               curve.closed)
    assert counts.tolist() == [c for c, _ in multiplicity_counts_loop(curve, r, poles)]


@settings(max_examples=25)
@given(wavy_curves(), st.sampled_from([0.02, 0.05, 0.1]), st.sampled_from([100, 400]))
def test_multiplicity_sup_matches_per_pole_loop(curve, r, pole_samples):
    got = multiplicity_sup(curve, r, pole_samples=pole_samples)
    count, pole, ranges = multiplicity_sup_loop(curve, r, pole_samples)
    assert (got.count, tuple(got.pole), got.components) == (count, tuple(pole), ranges)


def test_multiplicity_sup_ties_go_to_the_smallest_pole():
    # a great circle meets every band once, so every pole ties
    curve = circle_curve(np.pi / 2, n=128)
    got = multiplicity_sup(curve, 0.05, pole_samples=100)
    count, pole, ranges = multiplicity_sup_loop(curve, 0.05, 100)
    assert (got.count, tuple(got.pole), got.components) == (count, tuple(pole), ranges)
