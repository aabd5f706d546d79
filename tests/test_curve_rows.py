"""The component-major curve forms against the (n, 3) forms they replaced.

The functions below are validation, turning angles, integrals and resampling
as they ran on (n, 3) rows, with row reductions over the length-3 rows and
np.cross. The library now validates each mesh once, keeps the edge lengths it
measured, and computes the rest on (3, n) views; every result must come out
bit-identical, and every rejected input must raise the same error.
`evolve_reference` in test_flow_oracle steps through these forms, so the
flow's snapshots and remeshes are compared with an independent computation.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherecsf import ClosedSphereCurve, SphereArc, koch_like, resample, turning_angles
from spherecsf.curves import EDGE_MAX, EDGE_MIN, MIN_NODES, integrals, wrapped
from spherecsf.errors import DomainError, SphereCSFError, TooFewNodes
from spherecsf.sphere import geodesic_distance

from test_flow import jittered_polygons, wavy_arc


def distance_rows(p, q):
    """Great-circle distance from a row reduction over the length-3 rows."""
    return np.arccos(np.minimum(np.maximum(np.add.reduce(p * q, axis=-1), -1.0), 1.0))


def edges_rows(nodes, closed):
    ends = np.concatenate((nodes[1:], nodes[:1])) if closed else nodes[1:]
    return distance_rows(nodes[:len(ends)], ends)


def validated_rows(nodes, closed):
    """(renormalised nodes, edge lengths), or the error validation raises."""
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
    edges = edges_rows(nodes, closed)
    if np.any(edges <= EDGE_MIN) or np.any(edges >= EDGE_MAX):
        raise DomainError(
            f"edge lengths must lie in ({EDGE_MIN}, pi/2); "
            f"got range [{edges.min():.3e}, {edges.max():.3e}]")
    return nodes, edges


def _tangent_rows(p, q):
    t = q - p * np.sum(p * q, axis=-1, keepdims=True)
    t /= np.linalg.norm(t, axis=-1, keepdims=True)
    return t


def turning_rows(nodes, closed):
    ext = wrapped(nodes, closed)
    v = ext[1:-1]
    t_in, t_out = -_tangent_rows(v, ext[:-2]), _tangent_rows(v, ext[2:])
    return np.arctan2(np.sum(v * np.cross(t_in, t_out), axis=-1),
                      np.sum(t_in * t_out, axis=-1))


def integrals_rows(nodes, edges, closed):
    """(length, total_curvature, bending, enclosed_area, max_edge, min_edge)."""
    tau = turning_rows(nodes, closed)
    ext = wrapped(nodes, closed)
    e = distance_rows(ext[:-1], ext[1:])
    hbar = 0.5 * (e[:-1] + e[1:])
    area = float(2.0 * np.pi - tau.sum()) if closed else None
    return (float(edges.sum()), float(tau.sum()), float(np.sum(tau * tau / hbar)),
            area, float(edges.max()), float(edges.min()))


def resample_rows(nodes, edges, closed, n):
    """validated_rows of the n-node arclength-uniform resampling."""
    total = float(edges.sum())
    cum = np.concatenate([[0.0], np.cumsum(edges)])
    t = np.arange(n) * (total / n) if closed else np.linspace(0.0, total, n)
    ext = wrapped(nodes, closed)
    src_a, src_b = (ext[1:-1], ext[2:]) if closed else (ext[:-1], ext[1:])
    idx = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, len(edges) - 1)
    f = np.clip((t - cum[idx]) / edges[idx], 0.0, 1.0)
    ang = edges[idx]
    new = (np.sin((1.0 - f) * ang)[:, None] * src_a[idx]
           + np.sin(f * ang)[:, None] * src_b[idx]) / np.sin(ang)[:, None]
    new /= np.linalg.norm(new, axis=1, keepdims=True)
    if not closed:
        new[0] = nodes[0]
        new[-1] = nodes[-1]
    return validated_rows(new, closed)


def needled(nodes, delta, side):
    """nodes with one more node inserted delta after node 0, turned by the angle
    side off the edge to node 1. The short edge collapses within a few hundred
    steps, which takes a run through dt halvings to a singularity or a stall."""
    p, q = nodes[0], nodes[1]
    t = q - p * (p @ q)
    t /= np.linalg.norm(t)
    d = np.cos(side) * t + np.sin(side) * np.cross(p, t)
    return np.concatenate([nodes[:1], [np.cos(delta) * p + np.sin(delta) * d],
                           nodes[1:]])


def curve_of(nodes, closed):
    return ClosedSphereCurve(nodes) if closed else SphereArc(nodes)


@st.composite
def raw_nodes(draw):
    """(nodes, closed): jittered, needled, arc-shaped or Koch polygons, each
    node scaled off the unit sphere by up to 5e-10 so renormalising rounds."""
    kind = draw(st.sampled_from(["jittered", "needled", "arc", "koch"]))
    closed = draw(st.booleans())
    if kind == "jittered":
        nodes = draw(jittered_polygons())
    elif kind == "needled":
        nodes = needled(draw(jittered_polygons(sizes=(40, 200))),
                        10.0 ** draw(st.floats(-7.5, -5.0)), draw(st.floats(0.5, 3.1)))
    elif kind == "arc":
        nodes, closed = np.array(wavy_arc(draw(st.integers(8, 200))).nodes), False
    else:
        nodes = np.array(koch_like(draw(st.integers(1, 4)),
                                   base_radius=draw(st.floats(0.3, 1.2))).nodes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return nodes * (1.0 + rng.uniform(-5e-10, 5e-10, (len(nodes), 1))), closed


@settings(max_examples=150)
@given(raw_nodes(), st.integers(MIN_NODES, 400))
def test_component_major_forms_match_rows(drawn, m):
    raw, closed = drawn
    nodes, edges = validated_rows(raw, closed)
    curve = curve_of(raw, closed)
    assert np.array_equal(curve.nodes, nodes) and np.array_equal(curve.edge_lengths(), edges)
    assert curve.nodes.flags.c_contiguous
    # a snapshot validates a (3, n) buffer's transposed view
    view = curve.with_nodes(np.array(raw.T).T)
    assert np.array_equal(view.nodes, nodes) and view.nodes.flags.c_contiguous
    assert np.array_equal(turning_angles(curve), turning_rows(nodes, closed))
    d = integrals(curve)
    assert (d.length, d.total_curvature, d.bending, d.enclosed_area, d.max_edge,
            d.min_edge) == integrals_rows(nodes, edges, closed)
    try:
        want_nodes, want_edges = resample_rows(nodes, edges, closed, m)
    except DomainError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            resample(curve, n=m)
        return
    new = resample(curve, n=m)
    assert np.array_equal(new.nodes, want_nodes)
    assert np.array_equal(new.edge_lengths(), want_edges)


@settings(max_examples=100)
@given(jittered_polygons(sizes=(1, 50)), st.integers(0, 2 ** 32 - 1))
def test_geodesic_distance_matches_row_reduction(nodes, seed):
    other = np.random.default_rng(seed).normal(size=nodes.shape)
    other /= np.linalg.norm(other, axis=1, keepdims=True)
    assert np.array_equal(geodesic_distance(nodes, other), distance_rows(nodes, other))
    assert geodesic_distance(nodes[0], other[0]) == distance_rows(nodes[0], other[0])


def _off_unit(nodes):
    nodes = np.array(nodes)
    nodes[3] *= 1.0 + 1.5e-9
    return nodes


def _with(nodes, row, value):
    nodes = np.array(nodes)
    nodes[row] = value
    return nodes


BASE = np.array(ClosedSphereCurve(needled(wavy_arc(40).nodes, 1e-3, 1.0)).nodes)
BAD_INPUTS = {
    "nan": _with(BASE, 5, [np.nan, 0.0, 1.0]),
    "inf": _with(BASE, 5, [np.inf, 0.0, 0.0]),
    "huge": _with(BASE, 5, [1e200, 0.0, 0.0]),
    "norm-1e-9-off": _off_unit(BASE),
    "short-edge": needled(BASE, 5e-9, 1.0),
    "edge-at-floor": needled(BASE, EDGE_MIN, 1.0),
    "long-edge": np.concatenate((BASE[:8], -BASE[:1])),
    "too-few": BASE[:MIN_NODES - 1],
    "flat": BASE.reshape(-1),
    "two-columns": BASE[:, :2],
}


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_rejections_match_rows(name, closed):
    with pytest.raises(SphereCSFError) as want:
        validated_rows(BAD_INPUTS[name], closed)
    with pytest.raises(SphereCSFError) as got:
        curve_of(BAD_INPUTS[name], closed)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
