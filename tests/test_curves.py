"""Polyline curve model: validation, discrete curvature, metrics, file IO."""

import ast
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spherecsf
from spherecsf import (ClosedSphereCurve, GreatCircle, SphereArc, c1_deviation,
                       circle_curve, curve_distance, diagnostics,
                       enclosed_left_area, hausdorff_distance, intersection_count,
                       load_curve, perturbed_latitude, resample, save_curve,
                       self_intersects, turning_angles)
from spherecsf.curves import integrals, mean_adjacent_edges
from spherecsf.errors import DomainError, TooFewNodes
from spherecsf.flow import _Workspace, _snapshot

Z = np.array([0.0, 0.0, 1.0])

LENGTH_TOL = 1e-4
CURVATURE_TOL = 1e-3


def cap_area(r):
    """Area of the geodesic cap of radius r."""
    return 2.0 * np.pi * (1.0 - np.cos(r))


def meridian_arc(n=64, lo=0.2, hi=np.pi - 0.2):
    lam = np.linspace(lo, hi, n)
    return SphereArc(np.stack([np.sin(lam), np.zeros(n), np.cos(lam)], axis=1))


def test_too_few_nodes():
    pts = circle_curve(0.8, n=16).nodes[:6]
    with pytest.raises(TooFewNodes):
        ClosedSphereCurve(pts)


def test_nodes_must_be_unit():
    with pytest.raises(DomainError):
        ClosedSphereCurve(1.5 * circle_curve(0.8, n=32).nodes)


def test_degenerate_edge_rejected():
    nodes = circle_curve(0.8, n=32).nodes.copy()
    nodes[5] = nodes[4]
    with pytest.raises(DomainError):
        ClosedSphereCurve(nodes)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cls", [ClosedSphereCurve, SphereArc])
def test_non_finite_node_rejected(cls, bad):
    nodes = circle_curve(0.8, n=32).nodes.copy()
    nodes[3, 1] = bad
    with pytest.raises(DomainError, match="finite"):
        cls(nodes)


def test_long_edge_rejected():
    lon = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 3.0])
    nodes = np.stack([np.cos(lon), np.sin(lon), np.zeros_like(lon)], axis=1)
    with pytest.raises(DomainError):
        ClosedSphereCurve(nodes)


def test_latitude_length_and_turning():
    c = circle_curve(np.pi / 3, n=512)
    assert abs(c.length() - 2 * np.pi * np.sin(np.pi / 3)) < LENGTH_TOL
    total = float(np.sum(turning_angles(c)))
    assert abs(total - 2 * np.pi * np.cos(np.pi / 3)) < LENGTH_TOL


def test_latitude_pointwise_curvature():
    # geodesic curvature of the r-latitude is cot(r); exact on uniform meshes
    c = circle_curve(np.pi / 4, n=512)
    ws = _Workspace(c)
    ws.curvature()
    mags = np.linalg.norm(ws.kv, axis=0)
    assert np.abs(mags - 1.0).max() < CURVATURE_TOL


@given(st.floats(0.3, 2.6))
def test_turning_sum_is_area_complement(r):
    c = circle_curve(r, n=256)
    total = float(np.sum(turning_angles(c)))
    assert abs(total - (2 * np.pi - cap_area(r))) < 2e-3


@pytest.mark.parametrize("curve", [circle_curve(0.9, n=32), meridian_arc()])
def test_edge_lengths_are_read_only(curve):
    e = curve.edge_lengths()
    with pytest.raises(ValueError):
        e[0] = 1.0
    assert curve.length() == float(e.sum())


def test_resample_closed_anchor_and_uniformity():
    c = circle_curve(0.9, n=200)
    r = resample(c, n=128)
    assert np.array_equal(r.nodes[0], c.nodes[0])
    assert abs(r.length() - c.length()) < 1e-3
    e = r.edge_lengths()
    assert e.max() / e.min() < 1.001


def test_resample_arc_keeps_endpoints():
    arc = meridian_arc()
    r = resample(arc, n=48)
    assert np.array_equal(r.nodes[0], arc.nodes[0])
    assert np.array_equal(r.nodes[-1], arc.nodes[-1])


def test_resample_by_spacing():
    c = circle_curve(1.0, n=96)
    r = resample(c, spacing=0.05)
    assert abs(r.edge_lengths().mean() - 0.05) < 0.01


def test_hausdorff_identity_and_latitude_pair():
    c = circle_curve(0.5, n=256)
    assert hausdorff_distance(c, c) < 1e-7
    d = hausdorff_distance(c, circle_curve(0.6, n=256))
    assert abs(d - 0.1) < 1e-3


def test_curve_distance_to_pole():
    c = circle_curve(np.pi / 3, n=512)
    assert abs(float(curve_distance(Z, c)[0]) - np.pi / 3) < 1e-4


def test_c1_deviation_meridian_vs_latitude():
    g = GreatCircle(Z)
    assert abs(c1_deviation(meridian_arc(), g) - np.pi / 2) < 1e-6
    assert c1_deviation(circle_curve(np.pi / 3, n=512), g) < 1e-6


def test_perturbation_height_amplitude():
    g = GreatCircle(Z)
    p = perturbed_latitude(np.pi / 2, 0.12, 5, n=512)
    h = g.band_coordinate(p.nodes)
    assert abs(np.abs(h).max() - 0.12) < 1e-9


@given(st.integers(2, 6))
def test_mode_k_crossing_count(k):
    g = GreatCircle(Z)
    p = perturbed_latitude(np.pi / 2, 0.1, k, n=512)
    assert intersection_count(p, g) == 2 * k


def test_self_intersection_detection():
    c = circle_curve(np.pi / 2, n=64)
    assert not self_intersects(c.nodes, True)
    crossed = c.nodes.copy()
    crossed[[10, 20]] = crossed[[20, 10]]
    assert self_intersects(crossed, True)


def test_save_load_roundtrip(tmp_path):
    c = circle_curve(0.9, n=64)
    arc = meridian_arc(33)
    fc, fa = tmp_path / "c.csv", tmp_path / "a.csv"
    save_curve(fc, c)
    save_curve(fa, arc)
    assert fc.read_text().startswith("# closed\n")
    assert fa.read_text().startswith("# arc\n")
    c2, a2 = load_curve(fc), load_curve(fa)
    assert isinstance(c2, ClosedSphereCurve) and np.array_equal(c2.nodes, c.nodes)
    assert isinstance(a2, SphereArc) and np.array_equal(a2.nodes, arc.nodes)


def test_load_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("not,a,curve\n1,2\n")
    with pytest.raises(DomainError):
        load_curve(p)
    q = tmp_path / "headerless.csv"
    q.write_text("1,0,0\n0,1,0\n")
    with pytest.raises(DomainError):
        load_curve(q)
    r = tmp_path / "ragged.csv"
    save_curve(r, circle_curve(0.9, n=16))
    r.write_text(r.read_text() + "0.6,0.8\n")
    with pytest.raises(DomainError, match="x,y,z"):
        load_curve(r)


@pytest.mark.parametrize("value", [0.0, -0.02, np.nan, np.inf])
def test_spacing_arguments_are_positive_and_finite(value):
    # each once skipped its sample lattice, resampled to MIN_NODES or raised
    # numpy's ValueError
    c = circle_curve(1.1, n=64)
    with pytest.raises(DomainError, match="spacing must be positive and finite"):
        resample(c, spacing=value)
    with pytest.raises(DomainError, match="refine must be positive and finite"):
        hausdorff_distance(c, c, refine=value)


def test_diagnostics_latitude():
    d = diagnostics(circle_curve(0.8, n=64))
    assert abs(d.length - 2 * np.pi * np.sin(0.8)) < 1e-2
    assert abs(d.enclosed_area - cap_area(0.8)) < 1e-2
    assert d.min_edge <= d.max_edge
    with pytest.raises(TooFewNodes):
        diagnostics(circle_curve(0.8, n=16))


# ---------------------------------------------------------------------------
# the padded-neighbour kernel against the np.roll forms it replaced


def _edges_reference(nodes, closed):
    q = np.roll(nodes, -1, axis=0) if closed else nodes[1:]
    p = nodes if closed else nodes[:-1]
    return 2.0 * np.arcsin(0.5 * np.linalg.norm(q - p, axis=-1))


def _turning_reference(nodes, closed):
    if closed:
        v, a, b = nodes, np.roll(nodes, 1, axis=0), np.roll(nodes, -1, axis=0)
    else:
        v, a, b = nodes[1:-1], nodes[:-2], nodes[2:]
    t_in = (v * np.sum(a * v, axis=-1, keepdims=True)) - a
    t_in /= np.linalg.norm(t_in, axis=-1, keepdims=True)
    t_out = b - v * np.sum(b * v, axis=-1, keepdims=True)
    t_out /= np.linalg.norm(t_out, axis=-1, keepdims=True)
    return np.arctan2(np.sum(v * np.cross(t_in, t_out), axis=-1),
                      np.sum(t_in * t_out, axis=-1))


def _hbar_reference(e, closed):
    return 0.5 * (e + np.roll(e, 1)) if closed else 0.5 * (e[:-1] + e[1:])


def _snapshot_integrals_reference(nodes, closed):
    e = _edges_reference(nodes, closed)
    tau = _turning_reference(nodes, closed)
    area = float(2.0 * np.pi - tau.sum()) if closed else None
    return (float(e.sum()), float(tau.sum()),
            float(np.sum(tau * tau / _hbar_reference(e, closed))), area)


@st.composite
def wavy_curves(draw):
    """Randomly rotated wavy latitude polygon with jittered nodes, closed or an arc."""
    n = draw(st.integers(8, 300))
    closed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    jitter = draw(st.floats(0.0, 0.9))
    ang = 2.0 * np.pi * (np.arange(n) + jitter * rng.uniform(-0.5, 0.5, n)) / n
    rho = (draw(st.floats(0.3, 1.4))
           + draw(st.floats(0.0, 0.2)) * np.sin(draw(st.integers(1, 6)) * ang))
    nodes = np.stack([np.sin(rho) * np.cos(ang), np.sin(rho) * np.sin(ang),
                      np.cos(rho)], axis=1)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    nodes = nodes @ rot.T
    return ClosedSphereCurve(nodes) if closed else SphereArc(nodes[: n // 2 + 4])


def _integral_values(d):
    return (d.length, d.total_curvature, d.bending, d.enclosed_area)


@settings(max_examples=200)
@given(wavy_curves())
def test_padded_neighbours_match_rolled_reference(curve):
    nodes, closed = np.array(curve.nodes), curve.closed
    e = _edges_reference(nodes, closed)
    assert np.array_equal(curve.edge_lengths(), e)
    assert np.array_equal(turning_angles(curve), _turning_reference(nodes, closed))
    assert np.array_equal(mean_adjacent_edges(curve), _hbar_reference(e, closed))
    want = _snapshot_integrals_reference(nodes, closed)
    assert _integral_values(integrals(curve)) == want
    assert _integral_values(_snapshot(0.0, curve)) == want


def test_no_module_takes_neighbours_with_np_roll():
    # wrapped/edge_ends is the one neighbour convention of the package
    package = Path(integrals.__code__.co_filename).parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if "np.roll" in p.read_text()] == []


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module must use what it imports
    package = Path(integrals.__code__.co_filename).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_package_imports_only_numpy_and_the_standard_library():
    # the runtime dependency is numpy alone; scipy may be installed beside it,
    # so only this scan catches a stray import of it. The package's own modules
    # import each other relatively.
    package = Path(integrals.__code__.co_filename).parent
    allowed = {"numpy", *sys.stdlib_module_names}
    foreign = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.name}: {root}" for root in roots if root not in allowed]
    assert foreign == []


# names with no caller outside their own module and tests, and the acceptance
# suite's, which the package import leaves out; all kept off the top level
REMOVED_NAMES = ("Rotation", "Band", "antipode", "reflect_across", "curvature_vectors",
                 "approximate_boundaries", "point_in_left", "lift_to_sphere",
                 "check_dirichlet_gamma", "CHECKS", "CheckResult", "run_checks",
                 "generate_curve", "densify", "linear_mode_decay", "cap_area", "Wedge")


def test_public_surface_is_all():
    # __all__ and the import block of the package name the same set of names,
    # each once, so a deletion cannot leave a stale export behind
    names = spherecsf.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(spherecsf, name) for name in names)
    public = {name for name, value in vars(spherecsf).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public | {"__version__"} == set(names)
    assert [name for name in REMOVED_NAMES if hasattr(spherecsf, name)] == []


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a))


@settings(max_examples=100)
@given(wavy_curves(), st.integers(0, 2 ** 32 - 1))
def test_integrals_invariant_under_rotation(curve, seed):
    rot, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    turned = curve.with_nodes(curve.nodes @ rot.T)
    a, b = integrals(curve), integrals(turned)
    # Tangents come from differences of nodes h apart, which resolve a turning
    # angle only to about eps / h (1e-14 at h = 0.01), so each integral gets
    # 1e-12 plus that slack summed over the edges; bending divides by h once more.
    inv_e = 1.0 / curve.edge_lengths()
    slack = 1e-12 + 4.0 * np.finfo(float).eps * inv_e.sum()
    assert abs(a.length - b.length) <= slack
    assert abs(a.total_curvature - b.total_curvature) <= slack
    rel = 1e-12 + 4.0 * np.finfo(float).eps * (inv_e * inv_e).max()
    assert abs(a.bending - b.bending) <= rel * a.bending


@settings(max_examples=100)
@given(wavy_curves())
def test_reversal_flips_turning_and_complements_area(curve):
    back = curve.with_nodes(curve.nodes[::-1])
    assert _close(integrals(back).total_curvature, -integrals(curve).total_curvature)
    if curve.closed:
        total = enclosed_left_area(curve) + enclosed_left_area(back)
        assert _close(total, 4.0 * np.pi)
