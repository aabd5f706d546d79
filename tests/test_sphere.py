"""Exact spherical primitives: frames, circles, charts; the wedge leaf angle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spherecsf import (GreatCircle, circle_curve, fold_angle, geodesic_distance,
                       orthonormal_frame, slerp, unit)
from spherecsf.errors import DomainError
from spherecsf.jordan import fibonacci_sphere
from spherecsf.sphere import as_point

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

EXACT_TOL = 1e-12
ANGLE_TOL = 1e-9


def raw_vectors():
    comp = st.floats(-1.0, 1.0, allow_nan=False)
    return st.tuples(comp, comp, comp).map(np.array).filter(
        lambda v: np.linalg.norm(v) > 1e-2)


def test_unit_normalizes():
    v = unit(np.array([3.0, 0.0, 4.0]))
    assert abs(np.linalg.norm(v) - 1.0) < EXACT_TOL
    assert np.allclose(v, [0.6, 0.0, 0.8])


def test_unit_rejects_zero():
    with pytest.raises(DomainError):
        unit(np.zeros(3))


@pytest.mark.parametrize("v", [[0.0, 0.0, np.nan], [0.0, 0.0, np.inf], [0.0, 0.0, 2.0]],
                         ids=["nan", "inf", "long"])
def test_as_point_rejects_non_unit(v):
    with pytest.raises(DomainError, match="unit length"):
        as_point(v)


def test_great_circle_keeps_a_unit_pole():
    # as_point divides only a norm more than a few ulps off 1, so the pole a
    # GreatCircle reads is the lattice pole itself (537 of these moved at the parent)
    poles = fibonacci_sphere(2000)
    assert all(np.array_equal(GreatCircle(p).pole, p) for p in poles)
    p = poles[7] * (1.0 + 1e-12)
    g = GreatCircle(p)
    assert not np.array_equal(g.pole, p) and abs(np.linalg.norm(g.pole) - 1.0) < 1e-15
    assert p.flags.writeable and not g.pole.flags.writeable


def test_geodesic_distance_known_values():
    assert abs(geodesic_distance(Z, X) - np.pi / 2) < EXACT_TOL
    assert geodesic_distance(Z, Z) < EXACT_TOL
    assert abs(geodesic_distance(Z, -Z) - np.pi) < EXACT_TOL


@given(raw_vectors(), raw_vectors())
def test_geodesic_distance_symmetric(a, b):
    p, q = unit(a), unit(b)
    assert abs(geodesic_distance(p, q) - geodesic_distance(q, p)) < EXACT_TOL
    assert 0.0 <= geodesic_distance(p, q) <= np.pi + EXACT_TOL


def test_antipode_and_fold():
    # fold_angle wraps into (-pi, pi]; the half turn to the antipodal
    # direction lands on the closed end
    assert fold_angle(-np.pi) == np.pi
    assert abs(fold_angle(np.pi + 0.3) - (0.3 - np.pi)) < ANGLE_TOL
    assert abs(fold_angle(-0.3) + 0.3) < ANGLE_TOL
    assert abs(fold_angle(2 * np.pi + 0.1) - 0.1) < ANGLE_TOL


@given(raw_vectors())
def test_orthonormal_frame(v):
    p = unit(v)
    e1, e2 = orthonormal_frame(p)
    for a, b in ((e1, e2), (e1, p), (e2, p)):
        assert abs(a @ b) < 1e-10
    assert abs(np.linalg.norm(e1) - 1.0) < 1e-10
    assert abs(np.linalg.norm(e2) - 1.0) < 1e-10


def test_slerp_endpoints_exact():
    out = slerp(Z, X, np.array([0.0, 1.0]))
    assert np.array_equal(out[0], Z) or np.allclose(out[0], Z, atol=EXACT_TOL)
    assert np.allclose(out[1], X, atol=EXACT_TOL)


@given(raw_vectors(), raw_vectors(), st.floats(0.0, 1.0))
def test_slerp_stays_unit(a, b, f):
    p, q = unit(a), unit(b)
    if geodesic_distance(p, q) > np.pi - 1e-6:
        return
    m = slerp(p, q, f)
    assert abs(np.linalg.norm(m) - 1.0) < 1e-10


def test_slerp_matches_its_inline_form():
    # slerp combines through edge_slerp: bit for bit the outer-product form
    rng = np.random.default_rng(7)
    for k in range(200):
        p, q = unit(rng.normal(size=(2, 3)))
        f = rng.uniform() if k % 2 else rng.uniform(size=5)
        ang = float(np.arctan2(np.linalg.norm(np.cross(p, q)), p @ q))
        want = (np.multiply.outer(np.sin((1.0 - np.asarray(f)) * ang), p)
                + np.multiply.outer(np.sin(np.asarray(f) * ang), q)) / np.sin(ang)
        want /= np.linalg.norm(want, axis=-1, keepdims=True)
        got = slerp(p, q, f)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_slerp_antipodal_raises():
    with pytest.raises(DomainError):
        slerp(Z, -Z, 0.5)


@given(st.floats(-np.pi, np.pi), st.floats(-1.4, 1.4))
def test_chart_roundtrip(lam, s):
    g = GreatCircle(Z)
    p = g.chart_point(lam, s)
    lam2, s2 = g.chart_coords(p)
    assert abs(s2 - s) < 1e-9
    assert abs(np.mod(lam2 - lam + np.pi, 2 * np.pi) - np.pi) < 1e-9


def test_signed_height_sign():
    g = GreatCircle(Z)
    assert g.signed_height(g.chart_point(0.3, 0.5)) > 0
    assert g.signed_height(g.chart_point(0.3, -0.5)) < 0
    assert abs(g.signed_height(g.point(1.0))) < EXACT_TOL


def test_latitude_disjoint_from_circle_unless_equatorial():
    g = GreatCircle(Z)
    radius = float(geodesic_distance(g.pole, unit([0.4, 0.1, 0.9])))
    # a latitude about pole(g) sits at band coordinate pi/2 - radius, so it
    # misses g unless its radius is pi/2
    lat = circle_curve(radius, pole=g.pole, n=64).nodes
    assert np.abs(g.band_coordinate(lat) - (np.pi / 2 - radius)).max() < ANGLE_TOL
    assert abs(radius - np.pi / 2) > 1e-6
    equator = circle_curve(np.pi / 2, pole=g.pole, n=64).nodes
    assert np.abs(g.signed_height(equator)).max() < EXACT_TOL


def test_signed_band_coordinate_matches_height():
    g = GreatCircle(Z)
    p = g.chart_point(0.7, 0.25)
    assert abs(g.band_coordinate(p) - 0.25) < 1e-12


def leaf_angle(circle, vertex, p):
    """The leaf of p in the wedge of great circles through `vertex`: the angle
    psi in (-pi/2, pi/2] of the rotation about `vertex` that carries `circle`
    onto the great circle through p."""
    m = circle.pole
    psi = np.arctan2(-(p @ m), p @ np.cross(vertex, m))
    psi = np.where(psi > np.pi / 2.0, psi - np.pi, psi)
    return np.where(psi <= -np.pi / 2.0, psi + np.pi, psi)


def test_wedge_leaf_angle_matches_construction():
    # with the vertex at chart longitude 0, points on the leaf at angle psi
    # have heights tan(s) = tan(psi) sin(lam)
    g = GreatCircle(Z)
    for psi in (-0.4, -0.1, 0.2, 0.45):
        for lam in (0.3, 1.0, 2.2):
            s = np.arctan(np.tan(psi) * np.sin(lam))
            p = g.chart_point(lam, s)
            assert abs(leaf_angle(g, g.point(0.0), p) - psi) < 1e-9


def test_wedge_membership_reflection_invariant():
    # the wedge is symmetric across its spine circle: mirroring a point
    # across the plane of g negates its leaf angle
    g = GreatCircle(Z)
    pts = [g.chart_point(lam, np.arctan(np.tan(psi) * np.sin(lam)))
           for lam in (0.4, 1.3) for psi in (-0.45, 0.1, 0.3)]
    x = g.point(0.0)
    for p in pts:
        psi = leaf_angle(g, x, p)
        assert abs(psi) <= 0.45 + 1e-9
        assert abs(leaf_angle(g, x, p * np.array([1.0, 1.0, -1.0])) + psi) < 1e-9
