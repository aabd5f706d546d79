"""Band multiplicity, spaced point sets, leafability, and curve generators."""

import numpy as np
import pytest

from spherecsf import (DirichletArcSpec, GreatCircle, Spacing, SphereArc,
                       check_dirichlet_gamma, circle_curve, construct_spacing,
                       dirichlet_gamma, fibonacci_sphere, generate_curve,
                       geodesic_distance, is_leafable, koch_like,
                       leafable_wiggle, multiplicity_at, multiplicity_sup,
                       perturbed_latitude, self_intersects, verify_spacing)
from spherecsf.errors import DomainError, ParamDomain

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])

KOCH2_LENGTH = 7.8180  # 96-node depth-2 snowflake on base radius 0.8


def koch_base_length():
    # six geodesic edges of the regular hexagon inscribed in the 0.8-latitude
    edge = np.arccos(np.cos(0.8) ** 2 + np.sin(0.8) ** 2 * np.cos(np.pi / 3))
    return 6.0 * edge


def test_meridian_crosses_equator_band_twice():
    mer = circle_curve(np.pi / 2, pole=X, n=256)
    rep = multiplicity_at(mer, GreatCircle(Z), 0.1)
    assert rep.count == 2
    assert len(rep.components) == 2


def test_great_circle_in_own_band():
    eq = circle_curve(np.pi / 2, n=128)
    rep = multiplicity_at(eq, GreatCircle(Z), 0.1)
    assert rep.count == 1
    assert rep.components == [(0, 127)]


def test_component_across_the_seam():
    # node 0 sits in the band: the closed curve's component there runs from the
    # late run's first node to the early run's last node; an arc splits it
    mer = circle_curve(np.pi / 2, pole=X, n=256, phase=np.pi / 2)
    rep = multiplicity_at(mer, GreatCircle(Z), 0.1)
    assert (rep.count, rep.components) == (2, [(120, 136), (248, 8)])
    rep = multiplicity_at(SphereArc(mer.nodes), GreatCircle(Z), 0.1)
    assert (rep.count, rep.components) == (3, [(0, 8), (120, 136), (248, 255)])


def test_far_latitude_misses_band():
    assert multiplicity_at(circle_curve(0.4, n=128), GreatCircle(Z), 0.1).count == 0


def test_multiplicity_radius_domain():
    c = circle_curve(0.4, n=128)
    for bad in (0.0, np.pi / 4):
        with pytest.raises(DomainError):
            multiplicity_at(c, GreatCircle(Z), bad)


def test_report_json_shape():
    rep = multiplicity_at(circle_curve(np.pi / 2, pole=X, n=256), GreatCircle(Z), 0.1)
    js = rep.to_json()
    assert sorted(js) == ["components", "count", "pole", "r"]
    assert js["count"] == 2


def test_multiplicity_sup_koch():
    assert multiplicity_sup(koch_like(4), 0.05).count == 6


def test_spacing_construct_and_verify():
    eq = circle_curve(np.pi / 2, n=128)
    sp = construct_spacing(eq, 0.3)
    assert len(sp.points) == 48
    assert 0.3 < sp.clearance < 0.5
    assert verify_spacing(eq, sp).ok


def test_spacing_rejects_point_on_curve():
    eq = circle_curve(np.pi / 2, n=128)
    sp = construct_spacing(eq, 0.3)
    bad = Spacing(points=np.vstack([sp.points, eq.nodes[:1]]),
                  clearance=sp.clearance, theta=sp.theta)
    check = verify_spacing(eq, bad)
    assert not check.ok
    assert "clearance" in check.reason


def test_spacing_sample_floor():
    eq = circle_curve(np.pi / 2, n=128)
    sp = construct_spacing(eq, 0.3)
    with pytest.raises(DomainError, match="x_samples must be >= 1000, got 100"):
        verify_spacing(eq, sp, x_samples=100)
    # construction stops on the same check before its greedy search
    with pytest.raises(DomainError, match="x_samples must be >= 1000, got 100"):
        construct_spacing(eq, 0.3, margin=10.0, x_samples=100)


def test_wiggle_is_leafable_and_wiggly():
    w = leafable_wiggle()
    report = is_leafable(w, GreatCircle(Z), 0.025, 0.7, 0.1)
    assert report.ok
    assert report.reasons == []


def test_wiggle_follows_its_pole():
    w = leafable_wiggle(pole=X)
    assert is_leafable(w, GreatCircle(X), 0.025, 0.7, 0.1).ok


def test_latitude_is_not_leafable():
    report = is_leafable(circle_curve(0.4, n=128), GreatCircle(Z), 0.025, 0.7, 0.1)
    assert not report.ok
    assert "containment" in report.reasons


def test_leafable_param_domain():
    w = leafable_wiggle()
    with pytest.raises(ParamDomain):
        is_leafable(w, GreatCircle(Z), 0.05, 0.7, 0.1)  # 2r >= closeness * C
    with pytest.raises(ParamDomain):
        is_leafable(w, GreatCircle(Z), 0.025, 0.7, 0.1, vertex=Z)


def test_wiggle_seed_determinism():
    assert np.array_equal(leafable_wiggle(seed=3).nodes, leafable_wiggle(seed=3).nodes)
    assert not np.array_equal(leafable_wiggle(seed=3).nodes, leafable_wiggle(seed=4).nodes)


def test_koch_depth_domain():
    for bad in (0, 7):
        with pytest.raises(DomainError):
            koch_like(bad)


def test_koch_scaling_and_embeddedness():
    k2 = koch_like(2)
    assert k2.n == 96
    assert abs(k2.length() - KOCH2_LENGTH) < 1e-3
    assert not self_intersects(k2.nodes, True)
    k4 = koch_like(4)
    # each level multiplies length by slightly under the flat 4/3 factor
    ratio = k4.length() / (koch_base_length() * (4.0 / 3.0) ** 4)
    assert 0.99 < ratio < 1.0


def test_dirichlet_gamma_properties():
    spec = DirichletArcSpec(circle=GreatCircle(Z), band_halfwidth=0.04,
                            cap_radius=1.3, closeness=0.25)
    arc, info = dirichlet_gamma(spec)
    checks = check_dirichlet_gamma(arc, spec, info)
    assert checks["ok"], checks
    a_c = spec.closeness * spec.cap_radius
    for end in (arc.nodes[0], arc.nodes[-1]):
        assert geodesic_distance(end, spec.vertex) < a_c


def test_generate_curve_dispatch():
    assert generate_curve("Circle", radius=0.7, n=128).n == 128
    assert generate_curve("PerturbedLatitude", radius=1.0, amplitude=0.1,
                          mode=3, n=64).n == 64
    assert generate_curve("KochLike", depth=1).n == 24
    assert generate_curve("LeafableWiggle", seed=1).n >= 8
    arc = generate_curve("DirichletGamma", band_halfwidth=0.08, pole=Z,
                         cap_radius=1.3, closeness=0.25)
    assert isinstance(arc, SphereArc)
    with pytest.raises(DomainError):
        generate_curve("Nonsense")


def test_fibonacci_lattice():
    f1, f2 = fibonacci_sphere(64), fibonacci_sphere(64)
    assert np.array_equal(f1, f2)
    assert np.abs(np.linalg.norm(f1, axis=1) - 1.0).max() < 1e-12
    assert len(f1) == 64


def test_circle_curve_phase():
    c0 = circle_curve(0.8, n=64)
    c1 = circle_curve(0.8, n=64, phase=0.3)
    assert not np.array_equal(c0.nodes, c1.nodes)
    assert abs(c0.length() - c1.length()) < 1e-12
