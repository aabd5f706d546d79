"""Band multiplicity, spaced point sets, leafability, and curve generators."""

import numpy as np
import pytest

from spherecsf import (ClosedSphereCurve, DirichletArcSpec, GreatCircle, Spacing,
                       SphereArc, circle_curve, construct_spacing,
                       dirichlet_gamma, fibonacci_sphere, geodesic_distance,
                       is_leafable, koch_like,
                       latitude_deviation_angles, leafable_wiggle, multiplicity_at,
                       multiplicity_sup, self_intersects, turning_angles, unit,
                       verify_spacing)
from spherecsf.curves import mean_adjacent_edges
from spherecsf.errors import DomainError, ParamDomain, SpacingNotFound
from spherecsf.jordan import TOUCH_TOL

from test_query_oracles import multiplicity_counts_loop
from test_sphere import leaf_angle

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


def test_an_edge_that_bulges_out_of_the_band_splits_its_component():
    # a loop up through the band and back; its top edge, about 0.3 rad long,
    # joins two nodes at 0.99 sin 2r but its midpoint leaves the band
    r = 0.1
    top = np.arcsin(0.99 * np.sin(2.0 * r))
    lat = [-0.5, -0.3, -0.12, 0.12, top, top, 0.12, -0.12, -0.3, -0.5]
    loop = ClosedSphereCurve(GreatCircle(Z).chart_point([-0.15] * 5 + [0.15] * 5, lat))
    assert abs(loop.edge_lengths()[4] - 0.3) < 0.01
    assert unit(loop.nodes[4] + loop.nodes[5]) @ Z > np.sin(2.0 * r)
    # by hand: each side crosses the equator on its edge from -0.12 to 0.12
    # (no node is within r of it), and the top edge parts the sides
    rep = multiplicity_at(loop, GreatCircle(Z), r)
    assert (rep.count, rep.components) == (2, [(2, 4), (5, 7)])
    assert [(rep.count, rep.components)] == multiplicity_counts_loop(loop, r, Z[None])
    # linking every edge between in-band nodes would make one component
    in_band = np.abs(loop.nodes @ Z) < np.sin(2.0 * r)
    assert np.flatnonzero(in_band).tolist() == [2, 3, 4, 5, 6, 7]


def test_a_node_within_the_touch_band_counts_its_component():
    # an arc dips into the band without crossing the equator: no edge changes
    # sign, and only node 4, on the edges from 3 and to 5, is within r of it
    r = 0.1
    lat = [0.5, 0.4, 0.3, 0.15, r + 0.5 * TOUCH_TOL, 0.15, 0.3, 0.4, 0.5]
    dip = SphereArc(GreatCircle(Z).chart_point(0.05 * np.arange(9), lat))
    h = dip.nodes @ Z
    assert np.all(h > 0.0)
    assert np.flatnonzero(h <= np.sin(r + TOUCH_TOL)).tolist() == [4]
    rep = multiplicity_at(dip, GreatCircle(Z), r)
    assert (rep.count, rep.components) == (1, [(3, 5)])
    assert [(rep.count, rep.components)] == multiplicity_counts_loop(dip, r, Z[None])


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


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multiplicity_sup_pole_attains_its_count(depth, seed):
    rot = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
    curve = ClosedSphereCurve(koch_like(depth).nodes @ rot.T)
    for r in (0.05, 0.02):
        sup = multiplicity_sup(curve, r)
        at = multiplicity_at(curve, GreatCircle(sup.pole), r)
        assert (at.count, at.components) == (sup.count, sup.components)


@pytest.mark.parametrize("bad", [150.5, 150.0, True, "150"])
def test_multiplicity_sup_rejects_a_non_integral_pole_count(bad):
    with pytest.raises(DomainError, match="pole_samples must be an integer"):
        multiplicity_sup(circle_curve(1.0, n=64), 0.1, pole_samples=bad)


def test_spacing_construct_and_verify():
    eq = circle_curve(np.pi / 2, n=128)
    sp = construct_spacing(eq, 0.3)
    assert len(sp.points) == 48
    assert 0.3 < sp.clearance < 0.5
    assert verify_spacing(eq, sp).ok


def test_spacing_adds_transverse_companions():
    # the 48 greedy points cluster near the equator's poles at theta = 0.1,
    # so 4 companions are added to give every x a transverse pair
    eq = circle_curve(np.pi / 2)
    sp = construct_spacing(eq, 0.1)
    assert len(sp.points) == 52
    assert verify_spacing(eq, sp).ok


def test_spacing_without_a_clearing_companion_raises():
    with pytest.raises(SpacingNotFound, match="no clearing companion"):
        construct_spacing(koch_like(3, base_radius=1.2), 0.1, margin=0.4)


def test_spacing_verification_failure_reasons():
    cap = circle_curve(0.3)
    x0, x1 = fibonacci_sphere(1000)[:2]  # the first sampled x's
    # one point spans no pair; at x0 itself it spans every circle through x0
    check = verify_spacing(cap, Spacing(points=x0[None], clearance=0.01, theta=0.1))
    assert (check.ok, check.reason) == (False, "single degenerate point")
    assert np.array_equal(check.witness, x0)
    # an antipodal pair: x0 is one of two points, so it is passed over, and
    # every other x sees both on one great circle
    check = verify_spacing(cap, Spacing(points=np.array([x0, -x0]), clearance=0.01,
                                        theta=0.1))
    assert (check.ok, check.reason) == (False, "no transverse pair")
    assert np.array_equal(check.witness, x1)


def test_spacing_rejects_point_on_curve():
    eq = circle_curve(np.pi / 2, n=128)
    sp = construct_spacing(eq, 0.3)
    bad = Spacing(points=np.vstack([sp.points, eq.nodes[:1]]),
                  clearance=sp.clearance, theta=sp.theta)
    check = verify_spacing(eq, bad)
    assert not check.ok
    assert "clearance" in check.reason


def test_spacing_rejects_non_unit_points():
    eq = circle_curve(np.pi / 2, n=128)
    sp = construct_spacing(eq, 0.3)
    # the verified set scaled or perturbed off the sphere; each was once used
    # as given
    for k, scale in ((0, 2.0), (5, 1.0 + 1e-6), (47, np.nan)):
        points = sp.points.copy()
        points[k] *= scale
        bad = Spacing(points=points, clearance=sp.clearance, theta=sp.theta)
        with pytest.raises(DomainError, match=f"spacing point {k} must be unit length"):
            verify_spacing(eq, bad)


def test_spacing_sample_floor():
    eq = circle_curve(np.pi / 2, n=128)
    sp = construct_spacing(eq, 0.3)
    with pytest.raises(DomainError, match="x_samples must be >= 1000, got 100"):
        verify_spacing(eq, sp, x_samples=100)
    # construction stops on the same check before its greedy search
    with pytest.raises(DomainError, match="x_samples must be >= 1000, got 100"):
        construct_spacing(eq, 0.3, margin=10.0, x_samples=100)
    with pytest.raises(DomainError, match="x_samples must be an integer, got 2000.0"):
        verify_spacing(eq, sp, x_samples=2000.0)


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


EQ = GreatCircle(Z)
LON = np.linspace(-np.pi, np.pi, 2048, endpoint=False)  # LON[1024] = 0
FOLD = np.arange(2048) == 1025


@pytest.mark.parametrize("ell, reasons", [
    # every node in the cap about x = EQ.point(0), none in the cap about -x
    (circle_curve(0.2, pole=EQ.point(0.0), n=64),
     ["containment", "deviation", "graph", "winding"]),
    # a narrow bump at longitude 0.65 leaves x's 0.7-cap and comes back: two runs
    (ClosedSphereCurve(EQ.chart_point(LON, 0.3 * np.exp(-((LON - 0.65) / 0.01) ** 2))),
     ["containment", "deviation", "graph"]),
    # one run in x's cap, in which node 1025 steps back in longitude
    (ClosedSphereCurve(EQ.chart_point(np.where(FOLD, -0.01, LON), 0.01 * FOLD)),
     ["deviation", "graph-monotone"]),
])
def test_leafable_cap_runs(ell, reasons):
    report = is_leafable(ell, EQ, 0.025, 0.7, 0.1)
    assert report.reasons == reasons
    assert report.max_cap_deviation == latitude_deviation_angles(ell, EQ).max()


def test_wiggle_seed_determinism():
    assert np.array_equal(leafable_wiggle(seed=3).nodes, leafable_wiggle(seed=3).nodes)
    assert not np.array_equal(leafable_wiggle(seed=3).nodes, leafable_wiggle(seed=4).nodes)


@pytest.mark.parametrize("seed", [-1, 2.0, True])
def test_wiggle_seed_is_an_integer_at_least_zero(seed):
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        leafable_wiggle(seed=seed)


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


def reflect_across(g: GreatCircle, p):
    """Mirror image across the plane of g."""
    p = np.asarray(p, dtype=float)
    h = np.multiply.outer(p @ g.pole, g.pole)
    return p - 2.0 * h


def test_reflect_is_involution():
    g = GreatCircle(unit([0.3, -0.5, 0.8]))
    p = unit([0.2, 0.9, -0.4])
    assert np.allclose(reflect_across(g, reflect_across(g, p)), p, atol=1e-12)
    # fixed points on the circle itself
    q = g.point(0.4)
    assert np.allclose(reflect_across(g, q), q, atol=1e-12)


def check_dirichlet_gamma(arc: SphereArc, spec: DirichletArcSpec, info: dict) -> dict:
    """Property checks for the hairpin construction; all values should be True."""
    g, r = spec.circle, spec.band_halfwidth
    x = spec.vertex
    theta = info["theta"]
    lon, s = g.chart_coords(arc.nodes)
    e = arc.edge_lengths()
    hbar = mean_adjacent_edges(arc)
    checks = {}

    psi_ends = [float(leaf_angle(g, x, arc.nodes[0])),
                float(leaf_angle(g, x, arc.nodes[-1]))]
    mirrored = reflect_across(g, arc.nodes[0])
    checks["endpoints_on_extreme_leaves"] = (
        abs(abs(psi_ends[0]) - theta) <= 1e-9
        and abs(abs(psi_ends[1]) - theta) <= 1e-9
        and float(geodesic_distance(mirrored, arc.nodes[-1])) <= 1e-7)

    checks["band_containment"] = bool(np.abs(s).max() <= 2.0 * r + 1e-9)
    psi = leaf_angle(g, x, arc.nodes)
    checks["wedge_containment"] = bool(np.abs(psi).max() <= theta + 1e-9)

    d_far = geodesic_distance(arc.nodes, -x)
    low = np.abs(s) < spec.floor - 1e-9
    checks["low_points_in_far_cap"] = bool(
        np.all(d_far[low] <= spec.closeness * spec.cap_radius + 1e-9))

    dlam = np.diff(lon)
    peak = int(np.argmax(lon))  # the tip's mirrored pair of nodes may share it
    checks["double_graph"] = bool(np.all(dlam[:peak] > 0) and np.all(dlam[peak + 1:] < 0))
    sign_changes = int(np.count_nonzero(np.sign(s[1:]) != np.sign(s[:-1])))
    tip = int(np.argmin(np.abs(s)))
    checks["single_crossing_at_tip"] = (
        sign_changes == 1 and abs(float(s[tip])) <= float(e.max()))

    crossings_ok = True
    for frac in np.linspace(0.87, 0.98, 4):
        for sign in (1.0, -1.0):
            level = sign * frac * theta
            hits = int(np.count_nonzero(np.sign(psi[1:] - level)
                                        != np.sign(psi[:-1] - level)))
            crossings_ok &= hits == 1
    checks["extreme_leaves_hit_once"] = crossings_ok

    devs = latitude_deviation_angles(arc, g)
    in_cap = d_far <= spec.closeness * spec.cap_radius
    checks["steep_in_far_cap"] = bool(np.all(devs[in_cap] > np.pi / 4.0))

    tau = turning_angles(arc)
    checks["no_sharp_left_turns"] = bool(
        np.all(tau <= 2.0 * np.tan(2.0 * r) * hbar + 1e-12))

    def collinear(triple):
        n01 = unit(np.cross(triple[0], triple[1]))
        return abs(float(triple[2] @ n01)) <= 1e-9

    checks["flat_tails"] = collinear(arc.nodes[:3]) and collinear(arc.nodes[-3:])
    checks["ok"] = all(bool(v) for v in checks.values())
    return checks


def test_dirichlet_gamma_properties():
    spec = DirichletArcSpec(circle=GreatCircle(Z), band_halfwidth=0.04,
                            cap_radius=1.3, closeness=0.25)
    arc, info = dirichlet_gamma(spec)
    checks = check_dirichlet_gamma(arc, spec, info)
    assert checks["ok"], checks
    a_c = spec.closeness * spec.cap_radius
    for end in (arc.nodes[0], arc.nodes[-1]):
        assert geodesic_distance(end, spec.vertex) < a_c


def test_fibonacci_lattice():
    f1, f2 = fibonacci_sphere(64), fibonacci_sphere(64)
    assert np.array_equal(f1, f2)
    assert np.abs(np.linalg.norm(f1, axis=1) - 1.0).max() < 1e-12
    assert len(f1) == 64
    assert np.array_equal(fibonacci_sphere(np.int64(64)), f1)


@pytest.mark.parametrize("n", [1, 2, 3, 50, 64, 100, 101, 401, 1000, 2000, 4097])
def test_fibonacci_lattice_is_the_whole_sphere_cap(n):
    # the cap lattice of radius pi, bit for bit the spiral written out
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    lon = np.pi * (3.0 - np.sqrt(5.0)) * i
    assert np.array_equal(fibonacci_sphere(n),
                          np.column_stack([rho * np.cos(lon), rho * np.sin(lon), z]))


@pytest.mark.parametrize("bad", [True, 2.0, 150.5])
def test_fibonacci_lattice_rejects_a_non_integral_count(bad):
    with pytest.raises(DomainError, match="n must be an integer"):
        fibonacci_sphere(bad)


def test_multiplicity_sup_takes_a_numpy_pole_count():
    curve = circle_curve(1.0, n=64)
    got = multiplicity_sup(curve, 0.1, pole_samples=np.int64(150))
    assert got.to_json() == multiplicity_sup(curve, 0.1, pole_samples=150).to_json()


def test_circle_curve_phase():
    c0 = circle_curve(0.8, n=64)
    c1 = circle_curve(0.8, n=64, phase=0.3)
    assert not np.array_equal(c0.nodes, c1.nodes)
    assert abs(c0.length() - c1.length()) < 1e-12
