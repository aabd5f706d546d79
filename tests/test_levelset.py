"""Side tests, annulus construction, offsets, and the area law checks."""
import ast
import functools
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherecsf import (
    ClosedSphereCurve,
    DomainError,
    ExtinctionBeforeEnd,
    FlowConfig,
    NotEmbedded,
    OffsetCollision,
    annulus_area_law,
    area_ode_check,
    circle_curve,
    classify_long_term,
    curves_cross,
    enclosed_left_area,
    evolve_closed,
    hausdorff_distance,
    koch_like,
    make_annulus,
    offset_curve,
    sandwich_flow,
)
from spherecsf import levelset
from spherecsf.curves import curve_distance, edge_ends, self_intersects, wrapped
from spherecsf.levelset import _point_in_left, evolve_annulus

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def cap_area(r):
    """Area of the geodesic cap of radius r."""
    return 2.0 * np.pi * (1.0 - np.cos(r))


def reversed_curve(curve):
    return ClosedSphereCurve(curve.nodes[::-1].copy())


def meridian_circle(n=64, phase=0.1):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False) + phase
    return ClosedSphereCurve(np.c_[np.sin(t), np.zeros_like(t), np.cos(t)])


@functools.lru_cache(maxsize=None)
def band_annulus(n=192):
    return make_annulus(circle_curve(0.8, n=n), circle_curve(1.2, n=n))


@functools.lru_cache(maxsize=None)
def straddle_annulus(n=192):
    return make_annulus(circle_curve(np.pi / 2 - 0.05, n=n),
                        circle_curve(np.pi / 2 + 0.05, n=n))


# ---------------------------------------------------------------------------
# point sides and enclosed area


def test_point_in_left_cap_sides():
    c = circle_curve(0.3, n=128)
    assert _point_in_left(c, Z)
    assert not _point_in_left(c, X)
    assert not _point_in_left(c, -Z)


def test_point_in_left_rejects_point_on_curve():
    c = circle_curve(0.3, n=128)
    with pytest.raises(DomainError, match="lies on the curve"):
        _point_in_left(c, c.nodes[5])


def test_point_in_left_answers_at_antipode_of_node():
    # the fan sum has no probe circle, so a node's antipode is an ordinary point
    c = circle_curve(0.3, n=128)
    assert not _point_in_left(c, -c.nodes[5])
    assert _point_in_left(reversed_curve(c), -c.nodes[5])


def _latitude_nodes(ang, rho):
    return np.stack([np.sin(rho) * np.cos(ang), np.sin(rho) * np.sin(ang),
                     np.cos(rho)], axis=1)


@st.composite
def perturbed_latitudes(draw):
    """A rotated perturbed latitude, reversed or not, with its azimuths, polar
    distances and rotation: unreversed, it runs east with its pole on the left."""
    n = draw(st.integers(16, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ang = 2.0 * np.pi * (np.arange(n) + draw(st.floats(0.0, 0.9))
                         * rng.uniform(-0.5, 0.5, n)) / n
    rho = (draw(st.floats(0.3, np.pi - 0.5))
           + draw(st.floats(0.0, 0.2)) * np.sin(draw(st.integers(1, 6)) * ang))
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rot *= np.sign(np.linalg.det(rot))  # a proper rotation keeps left on the left
    flip = draw(st.booleans())
    nodes = _latitude_nodes(ang, rho) @ rot.T
    curve = ClosedSphereCurve(nodes[::-1] if flip else nodes)
    return curve, ang, rho, rot, flip, rng


def _pole_side(ang, rho, q):
    """Whether q, in the latitude's own frame, lies on its pole's side: nearer
    the pole than the edge that the meridian through q crosses."""
    a, b = edge_ends(wrapped(_latitude_nodes(ang, rho), True), True)
    phi = np.arctan2(q[1], q[0])
    j = int(np.argmax((phi - ang) % (2.0 * np.pi)
                      <= (np.append(ang[1:], ang[0]) - ang) % (2.0 * np.pi)))
    nx, ny, nz = np.cross(a[j], b[j])
    return np.arccos(q[2]) < np.arctan2(-nz, nx * np.cos(phi) + ny * np.sin(phi)) % np.pi


@settings(max_examples=60, deadline=None)
@given(perturbed_latitudes())
def test_point_in_left_matches_latitude_oracle(case):
    curve, ang, rho, rot, flip, rng = case
    a, b = edge_ends(wrapped(curve.nodes, True), True)
    for j in rng.choice(curve.n, size=4, replace=False):
        mid = (a[j] + b[j]) / np.linalg.norm(a[j] + b[j])
        nu = np.cross(a[j], b[j])
        nu /= np.linalg.norm(nu)  # the left normal of the edge
        for d in (2e-9, 1e-6, 1e-2):  # 1e-9 itself is the refusal threshold
            for side in (1, -1):
                p = np.cos(d) * mid + np.sin(d) * side * nu
                assert _point_in_left(curve, p) == (side > 0)
        with pytest.raises(DomainError, match="lies on the curve"):
            _point_in_left(curve, np.cos(1e-10) * mid + np.sin(1e-10) * nu)
    points = rng.normal(size=(40, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    for p in points[curve_distance(points, curve) > 1e-2]:
        assert _point_in_left(curve, p) == (_pole_side(ang, rho, rot.T @ p) != flip)


def test_enclosed_area_matches_cap():
    c = circle_curve(0.3, n=128)
    assert abs(enclosed_left_area(c) - cap_area(0.3)) < 5e-4


def test_enclosed_area_complement_identity():
    c = circle_curve(0.3, n=128)
    total = enclosed_left_area(c) + enclosed_left_area(reversed_curve(c))
    assert abs(total - 4.0 * np.pi) < 1e-9


# Transversal crossings with no shared node, which sampling one curve missed.
CROSSING_CIRCLES = [
    (circle_curve(0.5), circle_curve(0.5, pole=(np.sin(0.3), 0.0, np.cos(0.3)))),
    (circle_curve(1.0), circle_curve(1.0, pole=(1.0, 0.0, 0.0))),
]


def test_curves_cross():
    assert not curves_cross(circle_curve(0.3, n=64), circle_curve(1.0, n=64))
    assert curves_cross(circle_curve(np.pi / 2, n=64), meridian_circle())
    for a, b in CROSSING_CIRCLES:
        assert curves_cross(a, b) and curves_cross(b, a)


# ---------------------------------------------------------------------------
# annulus construction


def test_make_annulus_latitude_band():
    st = band_annulus()
    exact = 2.0 * np.pi * (np.cos(0.8) - np.cos(1.2))
    assert abs(st.area - exact) < 1e-4
    off_a, off_b = st.complement_areas
    assert abs(off_a - cap_area(0.8)) < 1e-3
    assert abs(off_b - (4.0 * np.pi - cap_area(1.2))) < 1e-3


def test_make_annulus_ignores_input_orientation():
    # the polar caps are c13's: each node of one is the antipode of a node
    # of the other
    for radii, n in (((0.8, 1.2), 128), ((0.6, np.pi - 0.6), 256)):
        a, b = (circle_curve(r, n=n) for r in radii)
        first = make_annulus(a, b)
        for alpha in (a, reversed_curve(a)):
            for beta in (b, reversed_curve(b)):
                got = make_annulus(alpha, beta)
                assert np.array_equal(got.alpha.nodes, first.alpha.nodes)
                assert np.array_equal(got.beta.nodes, first.beta.nodes)
                assert got.area == first.area


def test_make_annulus_rejects_meeting_boundaries():
    # an identical copy and a copy turned by 5e-8 cross; a latitude copy 1e-8
    # off does not, but its nodes lie within the side test's 1e-9 of alpha, so
    # the boundaries touch
    c = circle_curve(0.7, n=96)
    tilt = 5e-8
    rot = np.array([[1.0, 0.0, 0.0],
                    [0.0, np.cos(tilt), -np.sin(tilt)],
                    [0.0, np.sin(tilt), np.cos(tilt)]])
    for beta in (c, c.with_nodes(c.nodes @ rot.T)):
        with pytest.raises(NotEmbedded, match="intersect"):
            make_annulus(c, beta)
    with pytest.raises(NotEmbedded, match="annulus boundaries touch"):
        make_annulus(c, circle_curve(0.7 + 1e-8, n=96))


def test_make_annulus_separated_boundaries_skip_hausdorff(monkeypatch):
    # c06's circles: building the annulus needs no densified Hausdorff distance
    def unreachable(*args, **kwargs):
        raise AssertionError("hausdorff_distance reached")

    monkeypatch.setattr(levelset, "hausdorff_distance", unreachable)
    st = make_annulus(circle_curve(0.6, n=256), circle_curve(1.0, n=256))
    assert st.area > 0.0


def test_make_annulus_rejects_crossing_boundaries():
    eq = circle_curve(np.pi / 2, n=64)
    with pytest.raises(NotEmbedded):
        make_annulus(eq, meridian_circle())
    for a, b in CROSSING_CIRCLES:
        with pytest.raises(NotEmbedded):
            make_annulus(a, b)


# ---------------------------------------------------------------------------
# offsets


def test_offset_of_equator_is_a_latitude():
    eq = circle_curve(np.pi / 2, n=128)
    up = offset_curve(eq, 0.1, +1)
    down = offset_curve(eq, 0.1, -1)
    assert np.allclose(up.nodes[:, 2], np.sin(0.1), atol=1e-12)
    assert np.allclose(down.nodes[:, 2], -np.sin(0.1), atol=1e-12)


def test_offset_composition():
    eq = circle_curve(np.pi / 2, n=128)
    direct = offset_curve(eq, 0.2, +1)
    split = offset_curve(offset_curve(eq, 0.1, +1), 0.1, +1)
    assert hausdorff_distance(direct, split, refine=1e-3) < 1e-6


@pytest.mark.parametrize("eps,side", [(0.0, 1), (-0.1, 1), (1.0, 1), (0.1, 2)])
def test_offset_rejects_bad_arguments(eps, side):
    with pytest.raises(DomainError):
        offset_curve(circle_curve(1.0, n=64), eps, side)


def test_offset_focal_overrun_raises():
    # pushing a radius-0.1 cap boundary 0.3 further toward its center walks
    # across the pole; the result is a curve, but not an offset
    c = circle_curve(0.1, n=96)
    with pytest.raises(OffsetCollision, match="focal overrun"):
        offset_curve(c, 0.3, +1)
    out = offset_curve(c, 0.3, -1)  # away from the pole is fine
    assert abs(np.arccos(out.nodes[:, 2]).mean() - 0.4) < 1e-6


def test_offset_smoothing_embeds_a_rough_offset(monkeypatch):
    # the node-normal push of Koch d = 2 into its right side crosses itself;
    # two smoothing passes embed it within the 2*eps drift bound
    koch, verdicts = koch_like(2), []

    def spy(q, closed):
        verdicts.append(self_intersects(q, closed=closed))
        return verdicts[-1]

    monkeypatch.setattr(levelset, "self_intersects", spy)
    out = offset_curve(koch, 0.1, -1)
    assert verdicts == [True, True, False, False]
    assert not self_intersects(out.nodes, closed=True)
    assert hausdorff_distance(out, koch, refine=1e-3) <= 0.2


def test_offset_that_smoothing_cannot_embed_raises():
    # Koch d = 4's push still crosses itself after every smoothing pass; the
    # sandwich test below meets the drift and focal-overrun refusals
    with pytest.raises(OffsetCollision, match="cannot be embedded"):
        offset_curve(koch_like(4), 0.1, +1)


# ---------------------------------------------------------------------------
# the sandwich


def test_sandwich_equator_reports_measure_zero():
    res = sandwich_flow(circle_curve(np.pi / 2, n=192), 3, t_end=0.08, eps0=0.08)
    assert res.verdict == "MeasureZeroCurve"
    assert res.eps0 == 0.08 and res.t_end == 0.08
    assert len(res.levels) == 3
    for row in res.levels:
        assert row.skipped is None
        assert row.gap_final < row.gap_initial * np.exp(0.08) * 3.0


def test_sandwich_band_reports_positive_area():
    res = sandwich_flow(band_annulus(), 2, t_end=0.08, eps0=0.08)
    assert res.verdict == "PositiveAreaAnnulus"
    # the finest level brackets the evolving annulus area
    assert res.levels[-1].area_final > band_annulus().area


def test_sandwich_skips_levels_whose_offsets_collide():
    # Koch d = 3's left offsets overrun a focal point at 0.1 and 0.05 and
    # drift beyond 2*eps at 0.0125
    res = sandwich_flow(koch_like(3), 4, t_end=0.01, eps0=0.1)
    assert [row.skipped is None for row in res.levels] == [False, False, True, False]
    assert "focal overrun" in res.levels[0].skipped
    assert "drifted beyond 2*eps" in res.levels[3].skipped
    assert all(np.isnan(v) for v in astuple(res.levels[0])[1:4])
    # one live level cannot show a trend
    assert res.verdict == "Inconclusive"


def test_sandwich_skips_levels_whose_offsets_meet(monkeypatch):
    # offsets that cross cannot bound an annulus; the level reports why
    monkeypatch.setattr(levelset, "offset_curve",
                        lambda curve, eps, side: curve if side > 0 else meridian_circle())
    res = sandwich_flow(circle_curve(np.pi / 2, n=64), 2, t_end=0.01, eps0=0.08)
    assert [row.skipped for row in res.levels] == ["annulus boundaries intersect"] * 2
    assert res.verdict == "Inconclusive"


def test_sandwich_counts_the_area_of_dead_boundaries():
    # both offsets of the radius-0.3 circle die before t = 0.2: the inner one
    # leaves nothing to its off side, the outer one the whole sphere
    res = sandwich_flow(circle_curve(0.3, n=128), 1, t_end=0.2, eps0=0.05)
    assert res.levels[0].skipped is None
    assert res.levels[0].area_final == 0.0


def test_sandwich_rejects_nonpositive_time():
    with pytest.raises(DomainError):
        sandwich_flow(circle_curve(1.0, n=64), 1, t_end=0.0)


@pytest.mark.parametrize("initial", [lambda: circle_curve(1.0, n=64),
                                     band_annulus],
                         ids=["curve", "annulus"])
def test_sandwich_with_no_levels_is_refused(initial):
    # a count below 1 would run no level and give no verdict
    for levels in (0, -3, 2.5, True):
        with pytest.raises(DomainError, match="n_levels must be an integer >= 1"):
            sandwich_flow(initial(), levels, t_end=0.05, eps0=0.08)


# ---------------------------------------------------------------------------
# area law and the trichotomy


def test_area_ode_straddling_band():
    rep = area_ode_check(straddle_annulus(), 0.2)
    assert rep.residual < 1e-3
    assert rep.times[0] == 0.0 and rep.times[-1] > 0.19
    assert np.all(np.diff(rep.areas) > 0.0)


def test_area_ode_polar_band():
    rep = area_ode_check(band_annulus(), 0.15)
    assert rep.residual < 1e-3


def test_area_ode_extinction_before_horizon():
    # alpha's cap dies first and leaves the region the cap beyond beta; beta's
    # death at ln sec 0.5 then empties the region, which ends the law
    st = make_annulus(circle_curve(0.3, n=128), circle_curve(0.5, n=128))
    with pytest.raises(ExtinctionBeforeEnd, match="beta"):
        area_ode_check(st, 0.5)


SEC_03, SEC_06 = -np.log(np.cos(0.3)), -np.log(np.cos(0.6))


@pytest.mark.parametrize("a,b,horizon,deaths", [
    (0.3, 0.8, 0.08, (SEC_03, None)),           # the inner cap dies
    (0.6, np.pi - 0.6, 0.25, (SEC_06, SEC_06)),  # c13's polar caps both die
], ids=["inner-cap", "polar-caps"])
def test_area_ode_across_a_death_the_region_survives(a, b, horizon, deaths):
    state = make_annulus(circle_curve(a, n=64), circle_curve(b, n=64))
    rep = area_ode_check(state, horizon)
    assert rep.residual <= 2e-2
    # the times reach the horizon, also when both boundaries die before it
    assert abs(rep.times[-1] - horizon) <= 1e-9
    if None not in deaths:
        assert rep.areas[-1] == 4.0 * np.pi
    for got, want in zip(rep.extinctions, deaths):
        assert got == (None if want is None else pytest.approx(want, rel=1e-2))


def test_area_ode_rejects_nonpositive_time():
    with pytest.raises(DomainError):
        area_ode_check(band_annulus(), 0.0)


@pytest.mark.parametrize("a,b,old_miss", [(0.6, 1.0, 0.30), (0.3, 1.2, 0.36)])
def test_annulus_area_law_across_inner_extinction(a, b, old_miss):
    # latitude circles a < b: the inner cap dies at ln sec a, after which the
    # region is the cap beyond b, whose area is 2*pi*(1 - cos(b)*e^t)
    t_star = -np.log(np.cos(a))
    mu0 = 2.0 * np.pi * (np.cos(a) - np.cos(b))
    t = np.linspace(0.0, 0.3, 61)
    want = np.where(t <= t_star, mu0 * np.exp(t),
                    2.0 * np.pi * (1.0 - np.cos(b) * np.exp(t)))
    np.testing.assert_allclose(annulus_area_law(mu0, t, [t_star]), want,
                               rtol=1e-12)
    # with no extinction the law is the annulus law, bit for bit
    assert np.array_equal(annulus_area_law(mu0, t), mu0 * np.exp(t))
    # the annulus law mu(0)*e^t misses the region's area at t = 0.3 by far
    # more than the area-ode check's 2e-2 residual tolerance
    miss = abs(want[-1] / (mu0 * np.exp(0.3)) - 1.0)
    assert miss == pytest.approx(old_miss, abs=0.01)
    assert miss > 2e-2


def test_evolve_annulus_holds_the_dead_cap_to_the_horizon():
    # the inner cap (latitude 0.3) dies at ln sec 0.3 = 0.0457, well inside
    # the horizon; the outer boundary (latitude 0.8) lives on
    horizon = 0.08
    state = make_annulus(circle_curve(0.3, n=64), circle_curve(0.8, n=64))
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.01, max_time=horizon)
    times, off, (t_inner, t_outer), finals, stats = evolve_annulus(state, cfg)
    # the counters of each boundary's own run
    assert stats == (evolve_closed(state.alpha, cfg).stats,
                     evolve_closed(state.beta, cfg).stats)
    assert t_inner == pytest.approx(-np.log(np.cos(0.3)), rel=1e-2)
    assert t_outer is None
    assert t_inner == finals[0].t and finals[1].t >= horizon - 1e-9
    dead = times > t_inner
    assert dead.sum() >= 3 and np.all(off[0][dead] == 0.0)
    assert times[0] == 0.0 and times[-1] >= horizon - 1e-9


def test_classify_straddling_band_is_honest_about_short_horizons():
    cls = classify_long_term(straddle_annulus(), 0.3)
    # complement caps are both below half the sphere, so the predictor says
    # the flow should exhaust the sphere; 0.3 is far too early to see it
    assert cls.expected_verdict == "WholeSphere"
    assert cls.verdict == "Inconclusive"
    assert not cls.consistent
    assert cls.extinction_time is None
    assert abs(cls.complement_area_max - cap_area(np.pi / 2 - 0.05)) < 1e-3


def test_classify_rejects_nonpositive_time():
    with pytest.raises(DomainError):
        classify_long_term(band_annulus(), 0.0)


def test_horizons_below_the_snapshot_floor_run():
    # FlowConfig's snapshot_dt is at least 1e-9; a shorter horizon still runs
    assert classify_long_term(band_annulus(), 1e-10).verdict == "Inconclusive"
    assert area_ode_check(band_annulus(), 1e-10).residual < 1e-6


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0])
def test_horizons_must_be_positive_and_finite(horizon):
    for run, name in ((lambda t: sandwich_flow(circle_curve(1.0, n=64), 1, t), "t_end"),
                      (lambda t: area_ode_check(band_annulus(), t), "t_end"),
                      (lambda t: classify_long_term(band_annulus(), t), "max_time")):
        with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
            run(horizon)


def test_levelset_evolves_only_through_evolve_annulus():
    # the sandwich, the area law and classify share one evolution: no other
    # function in levelset.py may call evolve_closed
    tree = ast.parse(Path(levelset.__file__).read_text())
    callers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "evolve_closed"}
    assert callers == {"evolve_annulus"}
