"""Built-in verification suite.

Each check exercises one observable guarantee of the library end to end and
reports a pass/fail with the measured quantities. The registry order is
stable; `spherecsf verify` and the test suite both run the checks of `CHECKS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np

from . import flow
from .errors import ExtinctionBeforeEnd
from .sphere import GreatCircle, geodesic_distance, slerp
from .curves import (SphereArc, _hausdorff_exceeds, c1_deviation, hausdorff_distance,
                     intersection_count, resample)
from .flow import (STATUS_EXTINCT, DirichletArcSpec, FlowConfig,
                   barrier_radius_oracle, circle_extinction_time, circle_oracle,
                   evolve_arc, evolve_closed, straightening_experiment,
                   time_to_enter_cap)
from .graphflow import PeriodicGraph, constant_graph_oracle, evolve_graph, crosscheck
from .jordan import (_evaluate, circle_curve, dirichlet_gamma, fibonacci_sphere,
                     is_leafable, koch_like, leafable_wiggle, multiplicity_sup,
                     perturbed_latitude)
from .levelset import (VERDICT_EXTINCT, VERDICT_HEMISPHERE,
                       VERDICT_MEASURE_ZERO, VERDICT_WHOLE_SPHERE,
                       area_ode_check, classify_long_term, make_annulus,
                       sandwich_bound, sandwich_flow)

Z = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    measured: dict = field(default_factory=dict)


def _result(name, passed, detail, **measured):
    return CheckResult(name=name, passed=bool(passed), detail=detail,
                       measured={k: v for k, v in measured.items()})


def _mean_radius(nodes, pole) -> float:
    return float(np.mean(geodesic_distance(nodes, pole)))


# ---------------------------------------------------------------------------
# the step ledger and the shared, memoized runs

_READ = []  # the flow runs the running check has read, each once
LEDGER = ("accepted_steps", "rejected_trials", "remeshes")  # FlowStats fields each check sums


def _note(runs):
    """runs, recorded as read by the running check unless it read them already."""
    _READ.extend([r for r in runs if all(r is not s for s in _READ)])
    return runs


def _shared(make):
    """make(), run once; every call records its runs as read."""
    once = lru_cache(maxsize=None)(make)
    return wraps(make)(lambda: _note(once()))


def _ledger(check):
    """check, with the accepted steps, rejected trials and remeshes of the flow
    runs it reads summed into its measured. flow._evolve is wrapped while it
    runs, so the runs that levelset and graphflow make count too; a shared run
    counts in every check that reads it."""
    @wraps(check)
    def counted():
        evolve = flow._evolve
        _READ.clear()
        flow._evolve = lambda curve, cfg: _note([evolve(curve, cfg)])[0]
        try:
            result = check()
            stats = [r.stats for r in _READ]
        finally:
            flow._evolve = evolve
            _READ.clear()
        result.measured.update({k: sum(getattr(s, k) for s in stats) for k in LEDGER})
        return result
    return counted


@_shared
def _residual_trajectories():
    # snapshot_dt enters the residuals quadratically via the central
    # difference; the fastest transient here decays at rate ~ 2(mode^2 - 1)
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.002, max_time=0.32,
                     remesh_every=10 ** 9)
    runs = []
    for radius, mode in ((0.9, 4), (1.1, 5), (1.25, 6)):
        curve = perturbed_latitude(radius, 0.12, mode, n=512)
        runs.append(evolve_closed(curve, cfg))
    return tuple(runs)


@_shared
def _monotone_trajectories():
    # remesh disabled so sampled counts ride smooth node trajectories; the
    # corpus is therefore smooth curves (corner curves cluster nodes without
    # remeshing and stall the CFL step)
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.01, max_time=0.19,
                     remesh_every=10 ** 9)
    corpus = (
        perturbed_latitude(np.pi / 2, 0.25, 5, n=512),
        perturbed_latitude(np.pi / 2, 0.20, 3, n=512),
        perturbed_latitude(1.0, 0.18, 4, n=512),
        circle_curve(1.2, n=256),
        perturbed_latitude(1.3, 0.10, 7, n=512),
    )
    return tuple(evolve_closed(c, cfg) for c in corpus)


# ---------------------------------------------------------------------------
# the checks


def check_circle_oracle() -> CheckResult:
    r0 = np.pi / 3
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.01, max_time=0.6)
    traj = evolve_closed(circle_curve(r0, n=512), cfg)
    worst = 0.0
    for snap in traj.snapshots:
        want = circle_oracle(r0, snap.t)
        got = _mean_radius(snap.curve.nodes, Z)
        worst = max(worst, abs(got - want) / want)
    return _result("circle-oracle", worst <= 5e-3,
                   f"max relative radius error {worst:.3e} (tolerance 5e-3) "
                   f"for the r0=pi/3 circle on [0, 0.6]",
                   max_relative_error=worst)


def check_extinction_time() -> CheckResult:
    r0 = np.pi / 3
    want = circle_extinction_time(r0)
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.01, target_spacing=0.0106,
                     remesh_every=20)
    traj = evolve_closed(circle_curve(r0, n=512), cfg)
    got = traj.final().t
    rel = abs(got - want) / want
    ok = traj.terminal_status == STATUS_EXTINCT and rel <= 0.01
    return _result("extinction-time", ok,
                   f"measured extinction {got:.6f} vs ln(2) = {want:.6f}, "
                   f"relative error {rel:.3e} (tolerance 1e-2)",
                   measured_time=got, exact_time=want, relative_error=rel)


def check_barrier_law() -> CheckResult:
    halfwidth = 0.1
    curve = perturbed_latitude(np.pi / 2, 0.09, 5, n=512)
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.01, max_time=0.3,
                     remesh_every=10 ** 9)
    traj = evolve_closed(curve, cfg)
    margin = np.inf
    for snap in traj.snapshots:
        height = np.abs(np.arcsin(np.clip(snap.curve.nodes @ Z, -1.0, 1.0)))
        bound = barrier_radius_oracle(halfwidth, snap.t) + 1e-3
        margin = min(margin, bound - float(height.max()))
    contained = margin >= 0.0

    u0 = math.tan(0.1)
    g = PeriodicGraph(np.full(256, u0))
    graph_err = 0.0
    for t in (0.05, 0.1):
        got = evolve_graph(g, t).values
        graph_err = max(graph_err, float(np.abs(got - constant_graph_oracle(u0, t)).max()))
    ok = contained and graph_err <= 1e-6
    return _result("barrier-law", ok,
                   f"band containment margin {margin:.3e} (needs >= 0) and "
                   f"constant-data graph error {graph_err:.3e} (tolerance 1e-6)",
                   containment_margin=margin, graph_error=graph_err)


def _central_residuals(traj):
    t = traj.times
    length = traj.lengths
    bending = np.array([s.bending for s in traj.snapshots])
    turning = np.array([s.total_curvature for s in traj.snapshots])
    gage = 0.0
    deriv = 0.0
    for i in range(1, len(t) - 1):
        h2 = t[i + 1] - t[i - 1]
        dk = (turning[i + 1] - turning[i - 1]) / h2
        gage = max(gage, abs(dk - turning[i]) / abs(turning[i]))
        dl = (length[i + 1] - length[i - 1]) / h2
        deriv = max(deriv, abs(dl + bending[i]) / bending[i])
    return gage, deriv


def check_gage_identity() -> CheckResult:
    worst = max(_central_residuals(traj)[0] for traj in _residual_trajectories())
    return _result("gage-identity", worst <= 2e-2,
                   f"max relative residual of d/dt(total turning) = total "
                   f"turning is {worst:.3e} (tolerance 2e-2)",
                   max_relative_residual=worst)


def check_length_derivative() -> CheckResult:
    worst = max(_central_residuals(traj)[1] for traj in _residual_trajectories())
    return _result("length-derivative", worst <= 2e-2,
                   f"max relative residual of dL/dt = -bending is {worst:.3e} "
                   f"(tolerance 2e-2)",
                   max_relative_residual=worst)


def check_area_ode() -> CheckResult:
    # the inner cap dies at ln sec 0.6 < 0.3; from then on the region is a
    # cap whose area follows mu' = mu - 2*pi, no longer mu' = mu
    horizon = 0.3
    state = make_annulus(circle_curve(0.6, n=256), circle_curve(1.0, n=256))
    mu0 = state.area
    try:
        report = area_ode_check(state, horizon)
    except ExtinctionBeforeEnd as exc:
        return _result("area-ode", False, str(exc))
    residual, times = report.residual, report.times
    t_inner, t_outer = report.extinctions

    t_star = circle_extinction_time(0.6)
    if t_inner is None:
        rel, inner = None, "the inner boundary never went extinct"
    else:
        rel = abs(t_inner - t_star) / t_star
        inner = (f"inner extinction {t_inner:.6f} vs ln sec 0.6 = "
                 f"{t_star:.6f}, relative error {rel:.3e} (tolerance 1e-2)")
    ok = (residual <= 2e-2 and abs(mu0 - 1.790939) <= 1e-3
          and rel is not None and rel <= 1e-2
          and times[-1] >= horizon - 1e-9)
    return _result("area-ode", ok,
                   f"residual {residual:.3e} against mu' = mu - 2*pi*k "
                   f"(k extinct boundaries) on [0, {times[-1]:.3f}] "
                   f"(tolerance 2e-2); {inner}; initial area {mu0:.6f}",
                   residual=residual, initial_area=mu0,
                   inner_extinction=t_inner, exact_inner_extinction=t_star,
                   inner_extinction_relative_error=rel,
                   outer_extinction=t_outer, samples=int(len(times)))


def _monotone_increases(counter):
    """(increases, transitions) of counter(curve, poles), one count per pole,
    between consecutive snapshots, over every monotone trajectory and pole."""
    violations = checked = 0
    poles = fibonacci_sphere(50)
    for traj in _monotone_trajectories():
        diffs = np.diff([counter(s.curve, poles) for s in traj.snapshots], axis=0)
        violations += int(np.sum(diffs > 0))
        checked += diffs.size
    return violations, checked


def check_multiplicity_monotone() -> CheckResult:
    violations, checked = _monotone_increases(
        lambda curve, poles: _evaluate(curve, 0.1, poles)[0])
    return _result("multiplicity-monotone", violations == 0,
                   f"{violations} increases of the band multiplicity across "
                   f"{checked} sampled transitions (needs 0)",
                   violations=violations, transitions=checked)


def check_intersection_monotone() -> CheckResult:
    violations, checked = _monotone_increases(
        lambda curve, poles: [intersection_count(curve, GreatCircle(p)) for p in poles])
    return _result("intersection-monotone", violations == 0,
                   f"{violations} increases of the great-circle crossing "
                   f"count across {checked} sampled transitions (needs 0)",
                   violations=violations, transitions=checked)


def check_solver_crosscheck() -> CheckResult:
    n = 512
    x = 2.0 * np.pi * np.arange(n) / n
    profiles = (
        np.full(n, 0.1),
        0.05 * np.sin(2 * x),
        0.05 * np.sin(3 * x),
        0.03 * np.sin(2 * x) + 0.02 * np.cos(5 * x),
    )
    circle = GreatCircle(Z)
    worst = 0.0
    for heights in profiles:
        out = crosscheck(PeriodicGraph(np.tan(heights)), circle, 0.1,
                         curve_nodes=512)
        worst = max(worst, out["gap"])
    return _result("solver-crosscheck", worst <= 1e-3,
                   f"max Hausdorff gap between the lifted graph evolution and "
                   f"the intrinsic flow is {worst:.3e} (tolerance 1e-3)",
                   max_gap=worst)


def check_straightening() -> CheckResult:
    g = GreatCircle(Z)
    curve = leafable_wiggle()
    dev0 = c1_deviation(curve, g)
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.01, max_time=0.2,
                     remesh_every=10 ** 9)
    res = straightening_experiment(curve, g, barrier_halfwidth=0.05,
                                   alignment=0.1, cfg=cfg)
    leaf = is_leafable(res.trajectory.final().curve, g, r=0.025,
                       cap_radius=0.7, closeness=0.1)
    ok = (dev0 >= 0.5 and res.containment_ok
          and res.first_aligned_time is not None
          and res.deviations[-1] <= 0.1 and leaf.ok)
    return _result("straightening", ok,
                   f"initial deviation {dev0:.3f} (needs >= 0.5), final "
                   f"deviation {res.deviations[-1]:.3e} (needs <= 0.1), "
                   f"contained={res.containment_ok}, aligned at "
                   f"t={res.first_aligned_time}, leafable={leaf.ok} "
                   f"{leaf.reasons or ''}",
                   initial_deviation=dev0, final_deviation=float(res.deviations[-1]),
                   first_aligned_time=res.first_aligned_time)


def check_dirichlet_scaling() -> CheckResult:
    circle = GreatCircle(Z)
    cap_radius = 1.3
    ratios = {}
    final_gap = None
    for r in (0.02, 0.04, 0.08):
        spec = DirichletArcSpec(circle=circle, band_halfwidth=r,
                                cap_radius=cap_radius, closeness=0.25)
        arc, info = dirichlet_gamma(spec)
        cfg = FlowConfig(dt=1e-4, snapshot_dt=1e-3,
                         max_time=(0.6 if r == 0.08 else 5 * r),
                         target_spacing=r / 6, remesh_every=20)
        traj = evolve_arc(resample(arc, spacing=r / 6), cfg)
        ratios[r] = time_to_enter_cap(traj, spec.vertex, cap_radius / 2) / r
        if r == 0.08:
            last = traj.final().curve
            ends = last.nodes[[0, -1]]
            geo = SphereArc(slerp(ends[0], ends[1], np.linspace(0.0, 1.0, 64)))
            final_gap = hausdorff_distance(last, geo, refine=1e-4)
    vals = np.array(list(ratios.values()))
    span = float(vals.max() / vals.min())
    ok = span <= 3.0 and final_gap <= 1e-3
    pretty = {f"{k:g}": round(v, 4) for k, v in ratios.items()}
    return _result("dirichlet-scaling", ok,
                   f"entry times over band halfwidth {pretty} span "
                   f"{span:.3f}x (needs <= 3x); final arc is {final_gap:.3e} "
                   f"from the endpoint geodesic (tolerance 1e-3)",
                   ratio_span=span, geodesic_gap=float(final_gap),
                   **{f"ratio_r{k:g}": float(v) for k, v in ratios.items()})


def check_levelset_sandwich() -> CheckResult:
    t_end = 0.1
    result = sandwich_flow(circle_curve(np.pi / 2, n=256), n_levels=4,
                           t_end=t_end, eps0=0.1)
    worst = -np.inf
    skipped = 0
    for row in result.levels:
        if row.skipped is not None:
            skipped += 1
            continue
        worst = max(worst, row.gap_final - sandwich_bound(row.eps, t_end))
    ok = (skipped == 0 and worst <= 0.0
          and result.verdict == VERDICT_MEASURE_ZERO)
    return _result("levelset-sandwich", ok,
                   f"worst (gap - 3*arcsin(sin(eps)*e^t)) = {worst:.3e} "
                   f"(needs <= 0), skipped levels {skipped}, verdict "
                   f"{result.verdict}",
                   worst_excess=float(worst), verdict=result.verdict)


def check_trichotomy() -> CheckResult:
    scenarios = []
    state = make_annulus(circle_curve(0.25, n=256), circle_curve(0.35, n=256))
    out = classify_long_term(state, max_time=0.5)
    lo, hi = circle_extinction_time(0.25), circle_extinction_time(0.35)
    scenarios.append((
        out.verdict == VERDICT_EXTINCT and out.consistent
        and out.extinction_time is not None
        and lo <= out.extinction_time <= 1.05 * hi,
        f"caps 0.25/0.35: {out.verdict}, extinction {out.extinction_time}"))

    state = make_annulus(circle_curve(np.pi / 2, n=256),
                         circle_curve(np.pi / 2 + 0.1, n=256))
    out = classify_long_term(state, max_time=0.5)
    scenarios.append((out.verdict == VERDICT_HEMISPHERE and out.consistent,
                      f"equator strip: {out.verdict}"))

    state = make_annulus(circle_curve(0.6, n=256),
                         circle_curve(np.pi - 0.6, n=256))
    out = classify_long_term(state, max_time=0.5)
    scenarios.append((
        out.verdict == VERDICT_WHOLE_SPHERE and out.consistent
        and out.final_area >= 4.0 * np.pi - 0.1,
        f"polar caps 0.6: {out.verdict}, final area {out.final_area:.4f}"))

    ok = all(s[0] for s in scenarios)
    return _result("trichotomy", ok,
                   "; ".join(s[1] for s in scenarios),
                   passed_scenarios=sum(1 for s in scenarios if s[0]))


def check_uniform_length_bound() -> CheckResult:
    base = koch_like(4)
    r = 0.05
    mult = multiplicity_sup(base, r).count
    cfg = FlowConfig(dt=1e-4, snapshot_dt=0.01, max_time=0.05)
    # the ladder gives 96 nodes twice; each distinct size is evolved once
    sizes = [max(96, int(base.n * 2.0 ** (n - 5))) for n in range(6)]
    gammas = {size: resample(base, n=size) for size in sizes}
    final = {size: evolve_closed(g, cfg).final().length for size, g in gammas.items()}
    approx_ok = not any(_hausdorff_exceeds(gammas[size], base, 2.0 ** (-n), refine=1e-3)
                        for n, size in enumerate(sizes))
    lengths = np.array([final[size] for size in sizes])
    spread = float(lengths.max() / lengths.min() - 1.0)
    scale = 2.0 * lengths[0] / mult
    bounded = bool(np.all(lengths <= scale * mult))
    ok = approx_ok and spread <= 0.2 and bounded
    return _result("uniform-length-bound", ok,
                   f"multiplicity {mult}, evolved lengths spread {spread:.3f} "
                   f"(needs <= 0.2), common bound holds: {bounded}, "
                   f"approximation rate held: {approx_ok}",
                   multiplicity=mult, length_spread=spread,
                   lengths=[float(x) for x in lengths])


def check_initial_continuity() -> CheckResult:
    t = 1e-3
    cfg = FlowConfig(dt=1e-4, snapshot_dt=t, max_time=t)
    corpus = [
        circle_curve(np.pi / 3, n=256),
        perturbed_latitude(np.pi / 2, 0.25, 5, n=512),
        perturbed_latitude(1.0, 0.18, 4, n=512),
        leafable_wiggle(),
        resample(koch_like(2), n=384),
    ]
    worst = 0.0
    for curve in corpus:
        moved = hausdorff_distance(evolve_closed(curve, cfg).final().curve,
                                   curve, refine=1e-3)
        worst = max(worst, moved)
    spec = DirichletArcSpec(circle=GreatCircle(Z), band_halfwidth=0.08,
                            cap_radius=1.3, closeness=0.25)
    arc, _ = dirichlet_gamma(spec)
    arc = resample(arc, spacing=0.08 / 6)
    moved = hausdorff_distance(evolve_arc(arc, cfg).final().curve, arc,
                               refine=1e-3)
    worst = max(worst, moved)
    return _result("initial-continuity", worst <= 0.05,
                   f"max Hausdorff displacement after t = 1e-3 is "
                   f"{worst:.3e} (tolerance 0.05)",
                   max_displacement=worst)


CHECKS = {
    "circle-oracle": check_circle_oracle,
    "extinction-time": check_extinction_time,
    "barrier-law": check_barrier_law,
    "gage-identity": check_gage_identity,
    "length-derivative": check_length_derivative,
    "area-ode": check_area_ode,
    "multiplicity-monotone": check_multiplicity_monotone,
    "intersection-monotone": check_intersection_monotone,
    "solver-crosscheck": check_solver_crosscheck,
    "straightening": check_straightening,
    "dirichlet-scaling": check_dirichlet_scaling,
    "levelset-sandwich": check_levelset_sandwich,
    "trichotomy": check_trichotomy,
    "uniform-length-bound": check_uniform_length_bound,
    "initial-continuity": check_initial_continuity,
}
CHECKS = {name: _ledger(check) for name, check in CHECKS.items()}
