"""Intrinsic graph flow over a great circle and its parametric crosscheck.

Profiles are periodic samples u_j = u(2*pi*j/n) of the slope variable u = tan(h),
h the band coordinate. The evolution is

    u_t = (1 + u^2)^2 / (1 + u^2 + u_x^2) * (u_xx + u),

stepped explicitly with dt <= 0.2 * dx^2 / max(1 + u^2)^2. Constant data obeys
u(t) = tan(arcsin(sin(arctan u0) * e^t)) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, DomainError
from .curves import ClosedSphereCurve, hausdorff_distance, resample, wrapped
from .flow import FlowConfig, evolve_closed
from .sphere import GreatCircle

STABILITY_FACTOR = 0.2
# |u| at 1e-3 shy of the pole; beyond this the graph chart has degenerated.
POLE_GUARD = 1.0 / np.tan(1e-3)
MIN_SAMPLES = 64


@dataclass(frozen=True)
class PeriodicGraph:
    values: np.ndarray

    def __post_init__(self):
        u = np.array(self.values, dtype=float)
        if u.ndim != 1:
            raise DomainError("graph values must be a 1-d array")
        n = len(u)
        if n < MIN_SAMPLES or (n & (n - 1)) != 0:
            raise DomainError(f"sample count must be a power of two >= {MIN_SAMPLES}, got {n}")
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) >= POLE_GUARD:
            raise BlowUp("graph values reach the pole guard")
        u.flags.writeable = False
        object.__setattr__(self, "values", u)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def x(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def heights(self) -> np.ndarray:
        return np.arctan(self.values)


def evolve_graph(initial, t_end: float, dt: float | None = None) -> PeriodicGraph:
    """Advance the profile to exactly t_end; raises BlowUp at the pole guard.
    `dt`, when given, caps the stable step and must be positive and finite."""
    g = initial if isinstance(initial, PeriodicGraph) else PeriodicGraph(initial)
    if not 0.0 <= t_end < np.inf:
        raise DomainError(f"t_end must be finite and nonnegative, got {t_end!r}")
    if dt is not None and not (0.0 < dt < np.inf):
        raise DomainError(f"dt must be positive and finite, got {dt!r}")
    u = np.array(g.values)
    n = len(u)
    dx = 2.0 * np.pi / n
    t = 0.0
    while t < t_end - 1e-15:
        one = 1.0 + u * u
        cap = STABILITY_FACTOR * dx * dx / float(np.max(one) ** 2)
        step = min(cap if dt is None else min(dt, cap), t_end - t)
        ext = wrapped(u, True)
        um, up = ext[:-2], ext[2:]
        ux = (up - um) / (2.0 * dx)
        uxx = (up - 2.0 * u + um) / (dx * dx)
        u = u + step * (one * one / (one + ux * ux)) * (uxx + u)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) >= POLE_GUARD:
            raise BlowUp(f"graph flow reached the pole guard at t = {t + step:.6f}")
        t += step
    return PeriodicGraph(u)


def constant_graph_oracle(u0: float, t: float) -> float:
    """Exact constant-data solution; the profile stays constant in x."""
    s = np.sin(np.arctan(u0)) * np.exp(t)
    if abs(s) >= np.sin(np.pi / 2.0 - 1e-3):
        raise BlowUp("constant solution reaches the pole guard before t")
    return float(np.tan(np.arcsin(s)))


def linear_mode_decay(k: int, t: float) -> float:
    """Amplitude factor e^{(1-k^2) t} of mode k in the linearization about 0."""
    return float(np.exp((1.0 - k * k) * t))


def _lift_to_sphere(g: PeriodicGraph, circle: GreatCircle) -> ClosedSphereCurve:
    """The graph as a closed curve: longitude x, band coordinate arctan(u(x))."""
    return ClosedSphereCurve(circle.chart_point(g.x, g.heights))


def crosscheck(initial, circle: GreatCircle, t: float,
               curve_nodes: int = 512, dt: float | None = None) -> dict:
    """Evolve the same data with both solvers and compare at time t.

    `dt` caps the graph step as in evolve_graph; the polyline runs at
    FlowConfig's default step. Returns {"gap": Hausdorff distance,
    "graph": PeriodicGraph}.
    """
    g0 = initial if isinstance(initial, PeriodicGraph) else PeriodicGraph(initial)
    if t <= 0.0:
        raise DomainError(f"crosscheck time must be positive, got {t!r}")
    g_t = evolve_graph(g0, t, dt=dt)
    graph_curve = _lift_to_sphere(g_t, circle)

    start = resample(_lift_to_sphere(g0, circle), n=curve_nodes)
    cfg = FlowConfig(snapshot_dt=t, max_time=t, remesh_every=10 ** 9)
    final = evolve_closed(start, cfg).final().curve
    gap = hausdorff_distance(final, graph_curve, refine=1e-4)
    return {"gap": float(gap), "graph": g_t}
