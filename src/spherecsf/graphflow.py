"""Intrinsic graph flow over a great circle and its parametric crosscheck.

Profiles are periodic samples u_j = u(2*pi*j/n) of u = tan(h), h the band coordinate,
under u_t = A (u_xx + u), A = (1 + u^2)^2 / (1 + u^2 + u_x^2). A pseudo-spectral IMEX
step (Ascher, Ruuth and Wetton 1995; Smereka 2003) solves beta (d_xx + 1), beta = max A,
per FFT mode and (A - beta)(u_xx + u) explicitly: an IMEX-Euler predictor, then a
trapezoidal corrector (second order); their max gap, kept below TOLERANCE, sets the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, DomainError
from .curves import ClosedSphereCurve, hausdorff_distance, resample
from .flow import FlowConfig, evolve_closed
from .sphere import GreatCircle

TOLERANCE = 1e-6  # per-step bound on the predictor-corrector gap
STEP_BUDGET = 10 ** 6  # a step, capped or chosen, stays >= t_end / STEP_BUDGET
GROWTH_STEP = (12.0 * TOLERANCE) ** (1 / 3)  # beta * step at which CN's e^x errs by TOLERANCE
POLE_GUARD = 1.0 / np.tan(1e-3)  # |u| 1e-3 shy of the pole, where the chart degenerates
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


def _explicit(vh, ops, beta=None):
    """(A - beta)(u_xx + u) in Fourier space, beta (max A unless given) and u."""
    u, ux, lu = np.fft.irfft(ops * vh)
    a = (1.0 + u * u) ** 2 / (1.0 + u * u + ux * ux)
    beta = float(a.max()) if beta is None else beta
    return np.fft.rfft((a - beta) * lu), beta, u


def evolve_graph(initial, t_end: float, dt: float | None = None) -> PeriodicGraph:
    """Advance to exactly t_end; `dt` caps the error-controlled step; BlowUp at the pole guard."""
    g = initial if isinstance(initial, PeriodicGraph) else PeriodicGraph(initial)
    if not 0.0 <= t_end < np.inf:
        raise DomainError(f"t_end must be finite and nonnegative, got {t_end!r}")
    if dt is not None and not (0.0 < dt < np.inf and t_end / dt <= STEP_BUDGET):
        raise DomainError(f"dt must be positive and finite, >= t_end / {STEP_BUDGET}, got {dt!r}")
    k = np.arange(g.n // 2 + 1)
    ops = np.array([k ** 0, 1j * k, 1.0 - k * k])  # u, u_x and u_xx + u from the modes
    lam, uh, t, h = ops[2].real, np.fft.rfft(g.values), 0.0, dt or t_end
    while t < t_end:
        f0, beta, u = _explicit(uh, ops)
        step = min(h, dt or t_end, GROWTH_STEP / beta, t_end - t)  # bounds small u's growth error
        if np.abs(u).max() >= POLE_GUARD or not step >= min(t_end - t, t_end / STEP_BUDGET):
            raise BlowUp(f"graph flow reached the pole guard or its step budget at t = {t:.6f}")
        bl = step * beta * lam
        ph = (uh + step * f0) / (1.0 - bl)
        f1, _, p = _explicit(ph, ops, beta)
        ch = (uh * (1.0 + 0.5 * bl) + 0.5 * step * (f0 + f1)) / (1.0 - 0.5 * bl)
        err = float(np.abs(np.fft.irfft(ch) - p).max())
        if err <= TOLERANCE:
            t, uh = (t_end if step == t_end - t else t + step), ch
        h = step * min(max(0.2, 0.9 * (TOLERANCE / max(err, 1e-300)) ** 0.5), 2.0)
    return g if t_end == 0.0 else PeriodicGraph(np.fft.irfft(uh))


def constant_graph_oracle(u0: float, t: float) -> float:
    """Exact constant-data solution; the profile stays constant in x."""
    s = np.sin(np.arctan(u0)) * np.exp(t)
    if abs(s) >= np.sin(np.pi / 2.0 - 1e-3):
        raise BlowUp("constant solution reaches the pole guard before t")
    return float(np.tan(np.arcsin(s)))


def _lift_to_sphere(g: PeriodicGraph, circle: GreatCircle) -> ClosedSphereCurve:
    """The graph as a closed curve: longitude x, band coordinate arctan(u(x))."""
    return ClosedSphereCurve(circle.chart_point(g.x, g.heights))


def crosscheck(initial, circle: GreatCircle, t: float,
               curve_nodes: int = 512, dt: float | None = None) -> dict:
    """Evolve the same data with both solvers and compare at time t. `dt` caps
    the graph step as in evolve_graph; the polyline runs at FlowConfig's default
    step. Returns {"gap": Hausdorff distance, "graph": PeriodicGraph, "flow": the
    polyline run's FlowStats}."""
    g0 = initial if isinstance(initial, PeriodicGraph) else PeriodicGraph(initial)
    if t <= 0.0:
        raise DomainError(f"crosscheck time must be positive, got {t!r}")
    g_t = evolve_graph(g0, t, dt=dt)
    start = resample(_lift_to_sphere(g0, circle), n=curve_nodes)
    traj = evolve_closed(start, FlowConfig(snapshot_dt=t, max_time=t, remesh_every=10 ** 9))
    gap = hausdorff_distance(traj.final().curve, _lift_to_sphere(g_t, circle), refine=1e-4)
    return {"gap": float(gap), "graph": g_t, "flow": traj.stats}
