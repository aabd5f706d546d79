"""Output checks and the closed-form laws they compare against.

The laws are written out here rather than taken from spherecsf, so a defect in
the library's own oracle cannot hide a defect in its solver. Every check
returns a `Check`: a measured error and the tolerance it must stay within.
A tolerance of 0 marks an exact check (counts, booleans, bytes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.error) and self.error <= self.tolerance

    @property
    def ratio(self) -> float:
        """error / tolerance; only meaningful when tolerance > 0."""
        return self.error / self.tolerance


def exact(name: str, got, want) -> Check:
    return Check(name, 0.0 if got == want else 1.0, 0.0)


def absolute(name: str, got: float, want: float, tol: float) -> Check:
    return Check(name, abs(float(got) - float(want)), tol)


def relative(name: str, got: float, want: float, tol: float) -> Check:
    return Check(name, abs(float(got) - float(want)) / abs(float(want)), tol)


# ---------------------------------------------------------------------------
# closed-form laws


def circle_radius(r0: float, t: float) -> float:
    """Radius of a circle of radius r0 shrinking by curve shortening flow."""
    return math.acos(min(1.0, math.cos(r0) * math.exp(t)))


def circle_extinction(r0: float) -> float:
    return -math.log(math.cos(r0))


def cap_area(r: float) -> float:
    return 2.0 * math.pi * (1.0 - math.cos(r))


def regular_polygon(r: float, n: int) -> tuple[float, float]:
    """(length, area) of the geodesic n-gon inscribed in a circle of radius r."""
    edge = 2.0 * math.asin(math.sin(r) * math.sin(math.pi / n))
    # half the interior angle, from the right triangle centre-vertex-midpoint
    beta = math.atan2(1.0, math.cos(r) * math.tan(math.pi / n))
    return n * edge, 2.0 * n * beta - (n - 2) * math.pi


def constant_graph(u0: float, t: float) -> float:
    """Constant slope profile u0 under the graph flow: tan(asin(sin(atan u0) e^t))."""
    return math.tan(math.asin(math.sin(math.atan(u0)) * math.exp(t)))


# ---------------------------------------------------------------------------
# checks over flow output


def circle_oracle(name: str, r0: float, pole: np.ndarray, times, nodes, status: str,
                  t_end: float, tol: float = 5e-3) -> Check:
    """Worst relative error of the mean polar distance against the oracle over
    all snapshots; the run must end at t_end with status reached_max_time."""
    if status != "reached_max_time" or abs(times[-1] - t_end) > 1e-9:
        return Check(name, math.inf, tol)
    worst = 0.0
    for t, p in zip(times, nodes):
        want = circle_radius(r0, t)
        got = float(np.mean(np.arccos(np.clip(p @ pole, -1.0, 1.0))))
        worst = max(worst, abs(got - want) / want)
    return Check(name, worst, tol)


def flow_identities(name: str, times, lengths, turning, bending,
                    tol: float = 2e-2) -> list[Check]:
    """Central-difference residuals of d/dt(total turning) = total turning and
    dL/dt = -bending, relative to the right-hand side."""
    t, ln, k, b = (np.asarray(v, dtype=float) for v in (times, lengths, turning, bending))
    if len(t) < 3:
        return [Check(f"{name}.gage", math.inf, tol),
                Check(f"{name}.length-derivative", math.inf, tol)]
    h2 = t[2:] - t[:-2]
    gage = np.abs((k[2:] - k[:-2]) / h2 - k[1:-1]) / np.abs(k[1:-1])
    deriv = np.abs((ln[2:] - ln[:-2]) / h2 + b[1:-1]) / b[1:-1]
    return [Check(f"{name}.gage", float(gage.max()), tol),
            Check(f"{name}.length-derivative", float(deriv.max()), tol)]


def extinction_time(name: str, r0: float, t_final: float, status: str,
                    tol: float = 1e-2) -> Check:
    if status != "extinct":
        return Check(name, math.inf, tol)
    return relative(name, t_final, circle_extinction(r0), tol)


def entry_scaling(name: str, ratios, max_span: float = 3.0) -> Check:
    """Cap-entry time over band halfwidth must agree across widths within
    a factor max_span; the error is the excess of the span over 1."""
    vals = np.asarray(ratios, dtype=float)
    if not np.all(np.isfinite(vals)) or vals.min() <= 0.0:
        return Check(name, math.inf, max_span - 1.0)
    return Check(name, float(vals.max() / vals.min()) - 1.0, max_span - 1.0)


def geodesic_nodes(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """n points along the minimizing geodesic from a to b."""
    ang = math.acos(min(1.0, max(-1.0, float(a @ b))))
    f = np.linspace(0.0, 1.0, n)[:, None]
    return (np.sin((1.0 - f) * ang) * a + np.sin(f * ang) * b) / math.sin(ang)

