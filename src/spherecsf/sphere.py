"""Spherical primitives: unit points, great circles, latitudes, wedges.

Angles are radians; points are unit 3-vectors (numpy arrays of shape (3,) or (n, 3)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, PoleDegenerate

# Constructor inputs must be unit length to this tolerance (then re-normalized exactly).
UNIT_TOL = 1e-9
# Within this distance of a pole (or its antipode) latitude directions are undefined.
POLE_EPS = 1e-9


def unit(v):
    """v / |v| along the last axis, raising DomainError for near-zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n < 1e-12):
        raise DomainError("cannot normalize a near-zero vector")
    return v / n


def as_point(p, what="point"):
    """Validate p as a unit 3-vector and return an exactly normalized copy."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise DomainError(f"{what} must be a 3-vector, got shape {p.shape}")
    n = np.linalg.norm(p)
    if not abs(n - 1.0) <= UNIT_TOL:
        raise DomainError(f"{what} must be unit length, |p| = {n!r}")
    return p / n


def geodesic_distance(p, q):
    """Great-circle distance in [0, pi]; accepts (3,) or (n, 3) arrays."""
    pq = np.asarray(p, dtype=float) * np.asarray(q, dtype=float)
    # the sum np.add.reduce(pq, axis=-1) makes, in its order, without a loop per row
    dots = pq[..., 0] + pq[..., 1] + pq[..., 2]
    return np.arccos(np.minimum(np.maximum(dots, -1.0), 1.0))


def fold_angle(a):
    """Map an angle into (-pi, pi]."""
    a = np.asarray(a, dtype=float) % (2.0 * np.pi)
    a = np.where(a > np.pi, a - 2.0 * np.pi, a)
    return a if a.ndim else float(a)


def orthonormal_frame(n):
    """Deterministic right-handed orthonormal pair (e1, e2) with e1 x e2 = n."""
    n = np.asarray(n, dtype=float)
    k = int(np.argmin(np.abs(n)))
    ek = np.zeros(3)
    ek[k] = 1.0
    e1 = unit(np.cross(ek, n))
    e2 = np.cross(n, e1)
    return e1, e2


def slerp(p, q, f):
    """Geodesic interpolation from p to q; f may be a scalar or an array in [0, 1]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    # near pi, arccos of the dot product loses digits that 1/sin(ang) then
    # amplifies; atan2 keeps the angle accurate, and the final projection
    # removes the rounding left in the cancelling sum p + q
    ang = float(np.arctan2(np.linalg.norm(np.cross(p, q)), p @ q))
    f = np.asarray(f, dtype=float)
    if ang < 1e-12:
        out = np.multiply.outer(np.ones_like(f), p)
        return out if f.ndim else p.copy()
    if ang > np.pi - 1e-9:
        raise DomainError("slerp between near-antipodal points is not unique")
    s = np.sin(ang)
    out = (np.multiply.outer(np.sin((1.0 - f) * ang), p)
           + np.multiply.outer(np.sin(f * ang), q)) / s
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


@dataclass(frozen=True)
class GreatCircle:
    """Oriented great circle {p : <p, pole> = 0}, counterclockwise seen from pole."""

    pole: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pole", as_point(self.pole, "pole"))
        self.pole.flags.writeable = False

    @cached_property
    def frame(self):
        """(e1, e2) spanning the circle's plane; point(0) = e1."""
        return orthonormal_frame(self.pole)

    def point(self, angle):
        e1, e2 = self.frame
        angle = np.asarray(angle, dtype=float)
        return (np.multiply.outer(np.cos(angle), e1)
                + np.multiply.outer(np.sin(angle), e2))

    def signed_height(self, p):
        """sin of the band coordinate: <p, pole>."""
        return np.asarray(p, dtype=float) @ self.pole

    def band_coordinate(self, p):
        """Signed distance to the circle in [-pi/2, pi/2], positive on the pole side."""
        return np.arcsin(np.clip(self.signed_height(p), -1.0, 1.0))

    def chart_point(self, longitude, height):
        """Point at the given longitude (from e1, toward e2) and band coordinate."""
        e1, e2 = self.frame
        lon = np.asarray(longitude, dtype=float)
        s = np.asarray(height, dtype=float)
        cs = np.cos(s)
        return (np.multiply.outer(cs * np.cos(lon), e1)
                + np.multiply.outer(cs * np.sin(lon), e2)
                + np.multiply.outer(np.sin(s), self.pole))

    def chart_coords(self, p):
        """(longitude, band coordinate) of p; longitude in (-pi, pi]."""
        p = np.asarray(p, dtype=float)
        e1, e2 = self.frame
        lon = np.arctan2(p @ e2, p @ e1)
        return lon, self.band_coordinate(p)

    def direction_at(self, p):
        """Unit tangent of the latitude through p, counterclockwise about pole."""
        p = np.asarray(p, dtype=float)
        d = np.cross(self.pole, p)
        nn = np.linalg.norm(d, axis=-1, keepdims=True)
        if np.any(nn < POLE_EPS):
            raise PoleDegenerate("latitude direction undefined at the poles")
        return d / nn


@dataclass(frozen=True)
class Latitude:
    """Circle at constant distance `radius` from `pole`; radius pi/2 is the great circle."""

    pole: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "pole", as_point(self.pole, "pole"))
        self.pole.flags.writeable = False
        r = float(self.radius)
        if not (0.0 < r < np.pi):
            raise DomainError(f"latitude radius must be in (0, pi), got {r!r}")
        object.__setattr__(self, "radius", r)

    def point(self, angle):
        e1, e2 = orthonormal_frame(self.pole)
        angle = np.asarray(angle, dtype=float)
        rim = (np.multiply.outer(np.cos(angle), e1)
               + np.multiply.outer(np.sin(angle), e2))
        return np.cos(self.radius) * self.pole + np.sin(self.radius) * rim


def cap_area(r):
    """Area of a geodesic ball of radius r in (0, pi)."""
    r = float(r)
    if not (0.0 < r < np.pi):
        raise DomainError(f"cap radius must be in (0, pi), got {r!r}")
    return 2.0 * np.pi * (1.0 - np.cos(r))


@dataclass(frozen=True)
class Wedge:
    """Union of the rotated circles R_psi(circle), |psi| <= halfangle, R_psi fixing vertex."""

    circle: GreatCircle
    vertex: np.ndarray
    halfangle: float

    def __post_init__(self):
        object.__setattr__(self, "vertex", as_point(self.vertex, "vertex"))
        self.vertex.flags.writeable = False
        if abs(float(self.vertex @ self.circle.pole)) > 1e-9:
            raise DomainError("wedge vertex must lie on the circle")
        a = float(self.halfangle)
        if not (0.0 < a < np.pi / 2.0):
            raise DomainError(f"wedge halfangle must be in (0, pi/2), got {a!r}")
        object.__setattr__(self, "halfangle", a)

    def leaf_angle(self, p):
        """Rotation angle psi in (-pi/2, pi/2] whose leaf contains p.

        The vertex and its antipode lie on every leaf; PoleDegenerate there.
        """
        p = np.asarray(p, dtype=float)
        m = self.circle.pole
        u = p @ m
        w = p @ np.cross(self.vertex, m)
        if np.any(np.hypot(u, w) < 1e-12):
            raise PoleDegenerate("every leaf passes through the wedge axis")
        psi = np.arctan2(-u, w)
        psi = np.where(psi > np.pi / 2.0, psi - np.pi, psi)
        psi = np.where(psi <= -np.pi / 2.0, psi + np.pi, psi)
        return psi if psi.ndim else float(psi)
