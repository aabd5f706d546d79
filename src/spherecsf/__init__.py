"""Numerical laboratory for curve shortening flow on the unit sphere.

Closed curves and fixed-endpoint arcs are polygonal node chains on S^2 evolved
by explicit curvature stepping. The package also provides latitude-band
barriers, Jordan-style band multiplicity, spaced point sets, offset
sandwiches for weak evolutions, and a periodic graph solver over a great
circle. The built-in verification suite,
spherecsf.acceptance, is imported on its own, not with the package.
"""

__version__ = "0.1.0"

from .errors import (AntipodalEndpoints, BlowUp, ConfigInvalid, DomainError,
                     ExtinctionBeforeEnd, NeverEnters, NotEmbedded,
                     OffsetCollision, ParamDomain, PoleDegenerate,
                     SpacingNotFound, SphereCSFError, TooFewNodes)
from .sphere import (GreatCircle, fold_angle, geodesic_distance, orthonormal_frame,
                     slerp, unit)
from .curves import (ClosedSphereCurve, CurveDiagnostics, SphereArc,
                     SphereCurve, c1_deviation, curve_distance, curves_cross,
                     diagnostics, hausdorff_distance,
                     intersection_count, latitude_deviation_angles, load_curve,
                     resample, save_curve, self_intersects, turning_angles)
from .flow import (DirichletArcSpec, FlowConfig, FlowStats, FlowTrajectory, Snapshot,
                   StraighteningResult, barrier_radius_oracle,
                   circle_extinction_time, circle_oracle, evolve_arc,
                   evolve_closed, straightening_experiment, time_to_enter_cap)
from .graphflow import (PeriodicGraph, constant_graph_oracle, crosscheck,
                        evolve_graph)
from .jordan import (LeafableReport, MultiplicityReport, Spacing, SpacingCheck,
                     circle_curve, construct_spacing, dirichlet_gamma,
                     fibonacci_sphere, is_leafable, koch_like,
                     leafable_wiggle, multiplicity_at, multiplicity_sup,
                     perturbed_latitude, verify_spacing)
from .levelset import (AnnulusState, AreaOdeReport, ClassifyResult,
                       SandwichResult, annulus_area_law, area_ode_check,
                       classify_long_term, enclosed_left_area, make_annulus,
                       offset_curve, sandwich_flow)

__all__ = [
    "__version__",
    # errors
    "SphereCSFError", "ConfigInvalid", "DomainError", "PoleDegenerate",
    "TooFewNodes", "NotEmbedded", "AntipodalEndpoints", "BlowUp",
    "SpacingNotFound", "ParamDomain", "OffsetCollision",
    "ExtinctionBeforeEnd", "NeverEnters",
    # sphere
    "GreatCircle", "unit", "geodesic_distance",
    "fold_angle", "orthonormal_frame", "slerp",
    # curves
    "ClosedSphereCurve", "SphereArc", "SphereCurve", "CurveDiagnostics",
    "turning_angles", "diagnostics", "self_intersects",
    "resample", "curve_distance", "hausdorff_distance",
    "latitude_deviation_angles", "c1_deviation", "intersection_count",
    "save_curve", "load_curve",
    # flow
    "FlowConfig", "Snapshot", "FlowTrajectory", "FlowStats", "evolve_closed",
    "evolve_arc", "circle_extinction_time", "circle_oracle", "barrier_radius_oracle",
    "time_to_enter_cap", "DirichletArcSpec", "StraighteningResult",
    "straightening_experiment",
    # graphflow
    "PeriodicGraph", "evolve_graph", "constant_graph_oracle",
    "crosscheck",
    # jordan
    "MultiplicityReport", "multiplicity_at", "multiplicity_sup", "Spacing",
    "SpacingCheck", "verify_spacing", "construct_spacing", "LeafableReport",
    "is_leafable", "circle_curve", "perturbed_latitude", "leafable_wiggle",
    "koch_like", "dirichlet_gamma", "fibonacci_sphere",
    # levelset
    "AnnulusState", "make_annulus", "curves_cross", "enclosed_left_area",
    "offset_curve", "sandwich_flow", "SandwichResult", "area_ode_check", "AreaOdeReport",
    "annulus_area_law", "classify_long_term", "ClassifyResult",
]
