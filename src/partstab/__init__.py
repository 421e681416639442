"""Linear stability of volume-constrained minimal partitionings.

Analytic constrained-Jacobi spectra for planar arcs, circles, and spheres,
multiphase composition rules, and an independent finite-element oracle for
cross-checking every verdict.
"""

from .geometry import (ArcInterface, ClosedInterface, ConvexityWarning,
                       EllipseSpec, ellipse_arc_radius,
                       ellipse_partition_family, make_arc)
from .spectrum import (NEUTRAL, STABLE, UNSTABLE, SpectralMode,
                       StabilityVerdict, case1_det, case2_det, case_modes,
                       classify, crit1_interval, crit2_root,
                       find_sign_change_roots, reconstruct_eigenfunction)
from .closed import circle_spectrum, classify_closed, sphere_spectrum
from .multiphase import (MultiphaseConfig, classify_config,
                         disconnected_witness, lagrange_multipliers,
                         load_config, mean_curvature_residual,
                         reduce_and_classify, weighted_J)
from .oracle import (DiscreteOperator, J_evaluate, constrained_eigenpairs,
                     discretize, rayleigh_bound_check,
                     smallest_constrained_eigenpair, spectrum_compare,
                     trace_inequality_check)

__version__ = "0.1.0"

__all__ = [
    "ArcInterface", "ClosedInterface", "ConvexityWarning", "EllipseSpec",
    "ellipse_arc_radius", "ellipse_partition_family", "make_arc",
    "STABLE", "NEUTRAL", "UNSTABLE", "SpectralMode", "StabilityVerdict",
    "case1_det", "case2_det", "case_modes", "classify",
    "crit1_interval", "crit2_root", "find_sign_change_roots",
    "reconstruct_eigenfunction",
    "circle_spectrum", "classify_closed", "sphere_spectrum",
    "MultiphaseConfig", "classify_config", "disconnected_witness",
    "lagrange_multipliers", "load_config", "mean_curvature_residual",
    "reduce_and_classify", "weighted_J",
    "DiscreteOperator", "J_evaluate", "constrained_eigenpairs", "discretize",
    "rayleigh_bound_check", "smallest_constrained_eigenpair",
    "spectrum_compare", "trace_inequality_check",
]
