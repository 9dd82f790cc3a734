"""Verification engine for the left-invariant geometry of F4 = R2 x H2.

The package computes the Levi-Civita connection, curvature, Ricci
soliton residuals and harmonic vector-field residuals of the model
space from second-order jets of the chart metric, and certifies the
published integer tables and closed-form families at machine precision
over sampled points.
"""

import ctypes

from .chart import (
    AnalyticVectorField,
    Point,
    constant_frame_field,
    coordinate_field,
    frame_field,
    frame_matrix,
    metric_at,
)
from .checks import Box, CheckReport, ConfigError, RunConfig, UnknownCheck, CHECK_NAMES, run_all, run_suite
from .curvature import (
    coercivity_check,
    frame_connection,
    ricci_frame,
    riemann_frame,
    riemann_frame_table,
    scalar_curvature,
)
from .harmonic import (
    CorollaryFamily,
    EXPONENT_MINUS,
    EXPONENT_PLUS,
    NotSTOnly,
    TensionValue,
    corollary_field,
    harmonic_map_residual,
    harmonic_section_equations,
    harmonic_section_residual,
    horizontal_tension,
    horizontal_tension_expanded,
    rough_laplacian,
)
from .jets import DomainError, Jet2, point_jets, reciprocal, sqrt
from .soliton import (
    COMPONENT_PAIRS,
    SOLITON_LAMBDA,
    SolitonParams,
    beta_matrix,
    closedness_defect,
    lie_derivative_metric,
    scalar_laplacian,
    soliton_field,
    soliton_residual,
    soliton_system,
)

__version__ = "0.1.0"


def _tune_malloc(libc=None) -> bool:
    """Fix glibc's mmap and trim thresholds (see ``curvature.Geometry``); False where mallopt is missing or inert."""
    try:
        mallopt = (ctypes.CDLL(None) if libc is None else libc).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return mallopt(-3, 32 << 20) == 1 and mallopt(-1, 128 << 20) == 1  # M_MMAP_THRESHOLD (64-bit max), M_TRIM_THRESHOLD


_tune_malloc()
