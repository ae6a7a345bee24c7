"""Newtonian flows on Riemannian manifolds: normal blow-up and shift of
wavefronts, deviation measurements, and normality verdicts for force
fields."""

from .blowup import (BlowupConfig, FrontRecord, HypersurfaceSpec,
                     SphereSample, export_front, front_at, initial_slopes,
                     orthogonality_report, simulate_blowup, simulate_shift,
                     sphere_grid, taylor_check)
from .deviation import (DeviationSeries, deviation_rank, initial_limits,
                        phi_derivatives, series_along)
from .dynamics import (BatchTrajectory, FlowState, IntegrationAbort,
                       VariationState, covariant_rate, integrate,
                       nabla_t_force, single_record, variation_rhs)
from .geometry import (ForceField, Manifold, TangentPoint, at_point,
                       force_tensors, g_norm, lower)
from .normality import ResidualReport, classify

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
