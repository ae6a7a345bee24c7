"""Newtonian flows on Riemannian manifolds: normal blow-up and shift of
wavefronts, deviation measurements, and normality verdicts for force
fields."""

from .blowup import (BlowupConfig, FrontRecord, HypersurfaceSpec,
                     SphereSample, export_front, front_at, initial_slopes,
                     orthogonality_report, simulate_blowup, simulate_shift,
                     sphere_grid, taylor_check)
from .deviation import (AlphaBeta, DeviationSeries, alpha_beta,
                        deviation_rank, initial_limits, phi, phi_ddot,
                        phi_dot, series_along)
from .dynamics import (FlowState, IntegrationAbort, TrajectoryRecord,
                       VariationState, covariant_rate, integrate,
                       nabla_t_force, newton_rhs, variation_rhs)
from .geometry import (ForceField, FrameData, GradientPair, Manifold,
                       TangentPoint, christoffel_at, frame_at, gradients_at,
                       inner, lower_index, metric_at, raise_index,
                       riemann_at)
from .normality import (ResidualReport, additional_residual, classify,
                        raw_first_residual, raw_second_residual,
                        weak_residual)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
