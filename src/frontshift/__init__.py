"""Newtonian flows on Riemannian manifolds: normal blow-up and shift of
wavefronts, deviation measurements, and normality verdicts for force
fields."""

from .blowup import (BlowupConfig, FrontRecord, HypersurfaceSpec,
                     export_front, initial_slopes, orthogonality_report,
                     simulate_blowup, simulate_shift, sphere_grid)
from .deviation import deviation_rank, phi_derivatives
from .dynamics import BatchTrajectory, IntegrationAbort, integrate_batch
from .geometry import ForceField, Manifold, at_point, force_tensors
from .normality import classify

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
