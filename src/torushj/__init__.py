"""Numerical laboratory for discounted Hamilton-Jacobi equations on flat tori.

Solves the sigma-weighted discounted equation by a monotone semi-Lagrangian
scheme, computes minimal-action matrices by min-plus dynamic programming and
Peierls barriers by shortest paths, finds the critical value and the Mather
face of a discrete closed-measure polytope by min-plus policy iteration, and
evaluates the barrier/measure selection operator together with its
fixed-point, comparison, and occupation-measure diagnostics.
"""

from .grids import PeriodicGrid, GridField, interpolate, wrap_points
from .models import ControlModel, VelocitySet, builtin_model, velocity_set, fenchel_lagrangian
from .solver import (
    Bracket,
    SolveReport,
    bellman_apply,
    compute_bracket,
    lambda_sweep,
    nonexistence_certificate,
    residual,
    solve_perturbed,
)

__all__ = [
    "PeriodicGrid", "GridField", "interpolate", "wrap_points",
    "ControlModel", "VelocitySet", "builtin_model", "velocity_set", "fenchel_lagrangian",
    "Bracket", "SolveReport", "bellman_apply", "compute_bracket", "lambda_sweep",
    "nonexistence_certificate", "residual", "solve_perturbed",
]

__version__ = "0.1.0"
