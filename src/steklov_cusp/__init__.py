"""Weighted Steklov p-eigenvalues on 2-D outward cuspidal domains.

Finite element discretization of the p-Dirichlet energy with a weighted
boundary p-norm, constrained Rayleigh-quotient minimization for the first
non-trivial eigenvalue, and the supporting numerical experiments
(Friedrichs-Poincare constants, trace-map spectra, alpha sweeps).
"""

from .analysis import SweepReport, SweepRow, alpha_sweep, fp_constant, trace_spectrum
from .eigensolver import (EigenResult, orthogonalize_shift, rayleigh, solve_p,
                          solve_p2, weakform_residual)
from .fem import (ProblemConfig, assemble_p2, boundary_pnorm, constraint_functional,
                  energy, energy_gradient, volume_pnorm)
from .geometry import (BoundaryPolygon, BoundaryTag, DomainSpec, GeometryError,
                       boundary_polygon, cusp_cap_intersection, polygon_from_points)
from .linalg import SolveError, SparseSym, generalized_eig_sym, solve_spd
from .mesh import Mesh, mesh_area, refine_uniform, triangulate

__all__ = [
    "SweepReport", "SweepRow", "alpha_sweep", "fp_constant", "trace_spectrum",
    "EigenResult", "orthogonalize_shift", "rayleigh", "solve_p", "solve_p2",
    "weakform_residual",
    "ProblemConfig", "assemble_p2", "boundary_pnorm", "constraint_functional",
    "energy", "energy_gradient", "volume_pnorm",
    "BoundaryPolygon", "BoundaryTag", "DomainSpec", "GeometryError",
    "boundary_polygon", "cusp_cap_intersection", "polygon_from_points",
    "SolveError", "SparseSym", "generalized_eig_sym", "solve_spd",
    "Mesh", "mesh_area", "refine_uniform", "triangulate",
]

__version__ = "0.1.0"
