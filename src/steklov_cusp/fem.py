"""P1 discretizations: p-Dirichlet energy, weighted boundary functionals,
and the p=2 stiffness/mass/boundary-mass matrices.

Discrete fields are plain numpy vectors indexed by mesh vertices.  All
boundary integrals use the 2-point Gauss rule on each edge, applied to the
linear trace, with the weight sampled on the exact curve through each
edge's (tag, parameter) data.

The per-mesh arrays these read live on the Mesh, one copy each: the element
layout (Mesh.elements) and the boundary quadrature (Mesh.boundary_quadrature).
fem keeps only the assembly patterns, because the order of element-block
entries is its decision.  The shift search of the orthogonality constraint
evaluates on the boundary trace alone (shift_constraint), with the bits of
the full-field functionals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Pattern, SparseSym
from .mesh import Mesh

# 6-point symmetric triangle rule, exact through degree 4 (weights sum to 1)
_TRI_QP = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])
_TRI_QW = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


@dataclass(frozen=True)
class ProblemConfig:
    """Exponent p and the weighted/unweighted switch."""

    p: float = 2.0
    weighted: bool = True

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")


def as_field(mesh: Mesh, values) -> np.ndarray:
    u = np.asarray(values, dtype=float)
    if u.shape != (mesh.num_vertices,):
        raise ValueError(f"field length {u.shape} does not match mesh "
                         f"({mesh.num_vertices} vertices)")
    if not np.all(np.isfinite(u)):
        raise ValueError("field contains non-finite entries")
    return u


def _powers(u: np.ndarray, p: float):
    """(|u|^(p-2) u, |u|^(p-2)), both reset to +0 where u is 0 (the removable
    singularity of the first; the second is only used inside integrals).

    The powers run on the whole array: numpy's array power gives an entry
    the same bits whatever the array's shape or other entries, so this
    matches a power over the nonzeros alone in every bit.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.abs(u) ** (p - 2.0)
        signed = mag * u
    zero = u == 0.0
    signed[zero] = 0.0
    mag[zero] = 0.0
    return signed, mag


def _tri_gradients(mesh: Mesh, u: np.ndarray):
    """(elements, gx, gy, g2): mesh.elements(), the per-triangle gradient
    of u and its squared length.

    Each sum runs over the local vertices k in sequence, as an einsum over
    k would, so the values have that einsum's bits; only a zero may differ
    in sign (the einsum starts from +0), which g2 and the callers' sums do
    not see.
    """
    el = mesh.elements()
    u0, u1, u2 = u.take(el.tri)
    gx = u0 * el.gx[0] + u1 * el.gx[1] + u2 * el.gx[2]
    gy = u0 * el.gy[0] + u1 * el.gy[1] + u2 * el.gy[2]
    return el, gx, gy, gx * gx + gy * gy


def energy(mesh: Mesh, cfg: ProblemConfig, u, eps: float = 0.0) -> float:
    """p-Dirichlet energy sum area * (|grad u|^2 + eps^2)^(p/2), regularized
    by eps (0 gives the energy itself)."""
    u = as_field(mesh, u)
    el, _, _, g2 = _tri_gradients(mesh, u)
    return float(np.sum(el.areas * (g2 + eps ** 2) ** (cfg.p / 2.0)))


def energy_gradient(mesh: Mesh, cfg: ProblemConfig, u, eps: float = 0.0) -> np.ndarray:
    """Exact derivative of energy: p * area * (|g|^2+eps^2)^((p-2)/2) g . grad(phi_i)."""
    u = as_field(mesh, u)
    el, gx, gy, g2 = _tri_gradients(mesh, u)
    s = g2 + eps ** 2
    factor = np.zeros_like(s)
    nz = s > 0.0
    factor[nz] = s[nz] ** ((cfg.p - 2.0) / 2.0)
    coef = cfg.p * el.areas * factor  # (T,)
    contrib = coef * (gx * el.gx + gy * el.gy)  # (3, T)
    # summed triangle by triangle, in the order of mesh.triangles' rows
    return np.bincount(mesh.triangles.ravel(), weights=contrib.T.ravel(),
                       minlength=mesh.num_vertices)


def _boundary_arrays(mesh: Mesh, weighted: bool):
    """(xi, jac, w) of mesh.boundary_quadrature, with w the scalar 1.0 when
    unweighted (multiplying by 1.0 is exact).  Callers multiply them in
    their own order, because p * jac * w and p * (jac * w) differ in
    floating point.
    """
    xi, jac, w = mesh.boundary_quadrature()
    return xi, jac, w if weighted else 1.0


def _boundary_samples(mesh: Mesh, cfg: ProblemConfig, u: np.ndarray):
    """Quadrature data and the trace of u at the (E, Q) boundary samples.

    Returns (xi, uq, w, jac): uq[e, q] = (1 - xi_q) u[v0_e] + xi_q u[v1_e];
    xi, w and jac come from _boundary_arrays.
    """
    xi, jac, w = _boundary_arrays(mesh, cfg.weighted)
    b = mesh.boundary
    uq = u[b.v0][:, None] * (1.0 - xi)[None, :] + u[b.v1][:, None] * xi[None, :]
    return xi, uq, w, jac


def _boundary_scatter(mesh: Mesh, xi: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Nodal vector sum_(e, q) s[e, q] phi_i(x_eq) of the (E, Q) samples s."""
    if "bscatter" not in mesh._cache:
        mesh._cache["bscatter"] = np.concatenate([mesh.boundary.v0, mesh.boundary.v1])
    return np.bincount(mesh._cache["bscatter"],
                       weights=np.concatenate([np.sum(s * (1.0 - xi)[None, :], axis=1),
                                               np.sum(s * xi[None, :], axis=1)]),
                       minlength=mesh.num_vertices)


def _element_blocks(mesh: Mesh, cells: str, loc: np.ndarray) -> SparseSym:
    """SparseSym summing the (m, k, k) local blocks loc over the mesh's
    triangles (cells "triangles") or boundary edges ("edges").

    The pattern of the blocks' entries is analysed on first use and cached
    on the mesh, so every later matrix on the same cells only sums values.
    """
    key = ("pattern", cells)
    if key not in mesh._cache:
        b = mesh.boundary
        idx = mesh.triangles if cells == "triangles" else np.stack([b.v0, b.v1], axis=1)
        k = idx.shape[1]
        mesh._cache[key] = Pattern(mesh.num_vertices, np.repeat(idx, k, axis=1).ravel(),
                                   np.tile(idx, (1, k)).ravel())
    pattern = mesh._cache[key]
    return SparseSym(pattern, pattern.assemble(loc.ravel()))


def _boundary_mass(mesh: Mesh, xi: np.ndarray, dens: np.ndarray) -> SparseSym:
    """int dens phi_i phi_j ds from the (E, Q) samples dens (length and
    Gauss weight included): one 2 x 2 block per boundary edge."""
    shapes = np.stack([1.0 - xi, xi], axis=0)  # (2, Q)
    loc = np.einsum("eq,aq,bq->eab", dens, shapes, shapes)
    return _element_blocks(mesh, "edges", loc)


def boundary_pnorm(mesh: Mesh, cfg: ProblemConfig, u) -> float:
    """Integral of |u|^p w over the boundary (w = 1 in unweighted mode)."""
    u = as_field(mesh, u)
    _, uq, w, jac = _boundary_samples(mesh, cfg, u)
    return float(np.sum(jac * w * np.abs(uq) ** cfg.p))


def boundary_pnorm_gradient(mesh: Mesh, cfg: ProblemConfig, u) -> np.ndarray:
    """Derivative of boundary_pnorm: p * int |u|^(p-2) u phi_i w ds."""
    u = as_field(mesh, u)
    xi, uq, w, jac = _boundary_samples(mesh, cfg, u)
    return _boundary_scatter(mesh, xi, cfg.p * jac * w * _powers(uq, cfg.p)[0])


def constraint_functional(mesh: Mesh, cfg: ProblemConfig, u) -> float:
    """Weighted boundary orthogonality functional int |u|^(p-2) u w ds."""
    u = as_field(mesh, u)
    _, uq, w, jac = _boundary_samples(mesh, cfg, u)
    return float(np.sum(jac * w * _powers(uq, cfg.p)[0]))


def constraint_gradient_direction(mesh: Mesh, cfg: ProblemConfig, u) -> np.ndarray:
    """Nodal vector int |u|^(p-2) phi_i w ds, the constraint multiplier direction."""
    u = as_field(mesh, u)
    xi, uq, w, jac = _boundary_samples(mesh, cfg, u)
    return _boundary_scatter(mesh, xi, jac * w * _powers(uq, cfg.p)[1])


def shift_constraint(mesh: Mesh, cfg: ProblemConfig, u):
    """(F, dF) of the constant shift c: F(c) = constraint_functional(mesh,
    cfg, u - c) and its derivative dF(c) = -(p - 1) times the sum of
    constraint_gradient_direction(mesh, cfg, u - c), with the same bits.

    u's boundary trace is gathered once ((u - c)[v] is u[v] - c exactly),
    and each c is evaluated on the (E, Q) boundary samples alone: one power
    |u_q - c|^(p-2) serves F(c) and a following dF(c) at the same c.
    u is not validated here: the caller (orthogonalize_shift) has done so.
    """
    xi, jac, w = _boundary_arrays(mesh, cfg.weighted)
    jw = jac * w
    u0, u1 = u[mesh.boundary.v0][:, None], u[mesh.boundary.v1][:, None]
    p = cfg.p
    last = {}

    def F(c):
        uq = (u0 - c) * (1.0 - xi)[None, :] + (u1 - c) * xi[None, :]
        signed, mag = _powers(uq, p)
        last.update(c=c, mag=mag)
        return float(np.sum(jw * signed))

    def dF(c):
        if last.get("c") != c:
            F(c)
        return -(p - 1.0) * float(_boundary_scatter(mesh, xi, jw * last["mag"]).sum())

    return F, dF


def boundary_weighted_measure(mesh: Mesh, cfg: ProblemConfig) -> float:
    """Total measure int w ds (or the plain perimeter in unweighted mode).

    This is boundary_pnorm of the constant 1 in every bit, at every p: each
    Gauss abscissa has (1 - xi) + xi == 1.0, so every sample of 1 is exactly
    1.0 and so is its p-th power.
    """
    _, jac, w = _boundary_arrays(mesh, cfg.weighted)
    return float(np.sum(jac * w))


def volume_pnorm(mesh: Mesh, cfg: ProblemConfig, u) -> float:
    """Integral of |u|^p over the domain by a degree-4 triangle rule."""
    u = as_field(mesh, u)
    uv = u[mesh.triangles]  # (T, 3)
    uq = uv @ _TRI_QP.T  # (T, Q)
    vals = np.abs(uq) ** cfg.p @ _TRI_QW
    return float(np.sum(mesh.elements().areas * vals))


def volume_pnorm_gradient(mesh: Mesh, cfg: ProblemConfig, u) -> np.ndarray:
    u = as_field(mesh, u)
    uv = u[mesh.triangles]
    uq = uv @ _TRI_QP.T
    s = cfg.p * _powers(uq, cfg.p)[0] * _TRI_QW[None, :]  # (T, Q)
    contrib = mesh.elements().areas[:, None] * (s @ _TRI_QP)  # (T, 3)
    return np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=mesh.num_vertices)


def linearized_energy_matrix(mesh: Mesh, cfg: ProblemConfig, u, eps: float = 0.0) -> SparseSym:
    """Hessian of energy/p at u: the linearized p-Laplacian operator.

    Per triangle the local block is
    area * s^((p-4)/2) * ((p-2) (g.gphi_i)(g.gphi_j) + s gphi_i.gphi_j)
    with s = |g|^2 + eps^2.  Positive semidefinite for every p > 1 with the
    constants in its kernel; by Euler's identity (at eps = 0) applying it to
    u itself reproduces (p-1) times the energy gradient over p.
    """
    u = as_field(mesh, u)
    el, gx, gy, g2 = _tri_gradients(mesh, u)
    p = cfg.p
    s = g2 + eps ** 2
    f1 = np.zeros_like(s)
    f2 = np.zeros_like(s)
    nz = s > 0.0
    f1[nz] = s[nz] ** ((p - 4.0) / 2.0) * (p - 2.0)
    f2[nz] = s[nz] ** ((p - 2.0) / 2.0)
    # the leading 0.0 makes a zero sum +0, as an einsum's zero-started sum
    gdot = (0.0 + gx * el.gx + gy * el.gy).T  # (T, 3)
    loc = (f1 * el.areas)[:, None, None] * gdot[:, :, None] * gdot[:, None, :] \
        + (f2 * el.areas)[:, None, None] * el.gram
    return _element_blocks(mesh, "triangles", loc)


def linearized_boundary_mass(mesh: Mesh, cfg: ProblemConfig, u) -> SparseSym:
    """Boundary matrix with density |u|^(p-2) w: int |u|^(p-2) phi_i phi_j w ds.

    This is 1/(p-1) times the derivative of the boundary p-norm gradient;
    applying it to u itself reproduces the constraint-functional vector.
    """
    u = as_field(mesh, u)
    xi, uq, w, jac = _boundary_samples(mesh, cfg, u)
    return _boundary_mass(mesh, xi, jac * w * _powers(uq, cfg.p)[1])


def assemble_p2(mesh: Mesh, weighted: bool):
    """Stiffness K, volume mass M and (weighted) boundary mass B as SparseSym.

    K has the constants in its kernel; row sums of B are the weighted hat
    integrals, so B @ 1 reproduces the boundary measure vector.  K and M
    share the mesh's triangle pattern, so K + M sums their values only.
    """
    el = mesh.elements()
    areas = el.areas
    kloc = el.gram * areas[:, None, None]
    mloc = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (areas / 12.0)[:, None, None]
    xi, jac, w = _boundary_arrays(mesh, weighted)
    return (_element_blocks(mesh, "triangles", kloc), _element_blocks(mesh, "triangles", mloc),
            _boundary_mass(mesh, xi, jac * w))
