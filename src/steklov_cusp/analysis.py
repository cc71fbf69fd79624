"""Numerical experiments: discrete Friedrichs-Poincare constants, trace-map
spectra as a compactness diagnostic, and the alpha sweep reproducing the
threshold behavior of the weighted versus unweighted problem.

alpha_sweep returns its rows in a SweepReport; cli writes them as sweep.csv.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, geometry
from .eigensolver import _descent, solve_p
from .fem import ProblemConfig
from .linalg import Complement, Factor, SolveError, generalized_eig_sym, inverse_block
from .mesh import Mesh, refine_uniform, triangulate


def fp_constant(mesh: Mesh, cfg: ProblemConfig, constraint: str = "weighted-boundary",
                seed: int = 0) -> float:
    """Discrete Friedrichs-Poincare constant: the largest C with
    ||u||_p <= C ||grad u||_p over the constrained set.

    Computed as m^(-1/p) where m minimizes energy over the volume p-norm.
    At p = 2 the minimum comes from the dense (stiffness, mass) pencil
    restricted to the complement of the constraint direction (Complement),
    solved for its values only (generalized_eig_sym with k = 0): the two
    restricted matrices are passed as temporaries, which the eigensolver
    frees after their last use, so the peak is eigh's 5 n^2 doubles; at any
    other p from _fp_descent, seeded by seed.
    The constraint is the problem's own boundary condition, the zero
    integral of u w ds (w = 1 unweighted); "weighted-boundary" is the one
    value constraint accepts.
    """
    if constraint != "weighted-boundary":
        raise ValueError(f"unknown constraint mode {constraint!r}")
    if cfg.p != 2.0:
        return _fp_descent(mesh, cfg, seed)

    K, M, B = fem.assemble_p2(mesh, weighted=cfg.weighted)
    comp = Complement(B.matvec(np.ones(mesh.num_vertices)))
    vals, _ = generalized_eig_sym(comp.restrict(K.to_dense()), comp.restrict(M.to_dense()), 0)
    mu = float(vals[0])
    if not mu > 0.0:
        raise SolveError(f"non-positive constrained pencil minimum {mu}")
    return mu ** -0.5


def _fp_descent(mesh: Mesh, cfg: ProblemConfig, seed: int) -> float:
    """FP constant under the weighted-boundary constraint at any p: the
    eigenvalue solver's descent (_descent) with the volume p-norm in the
    denominator, started from the first coordinate function plus a small
    seeded perturbation."""
    K, M, _ = fem.assemble_p2(mesh, weighted=False)
    rng = np.random.default_rng(seed)
    u0 = mesh.vertices[:, 0] + 0.01 * rng.standard_normal(mesh.num_vertices)
    outcome = _descent(mesh, cfg, u0, fem.volume_pnorm, fem.volume_pnorm_gradient,
                       Factor(K + M))
    value = fem.energy(mesh, cfg, outcome.u) / fem.volume_pnorm(mesh, cfg, outcome.u)
    if not value > 0.0:
        raise SolveError(f"non-positive constrained quotient {value}")
    return value ** (-1.0 / cfg.p)


def trace_spectrum(mesh: Mesh, weighted: bool, k: int = 10) -> np.ndarray:
    """Top-k eigenvalues of the pencil B x = sigma (K + M) x, descending:
    min(k, n) values, exact zeros beyond the |Gamma| non-zero ones.

    These are the squared singular values of the discrete trace map from the
    H1 inner product into the (weighted) boundary L2 space; stability of the
    leading values under refinement is the compactness diagnostic, and tail
    accumulation signals the loss of compactness.  p = 2 only.

    B lives on the boundary vertices Gamma, so B = E B_gg E^T with E the
    identity columns of Gamma, and the non-zero spectrum of
    (K + M)^-1 B is that of G B_gg with G = ((K + M)^-1)_gg: the
    |Gamma| x |Gamma| pencil (G B_gg G, G).  G comes from the same
    equilibrated dense Cholesky of K + M as the full n x n pencil
    (linalg.inverse_block).  The cheaper sparse factor and the Schur
    complement route move the unweighted values by 6.5e-9 and 2.5e-8,
    outside the 1e-9 tolerance the recorded values are checked to.

    Values below about 1e-6 of the top value carry no digits: there the
    n x n pencil and this |Gamma| pencil, equal in exact arithmetic, differ
    by 3-25%, and a value that comes out non-positive is clipped to 0.
    """
    K, M, B = fem.assemble_p2(mesh, weighted=weighted)
    gamma = mesh.boundary_vertex_ids()
    G = inverse_block(K + M, gamma)
    vals, _ = generalized_eig_sym(G @ B.pattern.split(gamma).boundary_block(B) @ G, G, 0)
    top = np.maximum(vals, 0.0)[::-1][:k]
    if not np.all(np.isfinite(top)):
        raise SolveError("trace spectrum produced non-finite values")
    sigma = np.zeros(min(k, mesh.num_vertices))
    sigma[:len(top)] = top
    return sigma


@dataclass
class SweepRow:
    alpha: float
    p: float
    weighted: bool
    level: int
    h_max: float
    eigenvalue: float
    fp_constant: float
    iterations: int
    converged: bool
    trend: str = "undetermined"
    mesh_id: str = ""
    error: str = ""  # why the cell failed; not written to the CSV


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)


STABILITY_THRESHOLD = 0.05  # reporting policy of this tool, not a theory value


def classify_trend(values) -> str:
    """stable / decaying-to-zero / undetermined from a refinement series.

    A failed (non-finite) level breaks the series: only the finite values
    after the last one are classified, so no two compared levels are more
    than one refinement apart.
    """
    vals = []
    for v in values:
        vals = vals + [v] if np.isfinite(v) else []
    if len(vals) < 2:
        return "undetermined"
    last, prev = vals[-1], vals[-2]
    if prev != 0.0 and abs(last - prev) / abs(prev) <= STABILITY_THRESHOLD:
        return "stable"
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    if decreasing and len(vals) >= 3 and prev != 0.0 \
            and (prev - last) / abs(prev) > STABILITY_THRESHOLD:
        return "decaying-to-zero"
    return "undetermined"


def _cell_seed(seed: int, i_alpha: int, level: int, weighted: bool) -> int:
    return seed + 7919 * i_alpha + 104729 * level + (1 if weighted else 0)


def alpha_sweep(cfg_base: ProblemConfig, alphas, refinements: int = 3,
                n_lateral: int = 16, n_arc: int = 32, grading_q: float = 2.0,
                target_h: float = 0.35, restarts: int = 1, seed: int = 0,
                with_fp: bool = True) -> SweepReport:
    """Weighted and unweighted eigenvalues plus FP constants across alpha and
    refinement level, with a per-series trend classification.

    Individual cell failures never abort the sweep: the row keeps NaN for
    the value that failed, converged = False for a failed solve, and the
    caught exception in its error field (an fp_constant failure on the
    mesh's weighted row only).  A level whose mesh fails (a GeometryError
    from boundary_polygon, triangulate or refine_uniform) gets both rows,
    all NaN, with the stage and the exception as their error.
    """
    report = SweepReport()
    alphas = sorted(alphas)
    for i_alpha, alpha in enumerate(alphas):
        spec = geometry.DomainSpec.cusp(alpha)
        meshes, mesh_error, stage = [], "", "boundary_polygon"
        try:
            polygon = geometry.boundary_polygon(spec, n_lateral, n_arc, grading_q)
            stage = "triangulate"
            meshes.append(triangulate(polygon, target_h, tip_grading=grading_q))
            stage = "refine_uniform"
            while len(meshes) < refinements:
                meshes.append(refine_uniform(meshes[-1]))
        except geometry.GeometryError as exc:
            mesh_error = f"{stage}: {type(exc).__name__}: {exc}"
        meshes += [None] * (refinements - len(meshes))
        series: dict[bool, list[float]] = {True: [], False: []}
        rows_here = []
        for level, msh in enumerate(meshes):
            fp_val = float("nan")
            fp_error = ""
            if with_fp and msh is not None:
                try:
                    fp_val = fp_constant(msh, replace(cfg_base, weighted=True))
                except (SolveError, np.linalg.LinAlgError) as exc:
                    fp_error = f"fp_constant: {type(exc).__name__}: {exc}"
            for weighted in (True, False):
                cfg = replace(cfg_base, weighted=weighted)
                lam = float("nan")
                iters = 0
                converged = False
                # the FP constant is the weighted one: its failure is
                # recorded once per mesh, on the weighted row
                errors = [fp_error] if fp_error and weighted else []
                if msh is None:
                    errors.append(mesh_error)
                else:
                    try:
                        res = solve_p(msh, cfg, restarts=restarts,
                                      seed=_cell_seed(seed, i_alpha, level, weighted))
                        lam, iters, converged = res.eigenvalue, res.iterations, res.converged
                    except (SolveError, np.linalg.LinAlgError, geometry.GeometryError) as exc:
                        kind = "weighted" if weighted else "unweighted"
                        errors.append(f"solve_p ({kind}): {type(exc).__name__}: {exc}")
                series[weighted].append(lam)
                rows_here.append(SweepRow(
                    alpha=alpha, p=cfg_base.p, weighted=weighted, level=level,
                    h_max=float("nan") if msh is None else msh.h_max, eigenvalue=lam,
                    fp_constant=fp_val, iterations=iters, converged=converged,
                    mesh_id=f"a{alpha:g}_L{level}"
                    + ("" if msh is None else f"_V{msh.num_vertices}"),
                    error="; ".join(errors)))
        trends = {w: classify_trend(series[w]) for w in (True, False)}
        for row in rows_here:
            row.trend = trends[row.weighted]
        report.rows.extend(rows_here)
    report.rows.sort(key=lambda r: (r.alpha, not r.weighted, r.level))
    return report
