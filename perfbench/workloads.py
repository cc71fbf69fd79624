"""The benchmark's workloads: the meshes each one builds in set-up and the
cases it times.

Every case calls the package only through its public functions, with the
solver seed fixed at 0, so a case does the same work on every run and its
answer can be checked against the reference recorded at the seed commit.
README.md gives the reason each workload and case is in the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# the shipped configs/sweep.ini parameters
SWEEP_ALPHAS = (1.25, 1.5, 1.75, 2.5)


@dataclass(frozen=True)
class MeshSpec:
    """A cusp (alpha > 1) or unit-disk mesh, refined uniformly `refinements` times."""

    alpha: float | None
    n_lateral: int
    n_arc: int
    target_h: float
    refinements: int

    def build(self, pkg):
        spec = pkg.DomainSpec.disk(1.0) if self.alpha is None else pkg.DomainSpec.cusp(self.alpha)
        poly = pkg.boundary_polygon(spec, n_lateral=self.n_lateral, n_arc=self.n_arc,
                                    grading_q=2.0)
        mesh = pkg.triangulate(poly, self.target_h, tip_grading=2.0)
        for _ in range(self.refinements):
            mesh = pkg.refine_uniform(mesh)
        return mesh


@dataclass
class Answer:
    """What a case produced: the numbers checked against the reference, the
    solver's own convergence flag, and the diagnostics recorded beside them."""

    values: list[float]
    converged: bool
    residual: float | None = None
    iterations: int = 0
    labels: list[str] | None = None


@dataclass(frozen=True)
class Case:
    name: str
    mesh: str | None            # key into the workload's meshes, None if it meshes itself
    run: Callable               # run(pkg, mesh) -> Answer


@dataclass(frozen=True)
class Workload:
    name: str
    meshes: dict[str, MeshSpec]
    cases: tuple[Case, ...]


def _eigen(result) -> Answer:
    return Answer(values=[float(result.eigenvalue)], converged=bool(result.converged),
                  residual=float(result.weakform_residual),
                  iterations=int(result.iterations))


def solve_p_case(name, mesh, p, weighted):
    def run(pkg, msh):
        cfg = pkg.ProblemConfig(p=p, weighted=weighted)
        return _eigen(pkg.solve_p(msh, cfg, restarts=1, seed=0))
    return Case(name, mesh, run)


def solve_p2_case(name, mesh):
    return Case(name, mesh, lambda pkg, msh: _eigen(pkg.solve_p2(msh, weighted=True)))


def fp_case(name, mesh, p):
    def run(pkg, msh):
        c = pkg.fp_constant(msh, pkg.ProblemConfig(p=p, weighted=True),
                            constraint="weighted-boundary", seed=0)
        return Answer(values=[float(c)], converged=True)
    return Case(name, mesh, run)


def trace_case(name, mesh, weighted):
    def run(pkg, msh):
        sigma = pkg.trace_spectrum(msh, weighted=weighted)
        return Answer(values=[float(s) for s in sigma], converged=True)
    return Case(name, mesh, run)


def _sweep(pkg, _mesh):
    report = pkg.alpha_sweep(pkg.ProblemConfig(p=2.0), alphas=list(SWEEP_ALPHAS),
                             refinements=3, n_lateral=12, n_arc=24, grading_q=2.0,
                             target_h=0.4, restarts=1, seed=0, with_fp=True)
    rows = report.rows
    return Answer(values=[float(r.eigenvalue) for r in rows] + [float(r.fp_constant) for r in rows],
                  converged=all(r.converged for r in rows),
                  iterations=sum(int(r.iterations) for r in rows),
                  labels=[f"a{r.alpha:g}/{'w' if r.weighted else 'u'}/L{r.level}:{r.trend}"
                          for r in rows])


WORKLOADS = {w.name: w for w in (
    Workload("eigen_p",
             {"cusp_a1.5_L1": MeshSpec(1.5, 24, 48, 0.25, 1),
              "disk": MeshSpec(None, 32, 64, 0.25, 0)},
             (solve_p_case("cusp_a1.5_p1.5", "cusp_a1.5_L1", 1.5, True),
              solve_p_case("cusp_a1.5_p3", "cusp_a1.5_L1", 3.0, True),
              solve_p_case("disk_p2.5", "disk", 2.5, False))),
    Workload("fp_descent",
             {"cusp_a1.5_L2": MeshSpec(1.5, 10, 20, 0.5, 2),
              "cusp_a2.5_L1": MeshSpec(2.5, 10, 20, 0.5, 1)},
             (fp_case("fp_a1.5_p3", "cusp_a1.5_L2", 3.0),
              fp_case("fp_a2.5_p1.5", "cusp_a2.5_L1", 1.5))),
    Workload("sweep_p2",
             {"cusp_a2.5_L2": MeshSpec(2.5, 12, 24, 0.4, 2)},
             (Case("sweep_p2", None, _sweep),
              trace_case("trace_w", "cusp_a2.5_L2", True),
              trace_case("trace_u", "cusp_a2.5_L2", False))),
    Workload("p2_cliff",
             {"cusp_a1.5_L2": MeshSpec(1.5, 24, 48, 0.3, 2),
              "cusp_a2.0_L2": MeshSpec(2.0, 8, 16, 0.25, 2)},
             (solve_p2_case("p2_dense", "cusp_a1.5_L2"),
              solve_p2_case("p2_pcg", "cusp_a2.0_L2"))),
)}

CASE_NAMES = tuple(c.name for w in WORKLOADS.values() for c in w.cases)
