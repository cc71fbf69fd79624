"""First non-trivial weighted Steklov p-eigenvalue by constrained descent.

solve_p minimizes the Rayleigh quotient of the p-Dirichlet energy over the
weighted boundary p-norm on the admissible set (unit boundary p-norm plus the
weighted orthogonality constraint), by preconditioned projected descent with
an Armijo line search.  The constraint is maintained by shifting with a
constant, whose value is the unique root of a strictly decreasing scalar
function.  Because any value-driven method goes flat near sqrt(machine eps)
eigenvector accuracy, a stalled descent is finished by one residual-driven
terminal phase, damped Newton on the bordered stationarity system
(_bordered_newton), which the descent is offered once, at the first stall
of its weak-form residual (long before its value stalls); a declined offer
leaves the descent's bits.  Each Newton step factors the interior block
once and forms the boundary Schur complement from the forward half-solve
(linalg.Factor.lower).  Every matrix here is assembled on the mesh's cached
sparsity patterns (linalg.Pattern) and split into interior and boundary
blocks by index arrays kept with them (linalg.BoundarySplit), so a Newton
step gathers and factors values only: its ordering, scatter and block
layout are analysed once per mesh.  solve_p2 is the direct linear path:
boundary reduction of the stiffness matrix by a Schur complement through
the refined solve_spd, restriction to the complement of the constraint
direction (linalg.Complement), and a dense generalized eigensolve; it
doubles as the oracle for p = 2 and as the initializer for the nonlinear
descent.  Both paths report their residual through one formula,
_relative_residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .fem import ProblemConfig
from .linalg import Complement, Factor, SolveError, SparseSym, generalized_eig_sym, solve_spd
from .mesh import Mesh

ARMIJO = 1e-4
STALL_WINDOW = 5
STALL_RTOL = 1e-10
ITERATION_CAP = 5000
NEWTON_STEP_CAP = 40  # the alpha = 2.5 cusp at p = 1.5 needs 40 from its stall to 1e-9
NEWTON_SOLVE_RTOL = 1e-10  # bordered residual of the step, relative to the residual vector
SHIFT_FTOL_FACTOR = 1e-12
CONSTRAINT_TOL_FACTOR = 1e-8
WEAKFORM_RTOL = 1e-6


@dataclass(eq=False)
class EigenResult:
    """Minimizer data: eigenvalue, eigenfunction, and solver diagnostics.

    weakform_residual is relative: the nodal residual of the weak identity,
    with the constraint-multiplier direction removed, divided by the scale
    of its two sides.  constraint_residual is |constraint functional| in
    absolute terms.  energy_history records the accepted objective values of
    the descent (non-increasing); iterations counts the descent steps plus
    the newton_steps of the terminal phase.  descent_stop says what ended
    the descent: "residual stall" (Newton's result at the offer was taken),
    "value stall", "zero slope", "line search", "iteration cap", or "direct"
    for solve_p2.
    """

    eigenvalue: float
    u: np.ndarray
    iterations: int
    energy_history: list = field(default_factory=list)
    constraint_residual: float = 0.0
    weakform_residual: float = 0.0
    converged: bool = True
    p2_spectrum: np.ndarray | None = None
    newton_steps: int = 0
    descent_stop: str = ""


def rayleigh(mesh: Mesh, cfg: ProblemConfig, u) -> float:
    """Unregularized Rayleigh quotient energy / boundary p-norm."""
    denom = fem.boundary_pnorm(mesh, cfg, u)
    if denom <= 0.0:
        raise SolveError("Rayleigh quotient is infinite: boundary p-norm vanishes")
    return fem.energy(mesh, cfg, u) / denom


def scalar_shift_root(F, dF, lo: float, hi: float, ftol: float) -> float:
    """Root of a strictly decreasing scalar function F with derivative dF,
    bracketed by F(lo) >= 0 >= F(hi).

    Safeguarded Newton from the bracket midpoint (rtsafe; Press et al.,
    Numerical Recipes, section 9.4): every evaluation shrinks the bracket,
    and a Newton step that leaves it, or is longer than half the previous
    step, is replaced by a bisection step.  Terminates when |F| <= ftol or
    when no double lies strictly inside the bracket, so it also ends when
    ftol lies below the rounding error of F.
    A moved end has the right sign by construction, so F is evaluated at an
    original end only when the search exhausts the bracket with that end in
    place; SolveError is raised if its sign is wrong.
    """
    lo0, hi0 = lo, hi
    c = 0.5 * (lo + hi)
    prev_step = hi - lo
    while True:
        fc = F(c)
        if abs(fc) <= ftol:
            return c
        if fc > 0.0:
            lo = c
        else:
            hi = c
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            if (lo == lo0 and F(lo) < 0.0) or (hi == hi0 and F(hi) > 0.0):
                raise SolveError(f"shift root is not bracketed by [{lo0!r}, {hi0!r}]")
            return c
        slope = dF(c)
        c_new = c - fc / slope if slope < 0.0 else mid
        if not (lo < c_new < hi and 2.0 * abs(c_new - c) <= prev_step):
            c_new = mid
        prev_step = abs(c_new - c)
        c = c_new


def orthogonalize_shift(mesh: Mesh, cfg: ProblemConfig, u):
    """Shift u by the constant that zeroes the weighted orthogonality functional.

    The root is unique because the functional is strictly decreasing in the
    shift; the bracket is the range of the boundary trace.  scalar_shift_root
    finds it on F(c) = fem.constraint_functional(mesh, cfg, u - c), whose
    derivative is -(p - 1) times the sum of
    fem.constraint_gradient_direction(mesh, cfg, u - c), to within
    SHIFT_FTOL_FACTOR times the boundary measure.  Both are evaluated on the
    boundary trace of u alone (fem.shift_constraint), with the same bits.
    """
    u = fem.as_field(mesh, u)
    bverts = mesh.boundary_vertex_ids()
    bvals = u[bverts]
    lo, hi = float(bvals.min()), float(bvals.max())
    if hi - lo <= 1e-300:
        raise SolveError("no admissible shift: boundary trace is constant")
    ftol = SHIFT_FTOL_FACTOR * fem.boundary_weighted_measure(mesh, cfg)
    F, dF = fem.shift_constraint(mesh, cfg, u)
    return u - scalar_shift_root(F, dF, lo, hi, ftol)


def _retract(mesh, cfg, u, denom_fn):
    """Shift u onto the constraint (orthogonalize_shift), then scale it to
    unit denominator p-norm."""
    u = orthogonalize_shift(mesh, cfg, u)
    nval = denom_fn(mesh, cfg, u)
    if nval <= 0.0:
        raise SolveError("degenerate field: denominator norm vanishes")
    return u / nval ** (1.0 / cfg.p)


def weakform_residual(mesh: Mesh, cfg: ProblemConfig, u, lam: float) -> float:
    """Relative residual of the discrete weak identity for the pair (lam, u).

    Tests the energy form against every nodal hat function, subtracts the
    boundary form scaled by lam, removes the component along the constraint
    multiplier direction, and normalizes by the scale of the two sides.
    """
    return _relative_residual(fem.energy_gradient(mesh, cfg, u) / cfg.p,
                              fem.boundary_pnorm_gradient(mesh, cfg, u) / cfg.p, lam,
                              fem.constraint_gradient_direction(mesh, cfg, u))


def _relative_residual(a, b, lam: float, d) -> float:
    """|a - lam b| with the component along d removed, relative to
    |a| + |lam| |b|: the residual of every pair this module reports."""
    r = a - lam * b
    dd = float(d @ d)
    if dd > 0.0:
        r = r - (float(r @ d) / dd) * d
    scale = np.linalg.norm(a) + abs(lam) * np.linalg.norm(b)
    if scale == 0.0:
        return float(np.linalg.norm(r))
    return float(np.linalg.norm(r) / scale)


@dataclass
class _DescentOutcome:
    u: np.ndarray
    history: list
    iterations: int
    stop: str
    finished: EigenResult | None = None  # finish's result, when the offer was taken

    @property
    def stalled(self) -> bool:
        return self.stop not in ("iteration cap", "residual stall")


def _eps_schedule(cfg: ProblemConfig):
    # for p < 2 the descent runs down a regularization ladder and finishes
    # unregularized (gradients are guarded at |grad u| = 0); the reported
    # eigenvalue is always the eps = 0 Rayleigh re-evaluation
    if cfg.p < 2.0:
        return [1e-2, 1e-4, 1e-6, 0.0]
    return [0.0]


def _descent(mesh, cfg, u0, denom_fn, denom_grad_fn, factor,
             iteration_cap=ITERATION_CAP, stall_rtol=STALL_RTOL, on_accept=None, finish=None):
    """Projected, preconditioned descent of numerator/denominator on the
    shifted-and-rescaled constraint manifold.  Returns the final iterate and
    the non-increasing history of accepted objective values, one leg per
    regularization level of _eps_schedule(cfg).

    The constraint is the weighted boundary orthogonality, restored after
    every step by a constant shift (orthogonalize_shift); the gradient
    component such a shift can absorb is projected out before the step.
    factor is the preconditioner, a linalg.Factor of K + M applied exactly
    at every step; the caller builds it once, so solve_p shares one factor
    among all its starts.  on_accept(u) is called after every accepted step
    (used by tests to monitor per-iterate invariants).

    finish, if given, is offered the field once, at the first residual stall
    of the eps = 0 leg: no weak-form residual (from the step's own gradients)
    of the last STALL_WINDOW iterates is below half the smallest before them.
    finish(outcome, value) returns a result to stop with, or None to
    decline; a declined offer leaves the descent untouched.
    """
    p = cfg.p
    u = _retract(mesh, cfg, np.asarray(u0, dtype=float), denom_fn)
    history = []
    residuals = []
    total_iters = 0
    step = 1.0

    for eps in _eps_schedule(cfg):
        value = fem.energy(mesh, cfg, u, eps)  # denominator is 1 after retract
        history.append(value)
        leg_start = len(history)
        stop = "iteration cap"
        while total_iters < iteration_cap:
            g_num = fem.energy_gradient(mesh, cfg, u, eps)
            g_den = denom_grad_fn(mesh, cfg, u)
            g = g_num - value * g_den
            # component a constant shift can absorb (zero for the boundary
            # denominator at feasible points, nonzero for the volume one)
            gdir = (p - 1.0) * fem.constraint_gradient_direction(mesh, cfg, u)
            if finish is not None and eps == 0.0:
                residuals.append(_relative_residual(g_num, g_den, value, gdir))
                if (len(residuals) > STALL_WINDOW and min(residuals[-STALL_WINDOW:])
                        >= 0.5 * min(residuals[:-STALL_WINDOW])):
                    offered = _DescentOutcome(u, list(history), total_iters, "residual stall")
                    offered.finished = finish(offered, value)
                    if offered.finished is not None:
                        return offered
                    finish = None
            gdir_sum = float(gdir.sum())
            if gdir_sum != 0.0:
                g = g - (float(g.sum()) / gdir_sum) * gdir
            d = factor.solve(g)
            slope = float(g @ d)
            if slope <= 1e-18 * max(1.0, abs(value)):
                stop = "zero slope"
                break
            accepted = False
            s = min(2.0 * step, 1e3)
            for _ in range(64):
                try:
                    trial = _retract(mesh, cfg, u - s * d, denom_fn)
                except SolveError:
                    s *= 0.5
                    continue
                t_value = fem.energy(mesh, cfg, trial, eps)
                if t_value <= value - ARMIJO * s * slope:
                    accepted = True
                    break
                s *= 0.5
            if not accepted:
                # backtracking exhausted: with a sane gradient this only
                # happens when the achievable decrease is below fp resolution
                if slope > 1e8 * max(1.0, abs(value)):
                    raise SolveError("line search failed at a non-stationary point")
                stop = "line search"
                break
            u = trial
            value = t_value
            step = s
            history.append(value)
            total_iters += 1
            if on_accept is not None:
                on_accept(u)
            if len(history) - leg_start >= STALL_WINDOW:
                drop = history[-1 - STALL_WINDOW] - history[-1]
                if drop < stall_rtol * max(abs(history[-1]), 1e-300):
                    stop = "value stall"
                    break
    return _DescentOutcome(u=u, history=history, iterations=total_iters, stop=stop)


def _bordered_newton(mesh, cfg, u):
    """Damped Newton on the bordered stationarity system: the terminal phase
    that finishes a stalled descent.

    Unknowns (du, dlam) solve H du - b dlam = -r, b^T du = 0 with
    H = A(u) - lam (p-1) B_w(u) and r the weak-form residual vector; B_w
    lives on the boundary edges, so every entry of it lies in the
    boundary/boundary block and H's other blocks are A's.  Interior
    elimination plus a dense bordered boundary solve handles the
    indefiniteness directly.  The blocks come from the cached splits of the
    mesh's patterns, so no step sorts or analyses a pattern.  Each step
    factors A_ii once, forms S = (A_gg - lam (p-1) B_w,gg) - Z^T Z with
    Z = L^-1 P A_ig the forward half-solve (linalg.Factor.lower), reduces r
    with one single-vector solve, solves the (|Gamma| + 1)^2 bordered
    system, and lifts the interior part of du with one more solve.  The
    step is then checked where it is used: if |H du - b dlam + r| / |r|
    exceeds NEWTON_SOLVE_RTOL, SolveError carries the value and the phase
    ends.

    A step is accepted only if the weak-form residual drops and the Rayleigh
    value does not grow beyond fp noise; otherwise it is damped toward the
    current iterate by halving, and the phase ends at the first step no
    damping makes acceptable, or after NEWTON_STEP_CAP steps.  Returns
    (u, value, steps, residual) of the last accepted field.

    No soft mode of H is pinned out of the step: at p < 2 on a cusp the
    nearly flat tip channel gives a near-null mode that carries much of the
    residual, and excluding it stalls the phase above the residual standard.
    A step that blows up along a symmetry valley is damped or rejected, and
    the run is then reported with the residual it reached.
    """
    p = cfg.p
    eps_mat = 0.0 if p == 2.0 else 1e-8

    def newton_target(u, value):
        a = fem.energy_gradient(mesh, cfg, u) / p
        b = fem.boundary_pnorm_gradient(mesh, cfg, u) / p
        E = fem.linearized_energy_matrix(mesh, cfg, u, eps_mat)
        Bw = fem.linearized_boundary_mass(mesh, cfg, u)
        s = -(value * (p - 1.0))
        r = a - value * b
        split = E.pattern.split(mesh.boundary_vertex_ids())
        gamma, interior = split.gamma, split.interior
        E_ig = split.coupling(E)
        factor = Factor(split.interior_block(E))
        Z = factor.lower(E_ig)
        ng = len(gamma)
        bord = np.zeros((ng + 1, ng + 1))
        # each entry of H_gg rounds as e + (s b), as a COO sum of E and s B_w would
        bord[:ng, :ng] = (split.boundary_block(E)
                          + s * Bw.pattern.split(gamma).boundary_block(Bw)) - Z.T @ Z
        bord[:ng, ng] = -b[gamma]
        bord[ng, :ng] = b[gamma]
        rt = r[gamma] - E_ig.T @ factor.solve(r[interior])
        sol = np.linalg.solve(bord, np.append(-rt, 0.0))
        du = np.zeros(mesh.num_vertices)
        du[gamma] = sol[:ng]
        du[interior] = -factor.solve(r[interior] + E_ig @ sol[:ng])
        gap = (np.linalg.norm(E.matvec(du) + s * Bw.matvec(du) - sol[ng] * b + r)
               / np.linalg.norm(r))
        if not gap <= NEWTON_SOLVE_RTOL:
            raise SolveError(f"bordered Newton step relative residual {gap:.3e} "
                             f"exceeds {NEWTON_SOLVE_RTOL:.0e}")
        return u + du

    u = np.asarray(u, dtype=float)
    value = fem.energy(mesh, cfg, u)
    res = weakform_residual(mesh, cfg, u, value)
    steps = 0
    theta_warm = 1.0
    for _ in range(NEWTON_STEP_CAP):
        if res <= 1e-9:
            break
        try:
            v = newton_target(u, value)
        except (SolveError, np.linalg.LinAlgError):
            break
        # the residual often lives in directions that barely move the
        # Rayleigh value, so permit value growth at fp-noise level in
        # exchange for a genuine residual decrease
        accepted = False
        theta = min(2.0 * theta_warm, 1.0)
        for _ in range(12):
            try:
                trial = _retract(mesh, cfg, u + theta * (v - u), fem.boundary_pnorm)
            except SolveError:
                theta *= 0.5
                continue
            t_value = fem.energy(mesh, cfg, trial)
            new_res = weakform_residual(mesh, cfg, trial, t_value)
            if new_res < 0.995 * res and t_value <= value * (1.0 + 1e-6):
                accepted = True
                break
            theta *= 0.5
        steps += 1
        if not accepted:
            break
        theta_warm = theta
        u, value, res = trial, t_value, new_res
    return u, value, steps, res


def _finalize_run(mesh, cfg, u, outcome, newton_steps=0) -> EigenResult:
    lam = rayleigh(mesh, cfg, u)
    res = weakform_residual(mesh, cfg, u, lam)
    cres = abs(fem.constraint_functional(mesh, cfg, u))
    measure = fem.boundary_weighted_measure(mesh, cfg)
    # converged means the final state meets the stationarity standard,
    # whether the descent or the terminal Newton phase reached it; a
    # descent stopped by the iteration cap gets no terminal phase, so it
    # counts only if it already meets the standard
    converged = (res <= WEAKFORM_RTOL
                 and cres <= CONSTRAINT_TOL_FACTOR * measure)
    return EigenResult(eigenvalue=lam, u=u, iterations=outcome.iterations + newton_steps,
                       energy_history=outcome.history, constraint_residual=cres,
                       weakform_residual=res, converged=converged,
                       newton_steps=newton_steps, descent_stop=outcome.stop)


def _newton_finish(mesh, cfg, outcome) -> EigenResult:
    u, _, steps, _ = _bordered_newton(mesh, cfg, outcome.u)
    return _finalize_run(mesh, cfg, u, outcome, steps)


def solve_p(mesh: Mesh, cfg: ProblemConfig, restarts: int = 3, seed: int = 0,
            u0=None, iteration_cap: int = ITERATION_CAP) -> EigenResult:
    """Minimize the Rayleigh quotient on the admissible set.

    The first run starts from the p = 2 eigenfunction of the same weighted
    problem; the remaining restarts start from seeded random fields.  At its
    first residual stall a run's descent offers its field to the terminal
    bordered-Newton phase once, and stops with Newton's result if that is
    converged and no higher than the descent's value at the offer; else it
    goes on with the bits it would have had.  A run whose descent stalls
    above 0.1 * WEAKFORM_RTOL is finished by the terminal phase.
    iteration_cap bounds the work of each run: a descent that reaches it is
    returned as it stands, without the terminal phase, and is converged
    only if it already meets the residual standard.  The smallest converged eigenvalue wins; the problem is
    non-convex for p != 2, so the result is a minimizer candidate, not a
    certified global minimum.  The descent runs its own regularization
    (a ladder of eps down to 0 for p < 2, none for p >= 2).
    """
    K, M, _ = fem.assemble_p2(mesh, weighted=False)
    factor = Factor(K + M)
    starts = []
    if u0 is not None:
        starts.append(np.asarray(u0, dtype=float))
    else:
        p2 = solve_p2(mesh, weighted=cfg.weighted)
        starts.append(p2.u)
    rng = np.random.default_rng(seed)
    for _ in range(max(0, restarts - 1)):
        starts.append(rng.standard_normal(mesh.num_vertices))

    def offer(outcome, value):
        result = _newton_finish(mesh, cfg, outcome)
        return result if result.converged and result.eigenvalue <= value else None

    best = None
    for start_idx, u_init in enumerate(starts):
        # random restarts are basin probes: they stall earlier and rely on
        # the terminal phase, which enforces the same final standard
        run_rtol = STALL_RTOL if start_idx == 0 else 1e-6
        outcome = _descent(mesh, cfg, u_init, fem.boundary_pnorm,
                           fem.boundary_pnorm_gradient, factor,
                           iteration_cap=iteration_cap, stall_rtol=run_rtol, finish=offer)
        result = outcome.finished or _finalize_run(mesh, cfg, outcome.u, outcome)
        if outcome.stalled and result.weakform_residual > 0.1 * WEAKFORM_RTOL:
            result = _newton_finish(mesh, cfg, outcome)
        if best is None:
            best = result
        elif result.converged and not best.converged:
            best = result
        elif result.converged == best.converged and result.eigenvalue < best.eigenvalue:
            best = result
    if best.converged and not best.eigenvalue > 0.0:
        raise SolveError(f"non-positive eigenvalue {best.eigenvalue}")
    return best


# -- boundary reduction and the p = 2 direct path ------------------------


def _schur_pencil_bottom(A: SparseSym, Bm: SparseSym, mesh: Mesh, k: int = 1):
    """Bottom-k eigenpairs of the pencil A x = mu Bm x on the subspace
    Bm-orthogonal to constants.

    A must carry the constants in its kernel and Bm must be supported on the
    boundary.  The blocks of A and Bm come from the splits of their patterns
    (linalg.Pattern.split).  Interior unknowns are eliminated by a Schur
    complement S = A_gg - A_ig^T X with X = A_ii^-1 A_ig from solve_spd (refined and
    checked to relative residual 1e-12; the eigenpairs found later are
    sensitive to X's last bits, so the Z^T Z form of the Newton step's
    elimination is not used here), the reduced pencil is restricted to the
    complement of Bm @ 1 on the boundary (Complement), and the restricted
    dense pencil goes to the generalized eigensolver.  Eigenpairs are
    cleaned by reduced Rayleigh iteration until the full-pencil relative
    residual is tight.  Returns (values, fields, residuals) with
    Bm-orthonormal full-mesh fields and each pair's _relative_residual.
    """
    n = mesh.num_vertices
    split = A.pattern.split(mesh.boundary_vertex_ids())
    gamma, interior = split.gamma, split.interior
    A_ig = split.coupling(A)
    X = solve_spd(split.interior_block(A), A_ig, tol=1e-12)
    S = split.boundary_block(A) - A_ig.T @ X
    S = 0.5 * (S + S.T)
    B_gg = Bm.pattern.split(gamma).boundary_block(Bm)

    comp = Complement(B_gg @ np.ones(len(gamma)))
    St, Bt = comp.restrict(S), comp.restrict(B_gg)
    # every pair is back-transformed: the vectors of the first k then
    # round exactly as they always have, and the reduced Rayleigh cleanup
    # below is sensitive to their last bits
    vals, Y = generalized_eig_sym(St, Bt)
    vals = np.array(vals[:k], dtype=float)

    bdir = Bm.matvec(np.ones(n))

    def full_field(y_reduced):
        ug = comp.lift(y_reduced)
        u = np.zeros(n)
        u[gamma] = ug
        u[interior] = -X @ ug
        nrm = math.sqrt(float(u @ Bm.matvec(u)))
        return u / nrm

    def rel_residual(u, mu):
        return _relative_residual(A.matvec(u), Bm.matvec(u), mu, bdir)

    fields = np.zeros((n, len(vals)))
    residuals = np.zeros(len(vals))
    for j in range(len(vals)):
        y = Y[:, j].copy()
        mu = float(vals[j])
        u = full_field(y)
        res = rel_residual(u, mu)
        # reduced Rayleigh iteration cleans up eigenpairs when the graded
        # boundary mass is badly conditioned
        for _ in range(3):
            if res <= 5e-9:
                break
            sigma = mu * (1.0 - 1e-7)
            try:
                z = np.linalg.solve(St - sigma * Bt, Bt @ y)
            except np.linalg.LinAlgError:
                break
            nz = float(z @ (Bt @ z))
            if not nz > 0.0:
                break
            z = z / math.sqrt(nz)
            mu_new = float(z @ (St @ z))
            u_new = full_field(z)
            res_new = rel_residual(u_new, mu_new)
            if res_new >= res:
                break
            y, mu, u, res = z, mu_new, u_new, res_new
        lead = int(np.argmax(np.abs(u)))
        if u[lead] < 0.0:
            u = -u
        vals[j] = mu
        fields[:, j] = u
        residuals[j] = res
    return vals, fields, residuals


def solve_p2(mesh: Mesh, weighted: bool, k: int = 1) -> EigenResult:
    """Smallest non-trivial p=2 eigenpair via the direct linear path.

    p2_spectrum holds the max(1, k) smallest non-trivial eigenvalues of the
    stiffness/boundary-mass pencil on the complement of the constraint.
    converged means the returned pair meets WEAKFORM_RTOL: the dense
    reduction can lose the wanted pair on a strongly graded boundary mass.
    """
    K, _, B = fem.assemble_p2(mesh, weighted=weighted)
    vals, fields, residuals = _schur_pencil_bottom(K, B, mesh, k=max(1, k))
    lam = float(vals[0])
    u = fields[:, 0]
    cres = abs(fem.constraint_functional(mesh, ProblemConfig(p=2.0, weighted=weighted), u))
    if not lam > 0.0:
        raise SolveError(f"non-positive p=2 eigenvalue {lam}")
    return EigenResult(eigenvalue=lam, u=u, iterations=0,
                       energy_history=[lam], constraint_residual=cres,
                       weakform_residual=float(residuals[0]),
                       converged=bool(residuals[0] <= WEAKFORM_RTOL),
                       p2_spectrum=vals, descent_stop="direct")
