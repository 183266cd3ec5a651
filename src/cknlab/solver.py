"""Finite-volume solver for -div(|x|^{-2a} grad u) = |x|^{-bp} f.

Cell-centered unknowns; transmissibilities come from the exact weight
integral over each face's dual cell.  What differs between grid kinds
lives on the grids of `fields` and their operators (`operators`); this
module holds the functions generic over them.  Two stiffness variants:

* `raw_stiffness` extends the end duals to the domain edges so that its
  quadratic form coincides with `fields.dirichlet_energy` exactly; this
  is what harmonic replacement minimizes.
* `assemble` uses pure inter-center duals plus half-cell caps coupling to
  the Dirichlet data (`grid.dirichlet_system`), the standard consistent
  second-order scheme.

Every SPD solve (solve, residual, harmonic replacement) is the
operator's own `A.solve(b)` (`operators`): a `Tridiagonal` chain's
closed-form LDL^T or a `Stencil`'s red-black reduced CG.  Each needs
numpy alone and raises `SolverError` on failure.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import GridError, ParameterError
from .fields import DiscreteField, cell_weights
from .measure import BallSpec
from .operators import Stencil, Tridiagonal
from .params import WeightParams


class LinearSystem(NamedTuple):
    matrix: Tridiagonal | Stencil
    rhs: np.ndarray
    grid: object


class SolveReport(NamedTuple):
    iterations: int  # from `A.solve`: a box's CG iterations; 0 for a chain
    relative_residual: float
    converged: bool = True  # always: a failed solve raises SolverError


# ---------------------------------------------------------------------------
# stiffness assembly helpers

def raw_stiffness(params: WeightParams, grid) -> Tridiagonal | Stencil:
    """Symmetric stiffness over all cells, natural (no-flux) at the domain
    edge, built once per grid (`grid.stiffness`); its quadratic form
    u^T A u equals `fields.dirichlet_energy` exactly."""
    return grid.stiffness(params.N, -2.0 * params.a)


def stiffness_quadratic_form(params: WeightParams, grid, values) -> float:
    """u^T A u for the raw stiffness; the discrete Dirichlet energy form."""
    A = raw_stiffness(params, grid)
    v = np.asarray(values, float).reshape(-1)
    return float(v @ (A @ v))


def assemble(params: WeightParams, grid, f: DiscreteField | None = None,
             dirichlet=0.0, inner=None) -> LinearSystem:
    """Assemble the weighted stiffness with load |x|^{-bp} f and the
    boundary data of `grid.dirichlet_system`: `dirichlet` on the outer
    edge, and `inner` on a radial grid's inner edge when given."""
    load_w = np.asarray(cell_weights(grid, params.N, -params.bp))
    fvals = np.zeros(grid.n_nodes) if f is None else f.values
    A, rhs = grid.dirichlet_system(params, load_w * fvals, dirichlet, inner)
    return LinearSystem(matrix=A, rhs=rhs, grid=grid)


# ---------------------------------------------------------------------------
# solve

def solve(system: LinearSystem) -> tuple[DiscreteField, SolveReport]:
    """Solve the assembled system by its operator's `solve`; deterministic."""
    A, b = system.matrix, system.rhs
    x, iterations = A.solve(b)
    bnorm = float(np.linalg.norm(b))
    rel = float(np.linalg.norm(b - A @ x)) / (bnorm if bnorm > 0 else 1.0)
    report = SolveReport(iterations=iterations, relative_residual=rel)
    field = DiscreteField(grid=system.grid, values=x)
    return field, report


# ---------------------------------------------------------------------------
# manufactured radial solutions

def exact_radial_mms(params: WeightParams, gamma: float, r_outer: float):
    """Closed-form pair (u, f) with f(r) = r^gamma and u(r_outer) = 0.

    u(r) = (r_outer^beta - r^beta) / ((N - bp + gamma) * beta),
    beta = 2 + 2a - bp + gamma, solves -(r^{N-1-2a} u')' = r^{N-1-bp} f.
    """
    N, a, bp = params.N, params.a, params.bp
    beta = 2.0 + 2.0 * a - bp + gamma
    denom1 = N - bp + gamma
    if abs(beta) < 1e-10 or abs(denom1) < 1e-10:
        raise ParameterError("degenerate_exponent",
                             f"beta={beta}, N-bp+gamma={denom1}; both must be nonzero")
    scale = 1.0 / (denom1 * beta)

    def u(r):
        return (r_outer ** beta - np.asarray(r, float) ** beta) * scale

    def f(r):
        return np.asarray(r, float) ** gamma

    return u, f


def ckn_bubble(params: WeightParams):
    """Radial solution of the critical nonlinear equation with constant K.

    u(r) = (1 + r^delta)^{-kappa}, kappa = 2/(p-2), delta = (N-2-2a)/kappa,
    solves -(r^{N-1-2a} u')' = K r^{N-1-bp} u^{p-1} with
    K = kappa (kappa + 1) delta^2.
    """
    if not params.p_above_two:
        raise ParameterError("degenerate_exponent", "needs b < a+1 (p > 2)")
    kappa = 2.0 / (params.p - 2.0)
    delta = (params.N - 2.0 - 2.0 * params.a) / kappa
    K = kappa * (kappa + 1.0) * delta ** 2

    def u(r):
        return (1.0 + np.asarray(r, float) ** delta) ** -kappa

    return u, K, delta, kappa


def dilate_radial(params: WeightParams, u, lam: float):
    """The invariant dilation u_lam(x) = lam^{(N-2-2a)/2} u(lam x)."""
    e = (params.N - 2.0 - 2.0 * params.a) / 2.0

    def ul(r):
        return lam ** e * u(lam * np.asarray(r, float))

    return ul


# ---------------------------------------------------------------------------
# residual in the energy-dual norm

class ResidualReport(NamedTuple):
    nodal: DiscreteField
    dual_norm: float


def residual(params: WeightParams, u: DiscreteField,
             f: DiscreteField) -> ResidualReport:
    """Weak residual A u - rhs of the assembled system at the sampled u.

    The Dirichlet data is u's own trace (`grid.own_trace`), so the
    residual isolates the interior equation error.  The trace rows are
    excluded, since their balance mixes in the prescribed trace.  The
    scalar summary is sqrt(r^T A^{-1} r), the energy-dual norm of the
    residual functional.
    """
    grid = u.grid
    dirichlet, inner, trace_rows = grid.own_trace(u.values)
    system = assemble(params, grid, f, dirichlet=dirichlet, inner=inner)
    r = system.matrix @ u.values - system.rhs
    r[trace_rows] = 0.0
    z, _ = system.matrix.solve(r)
    dual = math.sqrt(max(float(r @ z), 0.0))
    nodal = DiscreteField(grid=grid, values=r)
    return ResidualReport(nodal=nodal, dual_norm=dual)


# ---------------------------------------------------------------------------
# harmonic replacement

def harmonic_replacement(params: WeightParams, u: DiscreteField,
                         ball: BallSpec) -> DiscreteField:
    """Minimize the discrete energy over fields equal to u outside the ball.

    Nodes strictly inside the ball that touch neither an outside node nor
    the domain edge are relaxed; everything else keeps u's values.  The
    output w satisfies the discrete weighted-harmonic equation at relaxed
    nodes, so energy(u) = energy(w) + energy(u - w) for the raw form.
    """
    grid = u.grid
    inside = grid.distance_to(ball.center) <= ball.radius
    A = raw_stiffness(params, grid)
    # every off-diagonal entry is negative, so a row sums to nonzero over
    # the outside nodes exactly when it has an outside neighbour
    touches_outside = (A @ (~inside).astype(float)) != 0
    interior = inside & ~touches_outside & ~grid.boundary_layer()
    if interior.sum() < 2:
        raise GridError("ball_too_small",
                        f"only {int(interior.sum())} relaxable nodes in the ball")
    b = -(A @ np.where(interior, 0.0, u.values))[interior]
    x, _ = A.principal(interior).solve(b)
    w = u.values.copy()
    w[interior] = x
    return u.with_values(w)
