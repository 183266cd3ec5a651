"""Finite-volume solver for -div(|x|^{-2a} grad u) = |x|^{-bp} f.

Cell-centered unknowns; transmissibilities come from the exact weight
integral over each face's dual interval (radial) or dual box (box grid).
Two stiffness variants are used:

* `raw_stiffness` extends the end duals to the domain edges so that its
  quadratic form coincides with `fields.dirichlet_energy` exactly; this
  is what harmonic replacement minimizes.
* `assemble` uses pure inter-center duals plus half-cell caps coupling to
  the Dirichlet data, the standard consistent second-order scheme.
  Radial grids have no boundary unknowns: the caps' couplings to the
  boundary values are folded into the right-hand side.  Box grids impose
  the data on the outer layer of cells, whose rows become identity rows,
  with their couplings moved symmetrically to the right-hand side.

Every radial operator is a symmetric `Tridiagonal`; box operators are
CSR, and the box `raw_stiffness` is built once per grid, straight into
CSR, and memoised read-only on the grid beside its weight tables.
Every SPD system (solve, residual, harmonic replacement) goes
through `_spd_solve`, which picks the method by that type: a banded
Cholesky for `Tridiagonal`, and for CSR Jacobi-preconditioned CG from
zero under one policy, relative residual `_CG_RTOL` within
`_CG_MAX_ITER` iterations.  A solve that fails raises `SolverError`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, solveh_banded
from scipy.sparse.linalg import cg

from .errors import GridError, ParameterError, SolverError
from .fields import (BoxGrid, DiscreteField, RadialGrid, _per_grid,
                     _power_antiderivative, box_face_dual_weights, cell_weights,
                     radial_face_dual_weights)
from .measure import BallSpec, sphere_area
from .params import WeightParams

_CG_RTOL = 1e-11
_CG_MAX_ITER = 100000


@dataclass(eq=False)
class Tridiagonal:
    """Symmetric tridiagonal matrix: its diagonal and first off-diagonal.

    `A @ x` sums each row in the column order of a CSR matvec
    (sub-, main, then super-diagonal, starting from 0), so products are
    bit-identical to those of the equivalent sparse matrix.
    """
    diag: np.ndarray
    off: np.ndarray

    def diagonal(self) -> np.ndarray:
        return self.diag

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        y = np.zeros(len(self.diag))
        y[1:] += self.off * x[:-1]
        y += self.diag * x
        y[:-1] += self.off * x[1:]
        return y

    def principal(self, lo: int, hi: int) -> "Tridiagonal":
        """The principal submatrix on the rows and columns lo..hi-1."""
        return Tridiagonal(self.diag[lo:hi], self.off[lo:hi - 1])


@dataclass
class LinearSystem:
    matrix: Tridiagonal | sp.csr_matrix
    rhs: np.ndarray
    grid: object


@dataclass
class SolveReport:
    iterations: int  # CG iterations; 0 for the direct banded solve
    relative_residual: float
    converged: bool = True  # always: a failed solve raises SolverError


# ---------------------------------------------------------------------------
# stiffness assembly helpers

def _tridiag(T: np.ndarray, cap_lo: float = 0.0,
             cap_hi: float = 0.0) -> Tridiagonal:
    """Chain stiffness of face transmissibilities T, plus boundary caps
    on the first and last diagonal entries."""
    diag = np.zeros(len(T) + 1)
    diag[:-1] += T
    diag[1:] += T
    diag[-1] += cap_hi
    diag[0] += cap_lo
    return Tridiagonal(diag, -T)


def raw_stiffness(params: WeightParams, grid) -> Tridiagonal | sp.csr_matrix:
    """Symmetric stiffness over all cells, natural (no-flux) at the domain edge.

    Its quadratic form u^T A u equals `fields.dirichlet_energy` exactly.
    """
    if isinstance(grid, RadialGrid):
        w = np.asarray(radial_face_dual_weights(grid, params.N, -2.0 * params.a))
        T = w / np.diff(grid.centers) ** 2
        return _tridiag(T)
    return _box_stiffness(grid, -2.0 * params.a)


@_per_grid
def _box_stiffness(grid: BoxGrid, w_exp: float) -> sp.csr_matrix:
    """The box `raw_stiffness`, built once per grid straight into CSR.

    Row r has 7 slots in column order: its neighbours at r - s_0, r - s_1,
    r - s_2 (s_k the flat stride of axis k), itself, then r + s_2, r + s_1,
    r + s_0; a slot is stored where its neighbour exists.  The diagonal
    adds the face transmissibilities axis by axis, the face above the cell
    before the face below, so it equals the COO assembly's duplicate sum
    bit for bit.  The arrays are read-only, like the weight tables.
    """
    shape = grid.shape
    n = grid.n_nodes
    vals = np.zeros((7,) + shape)
    stored = np.zeros((7,) + shape, dtype=bool)
    stored[3] = True
    for axis in range(3):
        T = box_face_dual_weights(grid, w_exp, axis) / grid.h[axis] ** 2
        # the cells with a neighbour above along `axis`, and those below
        below = tuple(slice(None, -1) if k == axis else slice(None)
                      for k in range(3))
        above = tuple(slice(1, None) if k == axis else slice(None)
                      for k in range(3))
        vals[3][below] += T
        vals[3][above] += T
        vals[6 - axis][below] = -T
        vals[axis][above] = -T
        stored[6 - axis][below] = True
        stored[axis][above] = True
    strides = [shape[1] * shape[2], shape[2], 1]
    offsets = np.array([-s for s in strides] + [0] + strides[::-1])
    stored = stored.reshape(7, n).T
    cols = np.arange(n)[:, None] + offsets
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(stored.sum(axis=1), out=indptr[1:])
    A = sp.csr_matrix((vals.reshape(7, n).T[stored],
                       cols[stored].astype(np.int32), indptr), shape=(n, n))
    for arr in (A.data, A.indices, A.indptr):
        arr.setflags(write=False)
    return A


def stiffness_quadratic_form(params: WeightParams, grid, values) -> float:
    """u^T A u for the raw stiffness; the discrete Dirichlet energy form."""
    A = raw_stiffness(params, grid)
    v = np.asarray(values, float).reshape(-1)
    return float(v @ (A @ v))


def _eliminate_dirichlet(A: sp.csr_matrix, rhs: np.ndarray, mask: np.ndarray,
                         gvals: np.ndarray):
    """Identity rows/columns on `mask`; couplings moved to the RHS."""
    x_b = np.zeros(len(rhs))
    x_b[mask] = gvals
    rhs = rhs - A @ x_b
    rhs[mask] = gvals
    D = sp.diags((~mask).astype(float))
    return (D @ A @ D + sp.diags(mask.astype(float))).tocsr(), rhs


def _cap_transmissibility(params: WeightParams, lo: float, hi: float) -> float:
    """Boundary coupling sigma / int t^{-(N-1-2a)} dt over [lo, hi].

    Exact for constant-flux (homogeneous-equation) profiles, so the flux
    at the domain edge is reproduced to second order.
    """
    expo = 2.0 - params.N + 2.0 * params.a
    return sphere_area(params.N) / float(_power_antiderivative(expo, lo, hi))


def assemble(params: WeightParams, grid, f: DiscreteField | None = None,
             dirichlet=0.0, inner=None) -> LinearSystem:
    """Assemble the weighted stiffness with load |x|^{-bp} f.

    Radial grids: `dirichlet` is the value at r_max; `inner` (optional)
    the value at r_min, which requires r_min > 0 (r_min = 0 is always
    no-flux by symmetry).  The unknowns are the cells alone.  Box grids:
    `dirichlet` is a constant or a callable g(points) imposed on the outer
    layer of cells.
    """
    load_w = np.asarray(cell_weights(grid, params.N, -params.bp))
    fvals = np.zeros(grid.n_nodes) if f is None else f.values
    rhs = load_w * fvals
    if isinstance(grid, RadialGrid):
        if inner is not None and grid.r_min <= 0.0:
            raise GridError("invalid_boundary", "inner Dirichlet needs r_min > 0")
        c = grid.centers
        e = grid.edges
        expo = params.N - 2.0 * params.a
        w_faces = sphere_area(params.N) * _power_antiderivative(
            expo, np.maximum(c[:-1], 1e-300), c[1:])
        T = w_faces / np.diff(c) ** 2
        # the half-cell caps couple the end cells to the boundary values
        t_out = _cap_transmissibility(params, c[-1], e[-1])
        rhs[-1] += t_out * float(dirichlet)
        t_in = 0.0
        if inner is not None:
            t_in = _cap_transmissibility(params, e[0], c[0])
            rhs[0] += t_in * float(inner)
        return LinearSystem(matrix=_tridiag(T, t_in, t_out), rhs=rhs, grid=grid)
    mask = grid.boundary_layer()
    pts = grid.node_coords()[mask]
    gvals = (np.asarray(dirichlet(pts), float) if callable(dirichlet)
             else np.full(len(pts), float(dirichlet)))
    A, rhs = _eliminate_dirichlet(raw_stiffness(params, grid), rhs, mask, gvals)
    return LinearSystem(matrix=A, rhs=rhs, grid=grid)


# ---------------------------------------------------------------------------
# solve

def _jacobi(A: sp.csr_matrix) -> sp.dia_matrix:
    d = A.diagonal()
    if np.any(d <= 0):
        raise SolverError("not_spd", "nonpositive diagonal entry in stiffness")
    return sp.diags(1.0 / d)


def _spd_solve(A: Tridiagonal | sp.csr_matrix, b: np.ndarray):
    """Solve the SPD system A x = b; returns (x, CG iterations).

    A `Tridiagonal` A (every radial system) gets a banded Cholesky, O(n)
    and direct; a CSR A gets Jacobi-preconditioned CG from zero to
    relative residual `_CG_RTOL`.  Raises SolverError when A is not
    positive definite or CG does not converge in `_CG_MAX_ITER` steps.
    """
    if isinstance(A, Tridiagonal):
        ab = np.zeros((2, len(A.diag)))
        ab[0] = A.diag
        ab[1, :-1] = A.off
        try:
            return solveh_banded(ab, b, lower=True), 0
        except LinAlgError as exc:
            raise SolverError("not_spd", f"banded Cholesky failed: {exc}") from exc
    count = 0

    def cb(_):
        nonlocal count
        count += 1

    x, info = cg(A, b, rtol=_CG_RTOL, atol=0.0, maxiter=_CG_MAX_ITER,
                 M=_jacobi(A), callback=cb)
    if info != 0:
        raise SolverError("no_convergence",
                          f"CG stopped after {count} iterations (info={info})")
    return x, count


def solve(system: LinearSystem) -> tuple[DiscreteField, SolveReport]:
    """Solve the assembled system through `_spd_solve`; deterministic."""
    A, b = system.matrix, system.rhs
    x, iterations = _spd_solve(A, b)
    bnorm = float(np.linalg.norm(b))
    rel = float(np.linalg.norm(b - A @ x)) / (bnorm if bnorm > 0 else 1.0)
    report = SolveReport(iterations=iterations, relative_residual=rel)
    field = DiscreteField(grid=system.grid, values=x, name="solution")
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

@dataclass
class ResidualReport:
    nodal: DiscreteField
    dual_norm: float


def residual(params: WeightParams, u: DiscreteField,
             f: DiscreteField) -> ResidualReport:
    """Weak residual A u - rhs of the assembled system at the sampled u.

    The Dirichlet data is u's own trace, so the residual isolates the
    interior equation error.  The trace rows are excluded, since their
    balance mixes in the prescribed trace: on a radial grid the last
    cell, and the first cell when r_min > 0; on a box grid the outer
    layer of cells.  The scalar summary is sqrt(r^T A^{-1} r), the
    energy-dual norm of the residual functional.
    """
    grid = u.grid
    if isinstance(grid, RadialGrid):
        inner = u.values[0] if grid.r_min > 0.0 else None
        system = assemble(params, grid, f, dirichlet=u.values[-1], inner=inner)
        trace_rows = [grid.n_cells - 1] if inner is None else [grid.n_cells - 1, 0]
    else:
        trace_rows = grid.boundary_layer()
        system = assemble(params, grid, f,
                          dirichlet=lambda pts: u.values[trace_rows])
    r = system.matrix @ u.values - system.rhs
    r[trace_rows] = 0.0
    z, _ = _spd_solve(system.matrix, r)
    dual = math.sqrt(max(float(r @ z), 0.0))
    nodal = DiscreteField(grid=grid, values=r, name="residual")
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
    I = np.nonzero(interior)[0]
    b = -(A @ np.where(interior, 0.0, u.values))[I]
    if isinstance(A, Tridiagonal):
        A_II = A.principal(I[0], I[-1] + 1)  # radial: I is one run of cells
    else:
        A_II = A[np.ix_(I, I)]
    x, _ = _spd_solve(A_II, b)
    w = u.values.copy()
    w[I] = x
    return u.with_values(w, name="harmonic_replacement")
