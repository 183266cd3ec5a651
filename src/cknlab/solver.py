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

A radial operator is a `Tridiagonal` chain of face conductances and end
caps, solved directly by its closed-form LDL^T; a box operator is a
7-point `Stencil`, solved by Jacobi-preconditioned CG from zero (`_pcg`)
to relative residual `_CG_RTOL` within `_CG_MAX_ITER` iterations.  Every
SPD solve (solve, residual, harmonic replacement) goes through
`_spd_solve`, needs numpy alone, and raises `SolverError` on failure.
`raw_stiffness` is memoised read-only on its grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, ParameterError, SolverError
from .fields import (DiscreteField, RadialGrid, _per_grid,
                     _power_antiderivative, box_face_dual_weights, cell_weights,
                     radial_face_dual_weights)
from .measure import BallSpec, sphere_area
from .params import WeightParams

_CG_RTOL = 1e-11
_CG_MAX_ITER = 100000


@dataclass(eq=False)
class Tridiagonal:
    """Stiffness of a chain of cells: face conductances T and end caps.

    A cell's diagonal adds its face above, its face below, then its cap;
    `A @ x` sums each row in the column order of a CSR matvec, from 0, so
    products are bit-identical to those of the equivalent sparse matrix.
    The chain solve reads T and the caps alone; `diag` is lazy.
    """
    T: np.ndarray
    cap_lo: float = 0.0
    cap_hi: float = 0.0

    @property
    def off(self) -> np.ndarray:
        return -self.T

    @cached_property
    def diag(self) -> np.ndarray:
        diag = np.concatenate((self.T, [self.cap_hi]))  # the face above
        diag[1:] += self.T  # the face below
        diag[0] += self.cap_lo
        diag.setflags(write=False)
        return diag

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        y = np.zeros(len(self.diag))
        y[1:] -= self.T * x[:-1]
        y += self.diag * x
        y[:-1] -= self.T * x[1:]
        return y

    def principal(self, lo: int, hi: int) -> "Tridiagonal":
        """The principal submatrix on cells lo..hi-1: the sub-chain capped
        by the faces that cut it out (at the ends, by the old caps)."""
        T = self.T
        return Tridiagonal(T[lo:hi - 1], T[lo - 1] if lo > 0 else self.cap_lo,
                           T[hi - 1] if hi <= len(T) else self.cap_hi)


@dataclass(eq=False)
class Stencil:
    """7-point operator on a box of cells, flat in C order over `shape`.

    `coef[k]` couples each cell to its neighbour at flat offset
    `offsets[k]` (CSR column order) and is 0 where there is none; `A @ x`
    adds the products slot by slot, so it equals the CSR matvec.  With
    `nodes`, A acts on vectors over those cells alone: a principal submatrix.
    """
    coef: np.ndarray  # (7, cells)
    shape: tuple[int, int, int]
    nodes: object = ...  # flat indices of the unknowns; `...`: every cell

    @property
    def offsets(self) -> tuple[int, ...]:
        s = (self.shape[1] * self.shape[2], self.shape[2], 1)
        return (-s[0], -s[1], -s[2], 0, s[2], s[1], s[0])

    @property
    def diag(self) -> np.ndarray:
        return self.coef[3][self.nodes]

    def __matmul__(self, x) -> np.ndarray:
        n, pad = self.coef.shape[1], self.offsets[-1]
        xp = np.zeros(n + 2 * pad)  # a neighbour past either end reads 0
        xp[pad:pad + n][self.nodes] = x
        y = self.coef[0] * xp[:n]  # slot 0: offset -pad
        tmp = np.empty(n)
        for c, o in zip(self.coef[1:], self.offsets[1:]):
            y += np.multiply(c, xp[pad + o:pad + o + n], out=tmp)
        return y[self.nodes]

    def principal(self, mask: np.ndarray) -> "Stencil":
        """The principal submatrix on the cells of `mask`: the stencil on
        their bounding box grown by one cell, which holds every neighbour
        of a `mask` cell, acting on the `mask` cells alone."""
        cells = mask.reshape(self.shape)
        box = tuple(slice(max(int(i.min()) - 1, 0), int(i.max()) + 2)
                    for i in np.nonzero(cells))
        coef = self.coef.reshape((7,) + self.shape)[(slice(None),) + box]
        return Stencil(coef.reshape(7, -1), coef.shape[1:],
                       np.flatnonzero(cells[box]))


@dataclass
class LinearSystem:
    matrix: Tridiagonal | Stencil
    rhs: np.ndarray
    grid: object


@dataclass
class SolveReport:
    iterations: int  # CG iterations; 0 for the direct chain solve
    relative_residual: float
    converged: bool = True  # always: a failed solve raises SolverError


# ---------------------------------------------------------------------------
# stiffness assembly helpers

def raw_stiffness(params: WeightParams, grid) -> Tridiagonal | Stencil:
    """Symmetric stiffness over all cells, natural (no-flux) at the domain edge.

    Its quadratic form u^T A u equals `fields.dirichlet_energy` exactly.
    """
    return _stiffness(grid, params.N, -2.0 * params.a)


@_per_grid
def _stiffness(grid, N: int, w_exp: float) -> Tridiagonal | Stencil:
    """The `raw_stiffness`, built once per grid: the radial chain, or the
    box stencil, whose diagonal adds the face transmissibilities axis by
    axis, the face above the cell before the face below, so it equals the
    COO assembly's duplicate sum bit for bit."""
    if isinstance(grid, RadialGrid):
        return Tridiagonal(radial_face_dual_weights(grid, N, w_exp)
                           / np.diff(grid.centers) ** 2)
    coef = np.zeros((7,) + grid.shape)
    for axis in range(3):
        T = np.zeros(grid.shape)  # the face above each cell; 0 on the last
        T[(slice(None),) * axis + (slice(-1),)] = (
            box_face_dual_weights(grid, w_exp, axis) / grid.h[axis] ** 2)
        below = np.roll(T, 1, axis)  # the face below each cell
        coef[3] += T
        coef[3] += below
        coef[6 - axis] = -T
        coef[axis] = -below
    return Stencil(coef.reshape(7, -1), grid.shape)


def stiffness_quadratic_form(params: WeightParams, grid, values) -> float:
    """u^T A u for the raw stiffness; the discrete Dirichlet energy form."""
    A = raw_stiffness(params, grid)
    v = np.asarray(values, float).reshape(-1)
    return float(v @ (A @ v))


def _eliminate_dirichlet(A: Stencil, rhs: np.ndarray, mask: np.ndarray,
                         gvals: np.ndarray):
    """Identity rows/columns on `mask`; couplings moved to the RHS."""
    x_b = np.zeros(len(rhs))
    x_b[mask] = gvals
    rhs = rhs - A @ x_b
    rhs[mask] = gvals
    # slot k of cell r couples it to cell r + offsets[k]; a roll wraps
    # only where the slot has no neighbour, whose coefficient is 0 anyway
    coef = A.coef * ~np.array([np.roll(mask, -o) for o in A.offsets])
    coef[:, mask] = 0.0
    coef[3][mask] = 1.0
    return Stencil(coef, A.shape), rhs


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
        return LinearSystem(Tridiagonal(T, t_in, t_out), rhs, grid)
    mask = grid.boundary_layer()
    pts = grid.node_coords()[mask]
    gvals = (np.asarray(dirichlet(pts), float) if callable(dirichlet)
             else np.full(len(pts), float(dirichlet)))
    A, rhs = _eliminate_dirichlet(raw_stiffness(params, grid), rhs, mask, gvals)
    return LinearSystem(matrix=A, rhs=rhs, grid=grid)


# ---------------------------------------------------------------------------
# solve

def _pcg(A: Stencil, b: np.ndarray):
    """Jacobi-preconditioned CG from x = 0; returns (x, iterations).

    The steps and stop test of `scipy.sparse.linalg.cg` 1.17, operation
    for operation: stop when |r| < `_CG_RTOL` |b| at the top of an
    iteration; raise SolverError after `_CG_MAX_ITER` iterations.
    """
    d = A.diag
    if not np.all(d > 0):
        raise SolverError("not_spd", "nonpositive diagonal entry in stiffness")
    inv_d = 1.0 / d
    x = np.zeros(len(b))
    r = np.array(b, float)
    atol = _CG_RTOL * float(np.linalg.norm(b))
    if atol == 0.0:
        return x, 0
    for iteration in range(_CG_MAX_ITER):
        if np.linalg.norm(r) < atol:
            return x, iteration
        z = r * inv_d
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise SolverError("no_convergence",
                      f"CG stopped after {_CG_MAX_ITER} iterations")


def _spd_solve(A: Tridiagonal | Stencil, b: np.ndarray):
    """Solve the SPD system A x = b; returns (x, CG iterations).

    A `Stencil` gets `_pcg`, a `Tridiagonal` the closed-form LDL^T of its
    chain: q_i = 1 + cap_lo sum_{k<i} 1/T_k solves the homogeneous equation
    from the first cell and, with T_{n-1} := cap_hi, S_j = sum_{k<=j} q_k b_k,
    x_i = q_i sum_{j>=i} S_j / (q_j (T_j q_j + cap_lo)).  Its pivots are
    sums of positive terms (Higham, SIAM J. Matrix Anal. Appl. 11, 1990:
    elimination without pivoting is stable on such chains).  Raises
    SolverError when A is not positive definite or CG does not converge.
    """
    if isinstance(A, Stencil):
        return _pcg(A, b)
    T, lo, hi = A.T, A.cap_lo, A.cap_hi
    if not (np.all(T > 0) and lo >= 0 and hi >= 0 and lo + hi > 0):
        raise SolverError("not_spd", "a chain needs conductances > 0, caps "
                          f">= 0 and a nonzero cap, got caps ({lo}, {hi})")
    q = 1.0 + lo * np.concatenate(([0.0], np.cumsum(1.0 / T)))
    g = np.cumsum(q * b) / (q * (np.append(T, hi) * q + lo))
    return q * np.cumsum(g[::-1])[::-1], 0


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
    # radial: I is one run of cells
    x, _ = _spd_solve(A.principal(I[0], I[-1] + 1) if isinstance(A, Tridiagonal)
                      else A.principal(interior), b)
    w = u.values.copy()
    w[I] = x
    return u.with_values(w, name="harmonic_replacement")
