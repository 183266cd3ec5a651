"""Finite-volume solver for -div(|x|^{-2a} grad u) = |x|^{-bp} f.

Cell-centered unknowns; transmissibilities come from the exact weight
integral over each face's dual cell.  What differs between grid kinds
lives on the grids and operators of `fields`; this module holds the
solves and the functions generic over them.  Two stiffness variants:

* `raw_stiffness` extends the end duals to the domain edges so that its
  quadratic form coincides with `fields.dirichlet_energy` exactly; this
  is what harmonic replacement minimizes.
* `assemble` uses pure inter-center duals plus half-cell caps coupling to
  the Dirichlet data (`grid.dirichlet_system`), the standard consistent
  second-order scheme.

A `Tridiagonal` chain is solved directly by its closed-form LDL^T, a
`Stencil` by Jacobi-preconditioned CG on the Schur complement of its
red-black reduction (`RedBlack`, `_pcg`).  Every SPD solve (solve,
residual, harmonic replacement) goes through `_spd_solve`, needs numpy
alone, and raises `SolverError` on failure.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import GridError, ParameterError, SolverError
from .fields import DiscreteField, Stencil, Tridiagonal, cell_weights
from .measure import BallSpec
from .params import WeightParams

_CG_RTOL = 1e-11
_CG_MAX_ITER = 100000


def _row_classes(shape):
    """The red-black layout of a box, per class of rows (i, j) of one
    parity of i and of j: the cells of the class's red cells, the slots
    they fill, then the same for its black cells.  In row (i, j), slot kk
    holds the red cell k = 2kk + (i+j)%2 and the black cell
    k = 2kk + 1 - (i+j)%2; a slot past the row's end holds no cell."""
    m2 = shape[2]
    for i0 in (0, 1):
        for j0 in (0, 1):
            p = (i0 + j0) % 2
            rows = (slice(i0, None, 2), slice(j0, None, 2))
            yield (rows + (slice(p, None, 2),), rows + (slice((m2 - p + 1) // 2),),
                   rows + (slice(1 - p, None, 2),), rows + (slice((m2 + p) // 2),))


def _halves(cells: np.ndarray, fill: float):
    """The red and the black cells of a (m0, m1, m2) cell array as two
    (m0, m1, ceil(m2/2)) slot arrays, `fill` in a slot with no cell."""
    m0, m1, m2 = cells.shape
    red, black = (np.full((m0, m1, (m2 + 1) // 2), fill) for _ in range(2))
    for red_cells, red_slots, black_cells, black_slots in _row_classes(cells.shape):
        red[red_slots] = cells[red_cells]
        black[black_slots] = cells[black_cells]
    return red, black


class RedBlack:
    """A `Stencil` A in red-black order, its red cells (i+j+k even)
    eliminated exactly: the Schur complement S = D_b - C^T D_r^{-1} C on
    the black cells, where each red cell couples to black cells alone
    (Hageman & Young, Applied Iterative Methods, 1981, ch. 9; Saad 2003).

    Red and black cells are each held as flat (m0, m1, K) slot arrays,
    K = ceil(m2/2), laid out as in `_row_classes`, so that each of a red
    cell's six black neighbours is a flat shift: +-m1 K along axis 0,
    +-K along axis 1, and along axis 2 the same slot and the one before
    (rows with i+j even) or after (odd).  With C~ = D_r^{-1/2} C, held as
    one coefficient array per shift (0 where there is no neighbour),
    S x = D_b x - C~^T (C~ x).  A slot with no cell, and with `nodes` a
    cell outside them, is an identity cell with no faces, so its value is
    0 and S acts on the principal submatrix's black cells as its own
    Schur complement.  Red cells are recovered from the black solution:
    x_r = D_r^{-1/2} (D_r^{-1/2} b_r + C~ x_b).  CG from zero takes about
    half the iterations on S that it takes on A.  Raises SolverError when
    a red diagonal entry is not positive.
    """

    def __init__(self, A: Stencil):
        self.shape, self.nodes = A.shape, A.nodes
        if A.nodes is not ...:
            outside = np.ones(len(A.D), dtype=bool)
            outside[A.nodes] = False
            A = A.isolated(outside)
        m0, m1, m2 = A.shape
        K = (m2 + 1) // 2
        D_red, D_black = _halves(A.D.reshape(A.shape), 1.0)
        if not np.all(D_red > 0):
            raise SolverError("not_spd", "nonpositive diagonal entry in stiffness")
        T = A.T.reshape((3,) + A.shape)
        C = np.zeros((7, m0, m1, K))
        # the face above a red cell, then the face above the black cell below it
        for axis, up, down in ((0, 1, 2), (1, 3, 4)):
            red, black = _halves(T[axis], 0.0)
            lead = (slice(None),) * axis
            C[up] = red
            C[down][lead + (slice(1, None),)] = black[lead + (slice(-1),)]
        # along axis 2, a red cell k = 2kk couples to the black cells k + 1
        # in slot kk and k - 1 in kk - 1; a red cell k = 2kk + 1 (odd rows)
        # to k - 1 in slot kk and k + 1 in kk + 1
        red, black = _halves(T[2], 0.0)
        even = (np.add.outer(np.arange(m0), np.arange(m1)) % 2 == 0)[..., None]
        C[0] = np.where(even, red, black)
        C[5][..., 1:] = np.where(even, black[..., :-1], 0.0)
        C[6] = np.where(even, 0.0, red)
        self.red_scale = 1.0 / np.sqrt(D_red.reshape(-1))
        self.C = C.reshape(7, -1)
        self.C *= self.red_scale
        self.D_black = D_black.reshape(-1)
        M, L = len(self.D_black), m1 * K
        self._y, self._tmp = np.empty(M), np.empty(M)
        # per nonzero shift o: the coefficients of the red slots whose black
        # slot s + o is in range, a scratch view of their length, the red
        # slots and the black ones
        self._terms = []
        for c, o in zip(self.C[1:], (L, -L, K, -K, -1, 1)):
            red = slice(max(-o, 0), M - max(o, 0))
            self._terms.append((c[red], self._tmp[red], red,
                                slice(max(o, 0), M - max(-o, 0))))

    @property
    def diag(self) -> np.ndarray:
        d = self.D_black - self.C[0] ** 2
        for c, _, _, black in self._terms:
            d[black] -= c ** 2
        return d

    def _forward(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """C~ x, from black slots to red."""
        np.multiply(self.C[0], x, out=out)
        for c, tmp, red, black in self._terms:
            out[red] += np.multiply(c, x[black], out=tmp)
        return out

    def _adjoint(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """C~^T y, from red slots to black."""
        np.multiply(self.C[0], y, out=out)
        for c, tmp, red, black in self._terms:
            out[black] += np.multiply(c, y[red], out=tmp)
        return out

    def __matmul__(self, x) -> np.ndarray:
        z = self._adjoint(self._forward(x, self._y), np.empty(len(x)))
        return np.subtract(np.multiply(self.D_black, x, out=self._tmp), z, out=z)

    def _split(self, b: np.ndarray):
        """D_r^{-1/2} b_r and b_b, the halves of b over `nodes`."""
        cells = np.zeros(math.prod(self.shape))
        cells[self.nodes] = b
        red, black = _halves(cells.reshape(self.shape), 0.0)
        red = red.reshape(-1)
        red *= self.red_scale
        return red, black.reshape(-1)

    def rhs(self, b: np.ndarray) -> np.ndarray:
        """The reduced right-hand side b_b + C~^T D_r^{-1/2} b_r."""
        red, black = self._split(b)
        black += self._adjoint(red, np.empty(len(red)))
        return black

    def solution(self, b: np.ndarray, x_black: np.ndarray) -> np.ndarray:
        """The solution of A x = b over `nodes`, from that of S."""
        red, _ = self._split(b)
        red += self._forward(x_black, self._y)
        red *= self.red_scale
        slots = self.shape[:2] + (-1,)
        red, black = red.reshape(slots), x_black.reshape(slots)
        cells = np.empty(self.shape)
        for red_cells, red_slots, black_cells, black_slots in _row_classes(self.shape):
            cells[red_cells] = red[red_slots]
            cells[black_cells] = black[black_slots]
        return cells.reshape(-1)[self.nodes]


class LinearSystem(NamedTuple):
    matrix: Tridiagonal | Stencil
    rhs: np.ndarray
    grid: object


class SolveReport(NamedTuple):
    iterations: int  # CG iterations on a box's black cells; 0 for a chain
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

def _pcg(A: Stencil | RedBlack, b: np.ndarray, b_norm: float | None = None):
    """Jacobi-preconditioned CG from x = 0; returns (x, iterations).

    The steps and stop test of `scipy.sparse.linalg.cg` 1.17, operation
    for operation: stop when |r| < `_CG_RTOL` |b| at the top of an
    iteration, where `b_norm`, when given, stands for |b| (scipy's `atol`
    with `rtol` 0); raise SolverError after `_CG_MAX_ITER` iterations.
    """
    d = A.diag
    if not np.all(d > 0):
        raise SolverError("not_spd", "nonpositive diagonal entry in stiffness")
    inv_d = 1.0 / d
    x = np.zeros(len(b))
    r = np.array(b, float)
    z = np.empty_like(r)  # also the step buffer, once z has updated p
    atol = _CG_RTOL * (float(np.linalg.norm(b)) if b_norm is None else b_norm)
    if atol == 0.0:
        return x, 0
    for iteration in range(_CG_MAX_ITER):
        if np.linalg.norm(r) < atol:
            return x, iteration
        np.multiply(r, inv_d, out=z)
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += np.multiply(alpha, p, out=z)
        r -= np.multiply(alpha, q, out=z)
        rho_prev = rho
    raise SolverError("no_convergence",
                      f"CG stopped after {_CG_MAX_ITER} iterations")


def _spd_solve(A: Tridiagonal | Stencil, b: np.ndarray):
    """Solve the SPD system A x = b; returns (x, CG iterations).

    A `Stencil` is reduced to its black cells (`RedBlack`), whose system
    gets `_pcg` with the stop test |r| < `_CG_RTOL` |b| of the whole
    system, since the whole residual is r on the black cells and 0 on the
    red ones; the red cells follow from the black.  A `Tridiagonal` gets
    the closed-form LDL^T of its chain: q_i = 1 + cap_lo sum_{k<i} 1/T_k
    solves the homogeneous equation from the first cell and, with
    T_{n-1} := cap_hi, S_j = sum_{k<=j} q_k b_k,
    x_i = q_i sum_{j>=i} S_j / (q_j (T_j q_j + cap_lo)).  Its pivots are
    sums of positive terms (Higham, SIAM J. Matrix Anal. Appl. 11, 1990:
    elimination without pivoting is stable on such chains).  Raises
    SolverError when A is not positive definite or CG does not converge.
    """
    if isinstance(A, Stencil):
        S = RedBlack(A)
        x_black, iterations = _pcg(S, S.rhs(b), float(np.linalg.norm(b)))
        return S.solution(b, x_black), iterations
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
    b = -(A @ np.where(interior, 0.0, u.values))[interior]
    x, _ = _spd_solve(A.principal(interior), b)
    w = u.values.copy()
    w[interior] = x
    return u.with_values(w, name="harmonic_replacement")
