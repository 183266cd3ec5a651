"""The two stiffness operators and their SPD solves.

A radial grid's stiffness is a `Tridiagonal` chain, solved directly by its
closed-form LDL^T; a box grid's is a 7-point `Stencil`, solved by
Jacobi-preconditioned CG on the Schur complement of its red-black
reduction (`RedBlack`, `_pcg`).  Each operator's `solve(b)` returns
(x, CG iterations), needs numpy alone, and raises `SolverError` when the
operator is not positive definite or CG does not converge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, SolverError

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

    def principal(self, mask: np.ndarray) -> "Tridiagonal":
        """The principal submatrix on the cells of `mask`, one run lo..hi-1:
        the sub-chain capped by the faces that cut it out (or the old caps)."""
        cells = np.flatnonzero(mask)
        lo, hi = int(cells[0]), int(cells[-1]) + 1
        if hi - lo != len(cells):
            raise GridError("not_one_run", "a chain's principal cells must be one run")
        T = self.T
        return Tridiagonal(T[lo:hi - 1], T[lo - 1] if lo > 0 else self.cap_lo,
                           T[hi - 1] if hi <= len(T) else self.cap_hi)

    def solve(self, b: np.ndarray):
        """The solution of A x = b and 0 iterations, by the closed-form
        LDL^T of the chain: q_i = 1 + cap_lo sum_{k<i} 1/T_k solves the
        homogeneous equation from the first cell and, with
        T_{n-1} := cap_hi, S_j = sum_{k<=j} q_k b_k,
        x_i = q_i sum_{j>=i} S_j / (q_j (T_j q_j + cap_lo)).  Its pivots
        are sums of positive terms (Higham, SIAM J. Matrix Anal. Appl. 11,
        1990: elimination without pivoting is stable on such chains)."""
        T, lo, hi = self.T, self.cap_lo, self.cap_hi
        if not (np.all(T > 0) and lo >= 0 and hi >= 0 and lo + hi > 0):
            raise SolverError("not_spd", "a chain needs conductances > 0, caps "
                              f">= 0 and a nonzero cap, got caps ({lo}, {hi})")
        q = 1.0 + lo * np.concatenate(([0.0], np.cumsum(1.0 / T)))
        g = np.cumsum(q * b) / (q * (np.append(T, hi) * q + lo))
        return q * np.cumsum(g[::-1])[::-1], 0


@dataclass(eq=False)
class Stencil:
    """Symmetric 7-point operator on a box of cells, flat in C order over
    `shape`: the diagonal `D` and, per axis k, the conductance `T[k]` of
    the face above each cell, 0 on the last layer (Saad, Iterative Methods
    for Sparse Linear Systems, 2003, 3.4).  A cell's coupling to its
    neighbour below along k is that neighbour's `T[k]`; a flat shift past
    a row's end meets a 0 conductance, or a cell outside `nodes`.  `A @ x`
    sums each row in CSR column order, so it equals the CSR matvec bit for
    bit.  With `nodes`, A acts on vectors over those cells alone: a
    principal submatrix.
    """
    D: np.ndarray  # (cells,)
    T: np.ndarray  # (3, cells)
    shape: tuple[int, int, int]
    nodes: object = ...  # flat indices of the unknowns; `...`: every cell

    @property
    def diag(self) -> np.ndarray:
        return self.D[self.nodes]

    def __matmul__(self, x) -> np.ndarray:
        n = len(self.D)
        xs, y, tmp = np.zeros(n), np.empty(n), np.empty(n)
        xs[self.nodes] = x  # a cell outside `nodes` reads 0
        o = [math.prod(self.shape[k + 1:]) for k in range(3)]
        # CSR sums 0 - p0 - p1 - p2 below the diagonal: -(p0 + p1 + p2)
        y[:o[0]] = 0.0
        np.multiply(self.T[0, :n - o[0]], xs[:n - o[0]], out=y[o[0]:])
        for k in (1, 2):
            y[o[k]:] += np.multiply(self.T[k, :n - o[k]], xs[:n - o[k]],
                                    out=tmp[o[k]:])
        np.subtract(np.multiply(self.D, xs, out=tmp), y, out=y)
        for k in (2, 1, 0):
            y[:n - o[k]] -= np.multiply(self.T[k, :n - o[k]], xs[o[k]:],
                                        out=tmp[o[k]:])
        return y[self.nodes]

    def principal(self, mask: np.ndarray) -> "Stencil":
        """The principal submatrix on the cells of `mask`: the stencil on
        their bounding box grown by one cell, which holds every neighbour
        of a `mask` cell, acting on the `mask` cells alone."""
        cells = mask.reshape(self.shape)
        box = tuple(slice(max(int(i.min()) - 1, 0), int(i.max()) + 2)
                    for i in np.nonzero(cells))
        D = self.D.reshape(self.shape)[box]
        T = self.T.reshape((3,) + self.shape)[(slice(None),) + box]
        return Stencil(D.reshape(-1), T.reshape(3, -1), D.shape,
                       np.flatnonzero(cells[box]))

    def isolated(self, mask: np.ndarray) -> "Stencil":
        """This stencil over its whole box with every cell of `mask` an
        identity cell with no faces, on copies of the four arrays."""
        cells = mask.reshape(self.shape)
        T = self.T.reshape((3,) + self.shape).copy()
        for axis, face in enumerate(T):  # zero every face of a `mask` cell
            lead = (slice(None),) * axis
            face[cells] = 0.0  # the face above it
            face[lead + (slice(-1),)][cells[lead + (slice(1, None),)]] = 0.0  # below
        D = self.D.copy()
        D[mask] = 1.0
        return Stencil(D, T.reshape(3, -1), self.shape)

    def solve(self, b: np.ndarray):
        """The solution of A x = b and its CG iterations: `_pcg` on the
        black cells' system (`RedBlack`) with the stop test
        |r| < `_CG_RTOL` |b| of the whole system, since the whole residual
        is r on the black cells and 0 on the red ones; the red cells
        follow from the black."""
        S = RedBlack(self)
        x_black, iterations = _pcg(S, S.rhs(b), float(np.linalg.norm(b)))
        return S.solution(b, x_black), iterations


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
