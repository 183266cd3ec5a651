"""Grids and their operators, discrete fields, weighted integrals and energy.

Two grid kinds, a 1D radial grid (any dimension N via the surface-area
factor) with a `Tridiagonal` chain operator and a 3D tensor box grid with
a 7-point `Stencil`, hold what differs between them as members, so that
generic code never asks which kind it has.  Values live at cell centers.
Radial cell and face weights use the exact antiderivative of t^{N-1+w};
box weights use the cell-centroid value, except on the cells near the
origin, where the weight may be singular, which are refined as one octree
with a closed-form self-similar tail (`_refined_weights`).  Distances over
a box grid are formed per axis.  Weight tables, the stiffness, a radial
ball's clipped cell and dual weights and a box ball's rim coverage are
memoised on their grid (`_per_grid`), read-only, as are a grid's edges
and centres.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from .errors import GridError
from .measure import BallSpec, sphere_area
from .params import WeightParams

_ORIGIN_REFINE_FACTOR = 2.0  # refine cells closer to 0 than this many diagonals
_MAX_REFINE_DEPTH = 24
_RIM_BLOCK = 512  # rim cells whose 4^3 subsample is formed at once


def _memoised_in(slot: str):
    """A decorator that memoises a function's value in the `__dict__` of its
    first argument, under `slot` (as `cached_property` does), so that the
    value lives exactly as long as that object.  Every later caller shares
    it, so the value, or each array field of it, is made read-only."""
    def decorate(build):
        @wraps(build)
        def cached(owner, *args, **kwargs):
            memo = owner.__dict__.setdefault(slot, {})
            key = (build.__name__, args, tuple(sorted(kwargs.items())))
            if key not in memo:
                value = memo[key] = build(owner, *args, **kwargs)
                for a in (value, *getattr(value, "__dict__", {}).values()):
                    if isinstance(a, np.ndarray):
                        a.setflags(write=False)
            return memo[key]
        return cached
    return decorate


# a weight table or operator, memoised on its grid
_per_grid = _memoised_in("_weight_tables")


# ---------------------------------------------------------------------------
# grids and their operators

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


def _eliminate_dirichlet(A: Stencil, rhs: np.ndarray, mask: np.ndarray,
                         gvals: np.ndarray):
    """Identity rows/columns on `mask`; couplings moved to the RHS."""
    x_b = np.zeros(len(rhs))
    x_b[mask] = gvals
    rhs = rhs - A @ x_b
    rhs[mask] = gvals
    return A.isolated(mask), rhs


def _cap_transmissibility(params: WeightParams, lo: float, hi: float) -> float:
    """Boundary coupling sigma / int t^{-(N-1-2a)} dt over [lo, hi].

    Exact for constant-flux (homogeneous-equation) profiles, so the flux
    at the domain edge is reproduced to second order.
    """
    expo = 2.0 - params.N + 2.0 * params.a
    return sphere_area(params.N) / float(_power_antiderivative(expo, lo, hi))


@dataclass(frozen=True)
class RadialGrid:
    r_min: float
    r_max: float
    n_cells: int
    spacing: str = "uniform"

    def __post_init__(self):
        if not 0.0 <= self.r_min < self.r_max < math.inf:
            raise GridError("invalid_radial_extent", "need 0 <= r_min < r_max "
                            f"< inf, got [{self.r_min}, {self.r_max}]")
        if self.n_cells < 2:
            raise GridError("too_few_cells", f"need n_cells >= 2, got {self.n_cells}")
        if self.spacing not in ("uniform", "geometric"):
            raise GridError("invalid_spacing", f"unknown spacing {self.spacing!r}")
        if self.spacing == "geometric" and self.r_min <= 0.0:
            raise GridError("invalid_spacing", "geometric spacing requires r_min > 0")

    @cached_property
    def edges(self) -> np.ndarray:
        if self.spacing == "uniform":
            e = np.linspace(self.r_min, self.r_max, self.n_cells + 1)
        else:
            e = np.geomspace(self.r_min, self.r_max, self.n_cells + 1)
        e.setflags(write=False)
        return e

    @cached_property
    def centers(self) -> np.ndarray:
        c = 0.5 * (self.edges[:-1] + self.edges[1:])
        c.setflags(write=False)
        return c

    @property
    def n_nodes(self) -> int:
        return self.n_cells

    @property
    def width(self) -> float:
        return self.r_max - self.r_min

    def node_coords(self) -> np.ndarray:
        return self.centers.reshape(-1, 1)

    def distance_to(self, center) -> np.ndarray:
        """Distance of each node's sphere |x| = r to the point `center`,
        measured along the ray through it: |r - |center||."""
        return np.abs(self.centers - math.sqrt(sum(c * c for c in center)))

    def interior_mask(self, margin: float) -> np.ndarray:
        """Nodes at least `margin` inside both ends of [r_min, r_max]."""
        r = self.centers
        return (r >= self.r_min + margin) & (r <= self.r_max - margin)

    def boundary_layer(self) -> np.ndarray:
        """The first and last cell, the nodes with a single neighbour."""
        layer = np.zeros(self.n_cells, dtype=bool)
        layer[[0, -1]] = True
        return layer

    def room(self, center) -> tuple[float, float]:
        """The distance from |x| = |center| to the nearer end (to r_max
        alone when r_min = 0, which is no edge), and the mean cell size."""
        d = float(np.abs(center[0]))
        top = min(self.r_max - d, d - self.r_min if self.r_min > 0 else self.r_max - d)
        return top, (self.r_max - self.r_min) / self.n_cells

    @_per_grid
    def cell_weights(self, N: int, w_exp: float) -> np.ndarray:
        """sigma_{N-1} * integral of t^{N-1+w} over each cell."""
        return _radial_shell_weights(N, w_exp, self.edges[:-1], self.edges[1:])

    @_per_grid
    def ball_cell_weights(self, N: int, w_exp: float, ball: BallSpec) -> np.ndarray:
        """The cell integrals clipped exactly to `ball`, centred at 0."""
        return _radial_shell_weights(N, w_exp, self.edges[:-1], self.edges[1:],
                                     ball)

    @_per_grid
    def ball_dual_weights(self, N: int, w_exp: float, ball: BallSpec) -> np.ndarray:
        """`radial_face_dual_weights` clipped exactly to `ball`, centred at 0."""
        return _radial_shell_weights(N, w_exp, *_radial_duals(self), ball,
                                     floor=1e-300)

    def dirichlet_energy(self, params, values, ball=None) -> float:
        """Face gradients over the duals that tile [r_min, r_max]
        (`_radial_duals`), clipped exactly to `ball`."""
        w_exp = -2.0 * params.a
        grads = np.diff(values) / np.diff(self.centers)
        if ball is None:
            w = radial_face_dual_weights(self, params.N, w_exp)
        else:
            w = self.ball_dual_weights(params.N, w_exp, ball)
        return float(grads ** 2 @ w)

    @_per_grid
    def stiffness(self, N: int, w_exp: float) -> Tridiagonal:
        """The raw stiffness: the chain over the edge-extended duals."""
        return Tridiagonal(radial_face_dual_weights(self, N, w_exp)
                           / np.diff(self.centers) ** 2)

    def dirichlet_system(self, params, rhs, dirichlet, inner) -> tuple:
        """The chain over pure inter-centre duals, with half-cell caps that
        couple the end cells to `dirichlet` at r_max and `inner` at r_min > 0
        (r_min = 0 is no-flux by symmetry), folded into `rhs` in place."""
        if inner is not None and self.r_min <= 0.0:
            raise GridError("invalid_boundary", "inner Dirichlet needs r_min > 0")
        c, e = self.centers, self.edges
        w_faces = _radial_shell_weights(params.N, -2.0 * params.a, c[:-1], c[1:],
                                        floor=1e-300)
        t_out = _cap_transmissibility(params, c[-1], e[-1])
        rhs[-1] += t_out * float(dirichlet)
        t_in = 0.0
        if inner is not None:
            t_in = _cap_transmissibility(params, e[0], c[0])
            rhs[0] += t_in * float(inner)
        return Tridiagonal(w_faces / np.diff(c) ** 2, t_in, t_out), rhs

    def own_trace(self, values: np.ndarray):
        """`values` as their own Dirichlet data (dirichlet, inner, rows)."""
        if self.r_min > 0.0:
            return values[-1], values[0], [self.n_cells - 1, 0]
        return values[-1], None, [self.n_cells - 1]


@dataclass(frozen=True)
class BoxGrid:
    lower: tuple[float, float, float]
    upper: tuple[float, float, float]
    shape: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        object.__setattr__(self, "shape", tuple(int(v) for v in self.shape))
        if len(self.lower) != 3 or len(self.upper) != 3 or len(self.shape) != 3:
            raise GridError("unsupported_dimension", "box grids support N = 3 only")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise GridError("invalid_box", "need lower < upper componentwise")
        if not all(n >= 2 for n in self.shape):
            raise GridError("too_few_cells", "need at least 2 cells per axis")

    @property
    def h(self) -> tuple[float, float, float]:
        return tuple((hi - lo) / n for lo, hi, n in
                     zip(self.lower, self.upper, self.shape))

    @property
    def n_nodes(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.h)

    @property
    def width(self) -> float:
        return min(hi - lo for lo, hi in zip(self.lower, self.upper))

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        h = self.h[axis]
        return self.lower[axis] + (np.arange(n) + 0.5) * h

    def node_coords(self) -> np.ndarray:
        """The (n, 3) cell centres, built on each call: the box code reads
        `axis_centers` and `cell_centers` instead."""
        return np.stack(np.meshgrid(*_box_coords(self), indexing="ij"),
                        axis=-1).reshape(-1, 3)

    centers = property(node_coords)

    def cell_centers(self, cells: np.ndarray) -> np.ndarray:
        """The centres of the cells at flat indices `cells`, one row each."""
        return np.stack([self.axis_centers(k)[i] for k, i in
                         enumerate(np.unravel_index(cells, self.shape))], axis=1)

    def distance_to(self, center) -> np.ndarray:
        """Euclidean distance of each node to the point `center`."""
        return _tensor_norm([self.axis_centers(k) - float(c)
                             for k, c in enumerate(center)]).reshape(-1)

    def interior_mask(self, margin: float) -> np.ndarray:
        """Nodes at least `margin` inside every face of the box."""
        inside = [(c >= lo + margin) & (c <= hi - margin) for c, lo, hi in
                  zip(_box_coords(self), self.lower, self.upper)]
        return (inside[0][:, None, None] & inside[1][None, :, None]
                & inside[2]).reshape(-1)

    def boundary_layer(self) -> np.ndarray:
        """The outer layer of cells (the box's Dirichlet nodes), flattened."""
        layer = np.ones(self.shape, dtype=bool)
        layer[1:-1, 1:-1, 1:-1] = False
        return layer.ravel()

    def room(self, center) -> tuple[float, float]:
        """The distance from `center` to the nearest face, and the longest side."""
        c = np.array(center)
        top = float(min(np.min(c - np.array(self.lower)),
                        np.min(np.array(self.upper) - c)))
        return top, max(self.h)

    @_per_grid
    def cell_weights(self, N: int, w_exp: float) -> np.ndarray:
        if N != 3:
            raise GridError("unsupported_dimension", "box grids support N = 3 only")
        return _box_volume_weights(self, w_exp, _box_coords(self)).reshape(-1)

    def ball_cell_weights(self, N: int, w_exp: float, ball: BallSpec) -> np.ndarray:
        """The cell integrals times each cell's coverage by `ball`."""
        return self.cell_weights(N, w_exp) * _ball_coverage_fractions(self, ball)

    def dirichlet_energy(self, params, values, ball=None) -> float:
        """Face gradients over their h^3 dual boxes, plus the boundary
        half-cells; with `ball`, weighted by the cells' coverage instead."""
        w_exp = -2.0 * params.a
        v = values.reshape(self.shape)
        h = self.h
        total = 0.0
        frac_cells = (None if ball is None
                      else _ball_coverage_fractions(self, ball).reshape(self.shape))
        for axis in range(3):
            grads = np.diff(v, axis=axis) / h[axis]
            w = np.asarray(box_face_dual_weights(self, w_exp, axis))
            lead = (slice(None),) * axis  # indexes along `axis` after these
            if frac_cells is not None:
                # approximate the dual-box clipping by the mean coverage of the
                # two cells sharing the face
                w = w * 0.5 * (frac_cells[lead + (slice(None, -1),)]
                               + frac_cells[lead + (slice(1, None),)])
            total += float(np.sum(grads ** 2 * w))
            if frac_cells is None:
                # boundary half-cells: reuse the adjacent interior gradient so a
                # linear field reproduces its exact energy
                area_w = np.asarray(box_face_area_weights(self, w_exp, axis))
                for end in (slice(0, 1), slice(-1, None)):
                    cap = area_w[lead + (end,)] * 0.5 * h[axis]
                    total += float(np.sum(grads[lead + (end,)] ** 2 * cap))
        return total

    @_per_grid
    def stiffness(self, N: int, w_exp: float) -> Stencil:
        """The raw stiffness, whose diagonal adds the face transmissibilities
        axis by axis, the face above the cell before the face below, so it
        equals the COO assembly's duplicate sum bit for bit."""
        D = np.zeros(self.shape)
        T = np.zeros((3,) + self.shape)  # the face above each cell; 0 on the last
        for axis, face in enumerate(T):
            lead = (slice(None),) * axis  # indexes along `axis` after these
            face[lead + (slice(-1),)] = (box_face_dual_weights(self, w_exp, axis)
                                         / self.h[axis] ** 2)
            D += face
            D[lead + (slice(1, None),)] += face[lead + (slice(-1),)]  # the face below
        return Stencil(D.reshape(-1), T.reshape(3, -1), self.shape)

    def dirichlet_system(self, params, rhs, dirichlet, inner) -> tuple:
        """The raw stiffness with `dirichlet`, a constant or g(points),
        imposed on the outer layer of cells: their rows become identity
        rows and their couplings move to `rhs`.  A box has no inner
        boundary, so `inner` must be None."""
        if inner is not None:
            raise GridError("invalid_boundary", "a box grid has no inner boundary")
        mask = self.boundary_layer()
        pts = self.cell_centers(np.flatnonzero(mask))
        gvals = (np.asarray(dirichlet(pts), float) if callable(dirichlet)
                 else np.full(len(pts), float(dirichlet)))
        return _eliminate_dirichlet(self.stiffness(params.N, -2.0 * params.a),
                                    rhs, mask, gvals)

    def own_trace(self, values: np.ndarray):
        """`values` as their own Dirichlet data (g, None, the outer layer)."""
        rows = self.boundary_layer()
        return (lambda pts: values[rows]), None, rows


# ---------------------------------------------------------------------------
# fields

@dataclass
class DiscreteField:
    grid: RadialGrid | BoxGrid
    values: np.ndarray

    def __post_init__(self):
        # C order, so that a BLAS reduction sums it in index order
        v = np.ascontiguousarray(self.values, dtype=float).reshape(-1)
        if v.size != self.grid.n_nodes:
            raise GridError("value_count_mismatch",
                            f"{v.size} values for {self.grid.n_nodes} grid nodes")
        if not np.all(np.isfinite(v)):
            raise GridError("nonfinite_values", "field values must be finite")
        v.setflags(write=False)
        self.values = v

    @classmethod
    def from_function(cls, grid, fn) -> "DiscreteField":
        vals = fn(grid.centers)
        return cls(grid=grid, values=np.broadcast_to(np.asarray(vals, float),
                                                    (grid.n_nodes,)).copy())

    def with_values(self, values) -> "DiscreteField":
        return DiscreteField(grid=self.grid, values=np.array(values, dtype=float))


# ---------------------------------------------------------------------------
# weight integrals over cells and faces

def _power_antiderivative(expo: float, lo: np.ndarray, hi: np.ndarray):
    """Integral of t^{expo-1} over [lo, hi] (elementwise)."""
    if expo == 0.0:
        return np.log(hi) - np.log(lo)
    return (np.asarray(hi) ** expo - np.asarray(lo) ** expo) / expo


def _radial_shell_weights(N: int, w_exp: float, lo: np.ndarray, hi: np.ndarray,
                          ball: BallSpec | None = None,
                          floor: float = 0.0) -> np.ndarray:
    """sigma_{N-1} * integral of t^{N-1+w} over each interval [lo, hi].

    With `ball` (which must be centered at 0) the intervals are clipped to
    [0, ball.radius]; `floor` bounds the lower ends away from t = 0.  An
    interval that starts at t = 0 needs N + w > 0.
    """
    if ball is not None:
        if ball.center_norm > 1e-12 * ball.radius:
            raise GridError("ball_outside_domain",
                            "radial grids only support balls centered at 0")
        lo = np.minimum(lo, ball.radius)
        hi = np.minimum(hi, ball.radius)
    start = np.maximum(lo, floor)
    if N + w_exp <= 0 and np.any(start == 0.0):
        raise GridError("nonintegrable_weight",
                        f"t^{N - 1 + w_exp} not integrable at r = 0")
    out = sphere_area(N) * _power_antiderivative(N + w_exp, start, hi)
    return np.where(hi > lo, out, 0.0)


def _radial_duals(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Dual interval of each interior face: [c_f, c_{f+1}], with the two end
    duals extended to the domain edges so that the duals tile [r_min, r_max]."""
    c = grid.centers
    e = grid.edges
    return (np.concatenate([[e[0]], c[1:-1]]),
            np.concatenate([c[1:-1], [e[-1]]]))


@_per_grid
def radial_face_dual_weights(grid: RadialGrid, N: int, w_exp: float) -> np.ndarray:
    """Weight integral over each interior face's dual interval (`_radial_duals`),
    so a piecewise-constant-gradient field has exactly reproduced energy."""
    lo, hi = _radial_duals(grid)
    return _radial_shell_weights(N, w_exp, lo, hi, floor=1e-300)


def _ball_equiv_weight(vol: np.ndarray, w_exp: float) -> np.ndarray:
    """Closed-form weight integral over the equal-volume ball at the origin."""
    sigma = sphere_area(3)
    rho = (vol * 3.0 / sigma) ** (1.0 / 3.0)
    return sigma * rho ** (3.0 + w_exp) / (3.0 + w_exp)


def _disk_weight(z0: np.ndarray, area: np.ndarray, w_exp: float) -> np.ndarray:
    """Closed-form |x|^{w} integral over the equal-area disk in a plane at
    distance z0 from the origin, centered under the origin's projection."""
    rho = np.sqrt(area / math.pi)
    e2 = (w_exp + 2.0) / 2.0
    return math.pi * ((z0 * z0 + rho * rho) ** e2 - (z0 * z0) ** e2) / e2


def _refined_weights(mid: np.ndarray, size: np.ndarray, w_exp: float,
                     z0: np.ndarray | None = None) -> np.ndarray:
    """Integral of |x|^{w} over each axis box of extent `size` (shape (d,))
    centred at the rows of `mid` (shape (n, d)); with `z0`, the boxes are
    d = 2 patches in planes at distances z0[i] from the origin.

    All boxes are refined together, one level at a time.  Every sub-box of
    a level has the same extent, which halves from one level to the next,
    so a level is its sub-box centres plus one size, volume and diagonal.
    A sub-box farther from 0 than `_ORIGIN_REFINE_FACTOR` diagonals takes
    its centroid value; the others split into 2^d children at
    `mid ± size/4`.  Refinement stops when no sub-box is near 0, or after
    `_MAX_REFINE_DEPTH` levels; a sub-box still near 0 then takes the
    equal-volume ball (d = 3) or disk (d = 2) integral if its closed box
    `mid ± size/2` holds the origin's projection, and
    max(dist, diag/4)^w * volume otherwise.

    Self-similar tail: once a level's near sub-boxes, as rows (owner, mid,
    z) in units of its size, are the previous level's bit for bit, every
    later level is this one halved exactly (distances and near tests too),
    so its far part is this level's times rho = 2^{-(d+w)} (|x|^w is
    homogeneous), the last leaf this level's times rho^(levels left), and
    the loop stops for the closed-form series.  A rounded sub-box centre
    (origin no dyadic multiple of h) never matches: all levels run.
    """
    n, d = mid.shape
    z = np.zeros(n) if z0 is None else z0
    owner = np.arange(n)
    out = np.zeros(n)
    offsets = np.array(list(itertools.product((-0.25, 0.25), repeat=d)))[:, None, :]
    prev, steps = None, 0
    for depth in range(_MAX_REFINE_DEPTH + 1):
        if depth:
            mid = (mid + offsets * size).reshape(-1, d)
            size = 0.5 * size
            owner, z = np.tile(owner, 2 ** d), np.tile(z, 2 ** d)
        vol = float(np.prod(size))
        diag = math.sqrt(float(np.sum(size * size)))
        dist = np.sqrt(z * z + np.sum(mid * mid, axis=1))
        far = dist > _ORIGIN_REFINE_FACTOR * diag
        part = np.bincount(owner[far], dist[far] ** w_exp * vol, n)
        out += part
        near = ~far
        mid, owner, z, dist = mid[near], owner[near], z[near], dist[near]
        if not len(owner):
            return out
        rows = np.column_stack([owner, 2.0 ** depth * mid, 2.0 ** depth * z])
        if (prev is not None and prev.shape == rows.shape  # cheap tests first
                and np.array_equal(prev.sum(axis=0), rows.sum(axis=0))
                and np.array_equal(prev[np.lexsort(prev.T)],
                                   rows[np.lexsort(rows.T)])):
            steps = _MAX_REFINE_DEPTH - depth
            break
        prev = rows
    leaf = np.maximum(dist, 0.25 * diag) ** w_exp * vol
    at_origin = (np.all(mid - 0.5 * size <= 0.0, axis=1)
                 & np.all(mid + 0.5 * size >= 0.0, axis=1))
    if w_exp <= -d and np.any(z[at_origin] == 0.0):
        raise GridError("nonintegrable_weight",
                        f"|x|^{w_exp} not integrable at x = 0 in {d}D")
    if np.any(at_origin):
        vols = np.full(int(at_origin.sum()), vol)
        leaf[at_origin] = (_ball_equiv_weight(vols, w_exp) if z0 is None
                           else _disk_weight(z[at_origin], vols, w_exp))
    if steps:  # d + w > 0 here: a self-similar set touches the origin
        rho = 2.0 ** -(d + w_exp)
        out += part * (rho * (1.0 - rho ** steps) / (1.0 - rho))
        leaf *= rho ** steps
    return out + np.bincount(owner, leaf, n)


def _tensor_norm(coords: list[np.ndarray]) -> np.ndarray:
    """|x| on the tensor grid of per-axis `coords`, summed (x^2 + y^2) + z^2
    as `np.linalg.norm(..., axis=-1)` sums, so bit-identical to it."""
    x2, y2, z2 = (c * c for c in coords)
    return np.sqrt((x2[:, None, None] + y2[None, :, None]) + z2)


def _box_coords(grid: BoxGrid, axis: int | None = None) -> list[np.ndarray]:
    """Per-axis cell centres; with `axis`, of the interior faces normal to it."""
    coords = [grid.axis_centers(i) for i in range(3)]
    if axis is not None:
        coords[axis] = 0.5 * (coords[axis][:-1] + coords[axis][1:])
    return coords


def _box_volume_weights(grid: BoxGrid, w_exp: float,
                        coords: list[np.ndarray]) -> np.ndarray:
    """Integral of |x|^{w} over the cell-sized box around each point of the
    tensor grid of `coords`: centroid rule, with the boxes near the origin
    refined level by level in one `_refined_weights` call."""
    h = np.array(grid.h)
    dist = _tensor_norm(coords)
    w = np.where(dist > 0, dist, 1.0) ** w_exp * grid.cell_volume
    if w_exp != 0.0:
        near = dist <= _ORIGIN_REFINE_FACTOR * float(np.linalg.norm(h))
        c = np.stack([x[i] for x, i in zip(coords, np.nonzero(near))], axis=1)
        w[near] = _refined_weights(c, h, w_exp)
    return w


@_per_grid
def box_face_dual_weights(grid: BoxGrid, w_exp: float, axis: int) -> np.ndarray:
    """Weight integral over the h^3 dual box of each interior face along axis."""
    return _box_volume_weights(grid, w_exp, _box_coords(grid, axis))


@_per_grid
def box_face_area_weights(grid: BoxGrid, w_exp: float, axis: int) -> np.ndarray:
    """2D weight integral over the first and the last layer of interior
    faces orthogonal to `axis` (2 long along it), the boundary caps of
    `dirichlet_energy`; no other face area is read."""
    h = np.array(grid.h)
    coords = _box_coords(grid, axis)
    coords[axis] = coords[axis][[0, -1]]
    dist = _tensor_norm(coords)
    tang = [i for i in range(3) if i != axis]
    area = h[tang[0]] * h[tang[1]]
    w = np.where(dist > 0, dist, 1.0) ** w_exp * area
    if w_exp != 0.0:
        diag = float(np.linalg.norm(h[tang])) * 2.0
        near = dist <= _ORIGIN_REFINE_FACTOR * diag
        c = np.stack([x[i] for x, i in zip(coords, np.nonzero(near))], axis=1)
        w[near] = _refined_weights(c[:, tang], h[tang], w_exp,
                                   np.abs(c[:, axis]))
    return w


@_per_grid
def _ball_coverage_fractions(grid: BoxGrid, ball: BallSpec) -> np.ndarray:
    """Per-cell fraction of the cell inside the ball (4^3 subsample on the rim).

    The subsample is a tensor grid, so its offsets from the ball's centre
    are formed per axis and only their squares are broadcast to the
    (rows, 4, 4, 4) points, summed in x, y, z order, `_RIM_BLOCK` rim
    cells at a time; each row's mean is its own, so the blocks do not
    change a bit.  Memoised per ball, read-only: the Campanato and
    gradient profiles use the same balls.
    """
    h = np.array(grid.h)
    half_diag = 0.5 * float(np.linalg.norm(h))
    d = grid.distance_to(ball.center)
    frac = np.zeros(grid.n_nodes)
    frac[d <= ball.radius - half_diag] = 1.0
    rim = np.nonzero((d > ball.radius - half_diag) & (d < ball.radius + half_diag))[0]
    offs = (np.arange(4) + 0.5) / 4 - 0.5
    for s in range(0, len(rim), _RIM_BLOCK):
        rows = rim[s:s + _RIM_BLOCK]
        centers = grid.cell_centers(rows)
        sq = [((centers[:, k, None] + offs * h[k]) - ball.center[k]) ** 2
              for k in range(3)]
        r2 = (sq[0][:, :, None, None] + sq[1][:, None, :, None]
              + sq[2][:, None, None, :])
        frac[rows] = (np.sqrt(r2) <= ball.radius).reshape(len(rows), -1).mean(axis=1)
    return frac


# ---------------------------------------------------------------------------
# reductions over either grid

def cell_weights(grid, N: int, w_exp: float) -> np.ndarray:
    """Integral of |x|^{w} over each cell, memoised (`grid.cell_weights`)."""
    return grid.cell_weights(N, w_exp)


def ball_cell_weights(grid, N: int, w_exp: float, ball: BallSpec) -> np.ndarray:
    """Cell weight integrals clipped to the ball (`grid.ball_cell_weights`)."""
    return grid.ball_cell_weights(N, w_exp, ball)


def lq_norm(params: WeightParams, field: DiscreteField, q: float,
            w_exp: float | None = None) -> float:
    """(integral of |field|^q |x|^{-bp})^{1/q}; override w_exp to reweight."""
    if q < 1:
        raise GridError("invalid_exponent", f"need q >= 1, got {q}")
    w = cell_weights(field.grid, params.N, -params.bp if w_exp is None else w_exp)
    return float(np.abs(field.values) ** q @ w) ** (1.0 / q)


def oscillation(field: DiscreteField, ball: BallSpec) -> float:
    """max - min of nodal values over nodes inside the ball."""
    inside = field.grid.distance_to(ball.center) <= ball.radius
    if not np.any(inside):
        raise GridError("empty_ball", "no grid nodes inside the ball")
    vals = field.values[inside]
    return float(vals.max() - vals.min())


def dirichlet_energy(params: WeightParams, field: DiscreteField,
                     ball: BallSpec | None = None) -> float:
    """Integral of |grad u_h|^2 |x|^{-2a}, face-based gradients; with
    `ball`, over the part of the dual tiling inside it (`grid.dirichlet_energy`)."""
    return field.grid.dirichlet_energy(params, field.values, ball)
