"""Grids, discrete scalar fields, and weighted integral/energy reductions.

Two grid kinds: a 1D radial grid (any dimension N via the surface-area
factor) and a 3D tensor box grid.  Values live at cell centers.  Radial
cell and face weights use the exact antiderivative of t^{N-1+w}; box
weights use the cell-centroid value, except on cells near the coordinate
origin, where the weight may be singular: those are refined together, one
level of 2^d-way splits at a time, each level held as its sub-box centres
and the one size they share, until the near set repeats exactly halved;
the rest of the octree is then a geometric series, summed in closed form
(see `_refined_weights`).  Distances over a box grid are formed per axis.
Weight tables, the stiffness and each ball's rim coverage are memoised on
their grid (`_per_grid`), read-only, as are a grid's edges and centres.
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


# ---------------------------------------------------------------------------
# grids


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

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        h = self.h[axis]
        return self.lower[axis] + (np.arange(n) + 0.5) * h

    def node_coords(self) -> np.ndarray:
        """The (n, 3) cell centres, built on each call: the box code reads
        `axis_centers` and `cell_centers` instead."""
        return np.stack(np.meshgrid(*_box_coords(self), indexing="ij"),
                        axis=-1).reshape(-1, 3)

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


# ---------------------------------------------------------------------------
# fields


@dataclass
class DiscreteField:
    grid: RadialGrid | BoxGrid
    values: np.ndarray
    name: str = ""

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
    def from_function(cls, grid, fn, name: str = "") -> "DiscreteField":
        coords = grid.node_coords()
        vals = fn(coords[:, 0] if isinstance(grid, RadialGrid) else coords)
        return cls(grid=grid, values=np.broadcast_to(np.asarray(vals, float),
                                                    (grid.n_nodes,)).copy(), name=name)

    def with_values(self, values, name: str | None = None) -> "DiscreteField":
        return DiscreteField(grid=self.grid, values=np.array(values, dtype=float),
                             name=self.name if name is None else name)


# ---------------------------------------------------------------------------
# weight integrals over cells

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
def radial_cell_weights(grid: RadialGrid, N: int, w_exp: float) -> np.ndarray:
    """sigma_{N-1} * integral of t^{N-1+w} over each cell."""
    return _radial_shell_weights(N, w_exp, grid.edges[:-1], grid.edges[1:])


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
def box_cell_weights(grid: BoxGrid, w_exp: float) -> np.ndarray:
    return _box_volume_weights(grid, w_exp, _box_coords(grid)).reshape(-1)


def cell_weights(grid, N: int, w_exp: float) -> np.ndarray:
    if isinstance(grid, RadialGrid):
        return radial_cell_weights(grid, N, w_exp)
    if N != 3:
        raise GridError("unsupported_dimension", "box grids support N = 3 only")
    return box_cell_weights(grid, w_exp)


# ---------------------------------------------------------------------------
# ball-restricted cell weights

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


def ball_cell_weights(grid, N: int, w_exp: float, ball: BallSpec) -> np.ndarray:
    """Cell weight integrals clipped to the ball."""
    if isinstance(grid, RadialGrid):
        return _radial_shell_weights(N, w_exp, grid.edges[:-1], grid.edges[1:],
                                     ball)
    frac = _ball_coverage_fractions(grid, ball)
    return cell_weights(grid, N, w_exp) * frac


# ---------------------------------------------------------------------------
# whole-domain reductions

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


# ---------------------------------------------------------------------------
# gradients / Dirichlet energy

@_per_grid
def radial_face_dual_weights(grid: RadialGrid, N: int, w_exp: float) -> np.ndarray:
    """Weight integral over the dual interval of each interior face.

    The duals tile [r_min, r_max] exactly (see `_radial_duals`), so a
    piecewise-constant-gradient field has exactly reproduced energy.
    """
    lo, hi = _radial_duals(grid)
    return _radial_shell_weights(N, w_exp, lo, hi, floor=1e-300)


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


def dirichlet_energy(params: WeightParams, field: DiscreteField,
                     ball: BallSpec | None = None) -> float:
    """Integral of |grad u_h|^2 |x|^{-2a}, face-based gradients.

    With `ball` given, only the part of the dual tiling inside the ball is
    counted (radial grids clip exactly; box grids use coverage fractions).
    """
    w_exp = -2.0 * params.a
    grid = field.grid
    if isinstance(grid, RadialGrid):
        grads = np.diff(field.values) / np.diff(grid.centers)
        if ball is None:
            w = radial_face_dual_weights(grid, params.N, w_exp)
        else:
            w = _radial_shell_weights(params.N, w_exp, *_radial_duals(grid),
                                      ball, floor=1e-300)
        return float(grads ** 2 @ w)
    v = field.values.reshape(grid.shape)
    h = grid.h
    total = 0.0
    frac_cells = (None if ball is None
                  else _ball_coverage_fractions(grid, ball).reshape(grid.shape))
    for axis in range(3):
        grads = np.diff(v, axis=axis) / h[axis]
        w = np.asarray(box_face_dual_weights(grid, w_exp, axis))
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
            area_w = np.asarray(box_face_area_weights(grid, w_exp, axis))
            for end in (slice(0, 1), slice(-1, None)):
                cap = area_w[lead + (end,)] * 0.5 * h[axis]
                total += float(np.sum(grads[lead + (end,)] ** 2 * cap))
    return total

