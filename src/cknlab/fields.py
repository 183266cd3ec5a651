"""Grids, discrete scalar fields, and weighted integral/energy reductions.

Two grid kinds: a 1D radial grid (any dimension N via the surface-area
factor) and a 3D tensor box grid.  Values live at cell centers.  Radial
cell and face weights use the exact antiderivative of t^{N-1+w}; box
weights use the cell-centroid value, except on cells near the coordinate
origin, where the weight may be singular: those are refined together, one
level of 2^d-way splits at a time (see `_refined_weights`).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridError
from .measure import BallSpec, sphere_area
from .params import WeightParams

_ORIGIN_REFINE_FACTOR = 2.0  # refine cells closer to 0 than this many diagonals
_MAX_REFINE_DEPTH = 24


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class RadialGrid:
    r_min: float
    r_max: float
    n_cells: int
    spacing: str = "uniform"

    def __post_init__(self):
        if not 0.0 <= self.r_min < self.r_max:
            raise GridError("invalid_radial_extent",
                            f"need 0 <= r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.n_cells < 2:
            raise GridError("too_few_cells", f"need n_cells >= 2, got {self.n_cells}")
        if self.spacing not in ("uniform", "geometric"):
            raise GridError("invalid_spacing", f"unknown spacing {self.spacing!r}")
        if self.spacing == "geometric" and self.r_min <= 0.0:
            raise GridError("invalid_spacing", "geometric spacing requires r_min > 0")

    @property
    def kind(self) -> str:
        return "radial"

    @cached_property
    def edges(self) -> np.ndarray:
        if self.spacing == "uniform":
            e = np.linspace(self.r_min, self.r_max, self.n_cells + 1)
        else:
            e = np.geomspace(self.r_min, self.r_max, self.n_cells + 1)
        e.setflags(write=False)
        return e

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])

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
    def kind(self) -> str:
        return "box"

    @property
    def h(self) -> tuple[float, float, float]:
        return tuple((hi - lo) / n for lo, hi, n in
                     zip(self.lower, self.upper, self.shape))

    @property
    def n_nodes(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def cell_volume(self) -> float:
        hx, hy, hz = self.h
        return hx * hy * hz

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        h = self.h[axis]
        return self.lower[axis] + (np.arange(n) + 0.5) * h

    @cached_property
    def _node_coords(self) -> np.ndarray:
        xs, ys, zs = (self.axis_centers(i) for i in range(3))
        X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
        pts = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
        pts.setflags(write=False)
        return pts

    def node_coords(self) -> np.ndarray:
        return self._node_coords

    def distance_to(self, center) -> np.ndarray:
        """Euclidean distance of each node to the point `center`."""
        return np.linalg.norm(self.node_coords() - np.asarray(center, float),
                              axis=1)

    def interior_mask(self, margin: float) -> np.ndarray:
        """Nodes at least `margin` inside every face of the box."""
        lo = np.array(self.lower) + margin
        hi = np.array(self.upper) - margin
        coords = self.node_coords()
        return np.all((coords >= lo) & (coords <= hi), axis=1)

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
        v = np.asarray(self.values, dtype=float).reshape(-1)
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
        if isinstance(grid, RadialGrid):
            vals = fn(coords[:, 0])
        else:
            vals = fn(coords)
        return cls(grid=grid, values=np.broadcast_to(np.asarray(vals, float),
                                                    (grid.n_nodes,)).copy(), name=name)

    def with_values(self, values, name: str | None = None) -> "DiscreteField":
        return DiscreteField(grid=self.grid, values=np.array(values, dtype=float),
                             name=self.name if name is None else name)

    def ball_weighted_integral(self, params: WeightParams, ball: BallSpec,
                               w_exp: float, values=None, of_ones: bool = False) -> float:
        vals = np.ones(self.grid.n_nodes) if of_ones else (
            self.values if values is None else np.asarray(values, float).reshape(-1))
        w = ball_cell_weights(self.grid, params.N, w_exp, ball)
        return float(vals @ w)


# ---------------------------------------------------------------------------
# weight integrals over cells

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


def _refined_weights(lo: np.ndarray, hi: np.ndarray, w_exp: float,
                     z0: np.ndarray | None = None) -> np.ndarray:
    """Integral of |x|^{w} over each axis box [lo[i], hi[i]] (rows of shape
    (n, d)); with `z0`, the boxes are d = 2 patches in planes at distances
    z0[i] from the origin.

    All boxes are refined together, one level at a time: a sub-box farther
    from 0 than `_ORIGIN_REFINE_FACTOR` diagonals takes its centroid value,
    the others split into 2^d children.  A sub-box still near 0 after
    `_MAX_REFINE_DEPTH` levels takes the equal-volume ball (d = 3) or disk
    (d = 2) integral if its closed box holds the origin's projection, and
    max(dist, diag/4)^w * volume otherwise.
    """
    n, d = lo.shape
    z = np.zeros(n) if z0 is None else z0
    owner = np.arange(n)
    out = np.zeros(n)
    bits = np.array(list(itertools.product((False, True), repeat=d)))[:, None, :]
    for depth in range(_MAX_REFINE_DEPTH + 1):
        if depth:
            lo, hi = (np.where(bits, mid, lo).reshape(-1, d),
                      np.where(bits, hi, mid).reshape(-1, d))
            owner, z = np.tile(owner, 2 ** d), np.tile(z, 2 ** d)
        mid = 0.5 * (lo + hi)
        vol = np.prod(hi - lo, axis=1)
        diag = np.sqrt(np.sum((hi - lo) ** 2, axis=1))
        dist = np.sqrt(z * z + np.sum(mid * mid, axis=1))
        far = dist > _ORIGIN_REFINE_FACTOR * diag
        out += np.bincount(owner[far], dist[far] ** w_exp * vol[far], n)
        near = ~far
        lo, hi, mid, owner, z = lo[near], hi[near], mid[near], owner[near], z[near]
    vol, diag, dist = vol[near], diag[near], dist[near]
    leaf = np.maximum(dist, 0.25 * diag) ** w_exp * vol
    at_origin = np.all(lo <= 0.0, axis=1) & np.all(hi >= 0.0, axis=1)
    if w_exp <= -d and np.any(z[at_origin] == 0.0):
        raise GridError("nonintegrable_weight",
                        f"|x|^{w_exp} not integrable at x = 0 in {d}D")
    if np.any(at_origin):
        leaf[at_origin] = (_ball_equiv_weight(vol[at_origin], w_exp) if z0 is None
                           else _disk_weight(z[at_origin], vol[at_origin], w_exp))
    return out + np.bincount(owner, leaf, n)


def _box_volume_weights(grid: BoxGrid, w_exp: float,
                        centers: np.ndarray) -> np.ndarray:
    """Integral of |x|^{w} over the cell-sized box around each of `centers`
    (shape (..., 3)): centroid rule, with the boxes near the origin refined
    level by level in one `_refined_weights` call."""
    h = np.array(grid.h)
    dist = np.linalg.norm(centers, axis=-1)
    w = np.where(dist > 0, dist, 1.0) ** w_exp * grid.cell_volume
    if w_exp != 0.0:
        near = dist <= _ORIGIN_REFINE_FACTOR * float(np.linalg.norm(h))
        lo = centers[near] - 0.5 * h
        w[near] = _refined_weights(lo, lo + h, w_exp)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def box_cell_weights(grid: BoxGrid, w_exp: float) -> np.ndarray:
    return _box_volume_weights(grid, w_exp, grid.node_coords())


def cell_weights(grid, N: int, w_exp: float) -> np.ndarray:
    if isinstance(grid, RadialGrid):
        return radial_cell_weights(grid, N, w_exp)
    if N != 3:
        raise GridError("unsupported_dimension", "box grids support N = 3 only")
    return box_cell_weights(grid, w_exp)


# ---------------------------------------------------------------------------
# ball-restricted cell weights

def _ball_coverage_fractions(grid: BoxGrid, ball: BallSpec) -> np.ndarray:
    """Per-cell fraction of the cell inside the ball (4^3 subsample on the rim)."""
    centers = grid.node_coords()
    h = np.array(grid.h)
    half_diag = 0.5 * float(np.linalg.norm(h))
    d = grid.distance_to(ball.center)
    frac = np.zeros(len(centers))
    frac[d <= ball.radius - half_diag] = 1.0
    rim = np.nonzero((d > ball.radius - half_diag) & (d < ball.radius + half_diag))[0]
    if len(rim):
        m = 4
        offs = (np.arange(m) + 0.5) / m - 0.5
        ox, oy, oz = np.meshgrid(offs, offs, offs, indexing="ij")
        sub = np.stack([ox, oy, oz], axis=-1).reshape(-1, 3) * h
        pts = centers[rim][:, None, :] + sub[None, :, :]
        inside = np.linalg.norm(pts - np.array(ball.center), axis=2) <= ball.radius
        frac[rim] = inside.mean(axis=1)
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

def weighted_integral(params: WeightParams, field: DiscreteField, w_exp: float) -> float:
    """Integral of field * |x|^{w_exp} over the grid domain."""
    w = cell_weights(field.grid, params.N, w_exp)
    return float(field.values @ w)


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

@lru_cache(maxsize=None)
def radial_face_dual_weights(grid: RadialGrid, N: int, w_exp: float) -> np.ndarray:
    """Weight integral over the dual interval of each interior face.

    The duals tile [r_min, r_max] exactly (see `_radial_duals`), so a
    piecewise-constant-gradient field has exactly reproduced energy.
    """
    lo, hi = _radial_duals(grid)
    return _radial_shell_weights(N, w_exp, lo, hi, floor=1e-300)


def _face_centers(grid: BoxGrid, axis: int) -> np.ndarray:
    """Centers of the interior faces orthogonal to `axis`, shape (..., 3):
    like the cell array but with shape[axis]-1 along `axis`."""
    coords = [grid.axis_centers(i) for i in range(3)]
    coords[axis] = 0.5 * (coords[axis][:-1] + coords[axis][1:])
    return np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)


@lru_cache(maxsize=None)
def box_face_dual_weights(grid: BoxGrid, w_exp: float, axis: int) -> np.ndarray:
    """Weight integral over the h^3 dual box of each interior face along axis."""
    return _box_volume_weights(grid, w_exp, _face_centers(grid, axis))


@lru_cache(maxsize=None)
def box_face_area_weights(grid: BoxGrid, w_exp: float, axis: int) -> np.ndarray:
    """2D weight integral over each interior face orthogonal to `axis`."""
    h = np.array(grid.h)
    centers = _face_centers(grid, axis)
    dist = np.linalg.norm(centers, axis=-1)
    tang = [i for i in range(3) if i != axis]
    area = h[tang[0]] * h[tang[1]]
    w = np.where(dist > 0, dist, 1.0) ** w_exp * area
    if w_exp != 0.0:
        diag = float(np.linalg.norm(h[tang])) * 2.0
        near = dist <= _ORIGIN_REFINE_FACTOR * diag
        c = centers[near]
        half = 0.5 * h[tang]
        w[near] = _refined_weights(c[:, tang] - half, c[:, tang] + half, w_exp,
                                   np.abs(c[:, axis]))
    w.setflags(write=False)
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
    nx, ny, nz = grid.shape
    v = field.values.reshape(nx, ny, nz)
    h = grid.h
    total = 0.0
    frac_cells = None
    if ball is not None:
        frac_cells = _ball_coverage_fractions(grid, ball).reshape(nx, ny, nz)
    for axis in range(3):
        grads = np.diff(v, axis=axis) / h[axis]
        w = np.asarray(box_face_dual_weights(grid, w_exp, axis))
        if frac_cells is not None:
            # approximate the dual-box clipping by the mean coverage of the
            # two cells sharing the face
            sl_lo = [slice(None)] * 3
            sl_hi = [slice(None)] * 3
            sl_lo[axis] = slice(None, -1)
            sl_hi[axis] = slice(1, None)
            w = w * 0.5 * (frac_cells[tuple(sl_lo)] + frac_cells[tuple(sl_hi)])
        total += float(np.sum(grads ** 2 * w))
        if frac_cells is None:
            # boundary half-cells: reuse the adjacent interior gradient so a
            # linear field reproduces its exact energy
            sl_first = [slice(None)] * 3
            sl_last = [slice(None)] * 3
            sl_first[axis] = slice(0, 1)
            sl_last[axis] = slice(-1, None)
            area_w = np.asarray(box_face_area_weights(grid, w_exp, axis))
            cap_first = area_w[tuple(sl_first)] * 0.5 * h[axis]
            cap_last = area_w[tuple(sl_last)] * 0.5 * h[axis]
            total += float(np.sum(grads[tuple(sl_first)] ** 2 * cap_first))
            total += float(np.sum(grads[tuple(sl_last)] ** 2 * cap_last))
    return total


# ---------------------------------------------------------------------------
# serialization

def save_field(params: WeightParams, field: DiscreteField, path) -> None:
    grid = field.grid
    lines = [f"# grid={grid.kind} N={params.N} a={params.a!r} b={params.b!r}"]
    if isinstance(grid, RadialGrid):
        lines.append(f"# r_min={grid.r_min!r} r_max={grid.r_max!r} "
                     f"n_cells={grid.n_cells} spacing={grid.spacing}")
    else:
        lo = " ".join(repr(v) for v in grid.lower)
        hi = " ".join(repr(v) for v in grid.upper)
        sh = " ".join(str(v) for v in grid.shape)
        lines.append(f"# lower={lo} upper={hi} shape={sh}")
    coords = grid.node_coords()
    for row, val in zip(coords, field.values):
        cols = [f"{c:.17g}" for c in row] + [f"{val:.17g}"]
        lines.append(",".join(cols))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path) -> tuple[DiscreteField, dict]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    head = dict(kv.split("=", 1) for kv in lines[0][1:].split())
    meta_tokens = lines[1][1:].split()
    meta: dict = {}
    key = None
    for tok in meta_tokens:
        if "=" in tok:
            key, val = tok.split("=", 1)
            meta[key] = [val]
        else:
            meta[key].append(tok)
    meta = {k: v if len(v) > 1 else v[0] for k, v in meta.items()}
    values = np.array([float(ln.split(",")[-1]) for ln in lines[2:]])
    if head["grid"] == "radial":
        grid = RadialGrid(float(meta["r_min"]), float(meta["r_max"]),
                          int(meta["n_cells"]), meta["spacing"])
    else:
        grid = BoxGrid(tuple(float(v) for v in meta["lower"]),
                       tuple(float(v) for v in meta["upper"]),
                       tuple(int(v) for v in meta["shape"]))
    head.update({"a": float(head["a"]), "b": float(head["b"]), "N": int(head["N"])})
    return DiscreteField(grid=grid, values=values), head
