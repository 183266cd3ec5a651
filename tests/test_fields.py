import gc
import hashlib
import itertools
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from cknlab import fields
from cknlab.errors import GridError
from cknlab.fields import (BoxGrid, DiscreteField, RadialGrid,
                           _ball_coverage_fractions, _refined_weights,
                           ball_cell_weights, box_face_area_weights,
                           box_face_dual_weights, cell_weights, dirichlet_energy,
                           lq_norm, oscillation, radial_face_dual_weights)
from cknlab.measure import BallSpec, ball_measure, centered_weight_integral, weighted_mean
from cknlab.params import INF, validate
from cknlab.solver import raw_stiffness

P300 = validate(3, 0.0, 0.0, INF)
P303 = validate(3, 0.3, 0.3, INF)
P304 = validate(3, 0.4, 0.5, INF)


def radial_ones(n=256, r_max=1.0, r_min=0.0):
    grid = RadialGrid(r_min, r_max, n)
    return DiscreteField.from_function(grid, lambda r: np.ones_like(r))


@pytest.mark.parametrize("r_min,r_max", [(0.0, math.inf), (math.inf, math.inf),
                                         (math.nan, 1.0), (0.0, math.nan),
                                         (-1.0, 1.0), (1.0, 1.0)])
def test_radial_grid_rejects_a_bad_extent(r_min, r_max):
    """An extent outside 0 <= r_min < r_max < inf is rejected where the
    grid is built; r_max = inf used to reach the solver as a division by
    zero."""
    with pytest.raises(GridError) as exc:
        RadialGrid(r_min, r_max, 8)
    assert exc.value.code == "invalid_radial_extent"


def test_weighted_integral_ones_matches_measure():
    f = radial_ones(128)
    got = f.values @ cell_weights(f.grid, 3, -2 * 0.3)
    want = ball_measure(P303, BallSpec((0.0, 0.0, 0.0), 1.0))
    assert got == pytest.approx(want, rel=1e-12)  # telescoping antiderivative


def test_weighted_integral_zero_field():
    f = radial_ones(64).with_values(np.zeros(64))
    assert f.values @ cell_weights(f.grid, 3, -0.6) == 0.0


def test_weighted_integral_cancelling_weights():
    grid = RadialGrid(0.0, 1.0, 2000)
    f = DiscreteField.from_function(grid, lambda r: r ** 0.6)
    got = f.values @ cell_weights(f.grid, 3, -0.6)
    assert got == pytest.approx(4 * math.pi / 3, rel=1e-5)


def test_weighted_integral_linear_in_field():
    grid = RadialGrid(0.0, 1.0, 100)
    u = DiscreteField.from_function(grid, lambda r: np.sin(r))
    v = DiscreteField.from_function(grid, lambda r: np.cos(r))
    iu = u.values @ cell_weights(u.grid, 3, -0.6)
    iv = v.values @ cell_weights(v.grid, 3, -0.6)
    w = u.with_values(2.0 * u.values - 3.0 * v.values)
    iw = w.values @ cell_weights(w.grid, 3, -0.6)
    assert iw == pytest.approx(2 * iu - 3 * iv, rel=1e-12)


def test_refinement_convergence_second_order():
    a = 0.3
    exact = quad(lambda t: 4 * math.pi * math.cos(t) * t ** (2 - 2 * a), 0, 1,
                 epsabs=1e-14, epsrel=1e-13)[0]
    errs = []
    for n in (64, 128, 256):
        grid = RadialGrid(0.0, 1.0, n)
        f = DiscreteField.from_function(grid, np.cos)
        errs.append(abs(f.values @ cell_weights(f.grid, 3, -0.6) - exact))
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.3 <= e1 / e2 <= 4.7


def test_box_integral_volume_and_weighted():
    grid = BoxGrid((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5), (24, 24, 24))
    ones = DiscreteField.from_function(grid, lambda p: np.ones(len(p)))
    volume = ones.values @ cell_weights(grid, 3, 0.0)
    assert volume == pytest.approx(1.0, rel=1e-12)
    # integral of |x|^{-1} over the unit cube, Monte-Carlo oracle
    got = ones.values @ cell_weights(grid, 3, -1.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, size=(2_000_000, 3))
    mc = np.mean(1.0 / np.linalg.norm(pts, axis=1))
    assert got == pytest.approx(mc, rel=5e-3)


def test_box_ball_restricted_integral():
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (40, 40, 40))
    ones = DiscreteField.from_function(grid, lambda p: np.ones(len(p)))
    ball = BallSpec((0.2, -0.1, 0.3), 0.6)
    got = float(ones.values @ ball_cell_weights(grid, 3, 0.0, ball))
    assert got == pytest.approx(4 * math.pi / 3 * 0.6 ** 3, rel=2e-3)


def test_dirichlet_energy_constant_zero():
    f = radial_ones(64).with_values(np.full(64, 3.7))
    assert dirichlet_energy(P303, f) == 0.0


def test_dirichlet_energy_linear_box():
    grid = BoxGrid((0.5, 0.5, 0.5), (1.5, 1.25, 1.75), (12, 10, 14))
    f = DiscreteField.from_function(grid, lambda p: p[:, 0])
    vol = 1.0 * 0.75 * 1.25
    assert dirichlet_energy(P300, f) == pytest.approx(vol, rel=1e-12)


def test_dirichlet_energy_radial_annulus():
    # u = r on [0.5, 1], a = 0.4: energy = 4 pi int t^{2-0.8} dt
    grid = RadialGrid(0.5, 1.0, 400)
    f = DiscreteField.from_function(grid, lambda r: r)
    want = 4 * math.pi * (1 - 0.5 ** 2.2) / 2.2
    assert dirichlet_energy(P304, f) == pytest.approx(want, rel=1e-6)


def test_lq_norm_cross_checked_and_homogeneous():
    grid = RadialGrid(0.0, 1.0, 256)
    ones = DiscreteField.from_function(grid, lambda r: np.ones_like(r))
    got = lq_norm(P304, ones, 3.0)
    want = centered_weight_integral(3, -P304.bp, 1.0) ** (1 / 3.0)
    assert got == pytest.approx(want, rel=1e-12)
    u = DiscreteField.from_function(grid, lambda r: np.sin(3 * r))
    assert lq_norm(P304, u.with_values(-2.5 * u.values), 3.0) == pytest.approx(
        2.5 * lq_norm(P304, u, 3.0), rel=1e-12)
    # q = 2, a = b = 0 reduces to the plain L2 norm
    exact = math.sqrt(quad(lambda t: 4 * math.pi * math.sin(3 * t) ** 2 * t * t, 0, 1)[0])
    assert lq_norm(P300, u, 2.0) == pytest.approx(exact, rel=1e-4)


def test_oscillation_examples():
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (32, 32, 32))
    const = DiscreteField.from_function(grid, lambda p: np.full(len(p), 2.0))
    assert oscillation(const, BallSpec((0, 0, 0), 0.5)) == 0.0
    lin = DiscreteField.from_function(grid, lambda p: p[:, 0])
    r = 0.5
    osc = oscillation(lin, BallSpec((0, 0, 0), r))
    assert abs(osc - 2 * r) <= 2 * 2.0 / 32  # within one cell width
    # radial annulus ball avoiding zero: u = 1/r, osc = endpoint difference
    rg = RadialGrid(0.2, 2.0, 900)
    inv = DiscreteField.from_function(rg, lambda r: 1.0 / r)
    got = oscillation(inv, BallSpec((1.0,), 0.4))
    assert got == pytest.approx(1 / 0.6 - 1 / 1.4, abs=2e-2)


def test_oscillation_empty_ball():
    rg = RadialGrid(0.2, 2.0, 10)
    inv = DiscreteField.from_function(rg, lambda r: 1.0 / r)
    with pytest.raises(GridError) as exc:
        oscillation(inv, BallSpec((5.0,), 0.01))
    assert exc.value.code == "empty_ball"


def test_weighted_mean_examples():
    grid = RadialGrid(0.0, 1.0, 512)
    const = DiscreteField.from_function(grid, lambda r: np.full_like(r, 4.2))
    w = ball_cell_weights(grid, 3, -0.6, BallSpec((0.0,), 0.7))
    assert weighted_mean(const.values, w) == pytest.approx(4.2, rel=1e-13)
    sq = DiscreteField.from_function(grid, lambda r: r ** 2)
    w = ball_cell_weights(grid, 3, 0.0, BallSpec((0.0,), 1.0))
    assert weighted_mean(sq.values, w) == pytest.approx(0.6, rel=1e-4)
    # odd function against the radial weight on a centered box ball
    bg = BoxGrid((-1, -1, -1), (1, 1, 1), (32, 32, 32))
    lin = DiscreteField.from_function(bg, lambda p: p[:, 0])
    w = ball_cell_weights(bg, 3, -0.6, BallSpec((0, 0, 0), 0.8))
    assert abs(weighted_mean(lin.values, w)) <= 1e-10
    # a ball that misses the grid has no mean
    w = ball_cell_weights(bg, 3, -0.6, BallSpec((5.0, 0.0, 0.0), 0.5))
    with pytest.raises(GridError) as exc:
        weighted_mean(lin.values, w)
    assert exc.value.code == "ball_outside_domain"


GRIDS = [RadialGrid(0.1, 2.0, 40),
         BoxGrid((-1.0, -0.5, 0.0), (1.0, 1.5, 1.0), (6, 7, 5))]


def test_field_values_from_a_reversed_view_are_contiguous():
    """A field stores C-contiguous values, so BLAS sums a field built from
    a reversed view in the same order as one built from a copy."""
    grid = RadialGrid(0.0, 1.0, 512)
    rng = np.random.default_rng(1)
    for _ in range(20):
        v, w = rng.standard_normal(512), rng.random(512)
        view = DiscreteField(grid=grid, values=v[::-1])
        copy = DiscreteField(grid=grid, values=v[::-1].copy())
        assert view.values.flags.c_contiguous
        assert weighted_mean(view.values, w) == weighted_mean(copy.values, w)


@pytest.mark.parametrize("grid", GRIDS, ids=["radial", "box"])
def test_distance_to_matches_brute_force(grid):
    coords = grid.node_coords()
    for center in ((0.0, 0.0, 0.0), (0.3, -0.4, 1.2)):
        if isinstance(grid, RadialGrid):
            # a node stands for its sphere |x| = r; the sphere's nearest point
            # to `center` lies on the ray through it
            c = np.asarray(center)
            want = [np.linalg.norm(r * c / np.linalg.norm(c) - c) if c.any()
                    else r for r in coords[:, 0]]
        else:
            want = [np.linalg.norm(x - np.asarray(center)) for x in coords]
        assert np.allclose(grid.distance_to(center), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("grid", GRIDS, ids=["radial", "box"])
def test_interior_mask_keeps_nodes_margin_from_edge(grid):
    coords = grid.node_coords()
    if isinstance(grid, RadialGrid):
        lo, hi = np.array([grid.r_min]), np.array([grid.r_max])
    else:
        lo, hi = np.array(grid.lower), np.array(grid.upper)
    for margin in (0.0, 0.2, 0.45):
        want = [bool(np.all(x - lo >= margin) and np.all(hi - x >= margin))
                for x in coords]
        assert grid.interior_mask(margin).tolist() == want


@pytest.mark.parametrize("grid", GRIDS, ids=["radial", "box"])
def test_boundary_layer_is_the_nodes_missing_a_face_neighbour(grid):
    shape = (grid.n_cells,) if isinstance(grid, RadialGrid) else grid.shape
    idx = np.indices(shape).reshape(len(shape), -1)
    last = np.array(shape)[:, None] - 1
    neighbours = np.sum((idx > 0).astype(int) + (idx < last), axis=0)
    assert np.array_equal(grid.boundary_layer(), neighbours < 2 * len(shape))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_box_boundary_layer_is_the_outer_shell(m):
    grid = BoxGrid((0.0,) * 3, (1.0,) * 3, (m,) * 3)
    layer = grid.boundary_layer()
    assert layer.shape == (m ** 3,)
    assert layer.sum() == m ** 3 - (m - 2) ** 3
    idx = np.argwhere(layer.reshape(m, m, m))
    assert all((0 in i) or (m - 1 in i) for i in idx.tolist())


# ---------------------------------------------------------------------------
# singular box quadrature


def cube(m):
    return BoxGrid((-1.0,) * 3, (1.0,) * 3, (m,) * 3)


def full_face_area_weights(grid, w_exp, axis):
    """2D weight integral over every interior face orthogonal to `axis`:
    the table `box_face_area_weights` built before it kept only its two
    end layers, kept as their reference and for the quadrature checks."""
    h = np.array(grid.h)
    coords = fields._box_coords(grid, axis)
    dist = fields._tensor_norm(coords)
    tang = [i for i in range(3) if i != axis]
    area = h[tang[0]] * h[tang[1]]
    w = np.where(dist > 0, dist, 1.0) ** w_exp * area
    if w_exp != 0.0:
        diag = float(np.linalg.norm(h[tang])) * 2.0
        near = dist <= fields._ORIGIN_REFINE_FACTOR * diag
        c = np.stack([x[i] for x, i in zip(coords, np.nonzero(near))], axis=1)
        w[near] = _refined_weights(c[:, tang], h[tang], w_exp,
                                   np.abs(c[:, axis]))
    return w


def box_tables(grid, w_exp, areas=True):
    """Cell, face-dual and (with `areas`) full face-area tables, each as
    an (nx, ny, nz) array (the cell table reshaped, the face tables one
    shorter along their axis)."""
    out = {"cell": np.asarray(grid.cell_weights(3, w_exp)).reshape(grid.shape)}
    for axis in range(3):
        out[f"dual{axis}"] = np.asarray(box_face_dual_weights(grid, w_exp, axis))
        if areas:
            out[f"area{axis}"] = full_face_area_weights(grid, w_exp, axis)
    return out


# values of the depth-first recursion the level-by-level refinement replaced,
# on [-1, 1]^3: (m, w) -> (each origin cell, cell total, face-dual total per
# axis, face-area total per axis or None where the face plane x_axis = 0
# holds a non-integrable singularity)
RECURSION_VALUES = {
    (16, -0.6): (0.007388512808763148, 8.688671445291057, 8.248882244309925,
                 66.01711551409448),
    (16, -15 / 7): (0.36379955907779127, 17.32095945053186, 16.996539650555,
                    None),
    (17, -0.6): (0.009682456956908518, 8.688479229655218, 8.27488065301048,
                 70.33618459669053),
    (17, -15 / 7): (1.5253150988948339, 17.323992703814223, 17.019222892279412,
                    136.71798861359537),
}


@pytest.mark.parametrize("m, w_exp", list(RECURSION_VALUES))
def test_box_tables_match_the_recursion(m, w_exp):
    origin, cell_total, dual_total, area_total = RECURSION_VALUES[(m, w_exp)]
    grid = cube(m)
    cells = np.asarray(grid.cell_weights(3, w_exp)).reshape(grid.shape)
    at_origin = cells[7:9, 7:9, 7:9] if m == 16 else cells[8, 8, 8]
    assert np.allclose(at_origin, origin, rtol=1e-12, atol=0)
    assert cells.sum() == pytest.approx(cell_total, rel=1e-12)
    for axis in range(3):
        dual = box_face_dual_weights(grid, w_exp, axis)
        assert dual.sum() == pytest.approx(dual_total, rel=1e-12)
        if area_total is not None:
            area = full_face_area_weights(grid, w_exp, axis)
            assert area.sum() == pytest.approx(area_total, rel=1e-12)


@pytest.mark.parametrize("m, w_exp", [(16, -0.6), (17, -0.6), (17, -15 / 7)])
def test_box_tables_share_the_cube_symmetries(m, w_exp):
    t = box_tables(cube(m), w_exp)
    for key, table in t.items():
        for axis in range(3):
            assert np.allclose(np.flip(table, axis=axis), table, rtol=1e-14,
                               atol=0), (key, axis)
    cell = t["cell"]
    for perm in itertools.permutations(range(3)):
        assert np.allclose(cell.transpose(perm), cell, rtol=1e-14, atol=0)
        # the face table of axis k, with its axes permuted so that axis k
        # lands where axis perm[k] was, is the face table of axis perm[k]
        for kind in ("dual", "area"):
            for k in range(3):
                moved = t[f"{kind}{k}"].transpose(np.argsort(perm))
                assert np.allclose(moved, t[f"{kind}{perm[k]}"], rtol=1e-14,
                                   atol=0), (kind, k, perm)


@pytest.mark.parametrize("w_exp", [-0.6, -15 / 7])
def test_box_tables_are_homogeneous(w_exp):
    lam = 2.0
    grid = BoxGrid((-0.7, -0.9, -0.55), (1.3, 1.1, 1.45), (9, 8, 10))
    scaled = BoxGrid(tuple(lam * v for v in grid.lower),
                     tuple(lam * v for v in grid.upper), grid.shape)
    t, ts = box_tables(grid, w_exp), box_tables(scaled, w_exp)
    for key in t:
        deg = (2.0 if key.startswith("area") else 3.0) + w_exp
        assert np.allclose(ts[key], lam ** deg * t[key], rtol=1e-13, atol=0), key


def test_box_tables_at_zero_exponent_are_exact_measures():
    grid = BoxGrid((-0.7, -0.9, -0.55), (1.3, 1.1, 1.45), (9, 8, 10))
    t = box_tables(grid, 0.0)
    h = grid.h
    assert np.all(t["cell"] == grid.cell_volume)
    for axis in range(3):
        hs = [h[i] for i in range(3) if i != axis]
        assert np.all(t[f"dual{axis}"] == grid.cell_volume)
        assert np.all(t[f"area{axis}"] == hs[0] * hs[1])


def refined_by_corners(lo, hi, w_exp, z0=None):
    """The octree with every sub-box carried as its own corner pair, run
    through all levels: the form that `_refined_weights` replaced."""
    n, d = lo.shape
    z = np.zeros(n) if z0 is None else z0
    owner = np.arange(n)
    out = np.zeros(n)
    bits = np.array(list(itertools.product((False, True), repeat=d)))[:, None, :]
    for depth in range(fields._MAX_REFINE_DEPTH + 1):
        if depth:
            lo, hi = (np.where(bits, mid, lo).reshape(-1, d),
                      np.where(bits, hi, mid).reshape(-1, d))
            owner, z = np.tile(owner, 2 ** d), np.tile(z, 2 ** d)
        mid = 0.5 * (lo + hi)
        vol = np.prod(hi - lo, axis=1)
        diag = np.sqrt(np.sum((hi - lo) ** 2, axis=1))
        dist = np.sqrt(z * z + np.sum(mid * mid, axis=1))
        far = dist > fields._ORIGIN_REFINE_FACTOR * diag
        out += np.bincount(owner[far], dist[far] ** w_exp * vol[far], n)
        near = ~far
        lo, hi, mid, owner, z = lo[near], hi[near], mid[near], owner[near], z[near]
    vol, diag, dist = vol[near], diag[near], dist[near]
    leaf = np.maximum(dist, 0.25 * diag) ** w_exp * vol
    at_origin = np.all(lo <= 0.0, axis=1) & np.all(hi >= 0.0, axis=1)
    if np.any(at_origin):
        leaf[at_origin] = (fields._ball_equiv_weight(vol[at_origin], w_exp)
                           if z0 is None else
                           fields._disk_weight(z[at_origin], vol[at_origin], w_exp))
    return out + np.bincount(owner, leaf, n)


@pytest.mark.parametrize("w_exp", [-0.6, -15 / 7])
@pytest.mark.parametrize("grid", [cube(16), cube(17), cube(32),
                                  BoxGrid((-0.7, -0.9, -0.55), (1.3, 1.1, 1.45),
                                          (9, 8, 10))],
                         ids=["cube16", "cube17", "cube32", "9x8x10"])
def test_octree_levels_match_the_corner_pairs(grid, w_exp):
    """Centres at one size per level give the corner pairs' integrals:
    bit for bit where every corner is dyadic, else to round-off.  On the
    dyadic grids the self-similar tail replaces the levels past the
    repeating one by a geometric series wherever the origin is in reach
    (the cells, and the face plane through it): there the sums differ by
    round-off, at most 9.1e-16 relative over w in {-0.5, -0.6, -1.9, 0.7,
    -15/7} on cube16 and cube32, so 2e-15."""
    h = np.array(grid.h)
    exact = grid.shape[0] in (16, 32)

    def check(got, want, tail=True):
        if exact and not tail:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=2e-15 if exact else 1e-13,
                               atol=0)

    c = grid.node_coords()
    c = c[np.linalg.norm(c, axis=1)
          <= fields._ORIGIN_REFINE_FACTOR * np.linalg.norm(h)]
    lo = c - 0.5 * h
    check(_refined_weights(c, h, w_exp), refined_by_corners(lo, lo + h, w_exp))
    # face patches orthogonal to axis 0, in planes at distance |x_0|
    ys, zs = np.meshgrid(grid.axis_centers(1), grid.axis_centers(2),
                         indexing="ij")
    f = np.stack([ys.ravel(), zs.ravel()], axis=1)
    xs = grid.axis_centers(0)
    for x0 in np.abs(0.5 * (xs[:-1] + xs[1:])):
        if w_exp <= -2.0 and x0 == 0.0:
            continue  # not integrable in that plane
        near = f[np.sqrt(x0 * x0 + np.sum(f * f, axis=1))
                 <= 2 * fields._ORIGIN_REFINE_FACTOR * np.linalg.norm(h[1:])]
        z0 = np.full(len(near), x0)
        lo = near - 0.5 * h[1:]
        check(_refined_weights(near, h[1:], w_exp, z0),
              refined_by_corners(lo, lo + h[1:], w_exp, z0), x0 == 0.0)


@pytest.mark.parametrize("w_exp", [-0.6, -15 / 7, 0.7])
def test_box_tables_scale_with_the_grid(w_exp):
    """cube32's middle half is cube16 halved, cell for cell and face for
    face, so its weight integrals are cube16's times 2^{-(3+w)} (face
    patches 2^{-(2+w)}).  The octree halves their sub-boxes exactly, so
    the tables differ by the round-off of the tail's series and of the
    centroid powers alone: at most 9.0e-16 relative at these exponents
    (1.13e-15 at w = -1.9), so 2e-15."""
    areas = w_exp > -2.0  # else the face plane x_k = 0 is not integrable
    t16 = box_tables(cube(16), w_exp, areas)
    t32 = box_tables(cube(32), w_exp, areas)
    for key, table in t16.items():
        deg = (2.0 if key.startswith("area") else 3.0) + w_exp
        middle = tuple(slice(8, 8 + n) for n in table.shape)
        assert np.allclose(t32[key][middle], 2.0 ** -deg * table,
                           rtol=2e-15, atol=0), key


@pytest.mark.parametrize("grid", [cube(16), cube(17), BoxGrid(
    (-0.7, -0.9, -0.55), (1.3, 1.1, 1.45), (9, 8, 10))],
    ids=["cube16", "cube17", "9x8x10"])
def test_separable_distances_equal_the_norm_of_the_points(grid):
    """|x - c| formed per axis, (x^2 + y^2) + z^2, is `np.linalg.norm` of
    the points, bit for bit: node distances and face-centre distances."""
    for c in ((0.0, 0.0, 0.0), (0.3, -0.4, 1.2), (0.2, 0.1, 0.0)):
        want = np.linalg.norm(grid.node_coords() - np.array(c), axis=1)
        assert np.array_equal(grid.distance_to(c), want)
    for axis in (None, 0, 1, 2):
        coords = fields._box_coords(grid, axis)
        pts = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
        assert np.array_equal(fields._tensor_norm(coords),
                              np.linalg.norm(pts, axis=-1))


# sha256 (first 32 hex digits) of the float64 bytes of every table the box
# study reads, |x|^{-bp} cells and |x|^{-2a} cells and faces at (3, 0.3, 0.5),
# on grids where no sub-box centre repeats exactly halved, so that no
# refinement takes the self-similar tail: they must not move by a bit
FROZEN_BOX_TABLES = {
    "cube20": {"cell@-bp": "910719cec080b3ae16a0bed24385f545",
               "cell": "d78346bb3325c859ccd81f6c7cb13af1",
               "dual0": "d818ef38f035b77fb719deac7d9e9bb5",
               "dual1": "bdbd203dd8cc19e02d5272daaf2415a6",
               "dual2": "efc2c11260755efd1face833f3bd576b",
               "area0": "9210b7021ce91e57759ed23539164201",
               "area1": "413522c644ae2f6e786ec7385b6a0be2",
               "area2": "161bf48d378a94e8bd7a1b8b9578ce8a"},
    "9x8x10": {"cell@-bp": "f1f084196690ccede2663a8c2a0562f7",
               "cell": "25f8acca2f0d7783206efc6dc16b5483",
               "dual0": "f13c212900cfafb267b096786d247a12",
               "dual1": "ffe3eb6de4aff95c39b263dd8c23b38e",
               "dual2": "c34dc7932aca35ffad4871669062ce36",
               "area0": "94c82293dc4a81dde2fc10b56ff4fc02",
               "area1": "14dfff0aac7edc6509e4bcf89e28ad38",
               "area2": "64e7c8fecc977444846076a90e6e7904"},
}


@pytest.mark.parametrize("name", sorted(FROZEN_BOX_TABLES))
def test_box_tables_off_the_dyadic_lattice_are_frozen(name):
    grid = {"cube20": cube(20), "9x8x10": BoxGrid(
        (-0.7, -0.9, -0.55), (1.3, 1.1, 1.45), (9, 8, 10))}[name]
    p = validate(3, 0.3, 0.5, INF)
    tables = box_tables(grid, -2.0 * p.a)
    tables["cell@-bp"] = grid.cell_weights(3, -p.bp)
    for key, want in FROZEN_BOX_TABLES[name].items():
        table = np.asarray(tables[key]).astype("<f8")
        assert hashlib.sha256(table.tobytes()).hexdigest()[:32] == want, key


AREA_GRIDS = {f"cube{m}": (lambda m=m: cube(m)) for m in (5, 16, 17, 20, 32)}
AREA_GRIDS.update({
    "9x8x10": lambda: BoxGrid((-0.7, -0.9, -0.55), (1.3, 1.1, 1.45), (9, 8, 10)),
    "9x8x10x2": lambda: BoxGrid((-1.4, -1.8, -1.1), (2.6, 2.2, 2.9), (9, 8, 10)),
    "corner8": lambda: BoxGrid((0.0,) * 3, (1.0,) * 3, (8, 8, 8)),
    "end_at_origin": lambda: BoxGrid((-0.5, -1.0, -1.0), (1.5, 1.0, 1.0),
                                     (4, 16, 16)),
    "2x3x2": lambda: BoxGrid((-1.0,) * 3, (1.0,) * 3, (2, 3, 2))})


@pytest.mark.parametrize("name", sorted(AREA_GRIDS))
def test_end_layer_face_areas_equal_the_full_table(name):
    """`box_face_area_weights` is the full table's first and last layer,
    bit for bit, also where the origin lies in an end face plane or its
    edge (where the self-similar tail runs on fewer patches); exponents
    whose full table holds a non-integrable plane are skipped."""
    grid = AREA_GRIDS[name]()
    for w_exp, axis in itertools.product((-0.6, -1.9, -15 / 7, 0.7, 0.0),
                                         range(3)):
        try:
            full = full_face_area_weights(grid, w_exp, axis)
        except GridError:
            continue
        ends = full[(slice(None),) * axis + ([0, -1],)]
        assert np.array_equal(box_face_area_weights(grid, w_exp, axis),
                              ends), (w_exp, axis)


def test_box_tables_reject_nonintegrable_weights():
    """Also at w = -d exactly, where the self-similar tail's ratio
    2^{-(d+w)} is 1: the check comes before the series."""
    for m, w in itertools.product((4, 5, 16), (-3.5, -3.0)):
        grid = cube(m)
        tables = [lambda: grid.cell_weights(3, w),
                  lambda: box_face_dual_weights(grid, w, 0)]
        if m % 2 == 0:  # a face plane through the origin
            tables.append(lambda: full_face_area_weights(grid, w + 1.0, 0))
        for table in tables:
            with pytest.raises(GridError) as exc:
                table()
            assert exc.value.code == "nonintegrable_weight", (m, w)
    for d in (2, 3):
        with pytest.raises(GridError) as exc:
            _refined_weights(np.zeros((1, d)), np.ones(d), -float(d))
        assert exc.value.code == "nonintegrable_weight"
    # the end-layer areas read the plane x_0 = 0 when it is their first
    end_at_origin = BoxGrid((-0.5, -1.0, -1.0), (1.5, 1.0, 1.0), (4, 16, 16))
    with pytest.raises(GridError) as exc:
        box_face_area_weights(end_at_origin, -2.5, 0)
    assert exc.value.code == "nonintegrable_weight"
    # away from the origin the same exponents are integrable
    far = BoxGrid((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (4, 4, 4))
    assert np.all(np.isfinite(far.cell_weights(3, -3.5)))
    # a face plane that misses the origin keeps |x|^{-2.5} integrable
    assert np.all(np.isfinite(box_face_area_weights(cube(5), -2.5, 0)))


def test_radial_ball_weights_reject_nonintegrable_weights():
    grid = RadialGrid(0.0, 1.0, 8)
    with pytest.raises(GridError) as exc:
        ball_cell_weights(grid, 3, -3.5, BallSpec((0.0,), 0.5))
    assert exc.value.code == "nonintegrable_weight"
    annulus = RadialGrid(0.1, 1.0, 8)
    assert np.all(np.isfinite(ball_cell_weights(annulus, 3, -3.5,
                                                BallSpec((0.0,), 0.5))))


def _all_weight_tables(box: BoxGrid, radial: RadialGrid) -> list:
    tables = [box.cell_weights(3, -0.6), radial_face_dual_weights(radial, 3, -0.6),
              radial.cell_weights(3, -0.6), radial.centers,
              raw_stiffness(P303, box), raw_stiffness(P303, radial),
              _ball_coverage_fractions(box, BallSpec((0.1, 0.0, -0.2), 0.5))]
    for axis in range(3):
        tables += [box_face_dual_weights(box, -0.6, axis),
                   box_face_area_weights(box, -0.6, axis)]
    return tables


def test_weight_tables_die_with_their_grid():
    box = BoxGrid((-1.0,) * 3, (1.0,) * 3, (8,) * 3)
    radial = RadialGrid(0.0, 1.0, 64)
    _all_weight_tables(box, radial)
    refs = [weakref.ref(box), weakref.ref(radial)]
    del box, radial
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_weight_tables_are_built_once_per_grid():
    box = BoxGrid((-1.0,) * 3, (1.0,) * 3, (8,) * 3)
    radial = RadialGrid(0.0, 1.0, 64)
    first = _all_weight_tables(box, radial)
    again = _all_weight_tables(box, radial)
    assert all(a is b for a, b in zip(first, again))


def test_box_stiffness_is_read_only():
    A = raw_stiffness(P303, BoxGrid((-1.0,) * 3, (1.0,) * 3, (6,) * 3))
    assert A.T.shape == (3, len(A.D))
    for arr in (A.D, *A.T):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


# ---------------------------------------------------------------------------
# rim coverage


def coverage_by_points(grid: BoxGrid, ball: BallSpec) -> np.ndarray:
    """The coverage fractions formed from the (n_rim, 64, 3) subsample
    points themselves, the formula the per-axis kernel replaced."""
    centers = grid.node_coords()
    h = np.array(grid.h)
    half_diag = 0.5 * float(np.linalg.norm(h))
    d = grid.distance_to(ball.center)
    frac = np.zeros(len(centers))
    frac[d <= ball.radius - half_diag] = 1.0
    rim = np.nonzero((d > ball.radius - half_diag) & (d < ball.radius + half_diag))[0]
    offs = (np.arange(4) + 0.5) / 4 - 0.5
    ox, oy, oz = np.meshgrid(offs, offs, offs, indexing="ij")
    sub = np.stack([ox, oy, oz], axis=-1).reshape(-1, 3) * h
    pts = centers[rim][:, None, :] + sub[None, :, :]
    inside = np.linalg.norm(pts - np.array(ball.center), axis=2) <= ball.radius
    frac[rim] = inside.mean(axis=1)
    return frac


COVERAGE_BALLS = [BallSpec((0.0, 0.0, 0.0), 0.8),     # centred
                  BallSpec((0.0, 0.0, 0.0), 0.288),
                  BallSpec((0.2, 0.1, 0.0), 0.5),     # off-centre
                  BallSpec((0.33, -0.17, 0.41), 0.37),
                  BallSpec((0.9, -0.8, 0.7), 0.6),    # crossing the box edge
                  BallSpec((-1.0, 0.3, 0.2), 0.4)]


@pytest.mark.parametrize("block", [1, 7, fields._RIM_BLOCK, None])
def test_coverage_fractions_by_blocks_equal_the_whole_rim(block, monkeypatch):
    """Rim blocks of one row, an odd size, the default and every row at
    once give the pointwise formula's fractions bit for bit."""
    for make in (lambda: cube(32), lambda: BoxGrid(
            (-0.7, -0.9, -0.55), (1.3, 1.1, 1.45), (9, 8, 10))):
        grid = make()  # a fresh grid: the fractions are memoised on it
        monkeypatch.setattr(fields, "_RIM_BLOCK", block or grid.n_nodes)
        for ball in COVERAGE_BALLS:
            assert np.array_equal(_ball_coverage_fractions(grid, ball),
                                  coverage_by_points(grid, ball)), (block, ball)


@pytest.mark.parametrize("grid", [cube(32), BoxGrid((-0.7, -0.9, -0.55),
                                                    (1.3, 1.1, 1.45), (9, 8, 10))],
                         ids=["cube32", "9x8x10"])
def test_coverage_fractions_equal_the_pointwise_formula(grid):
    for ball in COVERAGE_BALLS:
        frac = _ball_coverage_fractions(grid, ball)
        assert np.array_equal(frac, coverage_by_points(grid, ball)), ball
        assert frac is _ball_coverage_fractions(grid, ball)
        assert not frac.flags.writeable
        assert 0.0 < frac.sum() and np.any((0.0 < frac) & (frac < 1.0)), ball
