import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from cknlab.errors import GridError
from cknlab.fields import (BoxGrid, DiscreteField, RadialGrid, ball_cell_weights,
                           box_cell_weights, box_face_area_weights,
                           box_face_dual_weights, dirichlet_energy, load_field,
                           lq_norm, oscillation, save_field, weighted_integral)
from cknlab.measure import BallSpec, ball_measure, centered_weight_integral, weighted_mean
from cknlab.params import INF, validate

P300 = validate(3, 0.0, 0.0, INF)
P303 = validate(3, 0.3, 0.3, INF)
P304 = validate(3, 0.4, 0.5, INF)


def radial_ones(n=256, r_max=1.0, r_min=0.0):
    grid = RadialGrid(r_min, r_max, n)
    return DiscreteField.from_function(grid, lambda r: np.ones_like(r))


def test_weighted_integral_ones_matches_measure():
    f = radial_ones(128)
    got = weighted_integral(P303, f, -2 * 0.3)
    want = ball_measure(P303, BallSpec((0.0, 0.0, 0.0), 1.0)).value
    assert got == pytest.approx(want, rel=1e-12)  # telescoping antiderivative


def test_weighted_integral_zero_field():
    f = radial_ones(64).with_values(np.zeros(64))
    assert weighted_integral(P303, f, -0.6) == 0.0


def test_weighted_integral_cancelling_weights():
    grid = RadialGrid(0.0, 1.0, 2000)
    f = DiscreteField.from_function(grid, lambda r: r ** 0.6)
    got = weighted_integral(P303, f, -0.6)
    assert got == pytest.approx(4 * math.pi / 3, rel=1e-5)


def test_weighted_integral_linear_in_field():
    grid = RadialGrid(0.0, 1.0, 100)
    u = DiscreteField.from_function(grid, lambda r: np.sin(r))
    v = DiscreteField.from_function(grid, lambda r: np.cos(r))
    iu = weighted_integral(P303, u, -0.6)
    iv = weighted_integral(P303, v, -0.6)
    w = u.with_values(2.0 * u.values - 3.0 * v.values)
    assert weighted_integral(P303, w, -0.6) == pytest.approx(2 * iu - 3 * iv, rel=1e-12)


def test_refinement_convergence_second_order():
    a = 0.3
    exact = quad(lambda t: 4 * math.pi * math.cos(t) * t ** (2 - 2 * a), 0, 1,
                 epsabs=1e-14, epsrel=1e-13)[0]
    errs = []
    for n in (64, 128, 256):
        grid = RadialGrid(0.0, 1.0, n)
        f = DiscreteField.from_function(grid, np.cos)
        errs.append(abs(weighted_integral(P303, f, -0.6) - exact))
    for e1, e2 in zip(errs, errs[1:]):
        assert 3.3 <= e1 / e2 <= 4.7


def test_box_integral_volume_and_weighted():
    grid = BoxGrid((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5), (24, 24, 24))
    ones = DiscreteField.from_function(grid, lambda p: np.ones(len(p)))
    assert weighted_integral(P300, ones, 0.0) == pytest.approx(1.0, rel=1e-12)
    # integral of |x|^{-1} over the unit cube, Monte-Carlo oracle
    got = weighted_integral(P300, ones, -1.0)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, size=(2_000_000, 3))
    mc = np.mean(1.0 / np.linalg.norm(pts, axis=1))
    assert got == pytest.approx(mc, rel=5e-3)


def test_box_ball_restricted_integral():
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (40, 40, 40))
    ones = DiscreteField.from_function(grid, lambda p: np.ones(len(p)))
    ball = BallSpec((0.2, -0.1, 0.3), 0.6)
    got = ones.ball_weighted_integral(P300, ball, 0.0)
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
    assert weighted_mean(P303, const, BallSpec((0.0,), 0.7)) == pytest.approx(4.2, rel=1e-13)
    sq = DiscreteField.from_function(grid, lambda r: r ** 2)
    assert weighted_mean(P300, sq, BallSpec((0.0,), 1.0)) == pytest.approx(0.6, rel=1e-4)
    # odd function against the radial weight on a centered box ball
    bg = BoxGrid((-1, -1, -1), (1, 1, 1), (32, 32, 32))
    lin = DiscreteField.from_function(bg, lambda p: p[:, 0])
    assert abs(weighted_mean(P303, lin, BallSpec((0, 0, 0), 0.8))) <= 1e-10


def test_csv_roundtrip_radial_and_box(tmp_path):
    rng = np.random.default_rng(3)
    grid = RadialGrid(0.1, 2.0, 37, "geometric")
    f = DiscreteField(grid=grid, values=rng.standard_normal(37), name="probe")
    p = tmp_path / "f.csv"
    save_field(P304, f, p)
    g, head = load_field(p)
    assert head["a"] == 0.4 and head["N"] == 3
    assert g.grid == grid
    assert np.array_equal(g.values, f.values)  # bit-exact

    bg = BoxGrid((-1, 0, 0.25), (1, 2, 0.75), (4, 5, 3))
    fb = DiscreteField(grid=bg, values=rng.standard_normal(60))
    pb = tmp_path / "fb.csv"
    save_field(P300, fb, pb)
    gb, _ = load_field(pb)
    assert gb.grid == bg
    assert np.array_equal(gb.values, fb.values)


GRIDS = [RadialGrid(0.1, 2.0, 40),
         BoxGrid((-1.0, -0.5, 0.0), (1.0, 1.5, 1.0), (6, 7, 5))]


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


def box_tables(grid, w_exp):
    """Cell, face-dual and face-area tables, each as an (nx, ny, nz) array
    (the cell table reshaped, the face tables one shorter along their axis)."""
    out = {"cell": np.asarray(box_cell_weights(grid, w_exp)).reshape(grid.shape)}
    for axis in range(3):
        out[f"dual{axis}"] = np.asarray(box_face_dual_weights(grid, w_exp, axis))
        out[f"area{axis}"] = np.asarray(box_face_area_weights(grid, w_exp, axis))
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
    cells = np.asarray(box_cell_weights(grid, w_exp)).reshape(grid.shape)
    at_origin = cells[7:9, 7:9, 7:9] if m == 16 else cells[8, 8, 8]
    assert np.allclose(at_origin, origin, rtol=1e-12, atol=0)
    assert cells.sum() == pytest.approx(cell_total, rel=1e-12)
    for axis in range(3):
        dual = box_face_dual_weights(grid, w_exp, axis)
        assert dual.sum() == pytest.approx(dual_total, rel=1e-12)
        if area_total is not None:
            area = box_face_area_weights(grid, w_exp, axis)
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


def test_box_tables_reject_nonintegrable_weights():
    grid = cube(4)
    for table in (lambda: box_cell_weights(grid, -3.5),
                  lambda: box_face_dual_weights(grid, -3.0, 0),
                  lambda: box_face_area_weights(grid, -2.5, 0)):
        with pytest.raises(GridError) as exc:
            table()
        assert exc.value.code == "nonintegrable_weight"
    # away from the origin the same exponents are integrable
    far = BoxGrid((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (4, 4, 4))
    assert np.all(np.isfinite(box_cell_weights(far, -3.5)))
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
