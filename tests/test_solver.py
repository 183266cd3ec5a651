import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import cg, spsolve

from cknlab import solver
from cknlab.errors import GridError, ParameterError, SolverError
from cknlab.fields import (BoxGrid, DiscreteField, RadialGrid,
                           _eliminate_dirichlet, box_face_dual_weights)
from cknlab.measure import BallSpec
from cknlab.params import INF, validate
from cknlab.solver import (Stencil, Tridiagonal, _pcg,
                           _spd_solve, assemble, ckn_bubble,
                           dilate_radial, exact_radial_mms, harmonic_replacement,
                           raw_stiffness, residual, solve,
                           stiffness_quadratic_form)

P300 = validate(3, 0.0, 0.0, INF)
P335 = validate(3, 0.3, 0.5, INF)


def test_assembled_matrix_structure():
    grid = RadialGrid(0.0, 1.0, 50)
    sys_ = assemble(P335, grid)
    A = sys_.matrix
    assert isinstance(A, Tridiagonal) and len(sys_.rhs) == grid.n_cells
    # rows away from the outer cap have zero sum (constants are flat)
    rowsums = A @ np.ones(grid.n_cells)
    assert np.allclose(rowsums[:-1], 0.0, atol=1e-10)
    # box grids: a symmetric stencil with identity rows on the outer layer
    box = BoxGrid((-1, -1, -1), (1, 1, 1), (6, 6, 6))
    B = stencil_csr(assemble(P335, box).matrix)
    assert (abs(B - B.T) > 1e-14).nnz == 0
    for i in np.nonzero(box.boundary_layer())[0]:
        row = B.getrow(i).toarray().ravel()
        assert row[i] == 1.0 and np.count_nonzero(row) == 1


def test_radial_assemble_is_linear_in_n():
    n = 2 ** 16
    grid = RadialGrid(0.1, 1.0, n)
    f = DiscreteField.from_function(grid, lambda r: np.ones_like(r))
    sys_ = assemble(P335, grid, f, dirichlet=0.0, inner=1.0)
    assert sys_.matrix.diag.size == n and sys_.matrix.T.size == n - 1
    assert sys_.rhs.size == n
    uh, rep = solve(sys_)
    assert rep.converged and np.all(np.isfinite(uh.values))


def test_inner_dirichlet_needs_an_inner_edge():
    """A box, like a radial grid with r_min = 0, has no inner boundary to
    put `inner` on, and says so rather than ignoring it."""
    for grid in (RadialGrid(0.0, 1.0, 8), BoxGrid((-1.0,) * 3, (1.0,) * 3, (6,) * 3)):
        with pytest.raises(GridError) as exc:
            assemble(P335, grid, inner=1.0)
        assert exc.value.code == "invalid_boundary"


def test_radial_solve_matches_sparse_direct():
    # Both are direct solves; on the full ball the origin weight makes the
    # system ill-conditioned, and they differ by ~1e-11 max|x| in float64.
    u_exact, f_exact = exact_radial_mms(P335, 0.0, 1.0)
    grid = RadialGrid(0.0, 1.0, 4096)
    sys_ = assemble(P335, grid, DiscreteField.from_function(grid, f_exact))
    uh, _ = solve(sys_)
    A = sys_.matrix
    csc = sp.diags([-A.T, A.diag, -A.T], [-1, 0, 1], format="csc")
    ref = spsolve(csc, sys_.rhs)
    assert np.max(np.abs(uh.values - ref)) <= 5e-11 * np.max(np.abs(ref))


def thomas_long_double(A: Tridiagonal, b: np.ndarray) -> np.ndarray:
    """Tridiagonal elimination without pivoting, in long double."""
    d, o = A.diag.astype(np.longdouble), (-A.T).astype(np.longdouble)
    y = np.array(b, np.longdouble)
    c = np.zeros(len(d), np.longdouble)
    piv = d[0]
    y[0] /= piv
    for i in range(1, len(d)):
        c[i - 1] = o[i - 1] / piv
        piv = d[i] - o[i - 1] * c[i - 1]
        y[i] = (y[i] - o[i - 1] * y[i - 1]) / piv
    for i in range(len(d) - 2, -1, -1):
        y[i] -= c[i] * y[i + 1]
    return y


# max|x - x_ref| / max|x_ref| of the chain solve was at most 3.3e-12 on
# these systems (6.3e-12 over four (N, a, b), uniform and geometric grids);
# it grows like n^2, the chain's condition number
CHAIN_TOL = 1e-11


def cell_run(n: int, lo: int, hi: int) -> np.ndarray:
    """The mask of cells lo..hi-1 of n."""
    return (np.arange(n) >= lo) & (np.arange(n) < hi)


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
@pytest.mark.parametrize("r_min", [0.0, 0.1], ids=["ball", "annulus"])
def test_chain_solve_matches_long_double_elimination(r_min, n):
    _, f_exact = exact_radial_mms(P335, 0.0, 1.0)
    grid = RadialGrid(r_min, 1.0, n)
    f = DiscreteField.from_function(grid, f_exact)
    sys_ = assemble(P335, grid, f, dirichlet=0.3,
                    inner=1.0 if r_min > 0 else None)
    lo, hi = n // 5, n - n // 7
    cases = [(sys_.matrix, sys_.rhs),
             (raw_stiffness(P335, grid).principal(cell_run(n, lo, hi)),
              np.random.default_rng(n).standard_normal(hi - lo))]
    for A, b in cases:
        ref = thomas_long_double(A, b)
        x, iterations = _spd_solve(A, b)
        assert iterations == 0
        assert np.max(np.abs(x - ref)) <= CHAIN_TOL * np.max(np.abs(ref))


def test_principal_chain_has_the_diagonal_of_the_slice():
    A = raw_stiffness(P335, RadialGrid(0.1, 1.0, 40))
    for lo, hi in [(0, 40), (0, 7), (5, 40), (5, 17), (3, 5)]:
        sub = A.principal(cell_run(40, lo, hi))
        assert np.array_equal(sub.diag, A.diag[lo:hi])
        assert np.array_equal(sub.T, A.T[lo:hi - 1])


def test_principal_chain_rejects_cells_of_two_runs():
    A = raw_stiffness(P335, RadialGrid(0.1, 1.0, 40))
    with pytest.raises(GridError) as exc:
        A.principal(cell_run(40, 3, 5) | cell_run(40, 9, 12))
    assert exc.value.code == "not_one_run"


@pytest.mark.parametrize("grid", [RadialGrid(0.0, 1.0, 97),
                                  RadialGrid(0.1, 1.0, 64),
                                  RadialGrid(0.05, 2.0, 50, "geometric")])
def test_tridiagonal_matvec_is_bit_equal_to_csr(grid):
    A = raw_stiffness(P335, grid)
    csr = sp.diags([-A.T, A.diag, -A.T], [-1, 0, 1], format="csr")
    x = np.random.default_rng(4).standard_normal(grid.n_cells)
    x[::7] = 0.0
    for v in (x, -x, np.ones_like(x)):
        assert np.array_equal(A @ v, csr @ v)


def test_spd_solve_failures_raise(monkeypatch):
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (16, 16, 16))
    sys_ = assemble(P335, grid, DiscreteField.from_function(
        grid, lambda p: np.ones(len(p))), dirichlet=0.0)
    monkeypatch.setattr(solver, "_CG_MAX_ITER", 3)
    with pytest.raises(SolverError) as exc:
        _spd_solve(sys_.matrix, sys_.rhs)
    assert exc.value.code == "no_convergence"
    indefinite = Tridiagonal(np.array([1.0]), 1.0, -2.0)  # [[2, -1], [-1, -1]]
    assert np.array_equal(indefinite.diag, [2.0, -1.0])
    for chain in (indefinite,
                  Tridiagonal(np.array([1.0, 0.0, 2.0]), 1.0, 1.0),  # T <= 0
                  Tridiagonal(np.array([1.0, -3.0]), 1.0, 0.0),
                  Tridiagonal(np.array([1.0, 2.0]), 0.0, -1e-300),  # a cap < 0
                  Tridiagonal(np.array([1.0, 2.0])),  # two zero caps: singular
                  Tridiagonal(np.array([1.0, np.nan]), 1.0, 1.0)):
        with pytest.raises(SolverError) as exc:
            _spd_solve(chain, np.ones(len(chain.T) + 1))
        assert exc.value.code == "not_spd"


def test_classical_mms_closed_form():
    # N=3, a=b=0, f=1: u = (1 - r^2)/6
    u, f = exact_radial_mms(P300, 0.0, 1.0)
    r = np.linspace(0.1, 1.0, 7)
    assert np.allclose(u(r), (1 - r ** 2) / 6, atol=1e-15)
    assert np.allclose(f(r), 1.0)


def test_mms_pair_satisfies_ode_symbolically():
    sympy = pytest.importorskip("sympy")
    r = sympy.symbols("r", positive=True)
    params = P335
    gamma = sympy.Rational(1, 2)
    N, a = params.N, sympy.Rational(3, 10)
    bp = sympy.nsimplify(params.bp, rational=False)
    bp = sympy.Rational(15, 7)  # b*p for (3, 0.3, 0.5)
    assert params.bp == pytest.approx(float(bp), abs=1e-12)
    beta = 2 + 2 * a - bp + gamma
    uexpr = (1 - r ** beta) / ((N - bp + gamma) * beta)
    lhs = -sympy.diff(r ** (N - 1 - 2 * a) * sympy.diff(uexpr, r), r)
    rhs = r ** (N - 1 - bp) * r ** gamma
    assert sympy.simplify(lhs - rhs) == 0


def test_mms_degenerate_exponent_rejected():
    # gamma with beta = 0: gamma = bp - 2 - 2a
    params = P335
    gamma = params.bp - 2.0 - 2.0 * params.a
    with pytest.raises(ParameterError) as exc:
        exact_radial_mms(params, gamma, 1.0)
    assert exc.value.code == "degenerate_exponent"


def test_solve_classical_mms_convergence():
    u_exact, _ = exact_radial_mms(P300, 0.0, 1.0)
    errs = []
    for n in (32, 64, 128, 256):
        grid = RadialGrid(0.0, 1.0, n)
        f = DiscreteField.from_function(grid, lambda r: np.ones_like(r))
        uh, rep = solve(assemble(P300, grid, f, dirichlet=0.0))
        assert rep.converged
        errs.append(float(np.max(np.abs(uh.values - u_exact(grid.centers)))))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert all(1.8 <= o <= 2.5 for o in orders)


def test_solve_weighted_mms_annulus_convergence():
    params = P335
    gamma = 0.5
    u_exact, f_exact = exact_radial_mms(params, gamma, 1.0)
    errs = []
    for n in (64, 128, 256):
        grid = RadialGrid(0.1, 1.0, n)
        f = DiscreteField.from_function(grid, f_exact)
        sys_ = assemble(params, grid, f, dirichlet=0.0, inner=float(u_exact(0.1)))
        uh, rep = solve(sys_)
        assert rep.converged
        errs.append(float(np.max(np.abs(uh.values - u_exact(grid.centers)))))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert all(1.8 <= o <= 2.5 for o in orders)


def test_box_solve_exact_for_quadratic():
    # a=b=0: 7-point stencil is exact on quadratics, boundary at centers
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (16, 16, 16))
    f = DiscreteField.from_function(grid, lambda p: np.full(len(p), -6.0))
    g = lambda p: np.sum(p ** 2, axis=1)
    uh, rep = solve(assemble(P300, grid, f, dirichlet=g))
    exact = g(grid.node_coords())
    assert rep.converged
    assert np.max(np.abs(uh.values - exact)) < 1e-8


def test_discrete_max_principle_radial():
    rng = np.random.default_rng(5)
    grid = RadialGrid(0.2, 1.5, 200)
    g_out, g_in = rng.uniform(-2, 2, size=2)
    uh, _ = solve(assemble(P335, grid, None, dirichlet=g_out, inner=g_in))
    lo, hi = min(g_in, g_out), max(g_in, g_out)
    assert uh.values.min() >= lo - 1e-9
    assert uh.values.max() <= hi + 1e-9


def test_harmonic_replacement_radial_energy_split():
    rng = np.random.default_rng(21)
    grid = RadialGrid(0.0, 1.0, 300)
    u = DiscreteField(grid=grid, values=rng.standard_normal(300).cumsum() * 0.05)
    # a ball at the origin and one off it; both relax a contiguous block
    for ball in (BallSpec((0.0,), 0.55), BallSpec((0.6,), 0.3)):
        w = harmonic_replacement(P335, u, ball)
        # unchanged outside the ball
        outside = np.abs(grid.centers - ball.center_norm) > ball.radius + 0.01
        assert np.array_equal(w.values[outside], u.values[outside])
        qu = stiffness_quadratic_form(P335, grid, u.values)
        qw = stiffness_quadratic_form(P335, grid, w.values)
        qv = stiffness_quadratic_form(P335, grid, u.values - w.values)
        assert qw <= qu + 1e-12 * qu
        assert qu == pytest.approx(qw + qv, rel=1e-9)
        # idempotence
        w2 = harmonic_replacement(P335, w, ball)
        assert (np.max(np.abs(w2.values - w.values))
                < 1e-9 * max(1.0, np.max(np.abs(w.values))))


def test_harmonic_replacement_box_energy_split():
    rng = np.random.default_rng(22)
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (20, 20, 20))
    u = DiscreteField(grid=grid, values=rng.standard_normal(grid.n_nodes))
    ball = BallSpec((0.15, -0.1, 0.0), 0.6)
    w = harmonic_replacement(P300, u, ball)
    qu = stiffness_quadratic_form(P300, grid, u.values)
    qw = stiffness_quadratic_form(P300, grid, w.values)
    qv = stiffness_quadratic_form(P300, grid, u.values - w.values)
    assert qw <= qu
    assert qu == pytest.approx(qw + qv, rel=1e-8)


# sha256 of the replacement's float64 bytes (first 32 hex digits), for
# u = 0.05 * cumsum(N(0,1)) with seed 31 on 64 cells
FROZEN_REPLACEMENTS = {
    ("uniform", "centred"): "77cc70f5dbabf867865d2858df33dfdb",
    ("uniform", "off-centre"): "8fb692061b1c07293018f83c09c5a3e9",
    ("annulus", "centred"): "2e0b0e200a75419c417ef7c46c3990a5",
    ("annulus", "off-centre"): "961c002a5983b2b94217005072468c56",
    ("geometric", "centred"): "a11aa8d5e969acac016716109337923d",
    ("geometric", "off-centre"): "3b2f5b9ae47f262ede9eb7c73584c59c",
}


@pytest.mark.parametrize("case", sorted(FROZEN_REPLACEMENTS), ids="-".join)
def test_radial_harmonic_replacement_is_frozen(case):
    grid = {"uniform": RadialGrid(0.0, 1.0, 64),
            "annulus": RadialGrid(0.1, 1.0, 64),
            "geometric": RadialGrid(0.05, 2.0, 64, "geometric")}[case[0]]
    rng = np.random.default_rng(31)
    u = DiscreteField(grid=grid, values=rng.standard_normal(64).cumsum() * 0.05)
    span = grid.r_max - grid.r_min
    ball = (BallSpec((0.0,), grid.r_min + 0.6 * span) if case[1] == "centred"
            else BallSpec((0.0, grid.r_min + 0.5 * span), 0.3 * span))
    w = harmonic_replacement(P335, u, ball)
    digest = hashlib.sha256(w.values.astype("<f8").tobytes()).hexdigest()
    assert digest[:32] == FROZEN_REPLACEMENTS[case]


def test_harmonic_replacement_ball_too_small():
    grid = RadialGrid(0.0, 1.0, 100)
    u = DiscreteField.from_function(grid, lambda r: r)
    with pytest.raises(GridError) as exc:
        harmonic_replacement(P300, u, BallSpec((0.9,), 0.001))
    assert exc.value.code == "ball_too_small"


def test_box_residual_takes_boundary_data_from_the_field():
    # a converged box solve with nonzero Dirichlet data leaves only the CG
    # stopping error: the trace rows hold u's own values, so interior rows
    # keep their coupling to the boundary cells
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (12, 12, 12))
    f = DiscreteField.from_function(grid, lambda p: np.ones(len(p)))
    layer = grid.boundary_layer()
    for g in (1.0, lambda p: 1.0 + p[:, 0] + 0.5 * p[:, 1]):
        sys_ = assemble(P335, grid, f, dirichlet=g)
        uh, _ = solve(sys_)
        rep = residual(P335, uh, f)
        assert np.all(rep.nodal.values[layer] == 0.0)
        # the true residual may trail CG's recurrence residual slightly
        assert (np.linalg.norm(rep.nodal.values)
                <= 2 * solver._CG_RTOL * np.linalg.norm(sys_.rhs))
        assert rep.dual_norm < 1e-8


def test_fundamental_solution_residual_decays():
    # u = r^{2+2a-N} solves the homogeneous equation away from 0
    a = 0.3
    params = validate(3, a, a, INF)
    expo = 2 + 2 * a - 3
    norms = []
    for n in (64, 128, 256):
        grid = RadialGrid(0.25, 2.0, n)
        u = DiscreteField.from_function(grid, lambda r: r ** expo)
        zero = u.with_values(np.zeros(n))
        rep = residual(params, u, zero)
        norms.append(rep.dual_norm)
    assert norms[0] / norms[1] > 3.0
    assert norms[1] / norms[2] > 3.0


def test_bubble_closed_form_classical():
    u, K, delta, kappa = ckn_bubble(P300)
    assert (K, delta, kappa) == (3.0, 2.0, 0.5)
    r = np.array([0.0, 1.0, 2.0])
    assert np.allclose(u(r), (1 + r ** 2) ** -0.5, atol=1e-15)


def test_bubble_satisfies_ode_symbolically():
    sympy = pytest.importorskip("sympy")
    r = sympy.symbols("r", positive=True)
    N = 3
    a = sympy.Rational(3, 10)
    b = sympy.Rational(1, 2)
    p = 2 * N / (N - 2 * (1 + a - b))
    kappa = 2 / (p - 2)
    delta = (N - 2 - 2 * a) / kappa
    K = kappa * (kappa + 1) * delta ** 2
    u = (1 + r ** delta) ** -kappa
    lhs = -sympy.diff(r ** (N - 1 - 2 * a) * sympy.diff(u, r), r)
    rhs = K * r ** (N - 1 - b * p) * u ** (p - 1)
    assert sympy.simplify(lhs - rhs) == 0


def test_bubble_dilation_preserves_equation_residual():
    # the dilated bubble solves the same equation with the same K
    params = P335
    u, K, delta, kappa = ckn_bubble(params)
    ul = dilate_radial(params, u, 2.0)
    n = 400
    grid = RadialGrid(0.05, 3.0, n)
    uf = DiscreteField.from_function(grid, ul)
    ff = uf.with_values(K * np.abs(uf.values) ** (params.p - 2) * uf.values)
    rep = residual(params, uf, ff)
    # compare against a coarse grid: residual must shrink at 2nd order-ish
    grid_c = RadialGrid(0.05, 3.0, n // 2)
    uc = DiscreteField.from_function(grid_c, ul)
    fc = uc.with_values(K * np.abs(uc.values) ** (params.p - 2) * uc.values)
    rep_c = residual(params, uc, fc)
    assert rep_c.dual_norm / rep.dual_norm > 3.0


def coo_stiffness(grid: BoxGrid, w_exp: float) -> sp.csr_matrix:
    """The box raw stiffness assembled as COO triplets, each face adding
    -T, -T, T, T at (i, j), (j, i), (i, i), (j, j); the conversion to CSR
    sums the duplicates."""
    n = grid.n_nodes
    idx = np.arange(n).reshape(grid.shape)
    rows, cols, vals = [], [], []
    for axis in range(3):
        T = (np.asarray(box_face_dual_weights(grid, w_exp, axis))
             / grid.h[axis] ** 2).ravel()
        i = np.delete(idx, -1, axis=axis).ravel()
        j = np.delete(idx, 0, axis=axis).ravel()
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-T, -T, T, T]
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def slot_offsets(shape) -> tuple[int, ...]:
    """Flat offsets of the 7 slots of a cell in CSR column order."""
    s = (shape[1] * shape[2], shape[2], 1)
    return (-s[0], -s[1], -s[2], 0, s[2], s[1], s[0])


def seven_slots(A: Stencil) -> np.ndarray:
    """A stencil over a whole box in the layout it had before: coef[k]
    couples each cell to its neighbour at flat offset `slot_offsets[k]`,
    0 where there is none."""
    n, offsets = len(A.D), slot_offsets(A.shape)
    coef = np.zeros((7, n))
    coef[3] = A.D
    for axis in range(3):
        o = offsets[6 - axis]
        coef[6 - axis] = -A.T[axis]
        coef[axis, o:] = -A.T[axis, :n - o]
    return coef


def stencil_csr(A: Stencil) -> sp.csr_matrix:
    """The CSR matrix of a stencil over a whole box: each row's slots in
    column order, stored where the neighbour exists.  Asserts that every
    coefficient of a missing neighbour is 0, so the CSR holds all of A."""
    coef = seven_slots(A)
    n = coef.shape[1]
    idx = np.indices(A.shape).reshape(3, n)
    exists = np.ones((7, n), dtype=bool)
    for axis in range(3):
        exists[axis] = idx[axis] > 0
        exists[6 - axis] = idx[axis] < A.shape[axis] - 1
    assert A.nodes is ... and np.all(coef[~exists] == 0.0)
    cols = np.arange(n) + np.array(slot_offsets(A.shape))[:, None]
    indptr = np.concatenate([[0], np.cumsum(exists.sum(axis=0))])
    return sp.csr_matrix((coef.T[exists.T], cols.T[exists.T], indptr),
                         shape=(n, n))


# The 7-slot stencil code that the four-array `Stencil` replaced, kept as
# the reference that its operators must equal.

def slot_stiffness(grid: BoxGrid, w_exp: float) -> np.ndarray:
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
    return coef.reshape(7, -1)


def slot_matvec(coef, shape, nodes, x) -> np.ndarray:
    offsets = slot_offsets(shape)
    n, pad = coef.shape[1], offsets[-1]
    xp = np.zeros(n + 2 * pad)  # a neighbour past either end reads 0
    xp[pad:pad + n][nodes] = x
    y = coef[0] * xp[:n]  # slot 0: offset -pad
    tmp = np.empty(n)
    for c, o in zip(coef[1:], offsets[1:]):
        y += np.multiply(c, xp[pad + o:pad + o + n], out=tmp)
    return y[nodes]


def slot_eliminate(coef, shape, rhs, mask, gvals):
    x_b = np.zeros(len(rhs))
    x_b[mask] = gvals
    rhs = rhs - slot_matvec(coef, shape, ..., x_b)
    rhs[mask] = gvals
    coef = coef * ~np.array([np.roll(mask, -o) for o in slot_offsets(shape)])
    coef[:, mask] = 0.0
    coef[3][mask] = 1.0
    return coef, rhs


def slot_principal(coef, shape, mask):
    cells = mask.reshape(shape)
    box = tuple(slice(max(int(i.min()) - 1, 0), int(i.max()) + 2)
                for i in np.nonzero(cells))
    coef = coef.reshape((7,) + shape)[(slice(None),) + box]
    return coef.reshape(7, -1), coef.shape[1:], np.flatnonzero(cells[box])


BOX_GRIDS = [BoxGrid((-1.0,) * 3, (1.0,) * 3, (16,) * 3),
             BoxGrid((-0.7, -0.9, -0.55), (1.3, 1.1, 1.45), (9, 8, 10))]


@pytest.mark.parametrize("grid", BOX_GRIDS, ids=["cube16", "9x8x10"])
def test_box_stiffness_equals_the_coo_assembly(grid):
    A = raw_stiffness(P335, grid)
    ref = coo_stiffness(grid, -2.0 * P335.a)
    assert A is raw_stiffness(P335, grid)
    assert isinstance(A, Stencil) and A.D.dtype == A.T.dtype == ref.data.dtype
    csr = stencil_csr(A)
    for got, want in ((csr.indptr, ref.indptr), (csr.indices, ref.indices),
                      (csr.data, ref.data)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("grid", BOX_GRIDS, ids=["cube16", "9x8x10"])
def test_stencil_matvec_is_bit_equal_to_csr(grid):
    """The raw, the Dirichlet-eliminated and a principal operator multiply
    as the CSR matrices built from the COO assembly do, bit for bit."""
    ref = coo_stiffness(grid, -2.0 * P335.a)
    A = raw_stiffness(P335, grid)
    mask = grid.boundary_layer()
    D = sp.diags((~mask).astype(float))
    K_ref = (D @ ref @ D + sp.diags(mask.astype(float))).tocsr()
    rng = np.random.default_rng(9)
    gvals = rng.standard_normal(int(mask.sum()))
    rhs = rng.standard_normal(grid.n_nodes)
    K, K_rhs = _eliminate_dirichlet(A, rhs, mask, gvals)
    x_b = np.zeros(grid.n_nodes)
    x_b[mask] = gvals
    want_rhs = rhs - ref @ x_b
    want_rhs[mask] = gvals
    assert np.array_equal(K_rhs, want_rhs)
    # a ball's relaxed nodes, and a scattered set reaching the box's edge
    ball = grid.distance_to((0.2, 0.1, 0.3)) <= 0.5
    sel = [ball & ~mask, rng.random(grid.n_nodes) < 0.4]
    x = rng.standard_normal(grid.n_nodes)
    x[::5] = 0.0
    for v in (x, -x, np.ones_like(x)):
        assert np.array_equal(A @ v, ref @ v)
        assert np.array_equal(K @ v, K_ref @ v)
        for keep in sel:
            I = np.nonzero(keep)[0]
            A_II = A.principal(keep)
            assert np.array_equal(A_II @ v[I], ref[np.ix_(I, I)] @ v[I])
            assert np.array_equal(A_II.diag, ref.diagonal()[I])


def test_pcg_matches_scipy_cg():
    """`_pcg` takes scipy's CG steps: the same iterate and count, bit for bit."""
    grid = BoxGrid((-1.0,) * 3, (1.0,) * 3, (16,) * 3)
    f = DiscreteField.from_function(grid, lambda p: np.cos(p[:, 0]) + p[:, 1])
    sys_ = assemble(P335, grid, f, dirichlet=lambda p: p[:, 2] ** 2)
    x, iterations = _pcg(sys_.matrix, sys_.rhs)
    count = 0

    def cb(_):
        nonlocal count
        count += 1

    K = stencil_csr(sys_.matrix)
    ref, info = cg(K, sys_.rhs, rtol=solver._CG_RTOL, atol=0.0,
                   maxiter=solver._CG_MAX_ITER,
                   M=sp.diags(1.0 / K.diagonal()), callback=cb)
    assert info == 0 and iterations == count > 0
    assert np.array_equal(x, ref)


def test_read_only_box_stiffness_serves_every_solve_path():
    grid = BoxGrid((-1.0,) * 3, (1.0,) * 3, (8,) * 3)
    A = raw_stiffness(P335, grid)
    D, T = A.D.copy(), A.T.copy()
    mask = grid.boundary_layer()
    K, rhs = _eliminate_dirichlet(A, np.ones(grid.n_nodes), mask,
                                  np.zeros(int(mask.sum())))
    x, iterations = _spd_solve(K, rhs)
    assert iterations > 0 and np.linalg.norm(K @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)
    I = np.nonzero(~mask)[0]
    A_II = A.principal(~mask)
    columns = np.column_stack([A_II @ e for e in np.eye(len(I))])
    assert np.array_equal(columns, stencil_csr(A).toarray()[np.ix_(I, I)])
    for got, want in ((A.D, D), (A.T, T)):
        assert not got.flags.writeable and np.array_equal(got, want)


SLOT_GRIDS = BOX_GRIDS + [BoxGrid((-1.0,) * 3, (1.0,) * 3, (3, 4, 3)),
                          BoxGrid((0.1, -1.0, -0.3), (1.0, 0.4, 0.6), (5, 7, 3))]


@pytest.mark.parametrize("grid", SLOT_GRIDS,
                         ids=["cube16", "9x8x10", "3x4x3", "5x7x3"])
def test_four_arrays_equal_the_seven_slot_stencil(grid):
    """The raw stiffness, its Dirichlet elimination (on the outer layer
    and on a scattered mask), its principal submatrices and every product
    equal the 7-slot code's, bit for bit."""
    w_exp = -2.0 * P335.a
    A = raw_stiffness(P335, grid)
    coef = slot_stiffness(grid, w_exp)
    assert np.array_equal(seven_slots(A), coef)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(grid.n_nodes)
    x[::3] = 0.0
    scattered = rng.random(grid.n_nodes) < 0.3
    for mask in (grid.boundary_layer(), scattered):
        gvals = rng.standard_normal(int(mask.sum()))
        rhs = rng.standard_normal(grid.n_nodes)
        K, K_rhs = _eliminate_dirichlet(A, rhs, mask, gvals)
        want, want_rhs = slot_eliminate(coef, grid.shape, rhs, mask, gvals)
        assert np.array_equal(seven_slots(K), want)
        assert np.array_equal(K_rhs, want_rhs)
        for v in (x, -x, np.ones_like(x)):
            assert np.array_equal(A @ v, slot_matvec(coef, grid.shape, ..., v))
            assert np.array_equal(K @ v, slot_matvec(want, grid.shape, ..., v))
        keep = ~mask
        A_II = A.principal(keep)
        c_II, shape, nodes = slot_principal(coef, grid.shape, keep)
        assert A_II.shape == shape and np.array_equal(A_II.nodes, nodes)
        assert np.array_equal(A_II.D, c_II[3])
        assert np.array_equal(A_II.T, -c_II[6:3:-1])
        I = np.nonzero(keep)[0]
        for v in (x, -x):
            assert np.array_equal(A_II @ v[I], slot_matvec(c_II, shape, nodes, v[I]))


# The red-black reduction of every box solve

def black_slot_cells(shape) -> np.ndarray:
    """The flat cell of each black slot of the red-black layout, -1 where
    the slot holds no cell: in row (i, j), slot kk holds the black cell
    k = 2kk + 1 - (i+j)%2."""
    m0, m1, m2 = shape
    i, j, kk = np.indices((m0, m1, (m2 + 1) // 2)).reshape(3, -1)
    k = 2 * kk + 1 - (i + j) % 2
    return np.where(k < m2, (i * m1 + j) * m2 + k, -1)


def schur_reference(A: Stencil, K: sp.csr_matrix, cells) -> sp.csc_matrix:
    """K_bb - K_br K_rr^{-1} K_rb of the CSR matrix K on A's nodes, where
    `cells` are the rows of K of A's box cells, the red cells (i+j+k
    even in the box) eliminated, over the black slots of the layout; the
    identity in a slot that holds no node."""
    K = K[cells][:, cells]
    live = np.zeros(len(A.D), dtype=bool)
    live[A.nodes] = True
    red = np.flatnonzero(live & (np.indices(A.shape).sum(axis=0).ravel() % 2 == 0))
    slots = black_slot_cells(A.shape)
    on = np.flatnonzero(slots >= 0)
    on = on[live[slots[on]]]
    black = slots[on]
    K_rr = K[red][:, red]
    assert (K_rr != sp.diags(K_rr.diagonal())).nnz == 0  # red couples to black alone
    S = (K[black][:, black]
         - K[black][:, red] @ sp.diags(1.0 / K_rr.diagonal()) @ K[red][:, black])
    put = sp.csr_matrix((np.ones(len(on)), (on, np.arange(len(on)))),
                        shape=(len(slots), len(on)))
    empty = np.ones(len(slots))
    empty[on] = 0.0
    return (put @ S @ put.T + sp.diags(empty)).tocsc()


def principal_box_cells(grid: BoxGrid, keep: np.ndarray) -> np.ndarray:
    """The grid cell of each cell of `Stencil.principal(keep)`'s box: the
    bounding box of `keep` grown by one cell."""
    box = tuple(slice(max(int(i.min()) - 1, 0), int(i.max()) + 2)
                for i in np.nonzero(keep.reshape(grid.shape)))
    return np.arange(grid.n_nodes).reshape(grid.shape)[box].ravel()


SCHUR_GRIDS = [BoxGrid((-1.0,) * 3, (1.0,) * 3, (16,) * 3),
               BoxGrid((0.1, -1.0, -0.3), (1.0, 0.4, 0.6), (5, 7, 3)),
               BoxGrid((-0.7, -0.9, -0.55), (1.3, 1.1, 1.45), (9, 8, 10)),
               BoxGrid((-1.0,) * 3, (1.0,) * 3, (3, 4, 3)),
               BoxGrid((-1.0,) * 3, (1.0,) * 3, (2, 3, 2))]


@pytest.mark.parametrize("grid", SCHUR_GRIDS,
                         ids=["cube16", "5x7x3", "9x8x10", "3x4x3", "2x3x2"])
def test_red_black_operator_is_the_schur_complement(grid):
    """The reduced operator of the raw stiffness, of its Dirichlet
    elimination and of principal submatrices (the interior, a ball's
    cells and a scattered set) is the Schur complement of the CSR matrix
    to round-off, column by column, with its diagonal."""
    A = raw_stiffness(P335, grid)
    mask = grid.boundary_layer()
    K, _ = _eliminate_dirichlet(A, np.zeros(grid.n_nodes), mask,
                                np.zeros(int(mask.sum())))
    rng = np.random.default_rng(8)
    keeps = [~mask, grid.distance_to((0.2, 0.1, 0.3)) <= 0.7,
             rng.random(grid.n_nodes) < 0.4]
    everything, raw_csr = np.arange(grid.n_nodes), stencil_csr(A)
    ops = [(A, raw_csr, everything), (K, stencil_csr(K), everything)]
    for keep in keeps:
        if keep.any():
            cells = principal_box_cells(grid, keep)
            op = A.principal(keep)
            assert np.array_equal(cells[op.nodes], np.flatnonzero(keep))
            ops.append((op, raw_csr, cells))
    for op, csr, cells in ops:
        S, ref = solver.RedBlack(op), schur_reference(op, csr, cells)
        tol = 1e-13 * float(np.max(op.D))
        assert np.max(np.abs(S.diag - ref.diagonal())) <= tol
        e = np.zeros(ref.shape[0])
        for j in range(ref.shape[0]):
            e[j] = 1.0
            assert np.max(np.abs(S @ e - ref[:, [j]].toarray().ravel())) <= tol
            e[j] = 0.0


def box_study_system(m: int):
    """The `box_singular` benchmark's system on [-1,1]^3 at m^3 cells: load
    f = 1 and the radial manufactured solution as Dirichlet trace."""
    grid = BoxGrid((-1.0,) * 3, (1.0,) * 3, (m,) * 3)
    u_fn, f_fn = exact_radial_mms(P335, 0.0, 2.0)
    f = DiscreteField.from_function(grid, lambda p: f_fn(np.linalg.norm(p, axis=1)))
    return assemble(P335, grid, f, dirichlet=lambda p: u_fn(np.linalg.norm(p, axis=1)))


@pytest.mark.parametrize("m, iterations", [(16, 24), (32, 46)])
def test_reduced_box_solves_meet_the_full_tolerance(monkeypatch, m, iterations):
    """The box study's solve and its harmonic replacement: each reduced
    solve leaves a full-system residual within `_CG_RTOL` |b|, agrees with
    `_pcg` on the unreduced stencil, and takes the pinned iterations
    (the unreduced Jacobi-PCG takes 40 and 88)."""
    real, calls = solver._spd_solve, []

    def spy(A, b):
        out = real(A, b)
        calls.append((A, b, out))
        return out

    monkeypatch.setattr(solver, "_spd_solve", spy)
    u, rep = solve(box_study_system(m))
    harmonic_replacement(P335, u, BallSpec((0.2, 0.1, 0.0), 0.5))
    assert rep.iterations == iterations == calls[0][2][1]
    assert len(calls) == 2 and calls[1][0].nodes is not ...
    for A, b, (x, its) in calls:
        bnorm = np.linalg.norm(b)
        assert np.linalg.norm(b - A @ x) <= solver._CG_RTOL * bnorm
        x_full, its_full = _pcg(A, b)
        assert np.linalg.norm(x - x_full) <= 1e-9 * np.linalg.norm(x_full)
        assert its <= 0.6 * its_full


def test_stencil_spd_failures_raise_through_the_reduction():
    """A nonpositive or nan diagonal entry on a red or a black cell, and a
    positive diagonal whose Schur complement is not, raise not_spd."""
    grid = BoxGrid((-1.0,) * 3, (1.0,) * 3, (4, 5, 3))
    A = raw_stiffness(P335, grid)
    mask = grid.boundary_layer()
    K, rhs = _eliminate_dirichlet(A, np.ones(grid.n_nodes), mask,
                                  np.zeros(int(mask.sum())))
    red, black = (np.ravel_multi_index(c, grid.shape) for c in ((1, 2, 1), (1, 1, 1)))
    bad = []
    for cell in (red, black):
        for value in (0.0, -1.0, np.nan):
            D = K.D.copy()
            D[cell] = value
            bad.append(Stencil(D, K.T, K.shape))
    bad.append(Stencil(np.ones(grid.n_nodes), (A.T > 0).astype(float), A.shape))
    for op in bad:
        with pytest.raises(SolverError) as exc:
            _spd_solve(op, rhs)
        assert exc.value.code == "not_spd"
