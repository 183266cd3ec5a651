import math

import numpy as np
import pytest
from scipy.integrate import quad

from cknlab.errors import GridError, ParameterError
from cknlab.fields import BoxGrid, DiscreteField, RadialGrid
from cknlab.inequalities import (build_test_suite, ckn_ratio,
                                 estimate_alpha_h, poincare_ratio)
from cknlab.measure import BallSpec
from cknlab.params import INF, validate
from cknlab.regularity import gradient_profile
from cknlab.solver import dilate_radial
from radial_quad import ckn_ratio_radial_quad

P300 = validate(3, 0.0, 0.0, INF)
P335 = validate(3, 0.3, 0.5, INF)


def bump_field(n=800):
    grid = RadialGrid(0.0, 1.0, n)
    return DiscreteField.from_function(
        grid, lambda r: np.clip(1.0 - r ** 2, 0.0, None))


def test_ckn_ratio_scale_invariant():
    u = bump_field()
    r1 = ckn_ratio(P300, u).ratio
    r2 = ckn_ratio(P300, u.with_values(-7.5 * u.values)).ratio
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_ckn_ratio_bump_against_quadrature():
    u = bump_field()
    got = ckn_ratio(P300, u).ratio
    num = quad(lambda t: 4 * math.pi * t * t * (1 - t * t) ** 6, 0, 1)[0]
    den = quad(lambda t: 4 * math.pi * t * t * 4 * t * t, 0, 1)[0]
    want = num ** (1 / 6) / math.sqrt(den)
    assert got == pytest.approx(want, rel=0.01)


def test_ckn_ratio_zero_field():
    grid = RadialGrid(0.0, 1.0, 32)
    with pytest.raises(ParameterError) as exc:
        ckn_ratio(P300, DiscreteField(grid=grid, values=np.zeros(32)))
    assert exc.value.code == "zero_field"


def test_ckn_dilation_invariance_exact_quadrature():
    u = lambda r: np.exp(-np.asarray(r, float) ** 2)
    du = lambda r: -2.0 * np.asarray(r, float) * np.exp(-np.asarray(r, float) ** 2)
    base = ckn_ratio_radial_quad(P335, u, du, np.inf)
    lam = 2.0
    e = (P335.N - 2.0 - 2.0 * P335.a) / 2.0
    ul = dilate_radial(P335, u, lam)
    dul = lambda r: lam ** (e + 1.0) * du(lam * np.asarray(r, float))
    dilated = ckn_ratio_radial_quad(P335, ul, dul, np.inf)
    assert dilated == pytest.approx(base, rel=1e-6)


def test_poincare_constant_field_zero():
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (24, 24, 24))
    u = DiscreteField.from_function(grid, lambda p: np.full(len(p), 3.0))
    out = poincare_ratio(P300, u, BallSpec((0, 0, 0), 0.7))
    assert out.lhs == pytest.approx(0.0, abs=1e-12)
    assert out.ratio == 0.0


def test_poincare_linear_field_classical_constant():
    # u = x1, a = 0, centered ball: ratio = 1/(N+2) = 0.2
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (40, 40, 40))
    u = DiscreteField.from_function(grid, lambda p: p[:, 0])
    out = poincare_ratio(P300, u, BallSpec((0, 0, 0), 0.8))
    assert out.ratio == pytest.approx(0.2, rel=0.05)


def test_poincare_shift_invariant():
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (24, 24, 24))
    u = DiscreteField.from_function(grid, lambda p: np.sin(p[:, 0] + p[:, 2]))
    ball = BallSpec((0.1, 0.0, -0.1), 0.6)
    r1 = poincare_ratio(P300, u, ball).ratio
    r2 = poincare_ratio(P300, u.with_values(u.values + 11.0), ball).ratio
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_alpha_h_radial_harmonic_smooth():
    # |x|^{2+2a-N} away from 0 is smooth: fitted slope clamps to ~1
    a = 0.3
    params = validate(3, a, a, INF)
    grid = RadialGrid(0.25, 2.0, 4000)
    u = DiscreteField.from_function(grid, lambda r: r ** (2 + 2 * a - 3))
    est = estimate_alpha_h(params, u, (1.2,), [0.2, 0.14, 0.1, 0.07, 0.05])
    assert est.alpha_h == pytest.approx(1.0, abs=0.05)
    assert est.fit_residual <= 0.05
    assert est.n_samples == 5


def test_alpha_h_angular_mode_exponent():
    # u = r^lambda x1/|x| with lambda from the l=1 indicial equation
    a = -0.5
    lam = (-(3 - 2 - 2 * a) + math.sqrt((3 - 2 - 2 * a) ** 2 + 8)) / 2
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (48, 48, 48))

    def mode(p):
        r = np.linalg.norm(p, axis=1)
        return p[:, 0] * r ** (lam - 1.0)

    u = DiscreteField.from_function(grid, mode)
    est = estimate_alpha_h(validate(3, a, a, INF), u, (0, 0, 0),
                           [0.8, 0.55, 0.4, 0.28, 0.2])
    assert est.alpha_h == pytest.approx(lam, abs=0.05)
    assert 0 < est.alpha_h <= 1


def test_alpha_h_constant_degenerate():
    grid = RadialGrid(0.0, 1.0, 64)
    u = DiscreteField(grid=grid, values=np.full(64, 2.0))
    with pytest.raises(GridError) as exc:
        estimate_alpha_h(P300, u, (0.5,), [0.2, 0.1, 0.05])
    assert exc.value.code == "degenerate_oscillation"


def test_energy_decay_linear_field_exponent():
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (32, 32, 32))
    u = DiscreteField.from_function(grid, lambda p: p[:, 0])
    prof = gradient_profile(P300, u, (0, 0, 0), [0.8, 0.6, 0.45, 0.34, 0.25])
    vals = np.asarray(prof.values)
    assert np.all(np.diff(vals) < 0)  # decreasing radii -> decreasing energy
    slope = np.polyfit(np.log(prof.radii), np.log(vals), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.2)


def test_suite_deterministic_and_supported():
    grid = RadialGrid(0.0, 1.0, 512)
    s1 = build_test_suite(grid, seed=123)
    s2 = build_test_suite(grid, seed=123)
    assert len(s1) == 50
    for (d1, f1), (d2, f2) in zip(s1, s2):
        assert d1 == d2
        assert np.array_equal(f1.values, f2.values)
    outside = grid.centers > 0.81
    for _, f in s1:
        assert np.all(f.values[outside] == 0.0)


def test_suite_ckn_and_poincare_bounded():
    grid = RadialGrid(0.0, 1.0, 512)
    suite = build_test_suite(grid, seed=7)
    ratios = [ckn_ratio(P335, f).ratio for _, f in suite]
    assert all(math.isfinite(r) for r in ratios)
    ball = BallSpec((0.0,), 0.9)
    pr = [poincare_ratio(P335, f, ball).ratio for _, f in suite]
    assert all(math.isfinite(r) and r >= 0 for r in pr)
