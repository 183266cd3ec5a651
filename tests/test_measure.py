import math

import numpy as np
import pytest

from cknlab import measure
from cknlab.errors import GridError
from cknlab.measure import (BallSpec, ball_measure,
                            ball_weight_integral, ball_weight_integrals,
                            cap_fraction, centered_weight_integral,
                            centered_weight_quadrature, doubling_ratio,
                            lemma_a1_ratio, lemma_a1_ratios, sphere_area)
from cknlab.params import INF, epsilon_choice, validate


P300 = validate(3, 0.0, 0.0, INF)
P304 = validate(3, 0.4, 0.4, INF)


def test_sphere_area_low_dims():
    assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-14)


def test_centered_unweighted_ball_volume():
    res = ball_measure(P300, BallSpec((0.0, 0.0, 0.0), 1.0))
    assert res == pytest.approx(4 * math.pi / 3, rel=1e-14)


def test_centered_weighted_ball_against_radial_quadrature():
    # a = 1/2 borderline weight: 1D oracle integral of 4 pi rho over [0, 1]
    res = ball_weight_integral(3, -1.0, BallSpec((0.0, 0.0, 0.0), 1.0))
    rho = np.linspace(0.0, 1.0, 400001)
    oracle = np.trapezoid(4 * math.pi * rho, rho)
    assert res == pytest.approx(2 * math.pi, rel=1e-12)
    assert res == pytest.approx(oracle, rel=1e-8)


def _cap_samples():
    rng = np.random.default_rng(7)
    near_pole = rng.uniform(0.0, 1e-4, 40)
    return np.concatenate([rng.uniform(-1.0, 1.0, 100),
                           rng.uniform(-1e-4, 1e-4, 40),  # near the equator
                           [0.0, 1e-9, -1e-12, 1e-300],
                           1.0 - near_pole, near_pole - 1.0,  # near the poles
                           [1.0, -1.0, 1.5, -1.5]])  # clipped


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
def test_cap_fraction_exact_to_round_off(N):
    """Against 0.5 I_{1-c^2}((N-1)/2, 1/2) (c >= 0) in 40-digit arithmetic,
    where 1 - c^2 is exact, also relative to the small caps near the poles,
    and symmetric about the equator."""
    mp = pytest.importorskip("mpmath")
    c = _cap_samples()
    got = cap_fraction(N, c)
    with mp.workdps(40):
        for ci, fi in zip(np.clip(c, -1.0, 1.0).tolist(), got.tolist()):
            x = mp.mpf(ci)
            half = mp.betainc(mp.mpf(N - 1) / 2, mp.mpf(1) / 2, 0, 1 - x * x,
                              regularized=True) / 2
            exact = half if ci >= 0 else 1 - half
            assert abs(fi - exact) <= 1e-15, ci
            assert abs(fi - exact) <= 1e-14 * exact, ci
    assert np.max(np.abs(got + cap_fraction(N, -c) - 1.0)) <= 2.0 ** -52


def test_shell_quadrature_matches_the_closed_form():
    for N in range(3, 7):
        a = np.linspace(-1.5, (N - 2) / 2 - 1e-3, 200)
        for r in (0.1, 1.0, 2.0):
            closed = np.array([centered_weight_integral(N, w, r)
                               for w in (-2 * a).tolist()])
            quadr = centered_weight_quadrature(np.full(len(a), N), -2 * a,
                                               np.full(len(a), r))
            assert np.max(np.abs(quadr - closed) / closed) <= 1e-13


def test_frozen_gauss_legendre_rule_is_leggauss():
    """The frozen rule is `leggauss(64)`, whose eigenvalue solve moves its
    last bits with the CPU: nodes to 1e-15, weights to 2e-12 relative."""
    from numpy.polynomial.legendre import leggauss
    x, w = measure._gauss_legendre_64()
    ref_x, ref_w = leggauss(64)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert np.max(np.abs(x - ref_x)) <= 1e-15
    assert np.max(np.abs(w - ref_w) / ref_w) <= 2e-12


def test_frozen_gauss_legendre_rule_integrates_odd_powers():
    """On [0, 1], in u = (x + 1)/2, the rule gives the integral of
    2 u^{2e+1}, 1/(e + 1), to round-off for e in [1, 8]."""
    x, w = measure._gauss_legendre_64()
    u = 0.5 * (x + 1.0)
    for e in np.linspace(1.0, 8.0, 57).tolist():
        got = float(0.5 * (2.0 * u ** (2.0 * e + 1.0)) @ w)
        assert abs(got * (e + 1.0) - 1.0) <= 1e-14, e


def test_offcenter_ball_interval_bounds():
    # weight between (|x0|-r)^{-2a} and (|x0|+r)^{-2a} on the ball
    ball = BallSpec((2.0, 0.0, 0.0), 0.5)
    res = ball_weight_integral(3, -1.0, ball)
    vol = 4 * math.pi / 3 * 0.5 ** 3
    lo, hi = vol * 2.5 ** -1.0, vol * 1.5 ** -1.0
    assert lo <= res <= hi


def test_offcenter_matches_centered_closed_form_when_weightless():
    # a = 0: measure is plain volume wherever the ball sits
    for center in [(0.7, 0.0, 0.0), (0.2, 0.1, -0.05), (3.0, 4.0, 0.0)]:
        res = ball_measure(P300, BallSpec(center, 0.6))
        assert res == pytest.approx(4 * math.pi / 3 * 0.6 ** 3, rel=1e-9)


def test_ball_straddling_origin():
    # |x0| < r: split at the full-shell radius must stay stable
    ball = BallSpec((0.3, 0.0, 0.0), 1.0)
    res = ball_weight_integral(3, -1.0, ball)
    # Monte-Carlo oracle, loose tolerance
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.3, size=(400000, 3))
    inside = np.linalg.norm(pts - np.array([0.3, 0.0, 0.0]), axis=1) <= 1.0
    w = np.linalg.norm(pts[inside], axis=1) ** -1.0
    mc = w.mean() * inside.mean() * 2.3 ** 3
    assert res == pytest.approx(mc, rel=0.02)


def test_rotation_invariance():
    r1 = ball_measure(P304, BallSpec((1.3, 0.0, 0.0), 0.4))
    c = 1.3 / math.sqrt(3.0)
    r2 = ball_measure(P304, BallSpec((c, c, c), 0.4))
    assert r1 == pytest.approx(r2, rel=1e-9)


def test_measure_monotone_in_radius():
    vals = [ball_measure(P304, BallSpec((0.5, 0.2, 0.0), r))
            for r in [0.1, 0.2, 0.4, 0.8]]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_higher_dimension_centered_and_offcenter():
    params = validate(5, 0.7, 0.9, INF)
    r = ball_measure(params, BallSpec((0.0,) * 5, 0.8))
    assert r == pytest.approx(
        sphere_area(5) * 0.8 ** (5 - 1.4) / (5 - 1.4), rel=1e-13)
    off = ball_measure(params, BallSpec((2.0, 0, 0, 0, 0), 0.5))
    vol5 = sphere_area(5) / 5 * 0.5 ** 5
    assert vol5 * 2.5 ** -1.4 <= off <= vol5 * 1.5 ** -1.4


def test_doubling_centered_closed_form():
    assert doubling_ratio(P300, (0.0, 0.0, 0.0), 1.0, 0.5) == pytest.approx(8.0, rel=1e-12)
    assert doubling_ratio(P304, (0.0, 0.0, 0.0), 1.0, 0.5) == pytest.approx(
        2 ** (3 - 0.8), rel=1e-12)


def test_doubling_far_ball_unweighted_limit():
    # |x0| >> r: weight locally constant, ratio -> tau^{-N}
    ratio = doubling_ratio(P304, (50.0, 0.0, 0.0), 0.5, 0.5)
    assert ratio == pytest.approx(8.0, rel=0.05)


def test_doubling_empirical_family_bounded():
    rng = np.random.default_rng(42)
    params = validate(3, 0.4, 0.5, INF)
    tau = 0.5
    cap = 10.0 * 2 ** (3 - 2 * 0.4) * tau ** -3
    for _ in range(100):
        center = rng.uniform(-1.0, 1.0, size=3)
        r = rng.uniform(0.05, 0.5)
        assert doubling_ratio(params, center, r, tau) < cap


def test_nonpositive_radius_rejected():
    with pytest.raises(GridError) as exc:
        BallSpec((0.0, 0.0, 0.0), 0.0)
    assert exc.value.code == "nonpositive_radius"


def test_lemma_a1_centered_ratio_is_radius_independent():
    params = validate(3, 0.25, 0.5, INF)
    eps = 0.37
    ratios = []
    for rho in [0.2, 0.5, 1.0, 2.0]:
        out = lemma_a1_ratio(params, BallSpec((0.0, 0.0, 0.0), rho), eps)
        ratios.append(out["ratio"])
        assert out["ratio"] > 0
        assert out["ratio"] <= out["envelope"] * (1 + 1e-6)
    # exponent algebra: (N-bp)(2/p+eps) = N-2-2a+eps(N-bp) makes this flat
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-10)


def test_lemma_a1_random_family_under_envelope():
    params = validate(3, 0.3, 0.6, INF)
    eps = epsilon_choice(validate(3, 0.3, 0.6, 12.0))
    rng = np.random.default_rng(11)
    for _ in range(60):
        center = rng.uniform(-1.5, 1.5, size=3)
        rho = rng.uniform(0.05, 1.0)
        out = lemma_a1_ratio(params, BallSpec(center, rho), eps)
        assert out["ratio"] <= out["envelope"] * (1 + 1e-6)


def _mp_ball_integral(mp, N, w, d, rho):
    """Integral of |x|^w over B_rho(x0), |x0| = d, in 40-digit arithmetic:
    the inner closed form plus the shell integral with the cap fraction
    0.5 I_{1-c^2}((N-1)/2, 1/2), by `mpmath.quad` split where the quadrature
    splits."""
    with mp.workdps(40):
        d, rho, w = mp.mpf(d), mp.mpf(rho), mp.mpf(w)
        area = 2 * mp.pi ** (mp.mpf(N) / 2) / mp.gamma(mp.mpf(N) / 2)
        total = area * (rho - d) ** (N + w) / (N + w) if d < rho else 0
        breaks = [abs(d - rho), d + rho]
        if d < rho and breaks[0] < mp.sqrt(rho ** 2 - d ** 2):
            breaks.insert(1, mp.sqrt(rho ** 2 - d ** 2))

        def shell(t):
            c = (t * t + d * d - rho * rho) / (2 * t * d)
            half = mp.betainc(mp.mpf(N - 1) / 2, mp.mpf(1) / 2, 0, 1 - c * c,
                              regularized=True) / 2
            return area * t ** (N - 1 + w) * (half if c >= 0 else 1 - half)

        return total + mp.quad(shell, breaks)


# (|x0|, rho, w, value) in R^3 from `_mp_ball_integral`, which agrees to
# the last bit at 45 digits
FROZEN_BALLS = [
    (0.3, 1.0, -0.6, 5.123428321907011),  # d < rho, split at t_orth
    (0.3, 1.0, -15 / 7, 14.247864864333362),
    (1.0, 3.0, -0.6, 71.19038828243467),
    (1e-20, 0.5, -0.6, 0.9920341729736274),  # d < rho, no segment left
    (1e-20, 0.5, -15 / 7, 8.09339884514741),
    (1e-6, 0.5, -0.6, 0.992034172972675),  # d < rho, thin segments
    (1e-6, 0.5, -15 / 7, 8.0933988451375),
    (2.0, 0.5, -0.6, 0.34492328739574857),  # d > rho
    (2.0, 0.5, -15 / 7, 0.12042838078383947),
    (0.7, 0.7, -0.6, 1.7266209066712301),  # d = rho: the shells start at 0
    (0.7, 0.7, -2.2, 5.711100528394944),  # ... under t^{N-1+w}, N-1+w < 0
    (0.7, 0.7, -15 / 7, 5.2666438131344835),
    (0.7, 0.7 + 1e-9, -2.2, 5.711102976787213),  # near-touching
    (0.7, 0.7 - 1e-9, -15 / 7, 5.266642864359945),
    (0.9, 0.005, -0.6, 5.577669731156647e-07),  # small rho
    (0.9, 1e-4, -0.6, 4.462139088906575e-12),
    (0.9, 1e-4, -15 / 7, 5.249771200921983e-12),
]


# (N, |x0|, rho, w, value) from `_mp_ball_integral`: far, small (rho =
# 0.05 |x0| and rho = 0.005), containing, through-origin and near-touching
# balls, at a weight with N - 1 + w < 0 for N = 4
FROZEN_BALLS_HIGH_N = [
    (4, 2.0, 0.5, -0.6, 0.20259171190161182),
    (4, 2.0, 0.5, -3.1, 0.036630724188005136),
    (4, 0.1, 0.005, -0.6, 1.2276476861584867e-08),
    (4, 0.1, 0.005, -3.1, 3.885604281004021e-06),
    (4, 0.9, 0.005, -0.6, 3.2855140075377265e-09),
    (4, 0.9, 0.005, -3.1, 4.275646551644281e-09),
    (4, 0.3, 1.0, -0.6, 5.674238308817542),
    (4, 0.3, 1.0, -3.1, 21.228936156547483),
    (4, 0.7, 0.7, -0.6, 1.358254122756627),
    (4, 0.7, 0.7, -3.1, 6.726844661192097),
    (4, 0.7, 0.7 + 1e-9, -0.6, 1.3582541301785154),
    (4, 0.7, 0.7 + 1e-9, -3.1, 6.726845612281195),
    (4, 0.7, 0.7 - 1e-9, -0.6, 1.3582541153347385),
    (4, 0.7, 0.7 - 1e-9, -3.1, 6.726843710103002),
    (5, 2.0, 0.5, -0.6, 0.10782878242620494),
    (5, 2.0, 0.5, -3.1, 0.019211779950389342),
    (5, 0.1, 0.005, -0.6, 6.546916666815438e-11),
    (5, 0.1, 0.005, -3.1, 2.0709640191364412e-08),
    (5, 0.9, 0.005, -0.6, 1.7522723603626893e-11),
    (5, 0.9, 0.005, -3.1, 2.2803263859134953e-11),
    (5, 0.3, 1.0, -0.6, 5.842297850632392),
    (5, 0.3, 1.0, -3.1, 13.116542949323266),
    (5, 0.7, 0.7, -0.6, 0.986835894096007),
    (5, 0.7, 0.7, -3.1, 2.7711199543003207),
    (5, 0.7, 0.7 + 1e-9, -0.6, 0.9868359008462961),
    (5, 0.7, 0.7 + 1e-9, -3.1, 2.7711199747758175),
    (5, 0.7, 0.7 - 1e-9, -0.6, 0.986835887345718),
    (5, 0.7, 0.7 - 1e-9, -3.1, 2.7711199338248242),
    (6, 2.0, 0.5, -0.6, 0.05285007868919014),
    (6, 2.0, 0.5, -3.1, 0.009313727433513585),
    (6, 0.1, 0.005, -0.6, 3.213512338757802e-13),
    (6, 0.1, 0.005, -3.1, 1.0160824746225426e-10),
    (6, 0.9, 0.005, -0.6, 8.601440292950273e-14),
    (6, 0.9, 0.005, -3.1, 1.1193458078403968e-13),
    (6, 0.3, 1.0, -0.6, 5.605810227894059),
    (6, 0.3, 1.0, -3.1, 9.980341944611114),
    (6, 0.7, 0.7, -0.6, 0.6661855863551268),
    (6, 0.7, 0.7, -3.1, 1.4447752070262383),
    (6, 0.7, 0.7 + 1e-9, -0.6, 0.6661855918446689),
    (6, 0.7, 0.7 + 1e-9, -3.1, 1.4447752178946411),
    (6, 0.7, 0.7 - 1e-9, -0.6, 0.6661855808655847),
    (6, 0.7, 0.7 - 1e-9, -3.1, 1.4447751961578357),
]


@pytest.mark.parametrize("d,rho,w,value", FROZEN_BALLS)
def test_offcenter_quadrature_frozen_values(d, rho, w, value):
    res = ball_weight_integral(3, w, BallSpec((d, 0.0, 0.0), rho))
    assert abs(res - value) <= 1e-11 * value


@pytest.mark.parametrize("N,d,rho,w,value", FROZEN_BALLS_HIGH_N)
def test_offcenter_quadrature_frozen_values_high_n(N, d, rho, w, value):
    res = ball_weight_integral(N, w, BallSpec((d,) + (0.0,) * (N - 1), rho))
    assert abs(res - value) <= 1e-11 * value


def test_frozen_values_are_the_mpmath_integral():
    """A sample of both tables (all of them take about 3 s)."""
    mp = pytest.importorskip("mpmath")
    for N, d, rho, w, value in ([(3,) + row for row in FROZEN_BALLS[::4]]
                                + FROZEN_BALLS_HIGH_N[::10]):
        assert float(_mp_ball_integral(mp, N, w, d, rho)) == value


def test_batch_matches_one_ball_at_a_time():
    rng = np.random.default_rng(5)
    rows = FROZEN_BALLS[:7] + FROZEN_BALLS[9:14]
    d = np.concatenate([[d for d, _, _, _ in rows], rng.uniform(0.0, 2.5, 40)])
    rho = np.concatenate([[r for _, r, _, _ in rows], rng.uniform(0.01, 1.5, 40)])
    for w in (-0.6, -2.2, -15 / 7):
        values = ball_weight_integrals(3, w, d, rho)
        for di, ri, v in zip(d, rho, values.tolist()):
            assert v == ball_weight_integral(3, w, BallSpec((di, 0.0, 0.0), ri))


def test_centered_ball_in_a_batch_gets_the_closed_form():
    values = ball_weight_integrals(3, -0.6, [0.0, 0.4], [0.8, 0.8])
    assert values[0] == centered_weight_integral(3, -0.6, 0.8)


def test_lemma_a1_ratios_match_the_one_ball_form():
    params = validate(3, 0.3, 0.6, INF)
    eps = epsilon_choice(validate(3, 0.3, 0.6, 12.0))
    rng = np.random.default_rng(3)
    balls = [BallSpec(rng.uniform(-1.5, 1.5, size=3), rng.uniform(0.05, 1.0))
             for _ in range(20)] + [BallSpec((0.0, 0.0, 0.0), 0.4)]
    for ball, out in zip(balls, lemma_a1_ratios(params, balls, eps)):
        assert out == lemma_a1_ratio(params, ball, eps)
