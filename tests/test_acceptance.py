"""Acceptance suite: one test per release criterion.

Each test prints a single `[criterion NN] name: PASS/FAIL` line so the
full gate status is visible in one screen of output.  Tolerances and
frozen constants are pinned here on purpose; loosening them is a release
decision, not a refactor.
"""
import math
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from cknlab.cli import main
from cknlab.fields import DiscreteField, RadialGrid
from cknlab.inequalities import (build_test_suite, ckn_ratio,
                                 estimate_alpha_h, poincare_ratio)
from cknlab.measure import (BallSpec, centered_weight_integral, doubling_ratio,
                            lemma_a1_ratio, sphere_area)
from cknlab.moser import (interpolation_gap, lemma_a2_property_check,
                          run_ladder)
from cknlab.params import (INF, epsilon_choice, k0_threshold, moser_ladder,
                           validate)
from cknlab.regularity import default_radii, campanato_profile, fit_growth, \
    regularity_report
from cknlab.solver import (assemble, ckn_bubble, dilate_radial,
                           exact_radial_mms, harmonic_replacement, residual,
                           solve, stiffness_quadratic_form)
from radial_quad import ckn_ratio_radial_quad

# constants frozen at the first verified run of the 50-field suite
# (seed 2024, N=3, a=0.3, b=0.5, n=512, ball B_0.9(0))
FROZEN_CKN_CONSTANT = 0.6011694862372252
FROZEN_POINCARE_CONSTANT = 0.05795597788441533


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")


def _orders(errs):
    return [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]


def test_criterion_01_exponent_algebra():
    t0 = time.perf_counter()
    ok = abs(validate(3, 0.0, 0.0).p - 6.0) < 1e-14
    ok &= abs(validate(4, 0.5, 0.75).p - 3.2) < 1e-14
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        N = int(rng.integers(3, 9))
        a = float(rng.uniform(-2.0, (N - 2) / 2.0 - 1e-6))
        b = a + float(rng.uniform(0.0, 1.0))
        pr = validate(N, a, b)
        worst = max(worst, abs((N - pr.bp) * (2.0 / pr.p) - (N - 2 - 2 * a)))
    elapsed = time.perf_counter() - t0
    ok &= worst <= 1e-12 and elapsed < 1.0
    _report(1, "exponent algebra", ok)
    assert worst <= 1e-12, f"identity violated by {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert ok


def test_criterion_02_measure_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_rel = 0.0
    worst_dbl = 0.0
    for _ in range(100):
        N = int(rng.integers(3, 7))
        a = float(rng.uniform(-1.5, (N - 2) / 2.0 - 1e-3))
        r = float(rng.uniform(0.1, 2.0))
        closed = centered_weight_integral(N, -2.0 * a, r)
        shells = quad(lambda t: sphere_area(N) * t ** (N - 1 - 2 * a),
                      0.0, r, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        worst_rel = max(worst_rel, abs(closed - shells) / abs(shells))
        pr = validate(N, a, a)
        dbl = doubling_ratio(pr, (0.0,) * N, r, 0.5)
        worst_dbl = max(worst_dbl, abs(dbl - 2.0 ** (N - 2 * a)) / 2.0 ** (N - 2 * a))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-8 and worst_dbl <= 1e-10 and elapsed < 10.0
    _report(2, "weighted measure identities", ok)
    assert worst_rel <= 1e-8, f"closed form vs quadrature: {worst_rel}"
    assert worst_dbl <= 1e-10, f"centered doubling ratio: {worst_dbl}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_03_mms_convergence():
    t0 = time.perf_counter()
    ns = (256, 512, 1024, 2048)

    # classical case u = (1 - r^2)/6 on the full ball
    pc = validate(3, 0.0, 0.0)
    u_exact, f_fn = exact_radial_mms(pc, 0.0, 1.0)
    errs_c = []
    for n in ns:
        grid = RadialGrid(0.0, 1.0, n)
        f = DiscreteField.from_function(grid, f_fn)
        uh, rep = solve(assemble(pc, grid, f, dirichlet=0.0))
        assert rep.converged
        errs_c.append(float(np.max(np.abs(uh.values - u_exact(grid.centers)))))

    # weighted case on an annulus: uniform grids touching the origin lose
    # an order for this data, so the study runs away from r = 0 where the
    # scheme is uniformly second order
    pw = validate(3, 0.25, 0.25)
    uw_exact, fw_fn = exact_radial_mms(pw, 0.0, 1.0)
    errs_w = []
    for n in ns:
        grid = RadialGrid(0.1, 1.0, n)
        f = DiscreteField.from_function(grid, fw_fn)
        uh, rep = solve(assemble(pw, grid, f, dirichlet=float(uw_exact(1.0)),
                                 inner=float(uw_exact(0.1))))
        assert rep.converged
        errs_w.append(float(np.max(np.abs(uh.values - uw_exact(grid.centers)))))

    elapsed = time.perf_counter() - t0
    ok = all(1.8 <= o <= 2.5 for o in _orders(errs_c) + _orders(errs_w))
    ok &= errs_c[-1] <= 1e-5 and errs_w[-1] <= 1e-5 and elapsed < 30.0
    _report(3, "manufactured-solution convergence", ok)
    assert all(1.8 <= o <= 2.5 for o in _orders(errs_c)), _orders(errs_c)
    assert all(1.8 <= o <= 2.5 for o in _orders(errs_w)), _orders(errs_w)
    assert errs_c[-1] <= 1e-5 and errs_w[-1] <= 1e-5, (errs_c[-1], errs_w[-1])
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_04_harmonic_replacement():
    params = validate(3, 0.3, 0.5)
    grid = RadialGrid(0.0, 1.0, 256)
    suite = build_test_suite(grid, seed=4242, n_fields=50)
    rng = np.random.default_rng(4242)
    ok = True
    for i, (desc, u) in enumerate(suite):
        ball = BallSpec((0.0,), float(rng.uniform(0.25, 0.75)))
        w = harmonic_replacement(params, u, ball)
        eu = stiffness_quadratic_form(params, grid, u.values)
        ew = stiffness_quadratic_form(params, grid, w.values)
        minimal = ew <= eu + 1e-10 * max(1.0, eu)
        ok &= minimal
        assert minimal, f"energy grew on {desc}: {ew} > {eu}"
        if i % 10 == 0:  # idempotence on already-harmonic inputs
            w2 = harmonic_replacement(params, w, ball)
            drift = stiffness_quadratic_form(params, grid, w2.values - w.values)
            ok &= drift <= 1e-10
            assert drift <= 1e-10, f"replacement not idempotent on {desc}: {drift}"
    _report(4, "harmonic replacement minimality", ok)
    assert ok


def test_criterion_05_fundamental_solution_residual():
    ok = True
    for a in (-0.5, 0.0, 0.4):
        params = validate(3, a, a)
        expo = 2 + 2 * a - 3
        norms = []
        for n in (64, 128, 256):
            grid = RadialGrid(0.25, 2.0, n)
            u = DiscreteField.from_function(grid, lambda r: r ** expo)
            zero = u.with_values(np.zeros(n))
            rep = residual(params, u, zero)
            norms.append(rep.dual_norm)
        ratios = [n1 / n2 for n1, n2 in zip(norms, norms[1:])]
        ok &= all(r >= 3.3 for r in ratios)
        assert all(r >= 3.3 for r in ratios), f"a={a}: ratios {ratios}"
    _report(5, "fundamental solution residual decay", ok)
    assert ok


def test_criterion_06_dilation_symmetry():
    params = validate(3, 0.3, 0.5)
    u, K, _, _ = ckn_bubble(params)
    ul = dilate_radial(params, u, 2.0)
    norms = []
    for n in (200, 400, 800):
        grid = RadialGrid(0.05, 3.0, n)
        uf = DiscreteField.from_function(grid, ul)
        ff = uf.with_values(K * np.abs(uf.values) ** (params.p - 2) * uf.values)
        rep = residual(params, uf, ff)
        norms.append(rep.dual_norm)
    orders = [math.log2(n1 / n2) for n1, n2 in zip(norms, norms[1:])]
    ok = all(o >= 1.8 for o in orders)
    _report(6, "dilation symmetry of the rescaled solution", ok)
    assert ok, f"orders {orders}"


def test_criterion_07_inequality_suites_frozen_constants():
    params = validate(3, 0.3, 0.5)

    def suite_maxima(n):
        grid = RadialGrid(0.0, 1.0, n)
        ball = BallSpec((0.0,), 0.9)
        ckn_max = poin_max = 0.0
        for _, f in build_test_suite(grid, seed=2024, n_fields=50):
            c = ckn_ratio(params, f)
            p = poincare_ratio(params, f, ball)
            assert math.isfinite(c.ratio) and math.isfinite(p.ratio)
            ckn_max = max(ckn_max, c.ratio)
            poin_max = max(poin_max, p.ratio)
        return ckn_max, poin_max

    ckn_512, poin_512 = suite_maxima(512)
    ok = ckn_512 <= FROZEN_CKN_CONSTANT * (1 + 1e-9)
    ok &= poin_512 <= FROZEN_POINCARE_CONSTANT * (1 + 1e-9)

    ckn_1024, poin_1024 = suite_maxima(1024)
    ok &= abs(ckn_1024 - FROZEN_CKN_CONSTANT) <= 0.02 * FROZEN_CKN_CONSTANT
    ok &= abs(poin_1024 - FROZEN_POINCARE_CONSTANT) \
        <= 0.02 * FROZEN_POINCARE_CONSTANT

    # dilation invariance of the continuum ratio for a Gaussian profile
    lam = 2.0
    e = (params.N - 2 - 2 * params.a) / 2.0

    def u(r):
        return np.exp(-np.asarray(r, float) ** 2)

    def du(r):
        return -2.0 * np.asarray(r, float) * u(r)

    ul = dilate_radial(params, u, lam)

    def dul(r):
        return lam ** e * lam * du(lam * np.asarray(r, float))

    r0 = ckn_ratio_radial_quad(params, u, du, 8.0)
    r1 = ckn_ratio_radial_quad(params, ul, dul, 4.0)
    ok &= abs(r1 - r0) <= 1e-6 * r0

    # scale invariance of the discrete ratio
    grid = RadialGrid(0.0, 1.0, 512)
    f0 = build_test_suite(grid, seed=2024, n_fields=1)[0][1]
    s0 = ckn_ratio(params, f0).ratio
    s1 = ckn_ratio(params, f0.with_values(3.7 * f0.values)).ratio
    ok &= abs(s1 - s0) <= 1e-6 * s0

    _report(7, "inequality suites vs frozen constants", ok)
    assert ckn_512 <= FROZEN_CKN_CONSTANT * (1 + 1e-9), ckn_512
    assert poin_512 <= FROZEN_POINCARE_CONSTANT * (1 + 1e-9), poin_512
    assert abs(ckn_1024 - FROZEN_CKN_CONSTANT) <= 0.02 * FROZEN_CKN_CONSTANT
    assert abs(poin_1024 - FROZEN_POINCARE_CONSTANT) \
        <= 0.02 * FROZEN_POINCARE_CONSTANT
    assert abs(r1 - r0) <= 1e-6 * r0, (r0, r1)
    assert abs(s1 - s0) <= 1e-6 * s0, (s0, s1)


def test_criterion_08_alpha_h_estimation():
    radii = [0.2 * 0.7 ** k for k in range(6)]
    ok = True
    for a, floor in ((0.0, 0.9), (-0.5, 0.0), (0.4, 0.0)):
        params = validate(3, a, a)
        grid = RadialGrid(0.25, 2.0, 4000)
        expo = 2 + 2 * a - 3
        u = DiscreteField.from_function(grid, lambda r: r ** expo)
        est = estimate_alpha_h(params, u, (1.2,), radii)
        good = (floor < est.alpha_h <= 1.0) and est.fit_residual <= 0.05
        ok &= good
        assert good, (a, est)
    _report(8, "oscillation-decay exponent estimation", ok)
    assert ok


def test_criterion_09_regularity_pipeline():
    t0 = time.perf_counter()
    ok = True
    for a, b, s in ((0.0, 0.0, INF), (0.3, 0.4, INF), (0.0, 0.0, 1.6),
                    (-0.5, -0.2, INF)):
        params = validate(3, a, b, s, for_regularity=True)
        grid = RadialGrid(0.0, 1.0, 512)
        f = DiscreteField.from_function(grid, lambda r: np.ones_like(r))
        u, rep = solve(assemble(params, grid, f, dirichlet=0.0))
        assert rep.converged
        radii = default_radii(grid, (0.0,))
        report = regularity_report(params, u, (0.0,), radii,
                                   alpha_h_est=1.0)
        ok &= report.passed
        assert report.passed, (a, b, s, report)

    # constructed profile with a known exponent: |x|^{1/2} at a = 0
    p300 = validate(3, 0.0, 0.0)
    grid = RadialGrid(0.0, 1.0, 4096)
    u = DiscreteField.from_function(grid, np.sqrt)
    fit = fit_growth(campanato_profile(p300, u, (0.0,), default_radii(grid, (0.0,))),
                     p300, "measure_normalized")
    elapsed = time.perf_counter() - t0
    ok &= abs(fit.exponent - 0.5) <= 0.05 and elapsed < 120.0
    _report(9, "regularity pipeline", ok)
    assert abs(fit.exponent - 0.5) <= 0.05, fit
    assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_criterion_10_moser_ladder():
    ok = True
    # exact exponent sequence and threshold index against direct search
    for a, b, p_want, k0_want in ((0.0, 0.0, 6, 1), (0.0, 0.25, 4, 2)):
        params = validate(3, a, b)
        assert params.p == p_want
        want = [float(Fraction(p_want) ** (k + 1) / 2 ** k) for k in range(8)]
        ok &= moser_ladder(params, 7) == want
        k = 0
        while (p_want / 2.0) ** k < 2.0 * (p_want - 1) / (p_want - 2):
            k += 1
        ok &= k0_threshold(params) == k == k0_want

    # bounded solution keeps every ladder norm finite through k0 + 2
    params = validate(3, 0.0, 0.0)
    u_fn, K, _, _ = ckn_bubble(params)
    grid = RadialGrid(0.0, 3.0, 2000)
    u = DiscreteField.from_function(grid, u_fn)
    states = run_ladder(params, u, K, k0_threshold(params) + 2, margin0=0.3)
    ok &= all(math.isfinite(s.norm_q) for s in states)

    # interpolation between ladder rungs is log-convex to 1%
    rng = np.random.default_rng(1010)
    pgrid = RadialGrid(0.0, 1.0, 512)
    pars = validate(3, 0.3, 0.5)
    for _ in range(20):
        v = DiscreteField(grid=pgrid, values=rng.uniform(0.1, 2.0, size=512))
        theta = float(rng.uniform(0.1, 0.9))
        gap = interpolation_gap(pars, v, 6.0, 18.0, theta, margin=0.05)
        ok &= gap >= -0.01
        assert gap >= -0.01, gap
    _report(10, "integrability ladder", ok)
    assert ok


def test_criterion_11_iteration_lemma_engine():
    t0 = time.perf_counter()
    params = validate(3, 0.3, 0.5, 12.0)
    rng = np.random.default_rng(1111)
    violations = 0
    for i in range(20):
        alpha = float(rng.uniform(0.3, 1.2))
        gamma = alpha + float(rng.uniform(0.3, 1.0))
        beta = gamma + float(rng.uniform(0.3, 1.5))
        if i % 2 == 0:
            center, r_lo = (0.0, 0.0, 0.0), 0.02
        else:
            center, r_lo = (float(rng.uniform(0.3, 0.8)), 0.0, 0.0), 0.05
        out = lemma_a2_property_check(params, alpha=alpha, beta=beta,
                                      gamma=gamma, center=center, r_lo=r_lo,
                                      r_hi=1.0, n_trials=50,
                                      seed=int(rng.integers(1 << 31)))
        violations += out["violations"]

    eps = epsilon_choice(params)
    a1_bad = 0
    for _ in range(1000):
        center = rng.uniform(-1.5, 1.5, size=3)
        rho = float(rng.uniform(0.05, 1.0))
        out = lemma_a1_ratio(params, BallSpec(tuple(center), rho), eps)
        a1_bad += out["ratio"] > out["envelope"] * (1 + 1e-6)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and a1_bad == 0 and elapsed < 60.0
    _report(11, "iteration lemma engine", ok)
    assert violations == 0, f"{violations} envelope violations"
    assert a1_bad == 0, f"{a1_bad} measure-ratio bound violations"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_12_determinism(tmp_path):
    configs = {
        "a1.cfg": ("lemma_a1_envelope",
                   "params.N=3\nparams.a=0.3\nparams.b=0.5\nseed=5\nn_balls=30\n",
                   "lemma_a1_report.csv"),
        "ineq.cfg": ("inequality_suite",
                     "params.N=3\nparams.a=0.3\nparams.b=0.5\nseed=9\ngrid.n=128\n",
                     "inequality_report.csv"),
        "a2.cfg": ("lemma_a2_property",
                   "params.N=3\nparams.a=0.3\nparams.b=0.5\nseed=3\n"
                   "n_envelopes=2\nn_trials=5\n",
                   "lemma_a2_report.csv"),
    }
    ok = True
    for fname, (exp, extra, out_name) in configs.items():
        cfg = tmp_path / fname
        cfg.write_text(f"experiment={exp}\noutput_dir={tmp_path}\n" + extra)
        assert main(["run", str(cfg)]) == 0
        first = (tmp_path / out_name).read_bytes()
        assert main(["run", str(cfg)]) == 0
        same = (tmp_path / out_name).read_bytes() == first
        ok &= same
        assert same, f"{exp} rerun differs"
    _report(12, "experiment determinism", ok)
    assert ok
