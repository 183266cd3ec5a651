import math
from fractions import Fraction

import numpy as np
import pytest

from cknlab.errors import ParameterError, SolverError
from cknlab.fields import DiscreteField, RadialGrid
from cknlab.measure import centered_weight_integral
from cknlab import moser
from cknlab.moser import (MeasureTable, interpolation_gap,
                          lemma_a2_property_check, run_ladder,
                          subdomain_lq_norm)
from cknlab.params import INF, k0_threshold, moser_ladder, validate
from cknlab.solver import ckn_bubble

P300 = validate(3, 0.0, 0.0, INF)
P335 = validate(3, 0.3, 0.5, INF)


def test_ladder_q_sequence_fraction_oracle():
    params = validate(3, 0.0, 0.25)  # p = 4
    ladder = moser_ladder(params, 5)
    want = [float(Fraction(4) ** (k + 1) / 2 ** k) for k in range(6)]
    assert ladder == want


def test_run_ladder_harmonic_k_zero():
    a = 0.3
    params = validate(3, a, a, INF)
    grid = RadialGrid(0.25, 2.0, 1000)
    expo = 2 + 2 * a - 3
    u = DiscreteField.from_function(grid, lambda r: r ** expo)
    k_stop = k0_threshold(params) + 2
    states = run_ladder(params, u, 0.0, k_stop, margin0=0.2)
    assert len(states) == k_stop + 1
    assert [s.q_k for s in states] == moser_ladder(params, k_stop)
    assert all(math.isfinite(s.norm_q) for s in states)
    assert all(s2.subdomain_margin > s1.subdomain_margin
               for s1, s2 in zip(states, states[1:]))


def test_run_ladder_bubble_solution():
    params = P300
    u_fn, K, _, _ = ckn_bubble(params)
    grid = RadialGrid(0.0, 3.0, 2000)
    u = DiscreteField.from_function(grid, u_fn)
    k_stop = k0_threshold(params) + 2
    states = run_ladder(params, u, K, k_stop, margin0=0.3)
    assert all(s.norm_q < 1e3 for s in states)
    # cross-check the first ladder norm by 1D quadrature (full-domain margin 0)
    got = subdomain_lq_norm(params, u, params.p, 0.0)
    r = np.linspace(0, 3.0, 200001)
    oracle = (np.trapezoid(4 * math.pi * r * r * u_fn(r) ** 6, r)) ** (1 / 6)
    assert got == pytest.approx(oracle, rel=1e-3)


def test_run_ladder_rejects_non_solution():
    grid = RadialGrid(0.25, 2.0, 400)
    u = DiscreteField.from_function(grid, lambda r: np.sin(5 * r))
    with pytest.raises(SolverError) as exc:
        run_ladder(P300, u, 0.0, 3)
    assert exc.value.code == "residual_too_large"


def test_interpolation_log_convexity():
    rng = np.random.default_rng(17)
    grid = RadialGrid(0.0, 1.0, 512)
    for _ in range(10):
        u = DiscreteField(grid=grid, values=rng.uniform(0.1, 2.0, size=512))
        gap = interpolation_gap(P335, u, 6.0, 18.0, 0.37, margin=0.05)
        assert gap >= -1e-10
    const = DiscreteField(grid=grid, values=np.full(512, 1.3))
    assert abs(interpolation_gap(P335, const, 6.0, 18.0, 0.5, 0.05)) < 1e-12


def test_lemma_a2_tau_examples():
    assert moser._tau(4.0, 0.5, 2.5) == 0.5
    assert moser._tau(1.0, 0.5, 2.5) == 0.5
    assert moser._tau(100.0, 1.0, 2.0) == pytest.approx(0.01)


def test_lemma_a2_property_check_needs_ordered_exponents():
    with pytest.raises(ParameterError) as exc:
        lemma_a2_property_check(P335, 2.0, 1.0, 1.5, (0.0, 0.0, 0.0),
                                0.02, 1.0, n_trials=5, seed=1)
    assert exc.value.code == "exponent_order_violation"


def test_centered_doubling_constant_exact():
    # centred, mu_a(B_r) / mu_a(B_{tau r}) = tau^{-(N-2a)} at every r
    t = MeasureTable(P300, (0.0, 0.0, 0.0), 0.01, 2.0)
    assert t.doubling_constant(0.5) == pytest.approx(8.0, rel=1e-12)
    p = validate(3, 0.4, 0.5, INF)
    t = MeasureTable(p, (0.0, 0.0, 0.0), 0.01, 2.0)
    assert t.doubling_constant(0.5) == pytest.approx(2 ** (3 - 0.8), rel=1e-12)
    assert np.allclose(t.doubling_constant(np.array([0.25, 0.7])),
                       np.array([0.25, 0.7]) ** -(3 - 0.8), rtol=1e-12, atol=0)


def test_measure_table_centered_and_offcenter():
    t = MeasureTable(P335, (0.0, 0.0, 0.0), 0.01, 2.0)
    for r in (0.05, 0.3, 1.1):
        want = centered_weight_integral(3, -0.6, r)
        assert t(r) == pytest.approx(want, rel=1e-3)
    toff = MeasureTable(P335, (0.7, 0.0, 0.0), 0.05, 1.5)
    assert toff.doubling_constant(0.5) < 100
    vals = toff(np.array([0.1, 0.8]))
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)


def test_lemma_a2_property_small_runs():
    out = lemma_a2_property_check(P335, alpha=0.5, beta=3.0, gamma=1.5,
                                  center=(0.0, 0.0, 0.0), r_lo=0.02, r_hi=1.0,
                                  n_trials=60, seed=42)
    assert out["violations"] == 0
    out2 = lemma_a2_property_check(P335, alpha=1.0, beta=2.5, gamma=2.0,
                                   center=(0.6, 0.0, 0.0), r_lo=0.05,
                                   r_hi=1.0, n_trials=40, seed=7)
    assert out2["violations"] == 0


def test_measure_table_doubling_constant_takes_an_array_of_tau():
    t = MeasureTable(P335, (0.7, 0.0, 0.0), 0.05, 1.5)
    taus = np.array([0.5, 0.1, 0.013])
    assert t.doubling_constant(taus).tolist() == [t.doubling_constant(x)
                                                  for x in taus.tolist()]
    assert isinstance(t.doubling_constant(0.5), float)


def _pair_needs(phi, w, radii, mu, alpha, beta):
    """The O(n^2) form: every grid pair rho_i <= r_j spelled out."""
    iu, ju = np.triu_indices(len(radii), k=0)
    t1 = (mu[iu] / mu[ju]) * (radii[iu] / radii[ju]) ** -alpha * phi[ju]
    t2 = mu[ju] * radii[ju] ** -beta
    with np.errstate(divide="ignore", invalid="ignore"):
        a1 = np.where(t1 > 0, w * phi[iu] / t1, 0.0)
    return float(np.max(a1)), float(np.max((1.0 - w) * phi[iu] / t2))


def test_running_maxima_match_the_pair_formula():
    rng = np.random.default_rng(9)
    radii = np.geomspace(0.02, 1.0, 80)
    table = MeasureTable(P335, (0.6, 0.0, 0.0), 0.005, 1.0)
    mu = table(radii)
    _, phi, w, _, _ = moser._draw_trials(rng, radii, 0.02, 1.0, 200, 64)
    phi[::7, :25] = 0.0  # zero prefixes besides the staircase profiles'
    phi[3::7, 30:60] = phi[3::7, 30:31]  # long plateaus
    assert np.sum(phi[:, 0] == 0) > 30
    a1, a2 = moser._hypothesis_needs(phi, w, mu * radii ** -0.7,
                                     mu * radii ** -2.6)
    for k in range(len(phi)):
        want1, want2 = _pair_needs(phi[k], w[k], radii, mu, 0.7, 2.6)
        assert a1[k] == pytest.approx(want1, rel=1e-13)
        assert a2[k] == pytest.approx(want2, rel=1e-13)


def _reference_phi(rng, radii):
    """One profile, drawn call by call as the per-trial loop did."""
    style = rng.integers(0, 3)
    if style == 0:  # power law with noise
        expo = rng.uniform(0.2, 3.5)
        base = radii ** expo
        jitter = np.exp(np.cumsum(rng.normal(0.0, 0.05, size=len(radii))))
        phi = base * np.maximum.accumulate(jitter * rng.uniform(0.5, 2.0))
    elif style == 1:  # random increments with plateaus
        inc = rng.exponential(1.0, size=len(radii))
        inc[rng.random(len(radii)) < 0.4] = 0.0
        phi = np.cumsum(inc)
    else:  # staircase
        steps = np.maximum.accumulate(
            rng.uniform(0.0, 1.0, size=len(radii)) *
            (rng.random(len(radii)) < 0.15))
        phi = steps * radii ** rng.uniform(0.5, 2.0)
        phi = np.maximum.accumulate(phi)
    return phi * rng.uniform(0.1, 10.0)


def _reference_trials(rng, radii, r_lo, r_hi, n_trials, n_pairs):
    """The per-trial loop that `_draw_trials` replaced: profile, then (an
    all-zero profile is skipped) split weight, r and rho."""
    kept, phi, w, r_chk, rho_chk = [], [], [], [], []
    for trial in range(n_trials):
        p = _reference_phi(rng, radii)
        if not (p > 0).any():
            continue
        kept.append(trial)
        phi.append(p)
        w.append(rng.uniform(0.2, 0.8))
        r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), n_pairs))
        r_chk.append(r)
        rho_chk.append(np.exp(rng.uniform(math.log(r_lo), np.log(r))))
    return (kept, np.reshape(phi, (-1, len(radii))), np.array(w),
            np.reshape(r_chk, (-1, n_pairs)), np.reshape(rho_chk, (-1, n_pairs)))


def _same_trials(seed, radii, n_trials):
    """Assert `_draw_trials` gives the reference's trials bit for bit and
    leaves the stream where the reference does; return the kept trials."""
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _reference_trials(ref_rng, radii, 0.02, 1.0, n_trials, 64)
    got = moser._draw_trials(rng, radii, 0.02, 1.0, n_trials, 64)
    assert got[0] == want[0]
    for g, x in zip(got[1:], want[1:]):
        assert g.shape == x.shape and g.tobytes() == x.tobytes()
    assert rng.random() == ref_rng.random()
    return got[0]


@pytest.mark.parametrize("n_radii", [80, 2])
def test_trial_draws_keep_the_per_trial_stream(n_radii):
    radii = np.geomspace(0.02, 1.0, n_radii)
    skipped = sum(60 - len(_same_trials(seed, radii, 60)) for seed in range(24))
    # with 80 radii an all-zero profile is practically impossible (0.85^80
    # for a staircase); with 2 radii about 30% of the profiles are skipped
    assert skipped == 0 if n_radii == 80 else skipped > 300


def test_trial_draws_with_no_trial_kept():
    assert _same_trials(1, np.geomspace(0.02, 1.0, 80), 0) == []
    # seed 485: all five profiles on a 2-radius grid are all zero
    assert _same_trials(485, np.geomspace(0.02, 1.0, 2), 5) == []
    out = lemma_a2_property_check(P335, 0.5, 3.0, 1.5, (0.0, 0.0, 0.0),
                                  0.02, 1.0, n_trials=0, seed=1)
    assert out == {"n_trials": 0, "violations": 0,
                   "worst_relative_margin": math.inf, "trials": []}


def test_first_overflowing_trial_raises(monkeypatch):
    def doubling_constant(self, tau):
        cd = np.full(len(tau), 1e300)
        cd[:2] = (10.0, 1e200)
        return cd

    monkeypatch.setattr(MeasureTable, "doubling_constant", doubling_constant)
    with pytest.raises(ParameterError) as exc:
        lemma_a2_property_check(P335, 0.5, 3.0, 1.5, (0.0, 0.0, 0.0),
                                0.02, 1.0, n_trials=6, seed=3)
    assert exc.value.code == "constant_overflow"
    assert str(exc.value) == ("C_d^3 overflows for doubling constant "
                              "1e+200")



# ---------------------------------------------------------------------------
# lookups by rank: the references are the `np.interp` forms they replaced

def _reference_table_call(self, r):
    """`MeasureTable.__call__` as `np.interp` in log-log, then the two
    end-slope extrapolations by `np.where`."""
    lx = np.log(np.asarray(r, float))
    ly = np.interp(lx, self._lx, self._ly)
    s_lo = (self._ly[1] - self._ly[0]) / (self._lx[1] - self._lx[0])
    s_hi = (self._ly[-1] - self._ly[-2]) / (self._lx[-1] - self._lx[-2])
    ly = np.where(lx < self._lx[0], self._ly[0] + s_lo * (lx - self._lx[0]), ly)
    ly = np.where(lx > self._lx[-1],
                  self._ly[-1] + s_hi * (lx - self._lx[-1]), ly)
    return np.exp(ly)


def _reference_interp_rows(x, xp, fp):
    """One `np.interp` call per row."""
    return np.reshape([np.interp(xi, xp, f) for xi, f in zip(x, fp)], x.shape)


def _stress_points(xp):
    """The table points, their float neighbours, points past both ends and
    a dense sweep over 1e-4...3."""
    return np.concatenate([xp, np.nextafter(xp, 0.0), np.nextafter(xp, np.inf),
                           [1e-300, 0.5 * xp[0], xp[-1] * 1.5, 3.0, 1e3],
                           np.geomspace(1e-4, 3.0, 4001)])


@pytest.mark.parametrize("r_lo, r_hi, n", [(0.005, 1.0, 120), (0.02, 1.0, 80),
                                           (0.02, 1.0, 2), (1e-6, 7.0, 33)])
def test_rank_is_searchsorted(r_lo, r_hi, n):
    xp = np.geomspace(r_lo, r_hi, n)
    x = _stress_points(xp)
    want = np.searchsorted(xp, x, "right")
    lx = np.log(xp)
    guess = (np.log(x) - lx[0]) * ((n - 1) / (lx[-1] - lx[0])) + 1.0
    # the floor of the guess from logs is off by at most one
    assert np.all(np.abs(np.floor(np.clip(guess, 0, n)) - want) <= 1)
    assert np.array_equal(moser._rank(x, xp, guess), want)
    for off in (-0.999, 0.0, 1.999):
        assert np.array_equal(moser._rank(x, xp, want + off), want)
    # ranked among the logs, as `MeasureTable` ranks
    assert np.array_equal(moser._rank(np.log(x), lx, guess),
                          np.searchsorted(lx, np.log(x), "right"))


@pytest.mark.parametrize("center, r_lo", [((0.0, 0.0, 0.0), 0.005),
                                          ((0.6, 0.0, 0.0), 0.005),
                                          ((0.3, -0.5, 0.2), 0.05)])
def test_measure_table_lookup_is_the_interp_formula(center, r_lo):
    t = MeasureTable(P335, center, r_lo, 1.0)
    r = _stress_points(t.radii)
    want = _reference_table_call(t, r)
    assert t(r).tobytes() == want.tobytes()
    taus = np.array([0.5, 0.3, 1e-3, 1e-9])
    assert (t(taus[:, None] * t.radii).tobytes()
            == _reference_table_call(t, taus[:, None] * t.radii).tobytes())
    for x in (r_lo, 1.0, 0.3, 1e-5, 2.0):
        assert t(x) == _reference_table_call(t, x)


def test_all_rows_interpolate_as_interp():
    rng = np.random.default_rng(4)
    radii = np.geomspace(0.02, 1.0, 80)
    _, phi, _, r, rho = moser._draw_trials(rng, radii, 0.02, 1.0, 60, 200)
    pairs = np.stack([rho, r], axis=1)
    pairs[:, 1, :3] = (1.0, np.nextafter(1.0, 0.0), 1.5)  # at and past r_hi
    pairs[:, 0, :4] = (0.02, np.nextafter(0.02, 0.0), 0.01, 1e-9)  # below r_lo
    pairs[:, 0, 4:84] = radii  # at every radius
    pairs[::2, 0, 84:164] = np.nextafter(radii, np.inf)
    pairs[1::2, 0, 84:164] = np.nextafter(radii, 0.0)
    phi[::5, 40:] = phi[::5, 40:41]  # plateaus
    want = _reference_interp_rows(pairs, radii, phi)
    assert moser._interp_rows(pairs, radii, phi).tobytes() == want.tobytes()


# (alpha, beta, gamma, center, seed): envelopes 0 and 1 of `lemma_a2_property`
# at seeds 1 and 103, and its envelope 6 at seed 103, whose proof constants
# overflow to inf and whose margins are nan
_ENVELOPES = [
    (0.8165502745803593, 3.8670718195075273, 1.4734120326807556,
     (0.0, 0.0, 0.0), 1),
    (1.4281092259921415, 2.5741899344581407, 1.9308503180794496,
     (0.6554051876408835, -0.18160172726167745, 0.09918737534611899), 2),
    (0.5377565258121265, 1.7022417169275588, 0.8237631513274817,
     (0.0, 0.0, 0.0), 103),
    (1.3042501038308052, 3.6871989336526747, 1.739972170744268,
     (-0.42182032573152073, 0.3231434782925795, 0.4025915272584826), 104),
    (0.20012668755848062, 0.7720629032492135, 0.2612306313504103,
     (0.0, 0.0, 0.0), 109),
]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("alpha, beta, gamma, center, seed", _ENVELOPES)
def test_lemma_a2_check_is_unchanged_by_the_lookups(monkeypatch, alpha, beta,
                                                    gamma, center, seed):
    def check():
        out = lemma_a2_property_check(P335, alpha, beta, gamma, center,
                                      0.02, 1.0, n_trials=50, seed=seed)
        return repr(out)  # nan margins compare equal as text

    got = check()
    monkeypatch.setattr(MeasureTable, "__call__", _reference_table_call)
    monkeypatch.setattr(moser, "_interp_rows", _reference_interp_rows)
    assert got == check()
    if seed == 109:
        assert "nan" in got and "inf" in got


def test_lemma_a2_run_constants_built_once(monkeypatch):
    """All envelopes checked with one `WeightParams` share its profile
    radii and one centred table, read-only; the results are those of
    fresh parameters."""
    params = validate(3, 0.3, 0.5, INF)
    built = []
    init = MeasureTable.__init__

    def counting_init(self, params, center, r_lo, r_hi):
        built.append(tuple(center))
        init(self, params, center, r_lo, r_hi)

    def check(params, center, seed):
        return repr(lemma_a2_property_check(params, 0.5, 3.0, 1.5, center,
                                            0.02, 1.0, n_trials=5, seed=seed))

    monkeypatch.setattr(MeasureTable, "__init__", counting_init)
    outs = [check(params, center, seed) for seed in (1, 2)
            for center in ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0))]
    assert built == [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.5, 0.0, 0.0)]
    assert outs == [check(validate(3, 0.3, 0.5, INF), center, seed)
                    for seed in (1, 2)
                    for center in ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0))]
    table = moser._centred_table(params, 0.005, 1.0)
    radii = moser._geometric_radii(params, 0.02, 1.0, 80)
    assert radii is moser._geometric_radii(params, 0.02, 1.0, 80)
    arrays = [radii] + [a for a in vars(table).values()
                        if isinstance(a, np.ndarray)]
    assert len(arrays) == 7 and not any(a.flags.writeable for a in arrays)
