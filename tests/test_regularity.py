import math

import numpy as np
import pytest

from cknlab import regularity
from cknlab.errors import GridError, ParameterError
from cknlab.fields import BoxGrid, DiscreteField, RadialGrid
from cknlab.measure import _line_fit
from cknlab.params import INF, validate
from cknlab.regularity import (FitResult, GrowthProfile, ProfileKind,
                               campanato_profile, default_radii, fit_growth,
                               gradient_profile, holder_quotient,
                               regularity_report)
from cknlab.solver import assemble, exact_radial_mms, solve

P300 = validate(3, 0.0, 0.0, INF)


def test_campanato_constant_zero():
    grid = RadialGrid(0.0, 1.0, 256)
    u = DiscreteField(grid=grid, values=np.full(256, 5.0))
    prof = campanato_profile(P300, u, (0.0,), [0.4, 0.2, 0.1])
    assert all(abs(v) < 1e-20 for v in prof.values)


def test_campanato_linear_field_moment_oracle():
    # u = x1, a=0: value(r) = |B_r| r^2 / (N+2)
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (40, 40, 40))
    u = DiscreteField.from_function(grid, lambda p: p[:, 0])
    radii = [0.8, 0.55, 0.4]
    prof = campanato_profile(P300, u, (0, 0, 0), radii)
    for r, v in zip(radii, prof.values):
        want = (4 * math.pi / 3) * r ** 3 * r ** 2 / 5.0
        assert v == pytest.approx(want, rel=0.03)
    fit = fit_growth(prof, P300, "measure_normalized")
    assert fit.exponent == pytest.approx(1.0, abs=0.03)


def test_gradient_profile_linear_and_mms():
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (32, 32, 32))
    u = DiscreteField.from_function(grid, lambda p: p[:, 0])
    prof = gradient_profile(P300, u, (0, 0, 0), [0.8, 0.6, 0.45])
    raw = fit_growth(prof, None, "raw")
    assert raw.exponent == pytest.approx(3.0, abs=0.15)
    norm = fit_growth(prof, P300, "measure_normalized")
    assert norm.exponent == pytest.approx(1.0, abs=0.08)
    # radial MMS: energy over B_r equals 4 pi r^5 / 45
    rg = RadialGrid(0.0, 1.0, 1024)
    mms = DiscreteField.from_function(rg, lambda r: (1 - r ** 2) / 6)
    gprof = gradient_profile(P300, mms, (0.0,), [0.5, 0.35, 0.25])
    for r, v in zip(gprof.radii, gprof.values):
        assert v == pytest.approx(4 * math.pi * r ** 5 / 45, rel=0.01)


def test_fit_growth_synthetic_clamped():
    params = P300
    radii = [0.4, 0.2, 0.1, 0.05]
    from cknlab.measure import centered_weight_integral
    mu = [centered_weight_integral(3, 0.0, r) for r in radii]
    mu1 = centered_weight_integral(3, 0.0, 1.0)
    vals = [r ** 2.6 * m / mu1 for r, m in zip(radii, mu)]
    prof = GrowthProfile(center=(0.0,), radii=tuple(radii), values=tuple(vals),
                         kind=ProfileKind.campanato)
    fit = fit_growth(prof, params, "measure_normalized")
    assert fit.clamped
    assert fit.exponent == 1.0


def test_fit_growth_insufficient_points():
    prof = GrowthProfile(center=(0.0,), radii=(0.4, 0.2, 0.1),
                         values=(0.0, 0.0, 1.0), kind=ProfileKind.campanato)
    with pytest.raises(ParameterError) as exc:
        fit_growth(prof, P300, "measure_normalized")
    assert exc.value.code == "insufficient_points"


def test_line_fit_matches_polyfit():
    """The closed-form least-squares line of `fit_growth` and
    `estimate_alpha_h`, and its rms residual, are `np.polyfit(x, y, 1)`'s
    to round-off on random data, exact on exact lines, and it refuses a
    constant abscissa, where `polyfit` only warns."""
    rng = np.random.default_rng(3)
    for n in (2, 3, 7, 12, 40):
        x = np.log(rng.uniform(0.01, 1.0, n))
        y = rng.normal(size=n)
        slope, intercept, rms = _line_fit(x, y)
        ref = np.polyfit(x, y, 1)
        assert abs(slope - ref[0]) <= 1e-12 * max(1.0, abs(ref[0]))
        assert abs(intercept - ref[1]) <= 1e-12 * max(1.0, abs(ref[1]))
        ref_rms = math.sqrt(np.mean((y - np.polyval(ref, x)) ** 2))
        assert abs(rms - ref_rms) <= 1e-12 * max(1.0, ref_rms)
    x = np.array([-1.5, 0.0, 1.0, 2.0, 6.0])  # every step exact in floats
    for slope, intercept in ((0.5, -2.0), (-1.25, 0.75), (0.0, 3.0)):
        assert _line_fit(x, slope * x + intercept) == (slope, intercept, 0.0)
    with pytest.raises(ParameterError) as exc:
        _line_fit(np.full(4, 0.3), [1.0, 2.0, 3.0, 4.0])
    assert exc.value.code == "degenerate_fit"


def test_holder_quotient_examples():
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (12, 12, 12))
    const = DiscreteField.from_function(grid, lambda p: np.full(len(p), 1.5))
    assert holder_quotient(const, 0.1, 0.7)["seminorm"] == 0.0
    lin = DiscreteField.from_function(grid, lambda p: p[:, 0])
    out = holder_quotient(lin, 0.1, 1.0)
    assert out["seminorm"] == pytest.approx(1.0, rel=1e-12)
    # u = sqrt(r): exact alpha=1/2 seminorm is 1, attained through 0
    rg = RadialGrid(0.0, 1.0, 1500)
    sq = DiscreteField.from_function(rg, np.sqrt)
    out2 = holder_quotient(sq, 0.0, 0.5)
    assert out2["seminorm"] <= 1.0 + 1e-9
    assert out2["seminorm"] == pytest.approx(1.0, rel=0.02)


def test_holder_quotient_sampled_pairs_deterministic(monkeypatch):
    rng = np.random.default_rng(3)
    grid = RadialGrid(0.0, 1.0, 4500)  # 4050 > 3600 nodes: sampled path
    u = DiscreteField(grid=grid, values=np.cumsum(rng.normal(size=4500)) * 1e-3)
    assert int(grid.interior_mask(0.05).sum()) == 4050
    monkeypatch.setattr(regularity, "_N_PAIRS", 200_000)
    a = holder_quotient(u, 0.05, 0.5, seed=9)
    b = holder_quotient(u, 0.05, 0.5, seed=9)
    assert a == b
    # the whole sample at once, and by odd, default and oversized slices
    for seed in (0, 9):
        want = _reference_holder_quotient(u, 0.05, 0.5, seed=seed,
                                          n_pairs=200_000)
        for block in (1001, regularity._PAIR_BLOCK, 10 ** 6):
            monkeypatch.setattr(regularity, "_PAIR_BLOCK", block)
            got = holder_quotient(u, 0.05, 0.5, seed=seed)
            assert got == want, (seed, block)


def test_holder_quotient_takes_all_pairs_up_to_3600_nodes(monkeypatch):
    """3276 kept nodes (grid.n = 4096) take all 5.4 million pairs, which
    cost no more than the sample and find the max the sample misses."""
    u = DiscreteField.from_function(RadialGrid(0.0, 1.0, 4096), np.sqrt)
    assert int(u.grid.interior_mask(0.1).sum()) == 3276
    got = holder_quotient(u, 0.1, 0.5, seed=1)["seminorm"]
    monkeypatch.setattr(regularity, "_MAX_EXACT", 0)
    sampled = holder_quotient(u, 0.1, 0.5, seed=1)["seminorm"]
    assert got == 0.7067832364227635 > sampled


def _reference_holder_quotient(field, subdomain_margin, alpha, seed=0,
                               max_exact=2000, n_pairs=2_000_000):
    """`holder_quotient` as it was before the pairs went by blocks: every
    pair (or the whole sample) as one array."""
    keep = field.grid.interior_mask(subdomain_margin)
    pts = field.grid.node_coords()[keep]
    vals = field.values[keep]
    n = len(pts)
    if n <= max_exact:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=n_pairs)
        j = rng.integers(0, n, size=n_pairs)
        ok = i != j
        i, j = i[ok], j[ok]
    dist = np.linalg.norm(pts[i] - pts[j], axis=1)
    quot = np.abs(vals[i] - vals[j]) / dist ** alpha
    return {"seminorm": float(quot.max()),
            "sup_norm": float(np.abs(vals).max())}


def _radial(n, kind):
    grid = RadialGrid(0.0, 1.0, n)
    if kind == "noisy":
        rng = np.random.default_rng(n)
        return DiscreteField(grid=grid,
                             values=np.cumsum(rng.normal(size=n)) * 1e-2)
    fn = {"constant": lambda r: np.full_like(r, 1.5), "sqrt": np.sqrt}[kind]
    return DiscreteField.from_function(grid, fn)


def _box(kind):
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (12, 12, 12))
    x0 = np.array([0.2, -0.1, 0.05])
    fn = {"linear": lambda p: p[:, 0] - 2.0 * p[:, 2],
          "sqrt": lambda p: np.linalg.norm(p - x0, axis=1) ** 0.5}[kind]
    return DiscreteField.from_function(grid, fn)


# at margin 0.1, n = 512 and 2400 keep 410 and 1920 nodes, the box 12^3 1000
EXACT_FIELDS = {f"radial{n}_{kind}": (lambda n=n, kind=kind: _radial(n, kind))
                for n in (512, 2400) for kind in ("constant", "sqrt", "noisy")}
EXACT_FIELDS.update({f"box12_{kind}": (lambda kind=kind: _box(kind))
                     for kind in ("linear", "sqrt")})


@pytest.mark.parametrize("name", sorted(EXACT_FIELDS))
def test_holder_quotient_blocks_equal_all_pairs(name, monkeypatch):
    """Bit-equal seminorm and sup norm for blocks of one row, an odd size,
    the default and more than all pairs."""
    u = EXACT_FIELDS[name]()
    n_kept = int(u.grid.interior_mask(0.1).sum())
    assert n_kept in (410, 1920, 1000)
    for alpha in (0.3, 0.5, 1.0):
        want = _reference_holder_quotient(u, 0.1, alpha)
        for block in (1, 1001, regularity._PAIR_BLOCK, n_kept ** 2):
            monkeypatch.setattr(regularity, "_PAIR_BLOCK", block)
            assert holder_quotient(u, 0.1, alpha) == want, (alpha, block)


@pytest.mark.parametrize("n", [2001, 3277, 1 << 20])
def test_int32_pair_draws_equal_int64_draws(n):
    """`holder_quotient` draws its sampled pairs as int32, which on this
    numpy are the int64 draws' values, so the sample is the same."""
    for seed in (0, 9):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (200_001, 2_000_000):
            assert np.array_equal(a.integers(0, n, size=size, dtype=np.int32),
                                  b.integers(0, n, size=size))


def test_holder_quotient_errors():
    grid = RadialGrid(0.0, 1.0, 64)
    u = DiscreteField.from_function(grid, lambda r: r)
    with pytest.raises(GridError) as exc:
        holder_quotient(u, 0.6, 0.5)
    assert exc.value.code == "empty_subdomain"
    with pytest.raises(ParameterError):
        holder_quotient(u, 0.1, 1.5)


def test_default_radii_ladder():
    grid = RadialGrid(0.0, 1.0, 512)
    radii = default_radii(grid, (0.0,))
    assert radii[0] == pytest.approx(0.5)
    assert all(b == pytest.approx(a / 2) for a, b in zip(radii, radii[1:]))
    assert radii[-1] >= 8.0 / 512


def test_regularity_report_classical_mms():
    grid = RadialGrid(0.0, 1.0, 512)
    f = DiscreteField.from_function(grid, lambda r: np.ones_like(r))
    u, rep = solve(assemble(P300, grid, f, dirichlet=0.0))
    assert rep.converged
    radii = default_radii(grid, (0.0,))
    report = regularity_report(P300, u, (0.0,), radii, alpha_h_est=1.0)
    assert report.alpha_measured == pytest.approx(1.0, abs=0.05)
    assert report.alpha_predicted_sup == 1.0
    assert report.limiting_branch == "unit"
    assert report.passed


def test_constructed_holder_field_radial_reduction():
    # a = 0: weight trivial, so |x - x0|^{1/2} around x0 reduces to the
    # radial profile sqrt(r) around a centered origin
    grid = RadialGrid(0.0, 1.0, 4096)
    u = DiscreteField.from_function(grid, np.sqrt)
    radii = default_radii(grid, (0.0,))
    prof = campanato_profile(P300, u, (0.0,), radii)
    fit = fit_growth(prof, P300, "measure_normalized")
    assert fit.exponent == pytest.approx(0.5, abs=0.05)


def test_constructed_holder_field_box():
    grid = BoxGrid((-1, -1, -1), (1, 1, 1), (48, 48, 48))
    x0 = np.array([0.25, 0.15, -0.1])
    u = DiscreteField.from_function(
        grid, lambda p: np.linalg.norm(p - x0, axis=1) ** 0.5)
    radii = [0.35, 0.25, 0.18, 0.13]
    prof = campanato_profile(P300, u, tuple(x0), radii)
    fit = fit_growth(prof, P300, "measure_normalized")
    assert fit.exponent == pytest.approx(0.5, abs=0.1)


def test_campanato_gradient_consistency_smooth():
    grid = RadialGrid(0.0, 1.0, 2048)
    u = DiscreteField.from_function(grid, lambda r: np.cos(2 * r))
    radii = [0.4, 0.28, 0.2, 0.14, 0.1]
    ca = fit_growth(campanato_profile(P300, u, (0.0,), radii), P300,
                    "measure_normalized")
    gr = fit_growth(gradient_profile(P300, u, (0.0,), radii), P300,
                    "measure_normalized")
    assert abs(ca.exponent - gr.exponent) <= 0.1
