"""Campanato-growth analysis: growth profiles, exponent fits, Hölder
quotients, and the end-to-end regularity report comparing the measured
growth exponent against the a-priori Hölder bound.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridError, ParameterError
from .fields import DiscreteField, ball_cell_weights, dirichlet_energy
from .measure import BallSpec, _line_fit, ball_measure, weighted_mean
from .params import HolderBound, WeightParams, holder_bound, validate

# Node pairs `holder_quotient` evaluates at once: its working memory is
# O(n + _PAIR_BLOCK) for n nodes, not one array entry per pair.
_PAIR_BLOCK = 1 << 14
_ALPHA_SLACK = 0.1  # how far below the predicted sup a measured alpha passes


class ProfileKind(enum.Enum):
    campanato = "campanato"
    gradient_energy = "gradient_energy"


@dataclass(frozen=True)
class GrowthProfile:
    center: tuple
    radii: tuple  # strictly decreasing positive reals
    values: tuple  # one nonnegative value per radius
    kind: ProfileKind

    def __post_init__(self):
        r = self.radii
        if any(b >= a for a, b in zip(r, r[1:])):
            raise ParameterError("radii_not_decreasing",
                                 "radii must be strictly decreasing")
        if not all(math.isfinite(v) for v in self.values):
            raise ParameterError("nonfinite_profile", "profile values must be finite")


class FitResult(NamedTuple):
    exponent: float
    log_constant: float
    rms_residual: float
    clamped: bool = False


class RegularityReport(NamedTuple):
    alpha_measured: float
    alpha_predicted_sup: float
    limiting_branch: str
    holder_seminorm: float
    sup_norm: float
    passed: bool


# ---------------------------------------------------------------------------
# profiles

def _ball_family(center, radii):
    return [BallSpec(tuple(center), float(r)) for r in radii]


def campanato_profile(params: WeightParams, field: DiscreteField, center,
                      radii) -> GrowthProfile:
    """values[i] = int_{B_ri} |u - mean_{B_ri} u|^2 dmu_a."""
    vals = []
    for ball in _ball_family(center, radii):
        w = ball_cell_weights(field.grid, params.N, -2.0 * params.a, ball)
        m = weighted_mean(field.values, w)
        vals.append(float((field.values - m) ** 2 @ w))
    return GrowthProfile(center=tuple(center),
                         radii=tuple(float(r) for r in radii),
                         values=tuple(vals), kind=ProfileKind.campanato)


def gradient_profile(params: WeightParams, field: DiscreteField, center,
                     radii) -> GrowthProfile:
    """values[i] = int_{B_ri} |grad u|^2 dmu_a."""
    vals = [dirichlet_energy(params, field, ball)
            for ball in _ball_family(center, radii)]
    return GrowthProfile(center=tuple(center),
                         radii=tuple(float(r) for r in radii),
                         values=tuple(vals), kind=ProfileKind.gradient_energy)


# ---------------------------------------------------------------------------
# fitting

def fit_growth(profile: GrowthProfile, params: WeightParams | None = None,
               normalization: str = "measure_normalized") -> FitResult:
    """Log-log slope of the profile; Hölder-exponent readout per kind.

    Under `measure_normalized` the values are divided by mu_a(B_r) first
    and the exponent returned is the Hölder alpha: slope/2 for campanato
    profiles, (slope + 2)/2 for gradient-energy profiles.  Under `raw`
    the exponent is the bare log-log slope.  Fits with alpha > 1 are
    clamped to 1 and flagged.
    """
    if normalization not in ("raw", "measure_normalized"):
        raise ParameterError("invalid_normalization", normalization)
    radii = np.asarray(profile.radii, float)
    vals = np.asarray(profile.values, float)
    if normalization == "measure_normalized":
        if params is None:
            raise ParameterError("missing_params",
                                 "measure_normalized needs weight parameters")
        mus = np.array([ball_measure(params, b)
                        for b in _ball_family(profile.center, radii)])
        vals = vals / mus
    keep = vals > 0.0
    radii, vals = radii[keep], vals[keep]
    if len(radii) < 3:
        raise ParameterError("insufficient_points",
                             f"{len(radii)} positive profile points; need 3")
    x, y = np.log(radii), np.log(vals)
    slope, intercept = _line_fit(x, y)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    if normalization == "raw":
        expo = slope
        clamped = False
    elif profile.kind is ProfileKind.campanato:
        expo = slope / 2.0
        clamped = expo > 1.0
        expo = min(expo, 1.0) if clamped else expo
    else:
        expo = (slope + 2.0) / 2.0
        clamped = expo > 1.0
        expo = min(expo, 1.0) if clamped else expo
    return FitResult(exponent=expo, log_constant=intercept,
                     rms_residual=rms, clamped=clamped)


# ---------------------------------------------------------------------------
# Hölder quotient

def _row_blocks(n: int):
    """Every pair i < j of n nodes, as broadcasting index blocks of about
    `_PAIR_BLOCK` pairs (one row at least): rows [a, b) against the nodes
    a+1..n-1.  A block also holds its j <= i corner, whose pairs j < i
    repeat pairs met before and whose i == j are masked."""
    a = 0
    while a < n - 1:
        b = min(n - 1, a + max(1, _PAIR_BLOCK // (n - 1 - a)))
        yield np.arange(a, b)[:, None], np.arange(a + 1, n)
        a = b


def _max_quotient(pts: np.ndarray, vals: np.ndarray, i: np.ndarray,
                  j: np.ndarray, alpha: float) -> float:
    """max of |u_i - u_j| / |x_i - x_j|^alpha over the index arrays i, j
    (broadcast together), with i == j masked before the division."""
    dist = np.linalg.norm(pts[i] - pts[j], axis=-1)
    num = np.abs(vals[i] - vals[j])
    # the quotients are >= 0, so a masked 0 never raises the max
    return np.divide(num, dist ** alpha, out=np.zeros_like(num),
                     where=i != j).max()


def holder_quotient(field: DiscreteField, subdomain_margin: float,
                    alpha: float, seed: int = 0, max_exact: int = 3600,
                    n_pairs: int = 2_000_000):
    """Max of |u(x)-u(y)| / |x-y|^alpha over node pairs in the margin-shrunk
    subdomain, plus the sup norm there.

    All pairs are used up to `max_exact` nodes, where their n(n-1)/2 cost
    no more than 2,000,000 sampled ones (about 9.5 ns a pair against 30
    ns); beyond that a seeded random sample of `n_pairs` pairs (i and j
    drawn whole, in that order, pairs with i == j dropped).  Either way the pairs are taken
    `_PAIR_BLOCK` at a time under a running max, which is exact, so the
    seminorm does not depend on the block size.
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError("invalid_alpha", f"alpha={alpha} not in (0,1]")
    keep = field.grid.interior_mask(subdomain_margin)
    if keep.sum() < 2:
        raise GridError("empty_subdomain",
                        f"margin {subdomain_margin} leaves {int(keep.sum())} nodes")
    pts = field.grid.node_coords()[keep]
    vals = field.values[keep]
    n = len(pts)
    if n <= max_exact:
        blocks = _row_blocks(n)
    else:
        rng = np.random.default_rng(seed)
        # the same values as int64 draws, at half the memory
        i = rng.integers(0, n, size=n_pairs, dtype=np.int32)
        j = rng.integers(0, n, size=n_pairs, dtype=np.int32)
        blocks = ((i[s:s + _PAIR_BLOCK], j[s:s + _PAIR_BLOCK])
                  for s in range(0, n_pairs, _PAIR_BLOCK))
    seminorm = 0.0
    for bi, bj in blocks:  # np.maximum, as np.max, keeps a nan
        seminorm = np.maximum(seminorm, _max_quotient(pts, vals, bi, bj, alpha))
    return {"seminorm": float(seminorm),
            "sup_norm": float(np.abs(vals).max())}


# ---------------------------------------------------------------------------
# report

def default_radii(grid, center):
    """Geometric radii ladder halving from dist(center, boundary)/2 down
    to 8 cells (`grid.room`)."""
    top, h = grid.room(center)
    r = top / 2.0
    out = []
    while r >= 8.0 * h:
        out.append(r)
        r *= 0.5
    if len(out) < 3:
        raise GridError("ball_too_small",
                        f"radii ladder has {len(out)} rungs; refine the grid")
    return out


def regularity_report(params: WeightParams, u: DiscreteField,
                      f: DiscreteField | None, s_used: float, center, radii,
                      alpha_h_est: float, seed: int = 0) -> RegularityReport:
    """Measured Campanato growth of u vs the predicted Hölder exponent sup."""
    prof = gradient_profile(params, u, center, radii)
    fit = fit_growth(prof, params, "measure_normalized")
    alpha_measured = fit.exponent
    p_reg = validate(params.N, params.a, params.b, s_used, for_regularity=True)
    hb: HolderBound = holder_bound(p_reg, alpha_h_est)
    alpha_q = max(min(alpha_measured, hb.alpha_sup) * 0.95, 1e-6)
    hq = holder_quotient(u, 0.1 * u.grid.width, alpha_q, seed=seed)
    passed = alpha_measured >= hb.alpha_sup - _ALPHA_SLACK
    return RegularityReport(alpha_measured=alpha_measured,
                            alpha_predicted_sup=hb.alpha_sup,
                            limiting_branch=hb.limiting_branch.name,
                            holder_seminorm=hq["seminorm"],
                            sup_norm=hq["sup_norm"], passed=passed)

